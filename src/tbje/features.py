"""Feature front-ends: word tokenization with pretrained embeddings for the
linguistic modality, log-mel spectrograms for the acoustic modality, and the
padding/masking step that turns variable-length sequences into fixed-shape
batches. Visual features are ingested as-is, never computed here.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import re
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ContractError, DataWarning

PAD_TOKEN = "pad"
UNK_TOKEN = "unk"
PAD_INDEX = 0
UNK_INDEX = 1
EMBEDDING_DIM = 300

# unicode letters and digits survive; punctuation, symbols and underscores
# act as separators
_WORD = re.compile(r"[^\W_]+", re.UNICODE)
# what errors="surrogateescape" decodes a byte that is not UTF-8 to
_UNDECODED = re.compile("[\udc80-\udcff]")


def tokenize(utterance: str) -> list[str]:
    """Lowercase word tokens with punctuation and special characters stripped.

    An utterance with no tokens yields a single unk so downstream batches
    always have at least one valid row.
    """
    tokens = _WORD.findall(utterance.lower())
    if not tokens:
        warnings.warn("utterance produced no tokens; substituting unk",
                      DataWarning, stacklevel=2)
        return [UNK_TOKEN]
    return tokens


@dataclass
class Vocabulary:
    """Train-split token table plus its pretrained embedding rows.

    Index 0 is the padding token (all-zero row), index 1 the unknown token.
    ``fallback_count`` records how many train tokens were missing from the
    embedding file and received the zero-vector fallback.
    """

    tokens: list[str]
    embeddings: np.ndarray
    fallback_count: int = 0
    index_of: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.embeddings = np.asarray(self.embeddings, dtype=np.float64)
        if self.embeddings.shape != (len(self.tokens), EMBEDDING_DIM):
            raise ConfigError(
                f"embedding matrix shape {self.embeddings.shape} does not "
                f"match {len(self.tokens)} tokens x {EMBEDDING_DIM}")
        if self.tokens[:2] != [PAD_TOKEN, UNK_TOKEN]:
            raise ConfigError("vocabulary must reserve indices 0/1 for pad/unk")
        self.index_of = {t: i for i, t in enumerate(self.tokens)}

    def __len__(self):
        return len(self.tokens)

    def lookup(self, token: str) -> int:
        return self.index_of.get(token, UNK_INDEX)

    def embed(self, tokens: list[str]) -> np.ndarray:
        """Embedding rows for a token sequence, (len, 300)."""
        return self.embeddings[[self.lookup(t) for t in tokens]]

    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(json.dumps(self.tokens, ensure_ascii=False).encode("utf-8"))
        h.update(b"\0")
        h.update(np.ascontiguousarray(self.embeddings).tobytes())
        return h.hexdigest()


def not_utf8_error(path, what: str) -> ConfigError:
    """The error to raise when the text file at ``path`` (``what`` names
    it) fails to decode as UTF-8; it gives, as ``path:line``, the first
    line that is not UTF-8."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if _UNDECODED.search(line):
                break
    return ConfigError(f"{path}:{lineno}: {what} is not UTF-8")


def read_embedding_file(path, wanted: set[str]) -> dict[str, np.ndarray]:
    """Parse a text embedding file (token then 300 decimals per line),
    keeping only tokens in ``wanted``.

    A line is judged by its token alone. Only the first line of a wanted
    token is split and parsed, and it must hold 300 finite values; the
    lines of other tokens and later copies of a kept one are skipped
    unread, malformed or not.
    """
    found: dict[str, np.ndarray] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                token, sep, rest = line.rstrip("\n").partition(" ")
                if token not in wanted or token in found:
                    continue
                values = rest.split(" ") if sep else []
                if len(values) != EMBEDDING_DIM:
                    raise ConfigError(
                        f"{path}:{lineno}: expected {EMBEDDING_DIM} values "
                        f"for token {token!r}, got {len(values)}")
                try:
                    row = np.array(values, dtype=np.float64)
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: token {token!r}: "
                                      f"{exc}") from None
                if not np.isfinite(row).all():
                    raise ConfigError(f"{path}:{lineno}: token {token!r} has "
                                      f"a non-finite value")
                found[token] = row
    except UnicodeDecodeError:
        raise not_utf8_error(path, "embedding file") from None
    return found


def build_vocabulary(train_token_lists, embedding_path) -> Vocabulary:
    """Index every distinct training token (sorted for determinism) and pull
    its embedding row; missing tokens get the zero-vector fallback."""
    distinct = sorted({t for toks in train_token_lists for t in toks}
                      - {PAD_TOKEN, UNK_TOKEN})
    tokens = [PAD_TOKEN, UNK_TOKEN] + distinct
    rows = read_embedding_file(embedding_path, set(distinct))
    matrix = np.zeros((len(tokens), EMBEDDING_DIM))
    fallback = 0
    for i, tok in enumerate(tokens[2:], start=2):
        if tok in rows:
            matrix[i] = rows[tok]
        else:
            fallback += 1
    if fallback:
        warnings.warn(f"{fallback} train tokens missing from the embedding "
                      f"file use the zero-vector fallback", DataWarning,
                      stacklevel=2)
    return Vocabulary(tokens=tokens, embeddings=matrix, fallback_count=fallback)


# ---------------------------------------------------------------------------
# acoustic front-end
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MelConfig:
    sample_rate: int = 22050
    n_fft: int = 2048
    hop: int = 256
    window: int = 1024
    bands: int = 80
    stride: int = 16          # keep one STFT frame out of every `stride`
    floor: float = 1e-5       # log-compression floor

    def __post_init__(self):
        for key in ("sample_rate", "hop", "window", "bands", "stride"):
            if getattr(self, key) < 1:
                raise ConfigError(f"mel.{key} must be >= 1, got "
                                  f"{getattr(self, key)}")
        if self.n_fft < self.window:
            raise ConfigError(f"mel.n_fft must be >= mel.window, got "
                              f"{self.n_fft} and {self.window}")
        if not 0.0 < self.floor < float("inf"):
            raise ConfigError(f"mel.floor must be a finite number > 0, got "
                              f"{self.floor}")


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=8)
def mel_filter_bank(cfg: MelConfig) -> np.ndarray:
    """Triangular filters (bands x n_fft//2+1) with band edges equally spaced
    on the mel scale from 0 Hz to Nyquist.

    Built once per config and shared by every caller, so it is read-only.
    """
    n_bins = cfg.n_fft // 2 + 1
    bin_hz = np.arange(n_bins) * cfg.sample_rate / cfg.n_fft
    edges = mel_to_hz(np.linspace(0.0, hz_to_mel(cfg.sample_rate / 2.0),
                                  cfg.bands + 2))
    bank = np.zeros((cfg.bands, n_bins))
    for b in range(cfg.bands):
        lo, center, hi = edges[b], edges[b + 1], edges[b + 2]
        rising = (bin_hz - lo) / (center - lo)
        falling = (hi - bin_hz) / (hi - center)
        bank[b] = np.maximum(0.0, np.minimum(rising, falling))
    bank.flags.writeable = False
    return bank


@functools.lru_cache(maxsize=8)
def hann_window(size: int) -> np.ndarray:
    """The periodic Hann window of ``size`` samples, bit for bit scipy's
    ``hann(size, sym=False)``, built once per size and shared, so read-only."""
    window = (np.ones(1) if size == 1 else
              0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, size + 1)[:-1]))
    window.flags.writeable = False
    return window


def stft_magnitudes(wave: np.ndarray, cfg: MelConfig,
                    stride: int = 1) -> np.ndarray:
    """Hann-windowed magnitude spectra of the frames that start every
    ``hop * stride`` samples; no centering. ``stride=1`` gives one row per
    hop, and any stride gives exactly those rows of it.

    A waveform shorter than one window is zero-padded to a single frame.
    """
    wave = np.asarray(wave, dtype=np.float64)
    if wave.ndim != 1 or wave.size == 0:
        raise ContractError("waveform must be a non-empty 1-d array")
    if wave.size < cfg.window:
        warnings.warn("waveform shorter than one analysis window; "
                      "zero-padding to a single frame", DataWarning,
                      stacklevel=2)
        wave = np.pad(wave, (0, cfg.window - wave.size))
    frames = sliding_window_view(wave, cfg.window)[::cfg.hop * stride]
    return np.abs(np.fft.rfft(frames * hann_window(cfg.window),
                              n=cfg.n_fft, axis=-1))


def mel_spectrogram(wave: np.ndarray, cfg: MelConfig | None = None) -> np.ndarray:
    """Log-mel frames after temporal reduction, (ceil(frames/stride), bands).

    Only the kept STFT frames, every ``stride``-th hop, are computed. Values
    are natural logs floored at cfg.floor; corpus-level normalization to
    [0, 1] happens at bundle-build time, not here.
    """
    cfg = cfg or MelConfig()
    spectra = stft_magnitudes(wave, cfg, cfg.stride)
    mel = spectra @ mel_filter_bank(cfg).T
    return np.log(np.maximum(mel, cfg.floor))


def normalize_mel(frames: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Map log-mel values into [0, 1] using train-split extrema; out-of-range
    values from other splits are clipped."""
    if not hi > lo:
        raise ConfigError(f"normalization range [{lo}, {hi}] is empty")
    return np.clip((np.asarray(frames, dtype=np.float64) - lo) / (hi - lo),
                   0.0, 1.0)


def resample_linear(wave: np.ndarray, rate_in: int, rate_out: int) -> np.ndarray:
    """Linear-interpolation resampler; adequate for speech features, not for
    hi-fi use (no anti-aliasing filter)."""
    wave = np.asarray(wave, dtype=np.float64)
    if rate_in == rate_out:
        return wave
    if rate_in < 1 or rate_out < 1:
        raise ConfigError("sample rates must be positive")
    duration = wave.size / rate_in
    n_out = max(1, int(round(duration * rate_out)))
    t_out = np.arange(n_out) / rate_out
    t_in = np.arange(wave.size) / rate_in
    return np.interp(t_out, t_in, wave)


# the subformat GUID {XXXXXXXX-0000-0010-8000-00AA00389B71} after its tag
_GUID_TAIL = {o: struct.pack(o + "HH", 0, 16) + bytes.fromhex("800000aa00389b71")
              for o in "<>"}


def read_wav(path) -> tuple[int, np.ndarray]:
    """The sample rate and samples of a RIFF, RIFX or RF64 WAV file, as
    ``scipy.io.wavfile.read`` gives them: PCM of 1-8 bits in 1-byte
    containers as uint8, wider PCM left-justified in the smallest signed
    type that holds its 1-8-byte container, 32/64-bit float as stored, in
    the file's byte order, one column per channel if there are several. A
    data chunk cut short keeps its whole frames, with a DataWarning; other
    encodings raise ValueError. Among them are 1-8-bit PCM in a wider
    container (which scipy reads pad bytes and all) and more bits than the
    container holds (which scipy reads as a narrower type).
    """
    with open(path, "rb") as fh:
        head = fh.read(12)
        if head[:4] not in (b"RIFF", b"RIFX", b"RF64") or head[8:] != b"WAVE":
            raise ValueError(f"header {head!r} is not RIFF/RIFX/RF64 WAVE")
        o = ">" if head[:4] == b"RIFX" else "<"
        end, rf64 = struct.unpack(o + "I", head[4:8])[0] + 8, None
        if head[:4] == b"RF64":
            ds64 = fh.read(24)
            if len(ds64) < 24 or ds64[:4] != b"ds64":
                raise ValueError("RF64 file without a ds64 chunk")
            skip, end, rf64 = struct.unpack("<IQQ", ds64[4:])
            end += 8
            fh.seek(skip - 16, 1)
        fmt = found = None
        while fh.tell() < end and len(chunk := fh.read(8)) == 8:
            cid, size = struct.unpack(o + "4sI", chunk)
            start = fh.tell()
            if cid == b"fmt ":
                fmt = fh.read(size)
            elif cid == b"data":
                if fmt is None:
                    raise ValueError("data chunk before the fmt chunk")
                size = size if rf64 is None else rf64
                found = fmt, start, size
            fh.seek(start + size + size % 2)
        if found is None:
            raise ValueError("no data chunk")
        fmt, start, size = found
        if len(fmt) < 16:
            raise ValueError(f"fmt chunk of {len(fmt)} bytes")
        tag, channels, rate, byte_rate, align, bits = struct.unpack_from(
            o + "HHIIHH", fmt)
        if tag == 0xFFFE and fmt[28:40] == _GUID_TAIL[o]:
            tag = struct.unpack_from(o + "I", fmt, 24)[0]
        if channels < 1 or align < channels:
            raise ValueError(f"{channels} channels in {align}-byte blocks")
        if tag == 1 and byte_rate != rate * align:
            raise ValueError(f"PCM byte rate {byte_rate} != {rate} x {align}")
        width = align // channels
        if tag == 1 and 1 <= bits <= 8 and width == 1:
            dtype = np.dtype("u1")
        elif bits <= 8 * width and (tag == 1 and 8 < bits and width <= 8
                                    or tag == 3 and bits in (32, 64)
                                    and width in (4, 8)):
            dtype = np.dtype(f"{o}{'f' if tag == 3 else 'i'}"
                             f"{1 << (width - 1).bit_length()}")
        else:
            raise ValueError(f"unsupported encoding: format tag {tag:#06x}, "
                             f"{bits} bits in {width} bytes")
        step = min(width, dtype.itemsize)
        # no more than the file holds: fromfile allocates the whole count
        left = fh.seek(0, 2) - start
        fh.seek(start)
        raw = np.fromfile(fh, np.uint8, count=min(size // width * step, left))
    raw = raw[:raw.size // step * step].reshape(-1, step)
    if step < dtype.itemsize:
        # 3, 5, 6 or 7-byte samples, widened by low zero bytes
        cells = np.zeros((len(raw), dtype.itemsize), np.uint8)
        cells[:, slice(step) if o == ">" else slice(-step, None)] = raw
        raw = cells
    data = raw.view(dtype).ravel()
    if data.size < size // width:
        warnings.warn(f"{path}: WAV data chunk ends after {data.size} of its "
                      f"{size // width} samples", DataWarning, stacklevel=2)
    data = data[:data.size // channels * channels]
    return rate, data.reshape(-1, channels) if channels > 1 else data


def load_waveform(path, target_rate: int) -> np.ndarray:
    """Read a mono WAV file, scale to [-1, 1], resample to the target rate."""
    try:
        rate, data = read_wav(path)
    except ValueError as exc:
        raise ConfigError(f"{path}: not a readable WAV file: {exc}") from None
    if rate < 1:
        raise ConfigError(f"{path}: WAV sample rate {rate} is not positive")
    if data.size == 0:
        raise ConfigError(f"{path}: WAV file holds no samples")
    stored = data.dtype
    data = np.asarray(data, dtype=np.float64)
    if data.ndim == 2:
        data = data.mean(axis=1)
    # in place: the float64 cast above already copied the samples
    if stored == np.uint8:
        # 8-bit samples are unsigned, centred on 128
        data -= 128.0
        data /= 128.0
    elif np.issubdtype(stored, np.integer):
        data /= float(np.iinfo(stored).max)
    elif not np.isfinite(data).all():
        raise ConfigError(f"{path}: WAV file holds a non-finite sample")
    return resample_linear(data, rate, target_rate)


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

@dataclass
class ModalityBatch:
    """Fixed-shape batch for one modality: (batch, N, width) features plus a
    validity mask; padded rows are zeros and every example keeps at least one
    valid row."""

    features: np.ndarray
    mask: np.ndarray
    modality: str

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.features.ndim != 3:
            raise ContractError(
                f"batch features must be (batch, N, width), got "
                f"{self.features.shape}")
        if self.mask.shape != self.features.shape[:2]:
            raise ContractError(
                f"mask shape {self.mask.shape} does not match features "
                f"{self.features.shape[:2]}")
        if not self.mask.any(axis=1).all():
            raise ContractError("every example needs at least one valid row")
        if np.any(self.features.any(axis=-1) & ~self.mask):
            raise ContractError("masked rows must hold zeros")

    def __len__(self):
        return self.features.shape[0]

    def take(self, indices) -> "ModalityBatch":
        """The rows at ``indices``. A row subset of a valid batch is valid,
        so ``__post_init__``'s scans are not run again."""
        idx = np.asarray(indices, dtype=np.int64)
        out = copy.copy(self)
        out.features, out.mask = self.features[idx], self.mask[idx]
        return out


def make_batch(ids, rows, length: int, modality: str) -> ModalityBatch:
    """The first ``length`` rows of ``rows(i)``, a (t, width) array, for
    each ``i`` in ``ids``, copied into one array allocated once; a shorter
    example leaves a zero tail, which the mask marks as padding."""
    features = mask = None
    for k, i in enumerate(ids):
        seq = np.asarray(rows(i), dtype=np.float64)
        if features is None and seq.ndim == 2:
            features = np.zeros((len(ids), length, seq.shape[1]))
            mask = np.zeros((len(ids), length), dtype=bool)
        if seq.ndim != 2 or len(seq) < 1 or seq.shape[1] != features.shape[2]:
            raise ContractError(f"{modality} example {i!r}: shape {seq.shape}"
                                f" is not (t>=1, width) at one width")
        kept = min(len(seq), length)
        features[k, :kept] = seq[:kept]
        mask[k, :kept] = True
    return ModalityBatch(features, mask, modality)
