"""Tokenizer, vocabulary, mel front-end, padding/batching."""

import json
import os
import pathlib
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.io import wavfile
from scipy.signal.windows import hann

from tbje.errors import ConfigError, ContractError, DataWarning
from tbje.features import (EMBEDDING_DIM, MelConfig, ModalityBatch, Vocabulary,
                           build_vocabulary, hann_window, hz_to_mel,
                           load_waveform, make_batch, mel_filter_bank,
                           mel_spectrogram, mel_to_hz, normalize_mel,
                           read_embedding_file, read_wav, resample_linear,
                           stft_magnitudes, tokenize)
from tbje.rng import make_rng

from oracles import naive_dft_magnitudes
from toy_corpus import build_toy_corpus, toy_run_config

DATA = pathlib.Path(__file__).parent / "data"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

# frozen regression pairs; forced by the stated rules (lowercase, punctuation
# and special characters act as separators, digits survive)
TOKEN_FIXTURE = [
    ("Hello, World!", ["hello", "world"]),
    ("don't stop", ["don", "t", "stop"]),
    ("a_b", ["a", "b"]),
    ("C3PO & R2-D2", ["c3po", "r2", "d2"]),
    ("émigré Café", ["émigré", "café"]),
    ("1+1=2", ["1", "1", "2"]),
    ("  spaced\tout\nlines ", ["spaced", "out", "lines"]),
    ("МОСКВА мороз", ["москва", "мороз"]),
]


@pytest.mark.parametrize("text,expected", TOKEN_FIXTURE)
def test_tokenize_fixture(text, expected):
    assert tokenize(text) == expected


def test_tokenize_empty_yields_unk_and_warns():
    with pytest.warns(DataWarning):
        assert tokenize("") == ["unk"]
    with pytest.warns(DataWarning):
        assert tokenize("!!! ...") == ["unk"]


def test_tokenize_idempotent_on_own_output():
    for text, _ in TOKEN_FIXTURE:
        once = tokenize(text)
        assert tokenize(" ".join(once)) == once


# ---------------------------------------------------------------------------
# vocabulary
# ---------------------------------------------------------------------------

def fake_embedding_file(tmp_path, rows):
    path = tmp_path / "emb.txt"
    lines = []
    for token, vec in rows.items():
        lines.append(token + " " + " ".join(f"{v:.6f}" for v in vec))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_build_vocabulary_basic(tmp_path):
    rng = make_rng(90, "vocab")
    rows = {t: rng.normal(size=EMBEDDING_DIM) for t in ("a", "b", "c", "noise")}
    path = fake_embedding_file(tmp_path, rows)
    vocab = build_vocabulary([["a", "b"], ["b", "c"]], path)
    assert vocab.tokens == ["pad", "unk", "a", "b", "c"]
    assert vocab.lookup("b") == 3
    assert vocab.lookup("zebra") == 1            # unk fallback
    assert vocab.fallback_count == 0
    assert np.allclose(vocab.embeddings[2], np.round(rows["a"], 6), atol=1e-6)
    assert np.array_equal(vocab.embeddings[0], np.zeros(EMBEDDING_DIM))


def test_build_vocabulary_missing_token_falls_back(tmp_path):
    rng = make_rng(91, "vocab-miss")
    path = fake_embedding_file(tmp_path, {"a": rng.normal(size=EMBEDDING_DIM)})
    with pytest.warns(DataWarning, match="fallback"):
        vocab = build_vocabulary([["a", "rarityword"]], path)
    assert vocab.fallback_count == 1
    idx = vocab.lookup("rarityword")
    assert np.array_equal(vocab.embeddings[idx], np.zeros(EMBEDDING_DIM))


def test_build_vocabulary_dimension_mismatch(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("a 1.0 2.0 3.0\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="300"):
        build_vocabulary([["a"]], path)


def test_vocabulary_embed_and_hash(tmp_path):
    rng = make_rng(92, "vocab-hash")
    rows = {t: rng.normal(size=EMBEDDING_DIM) for t in ("x", "y")}
    path = fake_embedding_file(tmp_path, rows)
    vocab = build_vocabulary([["x", "y"]], path)
    seq = vocab.embed(["y", "missing", "x"])
    assert seq.shape == (3, EMBEDDING_DIM)
    assert np.array_equal(seq[1], vocab.embeddings[1])
    again = build_vocabulary([["y", "x"]], path)
    assert vocab.content_hash() == again.content_hash()
    other = Vocabulary(vocab.tokens, vocab.embeddings + 1.0)
    assert other.content_hash() != vocab.content_hash()


def test_vocabulary_requires_reserved_order():
    with pytest.raises(ConfigError):
        Vocabulary(["unk", "pad"], np.zeros((2, EMBEDDING_DIM)))


# ---------------------------------------------------------------------------
# embedding file rules
# ---------------------------------------------------------------------------

def embedding_line(token, values) -> str:
    return token + " " + " ".join(f"{v:.6f}" for v in values)


def write_embedding_lines(tmp_path, lines, newline="\n"):
    path = tmp_path / "emb.txt"
    path.write_bytes("".join(line + newline for line in lines)
                     .encode("utf-8"))
    return path


def vector(seed: int) -> np.ndarray:
    return np.round(make_rng(seed, "embedding-rules")
                    .normal(size=EMBEDDING_DIM), 6)


def test_embedding_first_occurrence_wins_over_a_malformed_copy(tmp_path):
    path = write_embedding_lines(tmp_path, [
        embedding_line("a", vector(1)),
        "a 1.0 2.0",
        "a " + " ".join(["oops"] * EMBEDDING_DIM),
        embedding_line("a", vector(2))])
    rows = read_embedding_file(path, {"a"})
    assert list(rows) == ["a"]
    assert np.array_equal(rows["a"], vector(1))


def test_embedding_malformed_unwanted_lines_are_ignored(tmp_path):
    path = write_embedding_lines(tmp_path, [
        "zz 1.0 2.0", "", "yy", "xx " + " ".join(["oops"] * EMBEDDING_DIM),
        "nn " + " ".join(["nan"] * EMBEDDING_DIM),
        embedding_line("b", vector(3)), "b"])
    rows = read_embedding_file(path, {"b", "missing"})
    assert list(rows) == ["b"]
    assert np.array_equal(rows["b"], vector(3))


def test_embedding_wanted_token_without_values_reports_got_0(tmp_path):
    path = write_embedding_lines(tmp_path, [embedding_line("z", vector(4)),
                                            "a"])
    with pytest.raises(ConfigError) as info:
        read_embedding_file(path, {"a"})
    assert str(info.value) == (f"{path}:2: expected 300 values for token "
                               f"'a', got 0")


def test_embedding_trailing_space_reports_got_301(tmp_path):
    path = write_embedding_lines(tmp_path, [embedding_line("a", vector(5))
                                            + " "])
    with pytest.raises(ConfigError) as info:
        read_embedding_file(path, {"a"})
    assert str(info.value) == (f"{path}:1: expected 300 values for token "
                               f"'a', got 301")


def test_embedding_crlf_endings_give_the_bytes_of_lf(tmp_path):
    lines = [embedding_line(t, vector(k)) for k, t in enumerate("abc")]
    lf = read_embedding_file(write_embedding_lines(tmp_path, lines),
                             {"a", "c"})
    crlf = read_embedding_file(write_embedding_lines(tmp_path, lines, "\r\n"),
                               {"a", "c"})
    assert list(lf) == list(crlf) == ["a", "c"]
    for token in lf:
        assert lf[token].tobytes() == crlf[token].tobytes()
        assert lf[token].dtype == np.float64


# ---------------------------------------------------------------------------
# mel scale and filter bank
# ---------------------------------------------------------------------------

def test_mel_scale_reference_points():
    assert hz_to_mel(0.0) == 0.0
    # 2595*log10(2) at 700 Hz, a textbook anchor of the HTK formula
    assert hz_to_mel(700.0) == pytest.approx(2595.0 * np.log10(2.0), abs=1e-12)
    freqs = np.array([0.0, 137.5, 440.0, 1000.0, 7999.0])
    assert np.allclose(mel_to_hz(hz_to_mel(freqs)), freqs, atol=1e-9)


def test_mel_config_validation():
    with pytest.raises(ConfigError):
        MelConfig(bands=0)
    with pytest.raises(ConfigError):
        MelConfig(stride=0)
    with pytest.raises(ConfigError):
        MelConfig(n_fft=512, window=1024)
    with pytest.raises(ConfigError):
        MelConfig(hop=0)


def test_filter_bank_matches_golden_file():
    golden = json.loads((DATA / "mel_bank_sr8000_fft64_b4.json").read_text())
    cfg = MelConfig(sample_rate=golden["sample_rate"], n_fft=golden["n_fft"],
                    hop=16, window=golden["n_fft"], bands=golden["bands"])
    got = mel_filter_bank(cfg)
    assert np.abs(got - np.array(golden["bank"])).max() < 1e-12


def test_filter_bank_rows_nonnegative_and_bounded():
    bank = mel_filter_bank(MelConfig())
    assert bank.min() >= 0.0
    assert bank.shape == (80, 1025)
    # triangles overlap by at most two bands, so per-bin mass stays small
    assert bank.sum(axis=0).max() <= 2.0
    assert bank.max() <= 1.0


def test_filter_bank_is_built_once_and_read_only():
    bank = mel_filter_bank(MelConfig())
    assert mel_filter_bank(MelConfig()) is bank
    assert not bank.flags.writeable
    with pytest.raises(ValueError):
        bank[0, 0] = 1.0


@pytest.mark.parametrize("size", [1, 2, 3, 255, 1024, 2048])
def test_hann_window_is_built_once_and_read_only(size):
    window = hann_window(size)
    assert hann_window(size) is window
    assert np.array_equal(window, hann(size, sym=False))
    assert not window.flags.writeable
    with pytest.raises(ValueError):
        window[0] = 1.0


def test_filter_bank_every_band_has_support():
    bank = mel_filter_bank(MelConfig(sample_rate=16000, n_fft=1024, hop=256,
                                     window=1024, bands=40))
    assert (bank.max(axis=1) > 0).all()


# ---------------------------------------------------------------------------
# spectrograms
# ---------------------------------------------------------------------------

SMALL = MelConfig(sample_rate=8000, n_fft=128, hop=32, window=128, bands=10,
                  stride=4, floor=1e-5)


def test_silence_hits_log_floor_exactly():
    out = mel_spectrogram(np.zeros(1024), SMALL)
    assert np.array_equal(out, np.full_like(out, np.log(1e-5)))


def test_frame_count_arithmetic():
    cfg = MelConfig(sample_rate=8000, n_fft=256, hop=64, window=256, bands=8,
                    stride=16)
    wave = np.ones(256 + 159 * 64)           # exactly 160 analysis frames
    assert stft_magnitudes(wave, cfg).shape[0] == 160
    assert mel_spectrogram(wave, cfg).shape == (10, 8)


def test_short_waveform_single_frame_flagged():
    with pytest.warns(DataWarning, match="zero-padding"):
        out = mel_spectrogram(np.ones(50), SMALL)
    assert out.shape == (1, SMALL.bands)


def test_empty_waveform_rejected():
    with pytest.raises(ContractError):
        mel_spectrogram(np.array([]), SMALL)


def test_sine_at_band_center_dominates_neighbours():
    edges = mel_to_hz(np.linspace(0.0, hz_to_mel(SMALL.sample_rate / 2),
                                  SMALL.bands + 2))
    center = edges[6]                         # center frequency of band 5
    t = np.arange(4096) / SMALL.sample_rate
    wave = np.sin(2 * np.pi * center * t)
    out = mel_spectrogram(wave, SMALL)
    assert (out[:, 5] > out[:, 4]).all()
    assert (out[:, 5] > out[:, 6]).all()


def test_mel_matches_brute_force_dft_oracle():
    rng = make_rng(93, "mel-oracle")
    wave = rng.uniform(-1.0, 1.0, size=4096)
    got = mel_spectrogram(wave, SMALL)

    spectra = naive_dft_magnitudes(wave, SMALL)
    mel = spectra @ mel_filter_bank(SMALL).T
    want = np.log(np.maximum(mel, SMALL.floor))[::SMALL.stride]
    rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-9)
    assert rel.max() < 1e-6


def mel_from_every_hop(wave, cfg):
    """The unstrided front end: log-mel of every hop, then every
    ``stride``-th row kept."""
    mel = stft_magnitudes(wave, cfg) @ mel_filter_bank(cfg).T
    return np.log(np.maximum(mel, cfg.floor))[::cfg.stride]


@pytest.mark.parametrize("length", [
    1000,                     # shorter than one window
    1024,                     # exactly one window
    16 * 256 * 16,            # a multiple of hop * stride: 16 kept frames
    12 * 22050,               # a 12 s clip
])
def test_strided_mel_equals_every_hop_then_stride(length):
    cfg = MelConfig()
    wave = make_rng(94, "mel-stride", length).uniform(-1.0, 1.0, size=length)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataWarning)
        got = mel_spectrogram(wave, cfg)
        want = mel_from_every_hop(wave, cfg)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("multiple", [1, 2, 3, 7])
def test_strided_stft_rows_equal_every_hop_rows(multiple):
    cfg = MelConfig()
    length = multiple * cfg.hop * cfg.stride
    wave = make_rng(95, "stft-stride", length).uniform(-1.0, 1.0, size=length)
    every_hop = stft_magnitudes(wave, cfg)
    assert np.array_equal(stft_magnitudes(wave, cfg, cfg.stride),
                          every_hop[::cfg.stride])
    # a filter-bank product of a few rows takes OpenBLAS's small-matrix
    # kernel, whose summation order differs from the full product's
    np.testing.assert_allclose(mel_spectrogram(wave, cfg),
                               mel_from_every_hop(wave, cfg),
                               rtol=1e-14, atol=0.0)


def test_normalize_mel_range_and_clipping():
    frames = np.array([[-11.5, -3.0], [0.0, 2.0]])
    out = normalize_mel(frames, lo=-11.5, hi=2.0)
    assert out.min() == 0.0 and out.max() == 1.0
    clipped = normalize_mel(np.array([[-20.0, 5.0]]), lo=-11.5, hi=2.0)
    assert np.array_equal(clipped, np.array([[0.0, 1.0]]))
    with pytest.raises(ConfigError):
        normalize_mel(frames, lo=1.0, hi=1.0)


# ---------------------------------------------------------------------------
# resampling and wav loading
# ---------------------------------------------------------------------------

def test_resample_identity_same_rate():
    wave = np.arange(10.0)
    assert resample_linear(wave, 8000, 8000) is not None
    assert np.array_equal(resample_linear(wave, 8000, 8000), wave)


def test_resample_halves_length():
    wave = np.ones(1000)
    out = resample_linear(wave, 16000, 8000)
    assert abs(out.size - 500) <= 1
    assert np.allclose(out, 1.0)


def test_resample_preserves_linear_ramp():
    # wave value equals its own timestamp, so the resampled values must land
    # exactly on the new grid's timestamps
    wave = np.linspace(0.0, 1.0, 801)
    out = resample_linear(wave, 800, 400)
    assert np.allclose(out, np.arange(out.size) / 400.0, atol=1e-12)


def test_load_waveform_int16_scaling(tmp_path):
    rate = 8000
    wave = (np.sin(2 * np.pi * 440 * np.arange(1600) / rate) * 0.5)
    ints = (wave * np.iinfo(np.int16).max).astype(np.int16)
    path = tmp_path / "tone.wav"
    wavfile.write(path, rate, ints)
    back = load_waveform(path, rate)
    assert back.shape == (1600,)
    assert np.abs(back - wave).max() < 1e-3
    assert np.array_equal(back, ints / float(np.iinfo(np.int16).max))
    resampled = load_waveform(path, 4000)
    assert abs(resampled.size - 800) <= 1


def test_load_waveform_uint8_is_centred_on_128(tmp_path):
    """8-bit WAV samples are unsigned: 128 is silence."""
    rate = 8000
    t = np.arange(1600) / rate
    ints = np.round(128 + 100 * np.sin(2 * np.pi * 440 * t)).astype(np.uint8)
    path = tmp_path / "tone8.wav"
    wavfile.write(path, rate, ints)
    back = load_waveform(path, rate)
    assert np.array_equal(back, (ints - 128.0) / 128.0)
    assert abs(back.mean()) < 1e-3
    assert -1.0 <= back.min() < -0.7 and 0.7 < back.max() <= 1.0


def test_runtime_needs_no_scipy(tmp_path):
    """With scipy blocked from import, the CLI reads a WAV and extracts an
    L+A bundle, and no scipy module is ever loaded."""
    build_toy_corpus(tmp_path, with_visual=False)
    config = toy_run_config(tmp_path, with_visual=False)
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import tbje.cli\n"
        f"wave = tbje.cli.load_waveform("
        f"{str(tmp_path / 'audio' / 'utt00.wav')!r}, 4000)\n"
        f"code = tbje.cli.main(['extract-features', '--config', "
        f"{str(config)!r}])\n"
        "print(wave.size, code, sorted(name for name, mod in "
        "sys.modules.items() if name.startswith('scipy') and mod))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "800 0 []"
    assert (tmp_path / "bundle" / "manifest.json").is_file()


# ---------------------------------------------------------------------------
# WAV reader, against scipy.io.wavfile.read as the reference
# ---------------------------------------------------------------------------

def fmt_chunk(channels, width, bits, tag=1, order="<", extensible=False,
              rate=8000) -> bytes:
    """A fmt chunk body; an extensible one carries ``tag`` in the subformat
    GUID {tag-0000-0010-8000-00AA00389B71}, whose first three fields are in
    the file's byte order."""
    align = channels * width
    body = struct.pack(order + "HHIIHH", 0xFFFE if extensible else tag,
                       channels, rate, rate * align, align, bits)
    if extensible:
        body += (struct.pack(order + "HHIIHH", 22, bits, 0, tag, 0, 0x10)
                 + bytes.fromhex("800000aa00389b71"))
    return body


def riff_file(fmt: bytes, samples: bytes, order="<", extra=b"") -> bytes:
    """A RIFF (big-endian: RIFX) file of a fmt chunk, the chunks in
    ``extra`` and a data chunk."""
    body = (b"WAVE" + b"fmt " + struct.pack(order + "I", len(fmt)) + fmt
            + extra + b"data" + struct.pack(order + "I", len(samples))
            + samples + b"\0" * (len(samples) % 2))
    return ((b"RIFX" if order == ">" else b"RIFF")
            + struct.pack(order + "I", len(body)) + body)


def rf64_file(fmt: bytes, samples: bytes, data_size=None) -> bytes:
    """An RF64 file: sizes in a ds64 chunk, 0xFFFFFFFF in the 32-bit
    fields. ``data_size`` overrides the data chunk's size."""
    rest = (b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data"
            + struct.pack("<I", 0xFFFFFFFF) + samples)
    size = len(samples) if data_size is None else data_size
    ds64 = struct.pack("<QQQI", 4 + 36 + len(rest), size, size // 2, 0)
    return (b"RF64" + struct.pack("<I", 0xFFFFFFFF) + b"WAVE" + b"ds64"
            + struct.pack("<I", len(ds64)) + ds64 + rest)


def scipy_written(dtype, channels):
    def write(path):
        rng = np.random.default_rng(channels)
        if dtype[-2] == "f":
            samples = rng.normal(size=50 * channels).astype(dtype)
        else:
            samples = rng.integers(0, 256, 50 * channels * int(dtype[-1]),
                                   dtype=np.uint8).view(dtype)
        wavfile.write(path, 8000, samples.reshape(50, channels)
                      if channels > 1 else samples)
    return write


def hand_built(contents):
    return lambda path: path.write_bytes(contents)


NOISE = np.random.default_rng(7).integers(0, 256, 600, dtype=np.uint8)
WAV_CASES = [
    *(pytest.param(scipy_written(dtype, channels), False,
                   id=f"written-{dtype}-{channels}ch")
      for dtype in ("u1", "<i2", ">i2", "<i4", ">i4", "<i8", ">i8", "<f4",
                    ">f4", "<f8", ">f8")
      for channels in (1, 2, 6)),
    *(pytest.param(hand_built(riff_file(
        fmt_chunk(2, width, bits, order=order, extensible=extensible),
        NOISE[:60 * width].tobytes(), order)), False,
        id=f"{bits}-bit-in-{width}-{order}{'-ext' if extensible else ''}")
      for width, bits in ((3, 24), (3, 20), (2, 12), (5, 40), (6, 48),
                          (7, 56))
      for order in "<>" for extensible in (False, True)),
    pytest.param(hand_built(riff_file(
        fmt_chunk(1, 2, 16), NOISE[:100].tobytes(),
        extra=b"LIST" + struct.pack("<I", 5) + b"INFOx\0")), False,
        id="odd-LIST-before-data"),
    pytest.param(hand_built(rf64_file(fmt_chunk(1, 2, 16),
                                      NOISE[:100].tobytes())), False,
                 id="rf64"),
    pytest.param(hand_built(riff_file(fmt_chunk(1, 2, 16),
                                      NOISE[:100].tobytes())[:-1]), True,
                 id="data-cut-mid-sample"),
]


@pytest.mark.parametrize("write, cut", WAV_CASES)
def test_read_wav_matches_scipy(tmp_path, write, cut):
    path = tmp_path / "clip.wav"
    write(path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want_rate, want = wavfile.read(path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rate, got = read_wav(path)
    assert (rate, got.dtype, got.shape) == (want_rate, want.dtype,
                                            want.shape)
    assert np.array_equal(got, want)
    assert [(w.category, str(w.message).split(":")[0]) for w in caught] \
        == ([(DataWarning, str(path))] if cut else [])


def test_read_wav_reads_no_more_than_the_file_holds(tmp_path):
    """A data chunk that claims 1 TiB in a small file keeps its samples
    with a DataWarning instead of allocating the claimed size."""
    path = tmp_path / "clip.wav"
    path.write_bytes(rf64_file(fmt_chunk(1, 2, 16), NOISE[:100].tobytes(),
                               data_size=2 ** 40))
    with pytest.warns(DataWarning, match="after 50 of its 549755813888 "):
        rate, got = read_wav(path)
    assert rate == 8000
    assert np.array_equal(got, NOISE[:100].view("<i2"))


# ---------------------------------------------------------------------------
# padding and batching
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seqs, length, rejected", [
    ([np.arange(12.0).reshape(4, 3)], 4, False),
    ([np.arange(6.0).reshape(3, 2), np.ones((1, 2))], 5, False),
    ([np.arange(200.0).reshape(100, 2)], 40, False),
    ([np.zeros((0, 3))], 5, True),
    ([np.zeros(3)], 5, True),
    ([np.ones((2, 3)), np.ones((2, 4))], 5, True),
], ids=["exact-fit", "zero-tail", "keeps-head", "empty-rejected",
        "rank-1-rejected", "two-widths-rejected"])
def test_make_batch_copies_the_first_length_rows(seqs, length, rejected):
    if rejected:
        with pytest.raises(ContractError, match=r"\(t>=1, width\)"):
            make_batch(range(len(seqs)), seqs.__getitem__, length, "L")
        return
    batch = make_batch(range(len(seqs)), seqs.__getitem__, length, "L")
    assert batch.features.shape == (len(seqs), length, seqs[0].shape[1])
    for k, seq in enumerate(seqs):
        kept = min(len(seq), length)
        assert np.array_equal(batch.features[k, :kept], seq[:kept])
        assert not batch.features[k, kept:].any()
        assert np.array_equal(batch.mask[k], np.arange(length) < kept)


def test_make_batch_asks_for_each_example_once_in_order():
    asked = []

    def rows(i):
        asked.append(i)
        return np.ones((2, 3))

    make_batch(["c", "a", "b"], rows, 4, "V")
    assert asked == ["c", "a", "b"]


def test_modality_batch_validation():
    with pytest.raises(ContractError, match="zeros"):
        ModalityBatch(np.ones((1, 2, 3)),
                      np.array([[True, False]]), "L")
    with pytest.raises(ContractError, match="valid row"):
        ModalityBatch(np.zeros((1, 2, 3)),
                      np.array([[False, False]]), "L")
    with pytest.raises(ContractError, match="mask shape"):
        ModalityBatch(np.zeros((1, 2, 3)), np.array([True, False]), "L")


@pytest.mark.parametrize("value, valid", [(np.nan, False), (-0.0, True)],
                         ids=["nan", "negative-zero"])
def test_padded_rows_are_checked_as_not_equal_to_zero(value, valid):
    feats = np.zeros((1, 2, 3))
    feats[0, 1, 2] = value
    mask = np.array([[True, False]])
    if valid:
        assert ModalityBatch(feats, mask, "L").features[0, 1, 2] == 0.0
    else:
        with pytest.raises(ContractError, match="zeros"):
            ModalityBatch(feats, mask, "L")


def test_make_batch_and_take():
    rng = make_rng(94, "batch")
    seqs = [rng.normal(size=(t, 4)) for t in (2, 5, 3)]
    batch = make_batch(range(3), seqs.__getitem__, 4, "A")
    assert batch.features.shape == (3, 4, 4)
    assert np.array_equal(batch.mask.sum(axis=1), [2, 4, 3])
    assert np.array_equal(batch.features[1], seqs[1][:4])
    sub = batch.take([2, 0])
    assert np.array_equal(sub.features[0], batch.features[2])
    assert sub.modality == "A"


def test_take_does_not_validate_again(monkeypatch):
    seqs = [np.ones((t, 2)) for t in (1, 3, 2)]
    batch = make_batch(range(3), seqs.__getitem__, 3, "L")

    def scan(self):
        raise AssertionError("a row subset was validated again")

    monkeypatch.setattr(ModalityBatch, "__post_init__", scan)
    sub = batch.take([2, 2, 0])
    assert np.array_equal(sub.features, batch.features[[2, 2, 0]])
    assert np.array_equal(sub.mask, batch.mask[[2, 2, 0]])
    assert sub.modality == "L" and len(sub) == 3 and len(batch) == 3
