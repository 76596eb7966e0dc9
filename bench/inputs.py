"""Seeded input generation for the benchmark workloads.

Everything here is the benchmark's own numpy code, so a change to the
program cannot change a workload. The seed decides the content of every
input; it never decides a size. Sequence lengths, clip durations and
transcript lengths are fixed multisets that the seed only shuffles, so every
seed pads, truncates and featurizes the same amount of data.
"""

from __future__ import annotations

import csv
import wave
from pathlib import Path

import numpy as np

EMOTIONS = ("happy", "sad", "angry", "fear", "disgust", "surprise")

# padded length, input width and the range the true lengths are spread over
# (it straddles the padded length, so some examples are truncated)
MODALITY_SHAPES = {"L": (50, 300, (20, 80)),
                   "A": (40, 80, (25, 60))}

SAMPLE_RATE = 22050
EMBEDDING_DIM = 300
LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))


def _spread(rng, count: int, lo: float, hi: float) -> np.ndarray:
    """``count`` values evenly spaced over [lo, hi], in seeded order."""
    return rng.permutation(np.linspace(lo, hi, count))


# ---------------------------------------------------------------------------
# in-memory training splits
# ---------------------------------------------------------------------------

def train_arrays(seed: int, modalities, counts: dict) -> dict:
    """{split: {"features": {M: array}, "mask": {M: array}, "sentiment",
    "emotions"}} with zeros in every padded row."""
    rng = np.random.default_rng([seed, 1])
    out = {}
    for name, count in counts.items():
        feats, masks = {}, {}
        for m in modalities:
            length, width, (lo, hi) = MODALITY_SHAPES[m]
            true_len = _spread(rng, count, lo, hi).round().astype(np.int64)
            if m == "A":
                x = rng.uniform(0.0, 1.0, size=(count, length, width))
            else:
                x = rng.normal(0.0, 0.4, size=(count, length, width))
            mask = np.arange(length)[None, :] < true_len[:, None]
            x[~mask] = 0.0
            feats[m], masks[m] = x, mask
        # a learnable target: the mean of one linguistic feature
        signal = feats["L"][..., 0].sum(axis=1) / masks["L"].sum(axis=1)
        sentiment = np.clip(np.round(3.0 * np.tanh(8.0 * signal), 2), -3, 3)
        out[name] = {"features": feats, "mask": masks,
                     "sentiment": sentiment,
                     "emotions": rng.integers(0, 2, size=(count, 6))}
    return out


# ---------------------------------------------------------------------------
# on-disk corpus for extract-features
# ---------------------------------------------------------------------------

def _words(rng, count: int, lo: int, hi: int, exclude=frozenset()) -> list:
    found: dict[str, None] = {}
    while len(found) < count:
        n = int(rng.integers(lo, hi + 1))
        word = "".join(rng.choice(LETTERS, size=n))
        if word not in exclude:
            found.setdefault(word)
    return list(found)


def _clip(rng, seconds: float) -> np.ndarray:
    """A voiced, syllable-modulated harmonic tone with noise, int16. The
    harmonics sin(h*p) come from the recurrence
    sin((h+1)p) = 2 cos(p) sin(hp) - sin((h-1)p)."""
    t = np.arange(int(round(seconds * SAMPLE_RATE))) / SAMPLE_RATE
    f0 = rng.uniform(90.0, 260.0)
    pitch = 2 * np.pi * f0 * (t + 0.002 * np.sin(2 * np.pi * 5.0 * t))
    twice_cos = 2.0 * np.cos(pitch)
    previous, harmonic = np.zeros_like(t), np.sin(pitch)
    voiced = harmonic.copy()
    for h in range(2, 6):
        previous, harmonic = harmonic, twice_cos * harmonic - previous
        voiced += harmonic / h
    syllables = 0.55 + 0.45 * np.sin(2 * np.pi * rng.uniform(2.5, 4.5) * t)
    x = voiced * syllables + 0.05 * (rng.random(t.size) - 0.5)
    return np.round(x / np.abs(x).max() * 0.8 * 32767).astype(np.int16)


def write_wav(path, samples: np.ndarray) -> None:
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(SAMPLE_RATE)
        fh.writeframes(samples.astype("<i2").tobytes())


def read_wav(path) -> np.ndarray:
    """Samples scaled by the int16 maximum, as a user's loader would."""
    with wave.open(str(path), "rb") as fh:
        raw = fh.readframes(fh.getnframes())
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32767.0


def write_corpus(seed: int, root: Path, counts: dict, vocab_size: int,
                 distractors: int, clip_range: tuple,
                 token_range: tuple) -> dict:
    """Manifest CSV, transcripts, WAV clips and a 300-d text embedding file
    in which most lines are distractors and a tenth of the corpus words have
    no vector. Returns the corpus facts the output checks need."""
    rng = np.random.default_rng([seed, 2])
    (root / "text").mkdir(parents=True, exist_ok=True)
    (root / "audio").mkdir(parents=True, exist_ok=True)
    vocab = _words(rng, vocab_size, 3, 9)
    zipf = 1.0 / np.arange(1, vocab_size + 1)
    zipf /= zipf.sum()

    total = sum(counts.values())
    durations = _spread(rng, total, *clip_range)
    token_counts = _spread(rng, total, *token_range).round().astype(int)
    rows = []
    i = 0
    for split, count in counts.items():
        for _ in range(count):
            ident = f"{split}{i:04d}"
            words = [vocab[k] for k in rng.choice(vocab_size,
                                                  size=token_counts[i],
                                                  p=zipf)]
            words[0] = words[0].capitalize()
            for k in range(7, len(words) - 1, 8):
                words[k] += ","
            (root / "text" / f"{ident}.txt").write_text(
                " ".join(words) + ".\n", encoding="utf-8")
            write_wav(root / "audio" / f"{ident}.wav",
                      _clip(rng, durations[i]))
            rows.append({"id": ident, "split": split,
                         "transcript": f"text/{ident}.txt",
                         "audio": f"audio/{ident}.wav",
                         "sentiment": f"{rng.uniform(-3, 3):.2f}",
                         **{e: str(int(rng.integers(0, 2)))
                            for e in EMOTIONS}})
            i += 1
    with open(root / "manifest.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=["id", "split", "transcript",
                                                "sentiment", *EMOTIONS,
                                                "audio"])
        writer.writeheader()
        writer.writerows(rows)

    missing = set(rng.choice(vocab_size, size=vocab_size // 10,
                             replace=False).tolist())
    with_vectors = [w for i, w in enumerate(vocab) if i not in missing]
    names = with_vectors + _words(rng, distractors, 3, 12,
                                  exclude=frozenset(vocab))
    names = [names[k] for k in rng.permutation(len(names))]
    vectors = rng.normal(0.0, 0.4, size=(len(names), EMBEDDING_DIM))
    line = "%s " + " ".join(["%.6f"] * EMBEDDING_DIM) + "\n"
    with open(root / "embeddings.txt", "w", encoding="utf-8") as fh:
        for name, row in zip(names, vectors):
            fh.write(line % (name, *row))
    return {"counts": dict(counts), "audio_s": float(durations.sum()),
            "embedding_lines": len(names),
            "first_train_clip": root / "audio" / f"{rows[0]['id']}.wav",
            "first_train_id": rows[0]["id"]}
