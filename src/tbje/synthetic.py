"""Synthetic separable corpus for desk-scale experiments.

Each of the seven sentiment classes gets a fixed prototype row per
modality; examples are that prototype repeated over a random number of
time steps plus small noise, so a tiny encoder can drive training
accuracy to 100% while held-out splits stay learnable (same prototypes,
fresh noise).  Emotion flags are a fixed function of the class, which
keeps the multi-label task separable too.
"""

from __future__ import annotations

import numpy as np

from .data import DatasetBundle, Split
from .features import make_batch
from .rng import make_rng

N_CLASSES = 7

# class -> (happy, sad, angry, fear, disgust, surprise)
EMOTION_PATTERN = np.array([
    [0, 1, 1, 0, 1, 0],
    [1, 0, 0, 1, 0, 1],
    [0, 0, 1, 1, 0, 0],
    [1, 1, 0, 0, 0, 0],
    [0, 1, 0, 1, 1, 1],
    [1, 0, 1, 0, 1, 0],
    [1, 1, 0, 1, 0, 1],
], dtype=np.int64)

DEFAULT_LENGTHS = {"L": 6, "A": 5, "V": 4}
DEFAULT_WIDTHS = {"L": 12, "A": 9, "V": 7}


def _sentiment_value(cls: int, jitter: float) -> float:
    # Raw score stays on the class's side of every bin edge: classes
    # below 3 keep negative jittered scores, class 3 stays >= 0, and the
    # extremes jitter inward so the value never leaves [-3, 3].
    if cls == 0:
        return -3.0 + abs(jitter)
    if cls == 6:
        return 3.0 - abs(jitter)
    if cls == 3:
        return abs(jitter)
    return float(cls - 3) + jitter


def make_synthetic_bundle(seed: int = 0,
                          train_examples: int = 32,
                          valid_examples: int = 16,
                          test_examples: int = 16,
                          lengths: dict[str, int] = None,
                          widths: dict[str, int] = None,
                          noise: float = 0.05) -> DatasetBundle:
    lengths = dict(DEFAULT_LENGTHS if lengths is None else lengths)
    widths = dict(DEFAULT_WIDTHS if widths is None else widths)
    if set(lengths) != set(widths):
        raise ValueError("lengths and widths must cover the same modalities")
    rng = make_rng(seed, "synthetic")
    prototypes = {m: rng.uniform(-1.0, 1.0, size=(N_CLASSES, widths[m]))
                  for m in sorted(lengths)}

    def build(name: str, count: int) -> Split:
        classes = np.arange(count) % N_CLASSES
        sequences = {m: [] for m in lengths}
        for cls in classes:
            for m in sorted(lengths):
                t = int(rng.integers(2, lengths[m] + 1))
                rows = prototypes[m][cls] + noise * rng.normal(
                    size=(t, widths[m]))
                sequences[m].append(rows)
        batches = {m: make_batch(range(count), sequences[m].__getitem__,
                                 lengths[m], m) for m in lengths}
        jitter = rng.uniform(-0.3, 0.3, size=count)
        sentiment = np.array([_sentiment_value(int(c), float(j))
                              for c, j in zip(classes, jitter)])
        return Split(name=name,
                     ids=[f"{name}-{i:04d}" for i in range(count)],
                     batches=batches,
                     sentiment=sentiment,
                     emotions=EMOTION_PATTERN[classes])

    splits = {"train": build("train", train_examples),
              "valid": build("valid", valid_examples),
              "test": build("test", test_examples)}
    modalities = {m: {"width": widths[m], "length": lengths[m]}
                  for m in lengths}
    return DatasetBundle(modalities=modalities, splits=splits)
