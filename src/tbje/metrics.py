"""Evaluation metrics: standard accuracy, positive-class (unweighted) F1,
support-weighted F1, and the sentiment binning rules.

Weighted F1 here means: compute a binary F1 twice, once treating 1 as the
positive class and once treating 0 as the positive class, then average the
two weighted by their gold support. Unweighted F1 is the positive-class F1
alone. The two coincide when the gold labels are all positive.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError

EMOTIONS = ("happy", "sad", "angry", "fear", "disgust", "surprise")
SENTIMENT_MIN = -3.0
SENTIMENT_MAX = 3.0


def _as_labels(pred, gold):
    pred = np.asarray(pred)
    gold = np.asarray(gold)
    if pred.shape != gold.shape:
        raise ContractError(
            f"prediction shape {pred.shape} != gold shape {gold.shape}")
    if pred.size == 0:
        raise ContractError("metrics need at least one example")
    return pred, gold


def accuracy(pred, gold) -> float:
    """Exact-match fraction; 2-d multi-label inputs are scored per class
    (columns) and averaged."""
    pred, gold = _as_labels(pred, gold)
    return float(np.mean(np.mean(pred == gold, axis=0)))


def f1_unweighted(pred, gold, positive=1) -> float:
    """Positive-class F1; zero when precision + recall is zero."""
    pred, gold = _as_labels(pred, gold)
    p, g = pred == positive, gold == positive
    tp, predicted, actual = int(np.sum(p & g)), int(np.sum(p)), int(np.sum(g))
    precision = tp / predicted if predicted else 0.0
    recall = tp / actual if actual else 0.0
    return (2.0 * precision * recall / (precision + recall)
            if precision + recall else 0.0)


def f1_weighted(pred, gold) -> float:
    """Support-weighted mean of the two per-class binary F1 scores.

    A class absent from the gold labels carries no weight, so the result is
    then exactly the other class's F1 (not merely within rounding of it).
    """
    pred, gold = _as_labels(pred, gold)
    pos, neg = int(np.sum(gold == 1)), int(np.sum(gold == 0))
    if neg == 0:
        return f1_unweighted(pred, gold, positive=1)
    if pos == 0:
        return f1_unweighted(pred, gold, positive=0)
    return (pos * f1_unweighted(pred, gold, positive=1)
            + neg * f1_unweighted(pred, gold, positive=0)) / (pos + neg)


def round_half_away(x):
    """Round halves away from zero (2.5 -> 3, -0.5 -> -1); numpy's default
    rounds halves to even, which would shift bin edges."""
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def sentiment_bins(raw, classes: int = 7, boundary: float = 0.0):
    """Map raw sentiment in [-3, 3] to class indices.

    7-class: round to the nearest integer (halves away from zero), shift to
    0..6. 2-class: 0 below the boundary, 1 at or above it.
    """
    raw = np.asarray(raw, dtype=np.float64)
    bad = raw[(raw < SENTIMENT_MIN) | (raw > SENTIMENT_MAX)]
    if bad.size:
        raise ContractError(
            f"sentiment values outside [{SENTIMENT_MIN:g}, "
            f"{SENTIMENT_MAX:g}]: {bad[:5]}")
    if classes == 7:
        return (round_half_away(raw) + 3).astype(np.int64)
    if classes == 2:
        return (raw >= boundary).astype(np.int64)
    raise ContractError(f"sentiment supports 2 or 7 classes, got {classes}")


def _scores(pred, gold) -> dict:
    """Accuracy and both F1 flavors of one binary label."""
    return {"accuracy": accuracy(pred, gold),
            "f1_weighted": f1_weighted(pred, gold),
            "f1_unweighted": f1_unweighted(pred, gold)}


def evaluation_report(task: str, pred, gold) -> dict:
    """Machine-readable metric block for one task.

    Sentiment-2 reports accuracy plus both F1 flavors of the predicted
    classes, sentiment-7 accuracy alone; the emotions task reports the three
    per emotion plus their means.
    """
    pred, gold = np.asarray(pred), np.asarray(gold)
    if task == "emotions-6":
        per = {name: _scores(pred[:, c], gold[:, c])
               for c, name in enumerate(EMOTIONS)}
        return {"task": task, "per_emotion": per,
                **{key: float(np.mean([s[key] for s in per.values()]))
                   for key in per[EMOTIONS[0]]}}
    if task == "sentiment-2":
        return {"task": task, **_scores(pred, gold)}
    if task == "sentiment-7":
        return {"task": task, "accuracy": accuracy(pred, gold)}
    raise ContractError(f"unknown task {task!r}")
