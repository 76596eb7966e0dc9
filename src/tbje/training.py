"""Losses, Adam, the plateau/early-stop schedule, the fit loop, and
ensemble prediction averaging.

The schedule: a validation-accuracy epoch that fails to improve on the best
seen so far first triggers a learning-rate decay (factor 0.2, at most twice);
once decays are exhausted, a patience counter starts and three consecutive
non-improving epochs stop the run. The best-validation parameters are what
fit() leaves in the model; while it runs they live in a checkpoint file,
not in memory.

All randomness (shuffling, dropout) is derived from (seed, member, epoch,
batch) alone, so a run resumed from a saved state replays the exact
trajectory of an uninterrupted one.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import tensor as T
from .errors import (ConfigError, ContractError, NumericError, check_section,
                     read_section, require_match)
from .metrics import accuracy, sentiment_bins
# model_bytes is not called here: it is imported so that the benchmark's
# tracer can wrap tbje.training.model_bytes
from .model import (TASK_CLASSES, TbjeModel, check_checkpoint,
                    forward_logits, load_model, model_bytes, read_model,
                    save_model, write_model)
from .rng import derive_seed, make_rng, run_beside, split_at_half
from .tensor import Tape, Tensor

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# entries per Adam block: the block's gradient, moments, parameter and two
# buffers (1.5 MB) stay in cache through the formula's 14 passes
_ADAM_BLOCK = 1 << 15
SCORE_CHUNK = 64        # examples per eval-mode forward pass

STATE_MAGIC = b"TBJS"
STATE_VERSION = 5
# the TrainState fields a state file keeps in its JSON header
_STATE_HEADER = ("step", "epoch", "lr", "best_accuracy", "best_epoch",
                 "stagnant", "decays_used", "stopped", "log", "config")
# the TrainConfig fields a resumed run may change: it may train for more
# epochs, or belong to a larger ensemble
_RESUMABLE = ("max_epochs", "ensemble_size")


@dataclass
class TrainConfig:
    lr: float = 1e-4
    batch_size: int = 32
    decay_factor: float = 0.2
    max_decays: int = 2
    patience: int = 3
    ensemble_size: int = 5
    seed: int = 0
    max_epochs: int = 500

    def __post_init__(self):
        for key, low in (("lr", 0), ("batch_size", 1), ("max_decays", 0),
                         ("patience", 1), ("ensemble_size", 1),
                         ("max_epochs", 1)):
            if getattr(self, key) < low:
                raise ConfigError(f"training.{key} must be >= {low}, got "
                                  f"{getattr(self, key)}")
        if not 0.0 < self.decay_factor < 1.0:
            raise ConfigError(f"training.decay_factor must lie in (0, 1), "
                              f"got {self.decay_factor}")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(raw: dict) -> "TrainConfig":
        return read_section(TrainConfig, raw, "training")


@dataclass
class TrainState:
    lr: float
    first_moment: dict = field(default_factory=dict)
    second_moment: dict = field(default_factory=dict)
    step: int = 0
    epoch: int = 0
    best_accuracy: float = float("-inf")
    best_epoch: int = 0     # the epoch whose parameters the best file holds
    stagnant: int = 0
    decays_used: int = 0
    stopped: bool = False
    log: list = field(default_factory=list)
    config: Optional[dict] = None   # the TrainConfig fit() last ran, as a dict


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def cross_entropy(logits: Tensor, labels, classes: int) -> Tensor:
    """Mean softmax cross-entropy with integer class labels."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != logits.data.shape[0]:
        raise ContractError(
            f"labels shaped {labels.shape} do not match logits "
            f"{logits.data.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        raise ContractError(
            f"labels outside [0, {classes}): saw {labels.min()}..{labels.max()}")
    onehot = np.eye(classes)[labels]
    picked = T.tsum(T.mul(T.log_softmax(logits, axis=-1), Tensor(onehot)))
    return T.scale(picked, -1.0 / labels.shape[0])


def binary_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean over all entries of the per-label sigmoid cross-entropy,
    computed via log-sigmoid so extreme logits stay finite."""
    labels = np.asarray(labels, dtype=np.float64)
    if labels.shape != logits.data.shape:
        raise ContractError(
            f"labels shaped {labels.shape} do not match logits "
            f"{logits.data.shape}")
    if np.any((labels != 0.0) & (labels != 1.0)):
        raise ContractError("multi-label targets must be 0 or 1")
    pos = T.mul(Tensor(labels), T.log_sigmoid(logits))
    neg = T.mul(Tensor(1.0 - labels), T.log_sigmoid(T.scale(logits, -1.0)))
    return T.scale(T.tmean(T.add(pos, neg)), -1.0)


def loss(logits: Tensor, labels, task: str) -> Tensor:
    if task in ("sentiment-2", "sentiment-7"):
        return cross_entropy(logits, labels, TASK_CLASSES[task])
    if task == "emotions-6":
        return binary_cross_entropy(logits, labels)
    raise ContractError(f"unknown task {task!r}")


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def adam_step(params, state: TrainState, lr: float) -> None:
    """One bias-corrected Adam update over every named parameter, in place:

        m = beta1 m + (1 - beta1) g,   v = beta2 v + (1 - beta2) g g,
        p = p - lr m̂ / (sqrt(v̂) + eps)

    Each operation and its order are those of the formula as written, so
    the result is bit for bit the same; the formula runs over blocks of
    ``_ADAM_BLOCK`` entries that stay in cache, through two reused
    buffers. Every gradient is checked before anything moves, so a missing
    or non-finite one leaves parameters, moments and ``state.step`` as
    they were. The parameters then split where half the entries are
    reached: the calling thread updates the first part while ``rng``'s
    worker thread updates the rest, each with buffers of its own."""
    t = state.step + 1
    for name, p in params.items():
        g = p.grad
        if g is None:
            raise ContractError(f"no gradient for parameter {name!r}; "
                                f"run backward() first")
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for parameter {name!r} "
                               f"at step {t}")
        if not all(a.flags.c_contiguous for a in (
                p.data, state.first_moment[name], state.second_moment[name])):
            raise ContractError(f"parameter {name!r} or its moments are not "
                                f"C-contiguous; Adam updates them in place")
    state.step = t
    work = [(p, state.first_moment[name], state.second_moment[name])
            for name, p in params.items()]
    split = split_at_half(p.data.size for p, _, _ in work)
    run_beside(lambda: _adam_update(work[:split], t, lr),
               lambda: _adam_update(work[split:], t, lr))


def _adam_update(work, t, lr) -> None:
    """Adam's formula over each ``(parameter, m, v)`` of ``work`` in turn,
    in blocks, through two buffers of its own."""
    scratch, step = np.empty(_ADAM_BLOCK), np.empty(_ADAM_BLOCK)
    for p, first, second in work:
        # 1-d views of the parameter and its moments, written in place;
        # the gradient, which may be strided, is only read
        g, m, v, w = (a.reshape(-1) for a in (p.grad, first, second, p.data))
        for lo in range(0, w.size, _ADAM_BLOCK):
            hi = min(lo + _ADAM_BLOCK, w.size)
            gb, mb, vb, wb = g[lo:hi], m[lo:hi], v[lo:hi], w[lo:hi]
            sb, stb = scratch[:hi - lo], step[:hi - lo]
            np.multiply(gb, 1.0 - ADAM_BETA1, out=sb)
            np.multiply(mb, ADAM_BETA1, out=mb)
            np.add(mb, sb, out=mb)
            np.multiply(gb, 1.0 - ADAM_BETA2, out=sb)
            np.multiply(sb, gb, out=sb)
            np.multiply(vb, ADAM_BETA2, out=vb)
            np.add(vb, sb, out=vb)
            np.divide(mb, 1.0 - ADAM_BETA1 ** t, out=stb)
            np.multiply(stb, lr, out=stb)
            np.divide(vb, 1.0 - ADAM_BETA2 ** t, out=sb)
            np.sqrt(sb, out=sb)
            np.add(sb, ADAM_EPS, out=sb)
            np.divide(stb, sb, out=stb)
            np.subtract(wb, stb, out=wb)


def init_state(params, lr: float) -> TrainState:
    state = TrainState(lr=lr)
    state.first_moment = {n: np.zeros_like(p.data) for n, p in params.items()}
    state.second_moment = {n: np.zeros_like(p.data) for n, p in params.items()}
    return state


# ---------------------------------------------------------------------------
# plateau / early-stop schedule
# ---------------------------------------------------------------------------

def observe_validation(state: TrainState, value: float,
                       cfg: TrainConfig) -> str:
    """Advance the schedule with one validation accuracy; returns one of
    improved / decayed / stagnant / stopped. Improvement means a strict
    increase over the best value seen."""
    if value > state.best_accuracy:
        state.best_accuracy = value
        state.stagnant = 0
        return "improved"
    if state.decays_used < cfg.max_decays:
        state.lr *= cfg.decay_factor
        state.decays_used += 1
        return "decayed"
    state.stagnant += 1
    if state.stagnant >= cfg.patience:
        state.stopped = True
        return "stopped"
    return "stagnant"


def schedule_trace(values, cfg: TrainConfig) -> list[tuple[str, float]]:
    """Feed a scripted accuracy sequence through the schedule; returns the
    (outcome, lr afterwards) per epoch, stopping where fit() would."""
    state = TrainState(lr=cfg.lr)
    out = []
    for v in values:
        outcome = observe_validation(state, v, cfg)
        out.append((outcome, state.lr))
        if state.stopped:
            break
    return out


# ---------------------------------------------------------------------------
# prediction helpers
# ---------------------------------------------------------------------------

def predict_probabilities(model: TbjeModel, batches) -> np.ndarray:
    """Eval-mode class probabilities, ``SCORE_CHUNK`` examples per pass:
    softmax rows for sentiment tasks, per-label sigmoids for emotions."""
    n = len(next(iter(batches.values())))
    parts = []
    for lo in range(0, max(n, 1), SCORE_CHUNK):     # empty: (0, classes)
        idx = np.arange(lo, min(lo + SCORE_CHUNK, n))
        logits = forward_logits(model, {m: batches[m].take(idx)
                                        for m in model.config.modalities
                                        if m in batches})
        probs = (T.sigmoid(logits) if model.config.task == "emotions-6"
                 else T.softmax(logits, axis=-1))
        parts.append(probs.data)
    return np.vstack(parts)


def ensemble_predict(models, batches) -> np.ndarray:
    """Arithmetic mean of per-model probabilities, each scored as
    ``predict_probabilities`` scores it.

    ``models`` may be any iterable, such as a generator that loads one
    member at a time; each member is dropped before the next is drawn, so
    only one needs to be in memory. A member whose config differs from the
    first raises, naming the keys that differ, once the members before it
    have been scored.
    """
    # a plain loop, not enumerate: enumerate's reused result tuple would
    # keep the previous member alive while the next one loads
    reference, total, count = None, None, 0
    for model in models:
        config = model.config.to_dict()
        if reference is None:
            reference = config
        require_match(f"ensemble member {count} has a different config "
                      f"than member 0", config, reference,
                      (f"member {count}", "member 0"))
        probs = predict_probabilities(model, batches)
        total = probs if total is None else total + probs
        count += 1
        del model
    if total is None:
        raise ContractError("ensemble needs at least one model")
    return total / count


def predictions_from_probabilities(probs: np.ndarray, task: str) -> np.ndarray:
    """Argmax for sentiment tasks, 0.5 thresholding for emotions; applied
    after any ensemble averaging."""
    if task == "emotions-6":
        return (probs >= 0.5).astype(np.int64)
    return np.argmax(probs, axis=-1)


def gold_labels(split, task: str, boundary: float = 0.0) -> np.ndarray:
    if task == "sentiment-7":
        return sentiment_bins(split.sentiment, classes=7)
    if task == "sentiment-2":
        return sentiment_bins(split.sentiment, classes=2, boundary=boundary)
    if task == "emotions-6":
        return np.asarray(split.emotions, dtype=np.int64)
    raise ContractError(f"unknown task {task!r}")


def evaluate_accuracy(model: TbjeModel, split) -> float:
    """Accuracy on a split in eval mode; multi-label inputs score per class."""
    task = model.config.task
    gold = gold_labels(split, task, model.config.sentiment_boundary)
    probs = predict_probabilities(model, split.batches)
    return accuracy(predictions_from_probabilities(probs, task), gold)


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def fit(model: TbjeModel, train, valid, cfg: TrainConfig, member: int = 0,
        state: Optional[TrainState] = None, log_fh=None,
        state_path=None, best_path=None) -> TrainState:
    """Train until the schedule stops or max_epochs; leaves the
    best-validation parameters in the model and returns the final state.

    ``train`` / ``valid`` are label-carrying splits (see tbje.data). Each
    improving epoch writes the model as a checkpoint to ``best_path``, or
    with no path to a temporary directory that lives as long as the fit,
    and the last such checkpoint is read back into the model at the end
    unless the last epoch wrote it. When ``state_path`` is given the live
    state is rewritten after every epoch, and passing the loaded state (with
    its model and the same ``best_path``) back in resumes the exact
    trajectory of an uninterrupted run. A resumed ``cfg`` may differ from the
    state's own only in ``max_epochs`` and ``ensemble_size``. Each epoch's
    log record is a JSON line to ``log_fh``, after a resumed state's log.
    """
    if state is not None and log_fh is not None:
        for record in state.log:
            _write_record(log_fh, record)
    if train.size == 0 or valid.size == 0:
        raise ContractError("fit() needs non-empty train and valid splits")
    params = model.parameter_dict()
    if state is None:
        state = init_state(params, cfg.lr)
    else:
        require_match(f"training config does not match the one member "
                      f"{member}'s state was trained under",
                      state.config or {}, cfg.to_dict(), ("state", "config"),
                      skip=_RESUMABLE)
    state.config = cfg.to_dict()
    task = model.config.task
    labels = gold_labels(train, task, model.config.sentiment_boundary)
    n = train.size

    if state.best_epoch:
        _check_best(best_path, model, state.best_epoch)
    with tempfile.TemporaryDirectory() as scratch:
        best_path = best_path or Path(scratch, "best.tbjm")
        # a kill in the middle of a write leaves this behind
        T.clear_stale(best_path)
        while not state.stopped and state.epoch < cfg.max_epochs:
            state.epoch += 1
            order = make_rng(cfg.seed, "shuffle", member,
                             state.epoch).permutation(n)
            lr_used = state.lr
            weighted_loss = 0.0
            for bi, lo in enumerate(range(0, n, cfg.batch_size)):
                idx = order[lo:lo + cfg.batch_size]
                sub = {m: train.batches[m].take(idx)
                       for m in model.config.modalities}
                for p in params.values():
                    p.grad = None
                with Tape() as tape:
                    logits = forward_logits(
                        model, sub, training=True,
                        rng_seed=derive_seed(cfg.seed, "batch", member,
                                             state.epoch, bi))
                    batch_loss = loss(logits, labels[idx], task)
                    value = batch_loss.item()
                    if not np.isfinite(value):
                        raise NumericError(
                            f"training diverged: non-finite loss (member "
                            f"{member}, epoch {state.epoch}, batch {bi}, "
                            f"lr {lr_used:g}, step {state.step})")
                    tape.backward(batch_loss)
                adam_step(params, state, lr=state.lr)
                weighted_loss += value * len(idx)

            val_accuracy = evaluate_accuracy(model, valid)
            outcome = observe_validation(state, val_accuracy, cfg)
            if outcome == "improved":
                save_model(best_path, model)
                state.best_epoch = state.epoch
            record = {
                "epoch": state.epoch,
                "lr": lr_used,
                "train_loss": weighted_loss / n,
                "val_accuracy": val_accuracy,
                "decays_used": state.decays_used,
            }
            state.log.append(record)
            if log_fh is not None:
                _write_record(log_fh, record)
            if state_path is not None:
                # Live parameters, not the best ones: a resumed run must
                # pick up exactly where this epoch left off.
                save_train_state(state_path, model, state)
        # a best written by the last epoch holds the live parameters
        if state.best_epoch not in (0, state.epoch):
            load_model(best_path, into=model)
    return state


def _write_record(log_fh, record: dict) -> None:
    log_fh.write(json.dumps(record, sort_keys=True) + "\n")
    log_fh.flush()


def _check_best(path, model: TbjeModel, epoch: int) -> None:
    """Before a resumed run: the best checkpoint at ``path`` holds one of
    ``model``'s config and size. Its payload is not read."""
    if path is None:
        raise ContractError(f"resuming a state whose best epoch is {epoch} "
                            f"needs the best_path its checkpoint was "
                            f"written to")
    if not Path(path).is_file():
        raise ConfigError(f"best checkpoint of epoch {epoch} is missing "
                          f"(in {path})")
    T.read_file(path, lambda fh: check_checkpoint(fh, model))


# ---------------------------------------------------------------------------
# state serialization (mid-run resume)
# ---------------------------------------------------------------------------

def save_train_state(path, model: TbjeModel, state: TrainState) -> None:
    """One file holding the schedule counters, best epoch, log so far and
    training config (a JSON header), the live parameters (an embedded
    checkpoint), and then, per parameter name, its two Adam moments. The
    best parameters are not here: fit() keeps them in their own checkpoint.

    An existing file is overwritten in place, not truncated first nor
    replaced by a ``tensor.write_file`` sibling: a fresh file waits for the
    last write's pages and allocates new blocks, and truncating first took
    0.66 s per 0.8 GB state write where overwriting takes 0.33 s. Its magic
    is zeroed first and written last, so a write cut short leaves a file
    that load_train_state rejects, never a mix of two states."""
    header = {key: getattr(state, key) for key in _STATE_HEADER}
    with open(path, "wb", opener=_open_untruncated) as fh:
        T.write_head(fh, bytes(len(STATE_MAGIC)), STATE_VERSION,
                     json.dumps(header, sort_keys=True).encode("utf-8"))
        write_model(fh, model)
        T.write_named(fh, ((name, (state.first_moment[name],
                                   state.second_moment[name]))
                           for name in sorted(state.first_moment)))
        fh.truncate()
        fh.seek(0)
        fh.write(STATE_MAGIC)


def _open_untruncated(path, flags: int) -> int:
    """``open``'s opener for a write-only file that is created if missing
    and kept, not emptied, if it exists."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _read_train_state(fh, into) -> tuple[TbjeModel, TrainState]:
    header = T.read_head(fh, STATE_MAGIC, "train-state", STATE_VERSION,
                         required=_STATE_HEADER)
    # a malformed record is refused on load, not by the resume
    check_section({key: header[key] for key in _STATE_HEADER
                   if key != "config"}, asdict(TrainState(lr=0.0)))
    TrainConfig.from_dict(header["config"])
    model = read_model(fh, into)
    state = TrainState(**{key: header[key] for key in _STATE_HEADER})
    slots = {}
    for name, p in sorted(model.parameter_dict().items()):
        slots[name] = (np.empty(p.data.shape), np.empty(p.data.shape))
        state.first_moment[name], state.second_moment[name] = slots[name]
    T.read_named(fh, slots, ("train-state first moment",
                             "train-state second moment"), "train-state moment")
    return model, state


def load_train_state(path, into: Optional[TbjeModel] = None
                     ) -> tuple[TbjeModel, TrainState]:
    """Read the state at ``path``; every error names ``path``. Given
    ``into``, the live parameters are read into its arrays, and its config
    must equal the state's, as ``read_model`` describes."""
    return T.read_file(path, lambda fh: _read_train_state(fh, into))
