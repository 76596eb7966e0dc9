"""Losses, Adam, the plateau/early-stop schedule, the fit loop, and
ensemble prediction averaging.

The schedule: a validation-accuracy epoch that fails to improve on the best
seen so far first triggers a learning-rate decay (factor 0.2, at most twice);
once decays are exhausted, a patience counter starts and three consecutive
non-improving epochs stop the run. The best-validation parameters are what
fit() leaves in the model.

All randomness (shuffling, dropout) is derived from (seed, member, epoch,
batch) alone, so a run resumed from a saved state replays the exact
trajectory of an uninterrupted one.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, NumericError
from .metrics import accuracy, emotion_predictions, sentiment_bins
# model_bytes is not called here: it is imported so that the benchmark's
# tracer can wrap tbje.training.model_bytes
from .model import (TASK_CLASSES, TbjeModel, forward_logits, model_bytes,
                    read_model, write_model)
from .rng import derive_seed, make_rng
from .tensor import Tape, Tensor

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

STATE_MAGIC = b"TBJS"
STATE_VERSION = 3
# the TrainState fields a state file keeps in its JSON header
_STATE_HEADER = ("step", "epoch", "lr", "best_accuracy", "stagnant",
                 "decays_used", "stopped", "log")


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
        if self.lr < 0:
            raise ConfigError(f"learning rate must be >= 0, got {self.lr}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")
        if not 0.0 < self.decay_factor < 1.0:
            raise ConfigError(
                f"decay factor must lie in (0, 1), got {self.decay_factor}")
        if self.max_decays < 0 or self.patience < 1:
            raise ConfigError("max_decays must be >= 0 and patience >= 1")
        if self.ensemble_size < 1:
            raise ConfigError(
                f"ensemble size must be >= 1, got {self.ensemble_size}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")

    def to_dict(self) -> dict:
        return {
            "lr": self.lr, "batch_size": self.batch_size,
            "decay_factor": self.decay_factor, "max_decays": self.max_decays,
            "patience": self.patience, "ensemble_size": self.ensemble_size,
            "seed": self.seed, "max_epochs": self.max_epochs,
        }

    @staticmethod
    def from_dict(raw: dict) -> "TrainConfig":
        known = set(TrainConfig().to_dict())
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown training config keys {sorted(unknown)}")
        return TrainConfig(**{**TrainConfig().to_dict(), **raw})


@dataclass
class TrainState:
    lr: float
    first_moment: dict = field(default_factory=dict)
    second_moment: dict = field(default_factory=dict)
    step: int = 0
    epoch: int = 0
    best_accuracy: float = float("-inf")
    stagnant: int = 0
    decays_used: int = 0
    stopped: bool = False
    log: list = field(default_factory=list)
    best: dict = field(default_factory=dict)   # name -> best-validation array


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

def adam_step(params, state: TrainState, lr: float,
              beta1: float = ADAM_BETA1, beta2: float = ADAM_BETA2,
              eps: float = ADAM_EPS) -> None:
    """One bias-corrected Adam update over every named parameter, in place:

        m = beta1 m + (1 - beta1) g,   v = beta2 v + (1 - beta2) g g,
        p = p - lr m̂ / (sqrt(v̂) + eps)

    Each operation and its order are those of the formula as written, so
    the result is bit for bit the same; only the buffers are reused."""
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = p.grad
        if g is None:
            raise ContractError(f"no gradient for parameter {name!r}; "
                                f"run backward() first")
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for parameter {name!r} "
                               f"at step {t}")
        m, v = state.first_moment[name], state.second_moment[name]
        scratch = np.multiply(g, 1.0 - beta1)
        np.multiply(m, beta1, out=m)
        np.add(m, scratch, out=m)
        np.multiply(g, 1.0 - beta2, out=scratch)
        np.multiply(scratch, g, out=scratch)
        np.multiply(v, beta2, out=v)
        np.add(v, scratch, out=v)
        step = np.divide(m, 1.0 - beta1 ** t)
        np.multiply(step, lr, out=step)
        np.divide(v, 1.0 - beta2 ** t, out=scratch)
        np.sqrt(scratch, out=scratch)
        np.add(scratch, eps, out=scratch)
        np.divide(step, scratch, out=step)
        np.subtract(p.data, step, out=p.data)


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

def predict_probabilities(model: TbjeModel, batches,
                          chunk: int = 64) -> np.ndarray:
    """Eval-mode class probabilities, ``chunk`` examples per forward pass:
    softmax rows for sentiment tasks, per-label sigmoids for emotions."""
    n = len(next(iter(batches.values())))
    parts = []
    for lo in range(0, max(n, 1), chunk):    # an empty split gives (0, classes)
        idx = np.arange(lo, min(lo + chunk, n))
        logits = forward_logits(model, {m: batches[m].take(idx)
                                        for m in model.config.modalities
                                        if m in batches})
        probs = (T.sigmoid(logits) if model.config.task == "emotions-6"
                 else T.softmax(logits, axis=-1))
        parts.append(probs.data)
    return np.vstack(parts)


def ensemble_predict(models, batches, chunk: int = 64) -> np.ndarray:
    """Arithmetic mean of per-model probabilities, each scored ``chunk``
    examples per forward pass.

    ``models`` may be any iterable, such as a generator that loads one
    member at a time; each member is dropped before the next is drawn, so
    only one needs to be in memory. A member whose config differs from the
    first raises once the members before it have been scored.
    """
    # a plain loop, not enumerate: enumerate's reused result tuple would
    # keep the previous member alive while the next one loads
    reference, total, count = None, None, 0
    for model in models:
        config = model.config.to_dict()
        if reference is None:
            reference = config
        elif config != reference:
            raise ConfigError(f"ensemble member {count} has a different "
                              f"config than member 0")
        probs = predict_probabilities(model, batches, chunk)
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
        return emotion_predictions(probs)
    return np.argmax(probs, axis=-1)


def gold_labels(split, task: str, boundary: float = 0.0) -> np.ndarray:
    if task == "sentiment-7":
        return sentiment_bins(split.sentiment, classes=7)
    if task == "sentiment-2":
        return sentiment_bins(split.sentiment, classes=2, boundary=boundary)
    if task == "emotions-6":
        return np.asarray(split.emotions, dtype=np.int64)
    raise ContractError(f"unknown task {task!r}")


def evaluate_accuracy(model: TbjeModel, split, chunk: int = 64) -> float:
    """Accuracy on a split in eval mode; multi-label inputs score per class."""
    task = model.config.task
    gold = gold_labels(split, task, model.config.sentiment_boundary)
    probs = predict_probabilities(model, split.batches, chunk)
    return accuracy(predictions_from_probabilities(probs, task), gold)


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def fit(model: TbjeModel, train, valid, cfg: TrainConfig, member: int = 0,
        state: Optional[TrainState] = None, log_fh=None,
        state_path=None) -> TrainState:
    """Train until the schedule stops or max_epochs; leaves the
    best-validation parameters in the model and returns the final state.

    ``train`` / ``valid`` are label-carrying splits (see tbje.data). When
    ``state_path`` is given the live state is rewritten after every epoch,
    and passing the loaded state (with its model) back in resumes the
    exact trajectory of an uninterrupted run.
    """
    if train.size == 0 or valid.size == 0:
        raise ContractError("fit() needs non-empty train and valid splits")
    params = model.parameter_dict()
    if state is None:
        state = init_state(params, cfg.lr)
    task = model.config.task
    labels = gold_labels(train, task, model.config.sentiment_boundary)
    if task == "emotions-6":
        labels = labels.astype(np.float64)
    n = train.size

    while not state.stopped and state.epoch < cfg.max_epochs:
        state.epoch += 1
        order = make_rng(cfg.seed, "shuffle", member, state.epoch).permutation(n)
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
                        f"training diverged: non-finite loss (member {member}, "
                        f"epoch {state.epoch}, batch {bi}, lr {lr_used:g}, "
                        f"step {state.step})")
                tape.backward(batch_loss)
            adam_step(params, state, lr=state.lr)
            weighted_loss += value * len(idx)

        val_accuracy = evaluate_accuracy(model, valid)
        outcome = observe_validation(state, val_accuracy, cfg)
        if outcome == "improved":
            if not state.best:
                state.best = {n: np.empty_like(p.data)
                              for n, p in params.items()}
            for name, p in params.items():
                np.copyto(state.best[name], p.data)
        record = {
            "epoch": state.epoch,
            "lr": lr_used,
            "train_loss": weighted_loss / n,
            "val_accuracy": val_accuracy,
            "decays_used": state.decays_used,
        }
        state.log.append(record)
        if log_fh is not None:
            log_fh.write(json.dumps(record, sort_keys=True) + "\n")
            log_fh.flush()
        if state_path is not None:
            # Live parameters, not the best ones: a resumed run must pick
            # up exactly where this epoch left off.
            save_train_state(state_path, model, state)

    # copied into the live buffers: a model that aliased the snapshot would
    # overwrite it with its next in-place Adam step
    for name, best in state.best.items():
        np.copyto(params[name].data, best)
    return state


def train_ensemble(make_model, train, valid, cfg: TrainConfig, log_dir=None,
                   state_dir=None, resume=False):
    """Train cfg.ensemble_size members with seeds cfg.seed + i; returns the
    list of (model, state). ``make_model(seed)`` builds a fresh model.

    With ``state_dir`` each member checkpoints its live state every epoch;
    ``resume=True`` picks up any member whose state file exists. Resumed log
    files are rewritten from the state's own log so the two never disagree.
    """
    members = []
    for i in range(cfg.ensemble_size):
        member_cfg = TrainConfig(**{**cfg.to_dict(), "seed": cfg.seed + i})
        state_path = (None if state_dir is None
                      else Path(state_dir) / f"state-member{i}.tbjs")
        state = None
        if resume and state_path is not None and state_path.is_file():
            model, state = load_train_state(state_path)
        else:
            model = make_model(cfg.seed + i)
        fh = None
        if log_dir is not None:
            fh = open(Path(log_dir) / f"train-member{i}.ndjson", "w",
                      encoding="utf-8")
            if state is not None:
                for record in state.log:
                    fh.write(json.dumps(record, sort_keys=True) + "\n")
                fh.flush()
        try:
            state = fit(model, train, valid, member_cfg, member=i,
                        state=state, log_fh=fh, state_path=state_path)
        finally:
            if fh is not None:
                fh.close()
        members.append((model, state))
    return members


# ---------------------------------------------------------------------------
# state serialization (mid-run resume)
# ---------------------------------------------------------------------------

def save_train_state(path, model: TbjeModel, state: TrainState) -> None:
    """One file holding the schedule counters and log so far (a JSON
    header), the live parameters (an embedded checkpoint), and then, per
    parameter name, its two Adam moments and its best-validation array."""
    header = {key: getattr(state, key) for key in _STATE_HEADER}
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(STATE_MAGIC)
        fh.write(struct.pack("<I", STATE_VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        write_model(fh, model)
        names = sorted(state.first_moment)
        fh.write(struct.pack("<I", len(names)))
        for name in names:
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            T.write_array(fh, state.first_moment[name])
            T.write_array(fh, state.second_moment[name])
            T.write_array(fh, state.best[name])


def load_train_state(path) -> tuple[TbjeModel, TrainState]:
    with open(path, "rb") as fh:
        magic = T.read_exact(fh, 4)
        if magic != STATE_MAGIC:
            raise ConfigError(f"bad train-state magic {magic!r}; expected "
                              f"{STATE_MAGIC!r}")
        (version,) = struct.unpack("<I", T.read_exact(fh, 4))
        if version != STATE_VERSION:
            raise ConfigError(f"unsupported train-state version {version}")
        (blob_len,) = struct.unpack("<I", T.read_exact(fh, 4))
        header = T.read_json(T.read_exact(fh, blob_len), "train-state header",
                             required=_STATE_HEADER)
        model = read_model(fh)
        state = TrainState(**{key: header[key] for key in _STATE_HEADER})
        params = model.parameter_dict()
        mismatch = ("train state moments do not match the model's "
                    "parameter names")
        (count,) = struct.unpack("<I", T.read_exact(fh, 4))
        for _ in range(count):
            (name_len,) = struct.unpack("<I", T.read_exact(fh, 4))
            name = T.read_exact(fh, name_len).decode("utf-8", errors="replace")
            if name not in params:
                raise ConfigError(mismatch)
            for kind, arrays in (("first moment", state.first_moment),
                                 ("second moment", state.second_moment),
                                 ("best array", state.best)):
                arrays[name] = T.read_array_into(
                    fh, np.empty(params[name].data.shape),
                    f"train-state {kind} {name!r}")
        if fh.read(1):
            raise ConfigError(f"train state {path} has trailing bytes after "
                              f"its last array")
    if set(state.first_moment) != set(params):
        raise ConfigError(mismatch)
    return model, state
