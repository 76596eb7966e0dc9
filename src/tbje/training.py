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

import io
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, NumericError
from .metrics import accuracy, emotion_predictions, sentiment_bins
from .model import (TASK_CLASSES, TbjeModel, forward_logits, model_bytes,
                    read_model, write_model)
from .rng import derive_seed, make_rng
from .tensor import Tape, Tensor

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

STATE_MAGIC = b"TBJS"
STATE_VERSION = 1


@dataclass
class TrainConfig:
    lr: float = 1e-4
    batch_size: int = 32
    decay_factor: float = 0.2
    max_decays: int = 2
    patience: int = 3
    ensemble_size: int = 5
    seed: int = 0
    task: str = "sentiment-2"
    max_epochs: int = 500
    sentiment_boundary: float = 0.0

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
        if self.task not in TASK_CLASSES:
            raise ConfigError(f"unknown task {self.task!r}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")

    def to_dict(self) -> dict:
        return {
            "lr": self.lr, "batch_size": self.batch_size,
            "decay_factor": self.decay_factor, "max_decays": self.max_decays,
            "patience": self.patience, "ensemble_size": self.ensemble_size,
            "seed": self.seed, "task": self.task,
            "max_epochs": self.max_epochs,
            "sentiment_boundary": self.sentiment_boundary,
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
    best_blob: Optional[bytes] = None


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
    """One bias-corrected Adam update over every named parameter."""
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
        m = state.first_moment[name] = (
            beta1 * state.first_moment[name] + (1.0 - beta1) * g)
        v = state.second_moment[name] = (
            beta2 * state.second_moment[name] + (1.0 - beta2) * g * g)
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + eps)


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
    """Eval-mode class probabilities: softmax rows for sentiment tasks,
    per-label sigmoids for emotions."""
    logits = forward_logits(model, batches)
    if model.config.task == "emotions-6":
        return T.sigmoid(logits).data
    return T.softmax(logits, axis=-1).data


def ensemble_predict(models: list[TbjeModel], batches) -> np.ndarray:
    """Arithmetic mean of per-model probabilities."""
    if not models:
        raise ContractError("ensemble needs at least one model")
    reference = models[0].config.to_dict()
    for i, m in enumerate(models[1:], start=1):
        if m.config.to_dict() != reference:
            raise ConfigError(f"ensemble member {i} has a different config "
                              f"than member 0")
    total = None
    for m in models:
        probs = predict_probabilities(m, batches)
        total = probs if total is None else total + probs
    return total / len(models)


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


def evaluate_accuracy(model: TbjeModel, split, cfg: TrainConfig,
                      chunk: int = 64) -> float:
    """Accuracy on a split in eval mode; multi-label inputs score per class."""
    gold = gold_labels(split, cfg.task, cfg.sentiment_boundary)
    preds = []
    n = split.size
    for lo in range(0, n, chunk):
        idx = np.arange(lo, min(lo + chunk, n))
        sub = {m: split.batches[m].take(idx) for m in model.config.modalities}
        probs = predict_probabilities(model, sub)
        preds.append(predictions_from_probabilities(probs, cfg.task))
    return accuracy(np.concatenate(preds, axis=0), gold)


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def _restore_blob(model: TbjeModel, blob: bytes) -> None:
    loaded = read_model(io.BytesIO(blob))
    src = loaded.parameter_dict()
    for name, p in model.named_parameters():
        p.data = src[name].data


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
        state.best_blob = model_bytes(model)
    labels = gold_labels(train, cfg.task, cfg.sentiment_boundary)
    if cfg.task == "emotions-6":
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
                batch_loss = loss(logits, labels[idx], cfg.task)
                value = batch_loss.item()
                if not np.isfinite(value):
                    raise NumericError(
                        f"training diverged: non-finite loss (member {member}, "
                        f"epoch {state.epoch}, batch {bi}, lr {lr_used:g}, "
                        f"step {state.step})")
                tape.backward(batch_loss)
            adam_step(params, state, lr=state.lr)
            weighted_loss += value * len(idx)

        val_accuracy = evaluate_accuracy(model, valid, cfg)
        outcome = observe_validation(state, val_accuracy, cfg)
        if outcome == "improved":
            state.best_blob = model_bytes(model)
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

    _restore_blob(model, state.best_blob)
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
    """One file holding the live parameters, Adam moments, schedule counters,
    log so far, and the best checkpoint bytes."""
    header = {
        "step": state.step, "epoch": state.epoch, "lr": state.lr,
        "best_accuracy": state.best_accuracy, "stagnant": state.stagnant,
        "decays_used": state.decays_used, "stopped": state.stopped,
        "log": state.log,
    }
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
        fh.write(struct.pack("<Q", len(state.best_blob)))
        fh.write(state.best_blob)


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
        header = json.loads(T.read_exact(fh, blob_len).decode("utf-8"))
        model = read_model(fh)
        state = TrainState(lr=header["lr"])
        state.step = header["step"]
        state.epoch = header["epoch"]
        state.best_accuracy = header["best_accuracy"]
        state.stagnant = header["stagnant"]
        state.decays_used = header["decays_used"]
        state.stopped = header["stopped"]
        state.log = header["log"]
        (count,) = struct.unpack("<I", T.read_exact(fh, 4))
        for _ in range(count):
            (name_len,) = struct.unpack("<I", T.read_exact(fh, 4))
            name = T.read_exact(fh, name_len).decode("utf-8")
            state.first_moment[name] = T.read_array(fh)
            state.second_moment[name] = T.read_array(fh)
        (best_len,) = struct.unpack("<Q", T.read_exact(fh, 8))
        state.best_blob = T.read_exact(fh, best_len)
    expected = set(dict(model.named_parameters()))
    if set(state.first_moment) != expected:
        raise ConfigError("train state moments do not match the model's "
                          "parameter names")
    return model, state
