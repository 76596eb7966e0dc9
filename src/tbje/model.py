"""Joint-encoding Transformer for multimodal classification.

One block loop encodes one or more modalities. Per block, the primary
modality runs self-attention and MLP sublayers; every other modality then
runs co-attention whose keys and contents are the primary modality's output
for the same block (lockstep per block). The joint variant adds a glimpse
sublayer to every block; the monomodal variant (one modality) has none.

Classification pools each modality with a final single-glimpse, sums the
resulting vectors element-wise, and applies layer-norm plus one affine map.
"""

from __future__ import annotations

import io
import json
import struct
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError
from .features import ModalityBatch
from .layers import (AffineParams, MhaParams, MlpParams, NamedTensors,
                     SublayerParams, multi_head_attention, positional_encoding,
                     sublayer, xavier_uniform)
from .rng import make_rng
from .tensor import Tensor

MODALITY_TAGS = ("L", "A", "V")
TASK_CLASSES = {"sentiment-2": 2, "sentiment-7": 7, "emotions-6": 6}

CHECKPOINT_MAGIC = b"TBJM"
CHECKPOINT_VERSION = 3
_V1_HEAD_MAPS = ("query", "key", "content")


@dataclass
class EncoderConfig:
    """Architecture hyperparameters. In-block glimpses take one glimpse per
    padded row, the only count that keeps the glimpse residual well-shaped.
    ``sentiment_boundary`` splits gold sentiment into the two sentiment-2
    classes, so a checkpoint carries the labels it was trained on."""

    modalities: tuple[str, ...] = ("L",)
    primary: str = "L"
    blocks: int = 6
    width: int = 512
    heads: int = 4
    mlp_width: int = 1024
    dropout_block: float = 0.1
    dropout_classifier: float = 0.5
    lengths: dict = field(default_factory=lambda: {"L": 50, "A": 40, "V": 40})
    input_widths: dict = field(default_factory=lambda: {"L": 300, "A": 80, "V": 35})
    task: str = "sentiment-2"
    variant: str = "auto"              # auto | monomodal | joint
    positional: dict = field(default_factory=lambda: {"L": True})
    dropout_per_sublayer: bool = True  # False: dropout on the MHA sublayer only
    sentiment_boundary: float = 0.0

    def __post_init__(self):
        self.modalities = tuple(self.modalities)
        self.validate()

    def validate(self):
        if not self.modalities:
            raise ConfigError("at least one modality is required")
        if len(set(self.modalities)) != len(self.modalities):
            raise ConfigError(f"duplicate modalities in {self.modalities}")
        unknown = set(self.modalities) - set(MODALITY_TAGS)
        if unknown:
            raise ConfigError(f"unknown modality tags {sorted(unknown)}; "
                              f"expected subset of {MODALITY_TAGS}")
        if self.primary not in self.modalities:
            raise ConfigError(
                f"primary modality {self.primary!r} not among {self.modalities}")
        if self.task not in TASK_CLASSES:
            raise ConfigError(f"unknown task {self.task!r}; expected one of "
                              f"{sorted(TASK_CLASSES)}")
        if self.sentiment_boundary != 0.0 and self.task != "sentiment-2":
            raise ConfigError(f"sentiment_boundary applies only to "
                              f"sentiment-2, not {self.task!r}")
        if self.variant not in ("auto", "monomodal", "joint"):
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.variant == "monomodal" and len(self.modalities) != 1:
            raise ConfigError("monomodal variant requires exactly one modality")
        if self.blocks < 0:
            raise ConfigError(f"block count must be >= 0, got {self.blocks}")
        if self.width < 1 or self.heads < 1 or self.width % self.heads:
            raise ConfigError(f"width {self.width} must be a positive multiple "
                              f"of head count {self.heads}")
        if not 0.0 <= self.dropout_block < 1.0:
            raise ConfigError(f"block dropout must be in [0, 1), "
                              f"got {self.dropout_block}")
        if not 0.0 <= self.dropout_classifier < 1.0:
            raise ConfigError(f"classifier dropout must be in [0, 1), "
                              f"got {self.dropout_classifier}")
        for m in self.modalities:
            if m not in self.lengths or self.lengths[m] < 1:
                raise ConfigError(f"modality {m} needs a padded length >= 1")
            if m not in self.input_widths or self.input_widths[m] < 1:
                raise ConfigError(f"modality {m} needs an input width >= 1")

    def resolved_variant(self) -> str:
        if self.variant != "auto":
            return self.variant
        return "monomodal" if len(self.modalities) == 1 else "joint"

    def num_classes(self) -> int:
        return TASK_CLASSES[self.task]

    def uses_positional(self, modality: str) -> bool:
        return bool(self.positional.get(modality, False))

    def to_dict(self) -> dict:
        return {
            "modalities": list(self.modalities),
            "primary": self.primary,
            "blocks": self.blocks,
            "width": self.width,
            "heads": self.heads,
            "mlp_width": self.mlp_width,
            "dropout_block": self.dropout_block,
            "dropout_classifier": self.dropout_classifier,
            "lengths": dict(self.lengths),
            "input_widths": dict(self.input_widths),
            "task": self.task,
            "variant": self.variant,
            "positional": dict(self.positional),
            "dropout_per_sublayer": self.dropout_per_sublayer,
            "sentiment_boundary": self.sentiment_boundary,
        }

    @staticmethod
    def from_dict(raw: dict) -> "EncoderConfig":
        # v1 checkpoint headers carry "glimpses": null and no boundary
        if "glimpses" in raw and raw["glimpses"] is None:
            raw = {k: v for k, v in raw.items() if k != "glimpses"}
        known = set(EncoderConfig().to_dict())
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        merged = {**EncoderConfig().to_dict(), **raw}
        merged["modalities"] = tuple(merged["modalities"])
        return EncoderConfig(**merged)


@dataclass
class GlimpseParams:
    """Attention pooling: a shared row embedding to twice the model width and
    one score vector per glimpse. In-block glimpses carry the layer-norm of
    their residual wrapper; the final size-1 glimpse has none."""

    embed: Tensor                       # (k, 2k), deliberately bias-free
    scores: Tensor                      # (G, 2k)
    norm: Optional[SublayerParams] = None

    @staticmethod
    def init(rng: np.random.Generator, width: int, count: int,
             with_norm: bool) -> "GlimpseParams":
        return GlimpseParams(
            embed=Tensor(xavier_uniform(rng, width, 2 * width),
                         requires_grad=True),
            scores=Tensor(xavier_uniform(rng, 2 * width, count).T,
                          requires_grad=True),
            norm=SublayerParams.init(width) if with_norm else None)

    @property
    def count(self) -> int:
        return self.scores.data.shape[0]

    def named(self, prefix: str) -> NamedTensors:
        yield prefix + ".embed", self.embed
        yield prefix + ".scores", self.scores
        if self.norm is not None:
            yield from self.norm.named(prefix + ".norm")


@dataclass
class BlockParams:
    mha: MhaParams
    mha_norm: SublayerParams
    mlp: MlpParams
    mlp_norm: SublayerParams
    glimpse: Optional[GlimpseParams]    # None in the monomodal variant

    def named(self, prefix: str) -> NamedTensors:
        yield from self.mha.named(prefix + ".mha")
        yield from self.mha_norm.named(prefix + ".mha_norm")
        yield from self.mlp.named(prefix + ".mlp")
        yield from self.mlp_norm.named(prefix + ".mlp_norm")
        if self.glimpse is not None:
            yield from self.glimpse.named(prefix + ".glimpse")


@dataclass
class TbjeModel:
    config: EncoderConfig
    input_proj: dict[str, AffineParams]
    blocks: dict[str, list[BlockParams]]
    final_glimpse: dict[str, GlimpseParams]
    head_norm: SublayerParams
    head: AffineParams
    vocab_hash: Optional[str] = None

    def named_parameters(self) -> NamedTensors:
        for m in self.config.modalities:
            yield from self.input_proj[m].named(f"proj.{m}")
            for b, block in enumerate(self.blocks[m]):
                yield from block.named(f"enc.{m}.{b}")
            yield from self.final_glimpse[m].named(f"final.{m}")
        yield from self.head_norm.named("head.norm")
        yield from self.head.named("head.out")

    def parameter_dict(self) -> dict[str, Tensor]:
        return dict(self.named_parameters())


def init_model(config: EncoderConfig, seed: int = 0,
               vocab_hash: Optional[str] = None) -> TbjeModel:
    return _build_model(config, make_rng(seed, "model-init"), vocab_hash)


class _Slots:
    """Stands in for the init RNG when only names and shapes are needed:
    every draw is an uninitialised array for the loader to fill."""

    @staticmethod
    def uniform(low, high, size):
        return np.empty(size)


def _build_model(config: EncoderConfig, rng,
                 vocab_hash: Optional[str]) -> TbjeModel:
    joint = config.resolved_variant() == "joint"
    proj, blocks, finals = {}, {}, {}
    for m in config.modalities:
        proj[m] = AffineParams.init(rng, config.input_widths[m], config.width)
        blocks[m] = []
        for _ in range(config.blocks):
            blocks[m].append(BlockParams(
                mha=MhaParams.init(rng, config.width, config.heads),
                mha_norm=SublayerParams.init(config.width),
                mlp=MlpParams.init(rng, config.width, config.mlp_width),
                mlp_norm=SublayerParams.init(config.width),
                glimpse=(GlimpseParams.init(rng, config.width,
                                            config.lengths[m], with_norm=True)
                         if joint else None)))
        finals[m] = GlimpseParams.init(rng, config.width, 1, with_norm=False)
    return TbjeModel(config=config, input_proj=proj, blocks=blocks,
                     final_glimpse=finals,
                     head_norm=SublayerParams.init(config.width),
                     head=AffineParams.init(rng, config.width,
                                            config.num_classes()),
                     vocab_hash=vocab_hash)


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

def glimpse(m: Tensor, params: GlimpseParams, mask=None) -> Tensor:
    """Attention pooling of rows: score each row per glimpse through the
    shared embedding, masked softmax over rows, weighted sums of the
    original rows. (…, N, k) in, (…, G, k) out.

    Nothing sits between the embedding and the score vectors, so the scores
    are ``m @ (embed @ scoresᵀ)``: rows go through the k×G product, not the
    2k-wide embedding, and the tape differentiates the product back into
    both parameters."""
    if mask is not None and not np.asarray(mask, dtype=bool).any(axis=-1).all():
        raise ContractError("glimpse is undefined when every row is masked")
    score_map = T.matmul(params.embed, T.transpose(params.scores))  # (k, G)
    scores = T.transpose(T.matmul(m, score_map))                 # (…, G, N)
    if mask is not None:
        keep = np.asarray(mask, dtype=bool)
        while keep.ndim < scores.data.ndim:
            keep = keep[..., None, :]
        scores = T.masked_fill(scores, keep, -np.inf)
    return T.matmul(T.softmax(scores, axis=-1), m)


def _check_batch(batch: ModalityBatch, config: EncoderConfig):
    m = batch.modality
    if m not in config.modalities:
        raise ConfigError(f"modality {m!r} not in configured {config.modalities}")
    want = (config.lengths[m], config.input_widths[m])
    if batch.features.shape[1:] != want:
        raise ConfigError(
            f"{m} batch shaped {batch.features.shape[1:]} but the model "
            f"expects (N, width) = {want}")


def _project(batch: ModalityBatch, model: TbjeModel) -> Tensor:
    _check_batch(batch, model.config)
    x = model.input_proj[batch.modality].apply(Tensor(batch.features))
    if model.config.uses_positional(batch.modality):
        x = T.add(x, positional_encoding(batch.features.shape[1],
                                         model.config.width))
    return x


class _DropoutPlan:
    """Resolves the per-sublayer dropout rate and hands each sublayer its own
    derived RNG stream so the draw order is independent of evaluation order."""

    def __init__(self, model: TbjeModel, rng_seed, training: bool):
        self.p = model.config.dropout_block
        self.per_sublayer = model.config.dropout_per_sublayer
        self.training = training and self.p > 0.0
        self.seed = rng_seed
        if self.training and rng_seed is None:
            raise ContractError("training-mode forward needs an RNG seed")

    def rate(self, slot: str) -> float:
        if self.per_sublayer or slot == "mha":
            return self.p
        return 0.0

    def rng(self, *stream):
        if not self.training:
            return None
        return make_rng(self.seed, "dropout", *stream)


def _run_block(x: Tensor, block: BlockParams, plan: _DropoutPlan,
               own_mask: np.ndarray, key: Tensor, key_mask: np.ndarray,
               tag: str, index: int, training: bool) -> Tensor:
    """One encoder block: attention sublayer (self or cross, depending on
    `key`), MLP sublayer, optional glimpse sublayer."""
    x = sublayer(x,
                 lambda t: multi_head_attention(block.mha, t, key, key, key_mask),
                 block.mha_norm, plan.rate("mha"),
                 plan.rng(tag, index, "mha"), training)
    x = sublayer(x, block.mlp.apply, block.mlp_norm, plan.rate("mlp"),
                 plan.rng(tag, index, "mlp"), training)
    if block.glimpse is not None:
        x = sublayer(x, lambda t: glimpse(t, block.glimpse, own_mask),
                     block.glimpse.norm, plan.rate("glimpse"),
                     plan.rng(tag, index, "glimpse"), training)
    return x


def encode_joint(batches: dict[str, ModalityBatch], model: TbjeModel,
                 rng_seed=None, training: bool = False,
                 return_blocks: bool = False):
    """The encoder: per block, the primary modality runs its full block
    first; every other modality then cross-attends to that block output. A
    single modality is a lone primary stream attending to itself. Returns
    {modality: (batch, N_m, k)} and, on request, the per-block trace of
    detached outputs."""
    cfg = model.config
    if cfg.primary not in batches:
        raise ConfigError(f"primary modality {cfg.primary!r} missing from "
                          f"batch dict {sorted(batches)}")
    missing = [m for m in cfg.modalities if m not in batches]
    if missing:
        raise ConfigError(f"batches missing for modalities {missing}")
    plan = _DropoutPlan(model, rng_seed, training)

    states = {m: _project(batches[m], model) for m in cfg.modalities}
    trace = []
    primary = cfg.primary
    primary_mask = batches[primary].mask
    for b in range(cfg.blocks):
        states[primary] = _run_block(
            states[primary], model.blocks[primary][b], plan,
            own_mask=primary_mask, key=states[primary], key_mask=primary_mask,
            tag=primary, index=b, training=training)
        for m in cfg.modalities:
            if m == primary:
                continue
            states[m] = _run_block(
                states[m], model.blocks[m][b], plan,
                own_mask=batches[m].mask, key=states[primary],
                key_mask=primary_mask, tag=m, index=b, training=training)
        if return_blocks:
            trace.append({m: states[m].data.copy() for m in cfg.modalities})
    if return_blocks:
        return states, trace
    return states


def classify(encoded: dict[str, Tensor], masks: dict[str, np.ndarray],
             model: TbjeModel, rng_seed=None, training: bool = False) -> Tensor:
    """Pool each modality with its final single-glimpse, sum element-wise,
    layer-norm, project to logits. Returns (batch, classes)."""
    cfg = model.config
    pooled = None
    for m in cfg.modalities:
        vec = glimpse(encoded[m], model.final_glimpse[m], masks.get(m))
        pooled = vec if pooled is None else T.add(pooled, vec)
    if training and cfg.dropout_classifier > 0.0:
        if rng_seed is None:
            raise ContractError("training-mode forward needs an RNG seed")
        pooled = T.dropout(pooled, cfg.dropout_classifier,
                           make_rng(rng_seed, "dropout", "classifier"), True)
    normed = T.layer_norm(pooled, model.head_norm.gain, model.head_norm.bias)
    logits = model.head.apply(normed)
    batch = logits.data.shape[0]
    return T.reshape(logits, (batch, cfg.num_classes()))


def forward_logits(model: TbjeModel, batches: dict[str, ModalityBatch],
                   rng_seed=None, training: bool = False) -> Tensor:
    """Full forward pass: encoder, then classifier."""
    encoded = encode_joint(batches, model, rng_seed, training)
    masks = {m: batches[m].mask for m in model.config.modalities}
    return classify(encoded, masks, model, rng_seed, training)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def write_model(fh, model: TbjeModel) -> None:
    header = {"config": model.config.to_dict(), "vocab_hash": model.vocab_hash}
    blob = _canonical_json(header)
    fh.write(CHECKPOINT_MAGIC)
    fh.write(struct.pack("<I", CHECKPOINT_VERSION))
    fh.write(struct.pack("<I", len(blob)))
    fh.write(blob)
    named = list(model.named_parameters())
    fh.write(struct.pack("<I", len(named)))
    for name, tensor in named:
        encoded = name.encode("utf-8")
        fh.write(struct.pack("<I", len(encoded)))
        fh.write(encoded)
        T.write_array(fh, tensor.data)


def save_model(path, model: TbjeModel) -> None:
    with open(path, "wb") as fh:
        write_model(fh, model)


def read_model(fh) -> TbjeModel:
    """Parse one checkpoint. The model is built from the header's config as
    uninitialised slots, and each tensor payload is read straight into the
    slot whose name and shape it matches. A version-1 checkpoint's per-head
    payloads fill the column blocks of the fused attention maps. Versions 1
    and 2 store a key bias per attention map, read into a dropped slot."""
    magic = T.read_exact(fh, 4)
    if magic != CHECKPOINT_MAGIC:
        raise ConfigError(f"bad checkpoint magic {magic!r}; "
                          f"expected {CHECKPOINT_MAGIC!r}")
    (version,) = struct.unpack("<I", T.read_exact(fh, 4))
    if version not in range(1, CHECKPOINT_VERSION + 1):
        raise ConfigError(f"unsupported checkpoint version {version}; "
                          f"this build reads 1 to {CHECKPOINT_VERSION}")
    (blob_len,) = struct.unpack("<I", T.read_exact(fh, 4))
    header = T.read_json(T.read_exact(fh, blob_len), "checkpoint header",
                         required=("config",))
    config = EncoderConfig.from_dict(header["config"])
    model = _build_model(config, _Slots(), header.get("vocab_hash"))
    slots = {name: p.data for name, p in model.named_parameters()}
    if version < 3:
        for name in [n for n in slots if n.endswith(".mha.key.weight")]:
            slots[name[:-len("weight")] + "bias"] = np.empty(config.width)
    if version == 1:
        # head i of a query, key or content map was its own tensor there,
        # `….mha.{q,k,c}{i}.{weight,bias}`; it fills column block i here
        for name in [n for n in slots if n.split(".")[-2] in _V1_HEAD_MAPS]:
            block, proj, kind = name.rsplit(".", 2)
            heads = np.split(slots.pop(name), config.heads, axis=-1)
            slots.update((f"{block}.{proj[0]}{i}.{kind}", head)
                         for i, head in enumerate(heads))
    (count,) = struct.unpack("<I", T.read_exact(fh, 4))
    seen = set()
    for _ in range(count):
        (name_len,) = struct.unpack("<I", T.read_exact(fh, 4))
        name = T.read_exact(fh, name_len).decode("utf-8", errors="replace")
        if name not in slots:
            raise ConfigError(f"checkpoint tensor {name!r} has no slot in "
                              f"the configured model")
        T.read_array_into(fh, slots[name], f"checkpoint tensor {name!r}")
        seen.add(name)
    missing = sorted(set(slots) - seen)
    if missing:
        raise ConfigError(f"checkpoint is missing tensors {missing[:5]}"
                          + ("…" if len(missing) > 5 else ""))
    return model


def load_model(path, expect: Optional[EncoderConfig] = None) -> TbjeModel:
    with open(path, "rb") as fh:
        model = read_model(fh)
        if fh.read(1):
            raise ConfigError(f"checkpoint {path} has trailing bytes after "
                              f"its last tensor")
    if expect is not None:
        got, want = model.config.to_dict(), expect.to_dict()
        differ = [f"{k}: checkpoint {got[k]!r}, requested {want[k]!r}"
                  for k in sorted(want) if got[k] != want[k]]
        if differ:
            raise ConfigError("checkpoint config does not match the "
                              "requested configuration (" + "; ".join(differ)
                              + ")")
    return model


def model_bytes(model: TbjeModel) -> bytes:
    buf = io.BytesIO()
    write_model(buf, model)
    return buf.getvalue()
