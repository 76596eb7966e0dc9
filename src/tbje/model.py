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
import math
from dataclasses import asdict, dataclass, field
from typing import Iterator, Optional

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, read_section, require_match
from .features import ModalityBatch
from .layers import (AffineParams, MhaParams, MlpParams, NamedTensors,
                     SublayerParams, _key_keep, multi_head_attention,
                     named_tensors, positional_encoding, sublayer)
from .rng import fill_uniform, make_rng
from .tensor import Tensor

MODALITY_TAGS = ("L", "A", "V")
TASK_CLASSES = {"sentiment-2": 2, "sentiment-7": 7, "emotions-6": 6}

CHECKPOINT_MAGIC = b"TBJM"
CHECKPOINT_VERSION = 3


@dataclass
class EncoderConfig:
    """Architecture hyperparameters; the defaults are the full-scale
    bimodal L+A recipe, 6 joint blocks of width 512. In-block glimpses take
    one glimpse per padded row, the only count that keeps the glimpse
    residual well-shaped. ``sentiment_boundary`` splits gold sentiment into
    the two sentiment-2 classes, so a checkpoint carries the labels it was
    trained on."""

    modalities: tuple[str, ...] = ("L", "A")
    primary: str = "L"
    blocks: int = 6
    width: int = 512
    heads: int = 4
    mlp_width: int = 1024
    dropout_block: float = 0.1
    dropout_classifier: float = 0.5
    lengths: dict = field(default_factory=lambda: {"L": 50, "A": 40})
    input_widths: dict = field(default_factory=lambda: {"L": 300, "A": 80})
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
        for name in ("lengths", "input_widths", "positional"):
            unknown = sorted(set(getattr(self, name)) - set(MODALITY_TAGS))
            if unknown:
                raise ConfigError(f"encoder.{name} has keys {unknown} that "
                                  f"are not modality tags {MODALITY_TAGS}")
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
        for key, low in (("blocks", 0), ("mlp_width", 1)):
            if getattr(self, key) < low:
                raise ConfigError(f"encoder.{key} must be >= {low}, got "
                                  f"{getattr(self, key)}")
        if self.width < 1 or self.heads < 1 or self.width % self.heads:
            raise ConfigError(f"encoder.width must be a positive multiple of "
                              f"encoder.heads, got {self.width} and "
                              f"{self.heads}")
        for key in ("dropout_block", "dropout_classifier"):
            if not 0.0 <= getattr(self, key) < 1.0:
                raise ConfigError(f"encoder.{key} must be in [0, 1), got "
                                  f"{getattr(self, key)}")
        for m in self.modalities:
            for key, what in (("lengths", "a padded length"),
                              ("input_widths", "an input width")):
                value = getattr(self, key).get(m, "unset")
                if value == "unset" or value < 1:
                    raise ConfigError(f"encoder.{key}.{m} is {value}; "
                                      f"modality {m} needs {what} >= 1")

    def resolved_variant(self) -> str:
        if self.variant != "auto":
            return self.variant
        return "monomodal" if len(self.modalities) == 1 else "joint"

    def num_classes(self) -> int:
        return TASK_CLASSES[self.task]

    def uses_positional(self, modality: str) -> bool:
        return bool(self.positional.get(modality, False))

    def to_dict(self) -> dict:
        return {**asdict(self), "modalities": list(self.modalities)}

    @staticmethod
    def from_dict(raw: dict) -> "EncoderConfig":
        return read_section(EncoderConfig, raw, "encoder")


@dataclass
class GlimpseParams:
    """Attention pooling: a shared row embedding to twice the model width and
    one score vector per glimpse. In-block glimpses carry the layer-norm of
    their residual wrapper; the final size-1 glimpse has none."""

    embed: Tensor                       # (k, 2k), deliberately bias-free
    scores: Tensor                      # (G, 2k)
    norm: Optional[SublayerParams] = None

    @staticmethod
    def init(width: int, count: int, with_norm: bool) -> "GlimpseParams":
        """Uninitialised embedding and scores, for ``init_model`` or a
        checkpoint reader to fill."""
        return GlimpseParams(
            embed=Tensor(np.empty((width, 2 * width)), requires_grad=True),
            scores=Tensor(np.empty((count, 2 * width)), requires_grad=True),
            norm=SublayerParams.init(width) if with_norm else None)


@dataclass
class BlockParams:
    mha: MhaParams
    mha_norm: SublayerParams
    mlp: MlpParams
    mlp_norm: SublayerParams
    glimpse: Optional[GlimpseParams]    # None in the monomodal variant


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
            yield from named_tensors(self.input_proj[m], f"proj.{m}")
            for b, block in enumerate(self.blocks[m]):
                yield from named_tensors(block, f"enc.{m}.{b}")
            yield from named_tensors(self.final_glimpse[m], f"final.{m}")
        yield from named_tensors(self.head_norm, "head.norm")
        yield from named_tensors(self.head, "head.out")

    def parameter_dict(self) -> dict[str, Tensor]:
        return dict(self.named_parameters())


def init_model(config: EncoderConfig, seed: int = 0,
               vocab_hash: Optional[str] = None) -> TbjeModel:
    """The model ``config`` describes, each weight Xavier-uniform from the
    ``seed``'s "model-init" stream, each bias at zero and each layer-norm
    at unit gain."""
    model = _build_model(config, vocab_hash)
    fill_uniform(make_rng(seed, "model-init"),
                 [(dest, math.sqrt(6.0 / sum(dest.shape)))
                  for dest in _xavier_slots(model)])
    return model


def _xavier_slots(model: TbjeModel) -> Iterator[np.ndarray]:
    """Each array ``init_model`` draws, in draw order: every 2-D parameter
    in ``named_parameters`` order, except that a query, key or content map
    is drawn one head's column block at a time and a glimpse's (G, 2k)
    scores as their (2k, G) transpose. Each draw's Xavier limit comes from
    its own shape, so a head's from (k, k/h)."""
    for name, p in model.named_parameters():
        if p.data.ndim != 2:
            continue
        if name.endswith((".query.weight", ".key.weight", ".content.weight")):
            yield from np.hsplit(p.data, model.config.heads)
        elif name.endswith(".scores"):
            yield p.data.T
        else:
            yield p.data


def _build_model(config: EncoderConfig,
                 vocab_hash: Optional[str]) -> TbjeModel:
    """The model ``config`` describes with every weight an uninitialised
    array, for ``init_model`` or a checkpoint reader to fill."""
    joint = config.resolved_variant() == "joint"
    proj, blocks, finals = {}, {}, {}
    for m in config.modalities:
        proj[m] = AffineParams.init(config.input_widths[m], config.width)
        blocks[m] = []
        for _ in range(config.blocks):
            blocks[m].append(BlockParams(
                mha=MhaParams.init(config.width, config.heads),
                mha_norm=SublayerParams.init(config.width),
                mlp=MlpParams.init(config.width, config.mlp_width),
                mlp_norm=SublayerParams.init(config.width),
                glimpse=(GlimpseParams.init(config.width, config.lengths[m],
                                            with_norm=True)
                         if joint else None)))
        finals[m] = GlimpseParams.init(config.width, 1, with_norm=False)
    return TbjeModel(config=config, input_proj=proj, blocks=blocks,
                     final_glimpse=finals,
                     head_norm=SublayerParams.init(config.width),
                     head=AffineParams.init(config.width,
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
    keep = _key_keep(mask, m.data.ndim)     # the rows are the keys
    score_map = T.matmul(params.embed, T.transpose(params.scores))  # (k, G)
    scores = T.transpose(T.matmul(m, score_map))                 # (…, G, N)
    return T.matmul(T.softmax(scores, axis=-1, keep=keep), m)


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
    """The one place that decides dropout. Each site asks for its (rate,
    RNG); a training-mode site with a rate above 0 gets an RNG of its own
    derived stream, so the draws do not depend on the evaluation order,
    and every other site gets no RNG and so drops nothing."""

    def __init__(self, config: EncoderConfig, rng_seed, training: bool):
        self.config = config
        self.seed = rng_seed
        self.training = training

    def site(self, *stream) -> tuple[float, Optional[np.random.Generator]]:
        cfg = self.config
        if stream == ("classifier",):
            p = cfg.dropout_classifier
        elif cfg.dropout_per_sublayer or stream[-1] == "mha":
            p = cfg.dropout_block
        else:
            p = 0.0
        if not self.training or p == 0.0:
            return p, None
        if self.seed is None:
            raise ContractError("training-mode forward needs an RNG seed")
        return p, make_rng(self.seed, "dropout", *stream)


def _run_block(x: Tensor, block: BlockParams, plan: _DropoutPlan,
               own_mask: np.ndarray, key: Tensor, key_mask: np.ndarray,
               tag: str, index: int) -> Tensor:
    """One encoder block: attention sublayer (self or cross, depending on
    `key`), MLP sublayer, optional glimpse sublayer."""
    x = sublayer(x,
                 lambda t: multi_head_attention(block.mha, t, key, key, key_mask),
                 block.mha_norm, *plan.site(tag, index, "mha"))
    x = sublayer(x, block.mlp.apply, block.mlp_norm,
                 *plan.site(tag, index, "mlp"))
    if block.glimpse is not None:
        x = sublayer(x, lambda t: glimpse(t, block.glimpse, own_mask),
                     block.glimpse.norm, *plan.site(tag, index, "glimpse"))
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
    plan = _DropoutPlan(cfg, rng_seed, training)

    states = {m: _project(batches[m], model) for m in cfg.modalities}
    trace = []
    primary = cfg.primary
    order = (primary, *(m for m in cfg.modalities if m != primary))
    for b in range(cfg.blocks):
        for m in order:
            # the primary's keys are read before its state is replaced:
            # itself for the primary, its block output for the others
            states[m] = _run_block(
                states[m], model.blocks[m][b], plan, batches[m].mask,
                key=states[primary], key_mask=batches[primary].mask,
                tag=m, index=b)
        if return_blocks:
            trace.append({m: states[m].data.copy() for m in cfg.modalities})
    if return_blocks:
        return states, trace
    return states


def classify(encoded: dict[str, Tensor], masks: dict[str, np.ndarray],
             model: TbjeModel, rng_seed=None, training: bool = False) -> Tensor:
    """Pool each modality with its final single-glimpse, sum element-wise,
    dropout, layer-norm, project to logits. Returns (batch, classes)."""
    cfg = model.config
    pooled = None
    for m in cfg.modalities:
        vec = glimpse(encoded[m], model.final_glimpse[m], masks.get(m))
        pooled = vec if pooled is None else T.add(pooled, vec)
    pooled = T.dropout(pooled, *_DropoutPlan(cfg, rng_seed, training)
                       .site("classifier"))
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

def write_model(fh, model: TbjeModel) -> None:
    header = {"config": model.config.to_dict(), "vocab_hash": model.vocab_hash}
    T.write_head(fh, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, json.dumps(
        header, sort_keys=True, separators=(",", ":")).encode("utf-8"))
    T.write_named(fh, ((name, (t.data,))
                       for name, t in model.named_parameters()))


def _require_config(config: EncoderConfig, model: TbjeModel) -> None:
    """Raise a one-line ConfigError naming each field in which a
    checkpoint's ``config`` differs from ``model.config``."""
    require_match("checkpoint config does not match the model it is read "
                  "into", config.to_dict(), model.config.to_dict(),
                  ("checkpoint", "model"))


class _ByteCount:
    """A sink that counts the bytes written to it and keeps none."""

    size = 0

    def write(self, data) -> None:
        self.size += memoryview(data).nbytes


def check_checkpoint(fh, model: TbjeModel) -> None:
    """Check, without reading any payload, that the checkpoint in ``fh``
    has ``model``'s config and exactly the size ``write_model`` gives
    ``model``; leaves ``fh`` at its end."""
    header = T.read_head(fh, CHECKPOINT_MAGIC, "checkpoint",
                         CHECKPOINT_VERSION, required=("config",))
    _require_config(EncoderConfig.from_dict(header["config"]), model)
    want = _ByteCount()
    write_model(want, model)
    size = fh.seek(0, io.SEEK_END)
    if size != want.size:
        raise ConfigError(f"checkpoint holds {size} bytes; this model's "
                          f"checkpoint holds {want.size}")


def save_model(path, model: TbjeModel) -> None:
    T.write_file(path, lambda fh: write_model(fh, model))


def read_model(fh, into: Optional[TbjeModel] = None) -> TbjeModel:
    """Parse one checkpoint. The model is built from the header's config as
    uninitialised slots, and each tensor payload is read straight into the
    slot whose name and shape it matches.

    Given ``into``, a model whose config must equal the header's, the
    payloads overwrite ``into``'s own arrays and ``into`` is returned; a
    config mismatch raises before any payload is read, a later error leaves
    ``into`` partly overwritten."""
    header = T.read_head(fh, CHECKPOINT_MAGIC, "checkpoint",
                         CHECKPOINT_VERSION, required=("config",))
    config = EncoderConfig.from_dict(header["config"])
    if into is None:
        model = _build_model(config, header.get("vocab_hash"))
    else:
        _require_config(config, into)
        model = into
        model.vocab_hash = header.get("vocab_hash")
    T.read_named(fh, {name: (p.data,) for name, p in model.named_parameters()},
                 ("checkpoint tensor",), "checkpoint tensor")
    return model


def load_model(path, into: Optional[TbjeModel] = None) -> TbjeModel:
    """Read the checkpoint at ``path``; given ``into``, its arrays are
    overwritten as ``read_model`` describes. Every error names ``path``."""
    return T.read_file(path, lambda fh: read_model(fh, into))


def model_bytes(model: TbjeModel) -> bytes:
    buf = io.BytesIO()
    write_model(buf, model)
    return buf.getvalue()
