"""Transformer building blocks: scaled dot-product attention, multi-head
attention over projected subspaces, the position-wise MLP, the residual
sublayer wrapper, and sinusoidal positional encodings.

``named_tensors`` walks a parameter container so the model can iterate
every learnable tensor under a stable dotted name; those names are also the
keys used in checkpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError
from .tensor import Tensor

NamedTensors = Iterator[tuple[str, Tensor]]


def named_tensors(params, prefix: str) -> NamedTensors:
    """Each tensor of the parameter container ``params``, fields in
    declaration order: a ``Tensor`` as ``prefix.field``, a nested container
    walked under that name; ``None`` and ints hold none."""
    for f in fields(params):
        value, name = getattr(params, f.name), f"{prefix}.{f.name}"
        if isinstance(value, Tensor):
            yield name, value
        elif is_dataclass(value):
            yield from named_tensors(value, name)


def xavier_uniform(rng: Optional[np.random.Generator], n_in: int,
                   n_out: int) -> np.ndarray:
    """An (n_in, n_out) Xavier-uniform draw; with no ``rng``, an
    uninitialised array of that shape for a checkpoint reader to fill."""
    if rng is None:
        return np.empty((n_in, n_out))
    limit = math.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-limit, limit, size=(n_in, n_out))


@dataclass
class AffineParams:
    """Learned map x @ weight + bias; weight is (in, out), bias may be None."""

    weight: Tensor
    bias: Optional[Tensor]

    @staticmethod
    def init(rng: Optional[np.random.Generator], n_in: int,
             n_out: int) -> "AffineParams":
        return AffineParams(
            weight=Tensor(xavier_uniform(rng, n_in, n_out), requires_grad=True),
            bias=Tensor(np.zeros(n_out), requires_grad=True))

    def apply(self, x: Tensor) -> Tensor:
        return T.matmul(x, self.weight, self.bias)


@dataclass
class MhaParams:
    """Query, key and content projections (width k -> k, head i in column
    block i) plus the output projection applied after the heads merge. The
    key map is bias-free: a key bias adds the same q·b to every score of a
    query row, which the softmax cancels."""

    query: AffineParams
    key: AffineParams
    content: AffineParams
    out: AffineParams
    heads: int

    @staticmethod
    def init(rng: Optional[np.random.Generator], width: int,
             heads: int) -> "MhaParams":
        if heads < 1 or width % heads != 0:
            raise ConfigError(
                f"hidden width {width} must be a positive multiple of the "
                f"head count {heads}")
        sub = width // heads

        def by_head(bias: bool = True) -> AffineParams:
            # one Xavier draw per head, each limited by its own (k, k/h)
            # shape; with no rng the (k, k) map is allocated once, unfilled
            weight = (xavier_uniform(None, width, width) if rng is None else
                      np.hstack([xavier_uniform(rng, width, sub)
                                 for _ in range(heads)]))
            return AffineParams(
                weight=Tensor(weight, requires_grad=True),
                bias=(Tensor(np.zeros(width), requires_grad=True) if bias
                      else None))

        return MhaParams(query=by_head(), key=by_head(bias=False),
                         content=by_head(),
                         out=AffineParams.init(rng, width, width), heads=heads)


@dataclass
class MlpParams:
    """Two affine maps k -> d_ff -> k with a ReLU between."""

    hidden: AffineParams
    out: AffineParams

    @staticmethod
    def init(rng: Optional[np.random.Generator], width: int,
             inner: int) -> "MlpParams":
        if inner < 1:
            raise ConfigError(f"MLP inner width must be positive, got {inner}")
        return MlpParams(hidden=AffineParams.init(rng, width, inner),
                         out=AffineParams.init(rng, inner, width))

    def apply(self, x: Tensor) -> Tensor:
        return self.out.apply(T.relu(self.hidden.apply(x)))


@dataclass
class SublayerParams:
    """Layer-norm gain and bias owned by one residual sublayer."""

    gain: Tensor
    bias: Tensor

    @staticmethod
    def init(width: int) -> "SublayerParams":
        return SublayerParams(gain=Tensor(np.ones(width), requires_grad=True),
                              bias=Tensor(np.zeros(width), requires_grad=True))


def _key_keep(mask: Optional[np.ndarray], scores_ndim: int) -> Optional[np.ndarray]:
    if mask is None:
        return None
    keep = np.asarray(mask, dtype=bool)
    if not keep.any(axis=-1).all():
        raise ContractError("attention is undefined when every key is masked")
    # broadcast one key-validity row across all query rows
    while keep.ndim < scores_ndim:
        keep = keep[..., None, :]
    return keep


def attention(query: Tensor, key: Tensor, content: Tensor,
              key_mask: Optional[np.ndarray] = None) -> Tensor:
    """softmax(Q Kᵀ / sqrt(width)) C with padded key rows forced to -inf."""
    if key.data.shape[-2] != content.data.shape[-2]:
        raise ContractError(
            f"key rows {key.data.shape[-2]} != content rows "
            f"{content.data.shape[-2]}")
    scores = T.scale(T.matmul(query, T.transpose(key)),
                     1.0 / math.sqrt(query.data.shape[-1]))
    keep = _key_keep(key_mask, scores.data.ndim)
    return T.matmul(T.softmax(scores, axis=-1, keep=keep), content)


def _split_heads(x: Tensor, heads: int) -> Tensor:
    """(…, N, k) -> (…, h, N, k/h): head i is column block i."""
    *lead, width = x.data.shape
    return T.transpose(T.reshape(x, (*lead, heads, width // heads)), -3, -2)


def multi_head_attention(params: MhaParams, query: Tensor, key: Tensor,
                         content: Tensor,
                         key_mask: Optional[np.ndarray] = None) -> Tensor:
    """All heads in one batched attention call over the head axis, merged
    back to (…, N, k) before the output projection."""
    heads = attention(_split_heads(params.query.apply(query), params.heads),
                      _split_heads(params.key.apply(key), params.heads),
                      _split_heads(params.content.apply(content), params.heads),
                      key_mask)
    merged = T.transpose(heads, -3, -2)                         # (…, N, h, k/h)
    *lead, h, sub = merged.data.shape
    return params.out.apply(T.reshape(merged, (*lead, h * sub)))


def sublayer(x: Tensor, f: Callable[[Tensor], Tensor], params: SublayerParams,
             dropout_p: float = 0.0,
             rng: Optional[np.random.Generator] = None) -> Tensor:
    """Residual wrapper layer_norm(x + dropout(f(x))), one tape record; it
    drops only when handed an ``rng``."""
    fx = f(x)
    if fx.data.shape != x.data.shape:
        raise ContractError(
            f"sublayer function changed shape {x.data.shape} -> {fx.data.shape}")
    return T.residual_norm(x, fx, params.gain, params.bias, dropout_p, rng)


def positional_encoding(n: int, width: int) -> Tensor:
    """Sinusoidal position table; row p holds interleaved
    sin(p / 10000^(2i/width)), cos(p / 10000^(2i/width))."""
    if n < 1 or width < 1:
        raise ConfigError(f"positional encoding needs n>=1 and width>=1, "
                          f"got n={n}, width={width}")
    pos = np.arange(n, dtype=np.float64)[:, None]
    even = np.arange(0, width, 2, dtype=np.float64)
    angle = pos / np.power(10000.0, even / width)
    table = np.zeros((n, width))
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle[:, : width // 2])
    return Tensor(table)
