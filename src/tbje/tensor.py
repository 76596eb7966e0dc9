"""Dense float64 tensors with reverse-mode automatic differentiation.

A ``Tape`` is a Wengert list: every primitive a thread executes while a
tape is active on that thread appends a record ``(output slot, input
slots, vjp)``. Each thread records on its own tape, so two threads can
each run a forward and backward pass at once (on models they do not
share: gradients accumulate into the parameters' ``.grad``). The vjp maps
the output gradient to one gradient per input, and ``Tape.backward`` adds
each to its input's slot, so the routing lives in one place. Backward
walks the records in exact reverse execution order, so no graph search is
needed. It consumes the records as it goes: each record is dropped once
its vjp has run, so the closure and the arrays it captured are freed while
the tape unwinds, and each op output's gradient is cleared once propagated.

A record keeps only what backward reads. Each tensor's gradient lives in
a small slot object apart from its data; an input that takes no gradient
has no slot in the record, and the vjp returns ``None`` for it instead of
computing it. A vjp closes over the shapes and flags it needs and the
arrays its formula reads, never over a ``Tensor``. So an op output lives
as long as forward code holds it or some vjp reads its array: a
sublayer's output projection, the pre-ReLU activation or the attention
scores before the softmax are freed during forward. Dropout masks are kept
as ``bool``, one byte per entry.

Some op outputs are not kept on the tape but rebuilt during backward. A
taped output carries a rebuild (``_Rebuild``) that the records reading it
hold instead; the first of them to run in backward recomputes the output,
bit for bit and with no weight GEMM, from arrays the tape keeps anyway. A
residual sublayer's output, ``xhat * gain + bias``, is rebuilt from the
``xhat`` its own record keeps; a batched ``matmul`` from its two kept
operands; ``scale``, ``transpose``, ``reshape`` and ``softmax`` from their
input's rebuild, when it has one. So the records of an attention keep only
its Q, K and V: backward recomputes the scores, the softmax weights (which
softmax's own vjp reads from its rebuild) and the merged head copy that
the out projection reads. ``xhat``, Q/K/V, relu outputs and the glimpse
weights stay on the tape: ``xhat`` needs the sublayer's input sum, which
the tape does not keep, and the others are read off a weight GEMM, which
would cost more to redo than the memory is worth.

Everything is float64. Gradients accumulate into ``Tensor.grad`` (a numpy
array of the same shape as ``Tensor.data``); after ``backward`` only leaf
tensors (parameters and inputs, which no recorded op produced) keep theirs.

Two primitives cover a whole layer each, so the tape holds one record where
a chain of small ops would hold several, each with its own activation:
``matmul`` with a ``bias`` is the affine map ``x @ W + b``, and
``residual_norm`` is the residual sublayer ``layer_norm(x + dropout(fx))``.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import struct
import sys
import threading
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, NumericError, ShapeError

__all__ = [
    "Tensor", "Tape", "add", "mul", "scale", "matmul", "transpose",
    "reshape", "tsum", "tmean", "softmax", "log_softmax", "sigmoid",
    "log_sigmoid", "relu", "layer_norm", "residual_norm", "dropout",
]

_this_thread = threading.local()        # .tape: where this thread records


class Tape:
    """Ordered record of executed primitives for one forward pass.

    Use as a context manager around the forward computation, then call
    :meth:`backward` on the scalar loss. A tape can be replayed backward
    once; a second call without a fresh forward raises ``ContractError``.
    """

    def __init__(self):
        self._records = []
        self._consumed = False
        self._prev = None

    def __enter__(self):
        self._prev = getattr(_this_thread, "tape", None)
        _this_thread.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _this_thread.tape = self._prev
        return False

    def __len__(self):
        return len(self._records)

    def backward(self, loss: "Tensor") -> None:
        """Propagate d(loss)/d(x) into ``x.grad`` for every recorded ancestor.

        The tape is consumed: each record is popped once its vjp has run,
        and the gradient of every op output is set back to ``None`` once
        propagated, so only leaf tensors keep a gradient afterwards. Input
        gradients are added in input order.
        """
        if self._consumed:
            raise ContractError(
                "tape already replayed; run a fresh forward pass before "
                "calling backward() again")
        if loss.data.size != 1:
            raise ContractError(
                f"backward() needs a scalar loss, got shape {loss.data.shape}")
        self._consumed = True
        loss.grad = np.ones_like(loss.data)
        records = self._records
        while records:
            slot, inputs, vjp = records.pop()
            if slot.grad is None:
                continue
            for target, g in zip(inputs, vjp(slot.grad)):
                if target is not None:
                    _accumulate(target, g)
            slot.grad = None


class _GradSlot:
    """Where one tensor's gradient accumulates, shared by the tensor and the
    tape records that produce or read it, so no record keeps the tensor's
    data alive."""

    __slots__ = ("grad",)

    def __init__(self):
        self.grad = None


class Tensor:
    """A dense float64 array, optionally participating in gradient taping."""

    __slots__ = ("data", "requires_grad", "_slot", "_rebuild", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        # contiguity matters: gradcheck and serialization treat a leaf's
        # .data as a flat buffer, which a strided view would silently break.
        # Op outputs skip this (see _from_op): a transpose stays a view.
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self._slot = _GradSlot()
        self._rebuild = None

    @property
    def grad(self):
        return self._slot.grad

    @grad.setter
    def grad(self, value):
        self._slot.grad = value

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a one-element tensor, got {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


class _Rebuild:
    """Recomputes an op output during backward, so that the records reading
    it need not keep it: the first ``get()`` returns ``make(*args)``, with
    each rebuild among ``args`` replaced by its own ``get()``. The result is
    cached until the last record holding this rebuild is dropped, and
    ``make`` and ``args`` are let go once it is made, so a chain of
    rebuilds keeps only the results still read. ``make`` and ``args`` hold
    arrays and rebuilds only, never a ``Tensor``."""

    __slots__ = ("_make", "_args", "_data")

    def __init__(self, make, *args):
        self._make = make
        self._args = args
        self._data = None

    def get(self) -> np.ndarray:
        if self._data is None:
            self._data = self._make(*map(_read, self._args))
            self._make = self._args = None
        return self._data


def _kept(t: Tensor, arr: np.ndarray):
    """What a vjp keeps to read ``arr``, the array of ``t`` or a view of it:
    ``t``'s rebuild when it has one, else ``arr``. ``_read`` gives back the
    array, in ``t``'s shape for a rebuild."""
    return arr if t._rebuild is None else t._rebuild


def _read(kept):
    return kept.get() if isinstance(kept, _Rebuild) else kept


def _rebuilt_from(a: Tensor, make, *args):
    """A rebuild of ``make(a's array, *args)`` when ``a`` carries a rebuild,
    else ``None``: an op whose record keeps nothing else can be rebuilt
    only from its input's rebuild."""
    return None if a._rebuild is None else _Rebuild(make, a._rebuild, *args)


def _from_op(data, inputs, vjp, rebuild: _Rebuild | None = None):
    """Build the op output and, when grads are wanted, record ``vjp``.

    ``inputs`` lists the op's tensor arguments in the order its vjp returns
    their gradients; an optional one that was not given is ``None``. The
    output keeps the layout of ``data``, so a strided view is not copied.
    A recorded output carries ``rebuild``, which recomputes ``data``
    bit for bit; an unrecorded one carries none, so it keeps nothing
    extra."""
    out = Tensor.__new__(Tensor)
    out.data = np.asarray(data, dtype=np.float64)
    slots = tuple(t._slot if t is not None and t.requires_grad else None
                  for t in inputs)
    out.requires_grad = any(s is not None for s in slots)
    out._slot = _GradSlot()
    out._rebuild = None
    tape = getattr(_this_thread, "tape", None)
    if out.requires_grad and tape is not None:
        tape._records.append((out._slot, slots, vjp))
        out._rebuild = rebuild
    return out


def _accumulate(target, g):
    """Add ``g`` to the gradient of ``target``, a grad slot or a tensor."""
    # no vjp writes into a .grad, so a first gradient is stored uncopied
    if target.grad is None:
        target.grad = g
    else:
        target.grad = target.grad + g


def _unbroadcast(g, shape):
    """Sum ``g`` down to ``shape``, undoing numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------
#
# Each primitive first binds what its vjp reads to locals: shapes, flags
# such as ``wa``/``wb`` for the inputs that take a gradient, and the arrays
# the backward formula reads. Then it defines the vjp over those locals, so
# the closure holds no ``Tensor``. Work that only backward needs, such as
# relu's mask or log_softmax's ``exp``, runs inside the vjp. The vjp
# returns a tuple with one gradient per input, ``None`` for an input that
# takes none.

def add(a: Tensor, b: Tensor) -> Tensor:
    wa, wb = a.requires_grad, b.requires_grad
    shape_a, shape_b = a.data.shape, b.data.shape
    return _from_op(a.data + b.data, (a, b), lambda g: (
        _unbroadcast(g, shape_a) if wa else None,
        _unbroadcast(g, shape_b) if wb else None))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (broadcasting) product."""
    wa, wb, ad, bd = a.requires_grad, b.requires_grad, a.data, b.data
    return _from_op(ad * bd, (a, b), lambda g: (
        _unbroadcast(g * bd, ad.shape) if wa else None,
        _unbroadcast(g * ad, bd.shape) if wb else None))


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar constant."""
    c = float(c)
    return _from_op(a.data * c, (a,), lambda g: (g * c,),
                    _rebuilt_from(a, np.multiply, c))


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """Matrix product over the last two axes, broadcasting leading (batch) axes.

    A 2-D right operand (a weight) takes one GEMM over ``a`` flattened to
    ``(rows, k)``, forward and backward, so the weight gradient is a single
    ``a2d.T @ g2d`` instead of one product per batch row summed afterwards.
    Such a product may take a ``bias`` added to every row: the affine map
    ``a @ b + bias`` as one record.
    """
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(
            f"matmul needs >=2-d operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(
            f"matmul inner extents disagree: {a.data.shape} vs {b.data.shape}")
    if b.data.ndim == 2:
        return _matmul_weight(a, b, bias)
    if bias is not None:
        raise ShapeError("a matmul bias needs a 2-d right operand")
    wa, wb = a.requires_grad, b.requires_grad
    shape_a, shape_b = a.data.shape, b.data.shape
    a_kept, b_kept = _kept(a, a.data), _kept(b, b.data)
    return _from_op(a.data @ b.data, (a, b), lambda g: (
        _unbroadcast(g @ np.swapaxes(_read(b_kept), -1, -2), shape_a)
        if wa else None,
        _unbroadcast(np.swapaxes(_read(a_kept), -1, -2) @ g, shape_b)
        if wb else None), _Rebuild(np.matmul, a_kept, b_kept))


def _matmul_weight(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """``a @ b (+ bias)`` for a 2-D ``b``, as GEMMs over the rows of ``a``.
    The bias is added in place to the fresh product. When ``a`` takes no
    gradient (an input projection), its ``g2d @ bᵀ`` GEMM is skipped."""
    shape = a.data.shape
    rows = math.prod(shape[:-1])
    a2d, bd = a.data.reshape(rows, shape[-1]), b.data
    data = a2d @ bd
    if bias is not None:
        if bias.data.shape != bd.shape[1:]:
            raise ShapeError(f"matmul bias shaped {bias.data.shape}, want "
                             f"{bd.shape[1:]}")
        data += bias.data
    wa, wb = a.requires_grad, b.requires_grad
    wbias = bias is not None and bias.requires_grad
    a_kept = _kept(a, a2d)

    def vjp(g):
        g2d = g.reshape(rows, bd.shape[1])
        return ((g2d @ bd.T).reshape(shape) if wa else None,
                _read(a_kept).reshape(rows, shape[-1]).T @ g2d
                if wb else None,
                g2d.sum(0) if wbias else None)

    return _from_op(data.reshape(shape[:-1] + bd.shape[1:]), (a, b, bias),
                    vjp)


def transpose(a: Tensor, axis0: int = -2, axis1: int = -1) -> Tensor:
    return _from_op(np.swapaxes(a.data, axis0, axis1), (a,),
                    lambda g: (np.swapaxes(g, axis0, axis1),),
                    _rebuilt_from(a, np.swapaxes, axis0, axis1))


def reshape(a: Tensor, shape) -> Tensor:
    shape_a = a.data.shape
    return _from_op(a.data.reshape(shape), (a,),
                    lambda g: (g.reshape(shape_a),),
                    _rebuilt_from(a, np.reshape, shape))


def _reduction(a: Tensor, data, axis, keepdims: bool, count=None) -> Tensor:
    """The record of a sum (``count=None``) or mean of ``a`` over ``axis``:
    the gradient spreads back over the reduced entries."""
    shape_a = a.data.shape

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        g = np.broadcast_to(g, shape_a)
        return (g if count is None else g / count,)

    return _from_op(data, (a,), vjp)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    return _reduction(a, a.data.sum(axis=axis, keepdims=keepdims), axis,
                      keepdims)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.mean(axis=axis, keepdims=keepdims)
    return _reduction(a, data, axis, keepdims, a.data.size / data.size)


def _check_softmax_input(x, axis):
    if np.isnan(x).any() or np.isposinf(x).any():
        raise NumericError("softmax input contains NaN or +inf")
    if np.isneginf(np.max(x, axis=axis)).any():
        raise NumericError("softmax over a fully -inf slice is undefined")


def _softmax(x, axis, keep, check=False):
    """Max-shifted softmax of ``x`` along ``axis`` with the entries where
    ``keep`` is false set to -inf first; ``check`` validates that input."""
    if keep is not None:
        x = np.where(keep, x, -np.inf)
    if check:
        _check_softmax_input(x, axis)
    shift = np.max(x, axis=axis, keepdims=True)
    e = np.exp(x - shift)
    return e / e.sum(axis=axis, keepdims=True)


def softmax(a: Tensor, axis: int = -1, keep=None) -> Tensor:
    """Max-shifted softmax along ``axis``. -inf entries get exactly zero
    weight, and so do the entries where the bool mask ``keep``, broadcast
    against ``a``, is false; no gradient flows back through those. When
    ``a`` carries a rebuild, the output carries one from it, and the vjp
    reads that instead of keeping the probabilities."""
    data = _softmax(a.data, axis, keep, check=True)
    rebuild = _rebuilt_from(a, _softmax, axis, keep)
    probs = data if rebuild is None else rebuild

    def vjp(g):
        p = _read(probs)
        gs = (g - (g * p).sum(axis=axis, keepdims=True)) * p
        return (gs if keep is None else np.where(keep, gs, 0.0),)

    return _from_op(data, (a,), vjp, rebuild)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    _check_softmax_input(a.data, axis)
    shift = np.max(a.data, axis=axis, keepdims=True)
    centered = a.data - shift
    lse = np.log(np.exp(centered).sum(axis=axis, keepdims=True))
    data = centered - lse
    return _from_op(data, (a,), lambda g: (
        g - np.exp(data) * g.sum(axis=axis, keepdims=True),))


def _stable_sigmoid(x):
    """sigmoid(x) from e = exp(-|x|), which never overflows; e is formed once."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a: Tensor) -> Tensor:
    data = _stable_sigmoid(a.data)
    return _from_op(data, (a,), lambda g: (g * data * (1.0 - data),))


def log_sigmoid(a: Tensor) -> Tensor:
    """log(sigmoid(x)) without overflow for large |x|."""
    x = a.data
    softplus = np.log1p(np.exp(-np.abs(x)))
    data = np.where(x >= 0, -softplus, x - softplus)
    # d/dx log(sigmoid(x)) = sigmoid(-x)
    return _from_op(data, (a,), lambda g: (g * _stable_sigmoid(-x),))


def relu(a: Tensor) -> Tensor:
    """max(x, 0). The vjp reads the output, not the input: ``data > 0`` is
    ``x > 0`` entry for entry, NaN included, and the record after a relu
    (the MLP's out projection) holds that output anyway."""
    data = np.maximum(a.data, 0.0)
    return _from_op(data, (a,), lambda g: (g * (data > 0),))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Standardize the last axis to mean 0, variance 1, then apply gain/bias.

    The variance estimate is floored at ``eps`` instead of being inflated by
    it, so ordinary rows come out with variance 1 to float precision while
    constant rows map to zero without a division by zero.
    """
    return residual_norm(x, None, gain, bias, eps=eps)


def residual_norm(x: Tensor, fx: Tensor | None, gain: Tensor, bias: Tensor,
                  p: float = 0.0, rng: np.random.Generator | None = None,
                  eps: float = 1e-5) -> Tensor:
    """``layer_norm(x + dropout(fx, p, rng), gain, bias, eps)`` as one
    record; ``fx=None`` is ``layer_norm(x, gain, bias, eps)``.

    Values, gradients and the dropout draw are bit-identical to that chain
    of three ops, but the record keeps only the bool dropout mask, the
    standardized sum and its per-row scale, not ``fx``, the masked branch
    or the sum. A taped output carries a rebuild from the standardized sum,
    so the records that read it need not keep it either.
    """
    width = x.data.shape[-1]
    if gain.data.shape != (width,) or bias.data.shape != (width,):
        raise ShapeError(
            f"layer_norm gain/bias must have shape ({width},), got "
            f"{gain.data.shape} and {bias.data.shape}")
    keep, s = None, x.data
    if fx is not None:
        keep = _dropout_keep(fx.data.shape, p, rng)
        s = s + (fx.data if keep is None else _drop(fx.data, keep, p))
    mu = s.mean(axis=-1, keepdims=True)
    centered = s - mu
    del s
    var = (centered * centered).mean(axis=-1, keepdims=True)
    denom = np.sqrt(np.maximum(var, eps))
    xhat = centered / denom
    del centered
    gain_data, bias_data = gain.data, bias.data

    def output():
        return xhat * gain_data + bias_data

    wx, wfx, wgain, wbias = (t is not None and t.requires_grad
                             for t in (x, fx, gain, bias))

    def vjp(g):
        ggain = (g * xhat).reshape(-1, width).sum(axis=0) if wgain else None
        gbias = g.reshape(-1, width).sum(axis=0) if wbias else None
        if not (wx or wfx):
            return None, None, ggain, gbias
        gx = g * gain_data
        mean_gx = gx.mean(axis=-1, keepdims=True)
        mean_gx_xhat = (gx * xhat).mean(axis=-1, keepdims=True)
        # the variance term vanishes where the eps floor is active
        correction = np.where(var <= eps, 0.0, xhat * mean_gx_xhat)
        gs = (gx - mean_gx - correction) / denom
        gfx = None
        if wfx:
            gfx = gs if keep is None else _drop(gs, keep, p)
        return gs if wx else None, gfx, ggain, gbias

    # a rebuild runs the forward's expression on its arrays: the same bytes
    return _from_op(output(), (x, fx, gain, bias), vjp, _Rebuild(output))


def _dropout_keep(shape, p: float,
                  rng: np.random.Generator | None) -> np.ndarray | None:
    """The inverted-dropout keep mask as ``bool``, or ``None`` where dropout
    is the identity (no ``rng``, or p == 0)."""
    if rng is None or p == 0.0:
        return None
    if not 0.0 < p < 1.0:
        raise ContractError(f"dropout rate must lie in [0, 1), got {p}")
    return rng.random(shape) >= p


def _drop(a: np.ndarray, keep: np.ndarray, p: float) -> np.ndarray:
    """``a`` through the bool mask ``keep`` with the 1/(1-p) rescale. Every
    entry, signed zeros included, is bit-identical to the float-mask
    product ``a * (keep / (1 - p))``: a kept entry is ``(a * 1.0) * s``, a
    dropped one ``(a * 0.0) * s``, and the positive ``s`` keeps its sign."""
    out = np.multiply(a, keep)
    out *= 1.0 / (1.0 - p)
    return out


def dropout(x: Tensor, p: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout: a Bernoulli mask drawn from ``rng`` with 1/(1-p)
    rescale. With no ``rng`` (or with p == 0) the input tensor is returned
    unchanged, so eval is the identity bit for bit.
    """
    keep = _dropout_keep(x.data.shape, p, rng)
    if keep is None:
        return x
    return _from_op(_drop(x.data, keep, p), (x,),
                    lambda g: (_drop(g, keep, p),))


# ---------------------------------------------------------------------------
# serialization: "TBJT" little-endian tensor format
# ---------------------------------------------------------------------------

TENSOR_MAGIC = b"TBJT"


def write_array(fh, arr: np.ndarray) -> None:
    """Write one array: magic, u8 rank, u32 extents, raw f64 payload. A
    C-contiguous little-endian float64 array is written from its own
    buffer, with no copy; a 0-d array keeps rank 0."""
    arr = np.require(arr, "<f8", "C")
    if arr.ndim > 255:
        raise ShapeError(f"rank {arr.ndim} exceeds the u8 rank field")
    fh.write(TENSOR_MAGIC)
    fh.write(bytes([arr.ndim]))
    fh.write(np.asarray(arr.shape, dtype="<u4").tobytes())
    # a uint8 view, since memoryview.cast("B") rejects an empty array
    fh.write(arr.reshape(-1).view(np.uint8))


def read_exact(fh, size: int) -> bytes:
    """Read exactly ``size`` bytes; a file that ends early is a bad artifact."""
    data = fh.read(size)
    if len(data) != size:
        raise ConfigError(f"truncated file: wanted {size} more bytes, "
                          f"found {len(data)}")
    return data


def read_json(raw: bytes, what: str, required=()) -> dict:
    """Parse a UTF-8 JSON object holding at least the ``required`` keys; a
    corrupt or incomplete one is a bad artifact."""
    try:
        obj = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must hold a JSON object")
    missing = [k for k in required if k not in obj]
    if missing:
        raise ConfigError(f"{what} lacks keys {missing}")
    return obj


def write_head(fh, magic: bytes, version: int, header: bytes) -> None:
    """Open an artifact: ``magic``, u32 version, u32 header length, then the
    JSON ``header`` as its writer encoded it."""
    fh.write(magic)
    fh.write(struct.pack("<II", version, len(header)))
    fh.write(header)


def read_head(fh, magic: bytes, what: str, version: int,
              required=()) -> dict:
    """Read the head ``write_head`` wrote and return its header, which must
    hold the ``required`` keys; the version must be ``version`` and is
    checked before the header is parsed. ``what`` names the artifact in
    errors."""
    got = read_exact(fh, 4)
    if got != magic:
        raise ConfigError(f"bad {what} magic {got!r}; expected {magic!r}")
    (found,) = struct.unpack("<I", read_exact(fh, 4))
    if found != version:
        raise ConfigError(f"unsupported {what} version {found}")
    (size,) = struct.unpack("<I", read_exact(fh, 4))
    return read_json(read_exact(fh, size), f"{what} header", required)


def write_named(fh, entries) -> None:
    """Write a named section: a u32 entry count, then per ``(name, arrays)``
    entry a u32-length-prefixed UTF-8 name followed by each array."""
    entries = list(entries)
    fh.write(struct.pack("<I", len(entries)))
    for name, arrays in entries:
        encoded = name.encode("utf-8")
        fh.write(struct.pack("<I", len(encoded)) + encoded)
        for arr in arrays:
            write_array(fh, arr)


def read_named(fh, slots: dict, kinds, what: str) -> None:
    """Read a section ``write_named`` wrote into ``slots``, a ``{name:
    arrays}`` table: each entry's arrays are filled in place and must have
    their slot's shapes. ``kinds`` names an entry's arrays and ``what`` an
    entry in errors. A name with no slot, and a slot that no entry fills,
    is a bad artifact."""
    (count,) = struct.unpack("<I", read_exact(fh, 4))
    seen = set()
    for _ in range(count):
        (size,) = struct.unpack("<I", read_exact(fh, 4))
        name = read_exact(fh, size).decode("utf-8", errors="replace")
        if name not in slots:
            raise ConfigError(f"{what} {name!r} has no slot in the model")
        for kind, out in zip(kinds, slots[name]):
            shape = read_array_header(fh)
            if shape != out.shape:
                raise ConfigError(f"{kind} {name!r} shaped {shape}, model "
                                  f"expects {out.shape}")
            read_payload(fh, out)
        seen.add(name)
    missing = sorted(set(slots) - seen)
    if missing:
        raise ConfigError(f"{what}s missing for parameter names "
                          f"{missing[:5]}" + ("…" if len(missing) > 5 else ""))


def read_array_header(fh) -> tuple[int, ...]:
    """Read one array's magic, rank and extents; returns its shape."""
    magic = read_exact(fh, 4)
    if magic != TENSOR_MAGIC:
        raise ContractError(f"bad tensor magic {magic!r}, expected {TENSOR_MAGIC!r}")
    rank = read_exact(fh, 1)[0]
    return tuple(int(n) for n in np.frombuffer(read_exact(fh, 4 * rank),
                                               dtype="<u4"))


def read_payload(fh, out: np.ndarray) -> np.ndarray:
    """Fill the C-contiguous float64 array ``out`` straight from the stream,
    with no intermediate bytes object; a file that ends early is a bad
    artifact."""
    if not out.flags.c_contiguous or out.dtype != np.float64:
        raise ContractError("read_payload needs a C-contiguous float64 array")
    view = memoryview(out.reshape(-1).view(np.uint8))
    filled = 0
    while filled < len(view):
        got = fh.readinto(view[filled:])
        if not got:
            raise ConfigError(f"truncated file: wanted {len(view)} more "
                              f"bytes, found {filled}")
        filled += got
    if sys.byteorder != "little":
        out.byteswap(inplace=True)
    return out


def read_array(fh) -> np.ndarray:
    """Read one array from a seekable stream. The extents are checked
    against the bytes left before anything is allocated, so a corrupt
    header cannot ask for more memory than the file could fill."""
    shape = read_array_header(fh)
    size = 8 * math.prod(shape)
    here = fh.tell()
    left = fh.seek(0, os.SEEK_END) - here
    fh.seek(here)
    if size > left:
        raise ConfigError(f"truncated file: array header claims {size} "
                          f"payload bytes, {left} remain")
    return read_payload(fh, np.empty(shape))


def save_array(path, arr: np.ndarray) -> None:
    write_file(path, lambda fh: write_array(fh, arr))


def write_file(path, write) -> None:
    """``write(fh)`` into the ``<path>.tmp`` sibling, which then replaces
    ``path`` whole: a write cut short leaves the previous file as it was,
    and one that fails leaves no sibling behind."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        clear_stale(path)


def clear_stale(path) -> None:
    """Remove the ``<path>.tmp`` sibling of ``write_file``, which a kill in
    the middle of a write leaves behind."""
    tmp = f"{path}.tmp"
    if os.path.lexists(tmp):
        os.unlink(tmp)


def write_dir(path, write) -> None:
    """``write(tmp)`` into a fresh ``<path>.tmp`` sibling directory, then
    swap it in for the directory ``path``, whose old version is renamed to
    ``<path>.old.tmp`` and removed. A failed write leaves ``path`` as it
    was; a kill between the two renames leaves none, never a mix of two."""
    tmp, old = f"{path}.tmp", f"{path}.old.tmp"
    for stale in (tmp, old):
        shutil.rmtree(stale, ignore_errors=True)
    os.makedirs(tmp)
    try:
        write(Path(tmp))
        if os.path.lexists(path):
            os.replace(path, old)
        os.replace(tmp, path)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    shutil.rmtree(old, ignore_errors=True)


def read_file(path, parse):
    """``parse(fh)`` over the file at ``path``, which it must read to the
    end; each artifact error it raises ends with ``(in PATH)``."""
    try:
        with open(path, "rb") as fh:
            result = parse(fh)
            if fh.read(1):
                raise ConfigError("trailing bytes after the last array")
    except (ConfigError, ContractError) as exc:
        raise type(exc)(f"{exc} (in {path})") from None
    return result


def load_array(path) -> np.ndarray:
    return read_file(path, read_array)
