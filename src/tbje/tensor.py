"""Dense float64 tensors with reverse-mode automatic differentiation.

A ``Tape`` is a Wengert list: every primitive executed while a tape is
active appends a record holding the output and a closure that propagates
the output gradient to the inputs. ``Tape.backward`` walks the
records in exact reverse execution order, so no graph search is needed.
It consumes the records as it goes: each record is dropped once its vjp has
run, so the closure and the activations it captured are freed while the
tape unwinds, and each op output's ``.grad`` is cleared once propagated.

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
import sys

import numpy as np

from .errors import ConfigError, ContractError, NumericError, ShapeError

__all__ = [
    "Tensor", "Tape", "add", "sub", "mul", "scale", "matmul", "transpose",
    "reshape", "tsum", "tmean", "softmax", "log_softmax", "log", "sigmoid",
    "log_sigmoid", "relu", "layer_norm", "residual_norm", "dropout",
    "masked_fill",
]

_active_tape = None


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
        global _active_tape
        self._prev = _active_tape
        _active_tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _active_tape
        _active_tape = self._prev
        return False

    def __len__(self):
        return len(self._records)

    def record(self, out, vjp):
        self._records.append((out, vjp))

    def backward(self, loss: "Tensor") -> None:
        """Propagate d(loss)/d(x) into ``x.grad`` for every recorded ancestor.

        The tape is consumed: each record is popped once its vjp has run,
        and the ``.grad`` of every op output is set back to ``None`` once
        propagated, so only leaf tensors keep a gradient afterwards.
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
            out, vjp = records.pop()
            if out.grad is not None:
                vjp(out.grad)
                out.grad = None

    def clear(self):
        """Drop all records (and with them the intermediate buffers)."""
        self._records.clear()
        self._consumed = False


class Tensor:
    """A dense float64 array, optionally participating in gradient taping."""

    __slots__ = ("data", "requires_grad", "grad", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        # contiguity matters: gradcheck and serialization treat a leaf's
        # .data as a flat buffer, which a strided view would silently break.
        # Op outputs skip this (see _from_op): a transpose stays a view.
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a one-element tensor, got {self.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # Operators resolve the module-level functions at call time, so the
    # primitives stay patchable for negative-control tests.
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, other)
        return mul(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _from_op(data, inputs, make_vjp):
    """Build the op output and, when grads are wanted, record its vjp. The
    output keeps the layout of ``data``, so a strided view is not copied."""
    out = Tensor.__new__(Tensor)
    out.data = np.asarray(data, dtype=np.float64)
    out.requires_grad = any(t.requires_grad for t in inputs)
    out.grad = None
    if out.requires_grad and _active_tape is not None:
        _active_tape.record(out, make_vjp())
    return out


def _accumulate(t: Tensor, g):
    # no vjp writes into a .grad, so a first gradient is stored uncopied
    if t.grad is None:
        t.grad = g
    else:
        t.grad = t.grad + g


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

def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data + b.data

    def make_vjp():
        def vjp(g):
            if a.requires_grad:
                _accumulate(a, _unbroadcast(g, a.data.shape))
            if b.requires_grad:
                _accumulate(b, _unbroadcast(g, b.data.shape))
        return vjp

    return _from_op(data, (a, b), make_vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data - b.data

    def make_vjp():
        def vjp(g):
            if a.requires_grad:
                _accumulate(a, _unbroadcast(g, a.data.shape))
            if b.requires_grad:
                _accumulate(b, _unbroadcast(-g, b.data.shape))
        return vjp

    return _from_op(data, (a, b), make_vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (broadcasting) product."""
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data * b.data

    def make_vjp():
        ad, bd = a.data, b.data

        def vjp(g):
            if a.requires_grad:
                _accumulate(a, _unbroadcast(g * bd, ad.shape))
            if b.requires_grad:
                _accumulate(b, _unbroadcast(g * ad, bd.shape))
        return vjp

    return _from_op(data, (a, b), make_vjp)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar constant."""
    c = float(c)
    data = a.data * c

    def make_vjp():
        def vjp(g):
            _accumulate(a, g * c)
        return vjp

    return _from_op(data, (a,), make_vjp)


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
    data = a.data @ b.data

    def make_vjp():
        ad, bd = a.data, b.data

        def vjp(g):
            if a.requires_grad:
                _accumulate(a, _unbroadcast(g @ np.swapaxes(bd, -1, -2), ad.shape))
            if b.requires_grad:
                _accumulate(b, _unbroadcast(np.swapaxes(ad, -1, -2) @ g, bd.shape))
        return vjp

    return _from_op(data, (a, b), make_vjp)


def _matmul_weight(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """``a @ b (+ bias)`` for a 2-D ``b``, as GEMMs over the rows of ``a``.
    The bias is added in place to the fresh product."""
    shape = a.data.shape
    rows = math.prod(shape[:-1])
    a2d = a.data.reshape(rows, shape[-1])
    data = a2d @ b.data
    inputs = (a, b)
    if bias is not None:
        if bias.data.shape != b.data.shape[1:]:
            raise ShapeError(f"matmul bias shaped {bias.data.shape}, want "
                             f"{b.data.shape[1:]}")
        data += bias.data
        inputs = (a, b, bias)
    data = data.reshape(shape[:-1] + b.data.shape[1:])

    def make_vjp():
        bd = b.data

        def vjp(g):
            g2d = g.reshape(rows, bd.shape[1])
            if a.requires_grad:
                _accumulate(a, (g2d @ bd.T).reshape(shape))
            if b.requires_grad:
                _accumulate(b, a2d.T @ g2d)
            if bias is not None and bias.requires_grad:
                _accumulate(bias, g2d.sum(0))
        return vjp

    return _from_op(data, inputs, make_vjp)


def transpose(a: Tensor, axis0: int = -2, axis1: int = -1) -> Tensor:
    data = np.swapaxes(a.data, axis0, axis1)

    def make_vjp():
        def vjp(g):
            _accumulate(a, np.swapaxes(g, axis0, axis1))
        return vjp

    return _from_op(data, (a,), make_vjp)


def reshape(a: Tensor, shape) -> Tensor:
    data = a.data.reshape(shape)

    def make_vjp():
        def vjp(g):
            _accumulate(a, g.reshape(a.data.shape))
        return vjp

    return _from_op(data, (a,), make_vjp)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def make_vjp():
        def vjp(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            _accumulate(a, np.broadcast_to(g, a.data.shape))
        return vjp

    return _from_op(data, (a,), make_vjp)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size / data.size

    def make_vjp():
        def vjp(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            _accumulate(a, np.broadcast_to(g, a.data.shape) / count)
        return vjp

    return _from_op(data, (a,), make_vjp)


def _check_softmax_input(x, axis):
    if np.isnan(x).any() or np.isposinf(x).any():
        raise NumericError("softmax input contains NaN or +inf")
    if np.isneginf(np.max(x, axis=axis)).any():
        raise NumericError("softmax over a fully -inf slice is undefined")


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Max-shifted softmax along ``axis``. -inf entries get exactly zero weight."""
    _check_softmax_input(a.data, axis)
    shift = np.max(a.data, axis=axis, keepdims=True)
    e = np.exp(a.data - shift)
    data = e / e.sum(axis=axis, keepdims=True)

    def make_vjp():
        y = data

        def vjp(g):
            inner = (g * y).sum(axis=axis, keepdims=True)
            _accumulate(a, (g - inner) * y)
        return vjp

    return _from_op(data, (a,), make_vjp)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    _check_softmax_input(a.data, axis)
    shift = np.max(a.data, axis=axis, keepdims=True)
    centered = a.data - shift
    lse = np.log(np.exp(centered).sum(axis=axis, keepdims=True))
    data = centered - lse

    def make_vjp():
        probs = np.exp(data)

        def vjp(g):
            _accumulate(a, g - probs * g.sum(axis=axis, keepdims=True))
        return vjp

    return _from_op(data, (a,), make_vjp)


def log(a: Tensor) -> Tensor:
    data = np.log(a.data)

    def make_vjp():
        def vjp(g):
            _accumulate(a, g / a.data)
        return vjp

    return _from_op(data, (a,), make_vjp)


def _stable_sigmoid(x):
    """sigmoid(x) from e = exp(-|x|), which never overflows; e is formed once."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a: Tensor) -> Tensor:
    data = _stable_sigmoid(a.data)

    def make_vjp():
        y = data

        def vjp(g):
            _accumulate(a, g * y * (1.0 - y))
        return vjp

    return _from_op(data, (a,), make_vjp)


def log_sigmoid(a: Tensor) -> Tensor:
    """log(sigmoid(x)) without overflow for large |x|."""
    x = a.data
    softplus = np.log1p(np.exp(-np.abs(x)))
    data = np.where(x >= 0, -softplus, x - softplus)

    def make_vjp():
        def vjp(g):
            # d/dx log(sigmoid(x)) = sigmoid(-x)
            _accumulate(a, g * _stable_sigmoid(-a.data))
        return vjp

    return _from_op(data, (a,), make_vjp)


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0.0)

    def make_vjp():
        active = a.data > 0

        def vjp(g):
            _accumulate(a, g * active)
        return vjp

    return _from_op(data, (a,), make_vjp)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Standardize the last axis to mean 0, variance 1, then apply gain/bias.

    The variance estimate is floored at ``eps`` instead of being inflated by
    it, so ordinary rows come out with variance 1 to float precision while
    constant rows map to zero without a division by zero.
    """
    return residual_norm(x, None, gain, bias, eps=eps)


def residual_norm(x: Tensor, fx: Tensor | None, gain: Tensor, bias: Tensor,
                  p: float = 0.0, rng: np.random.Generator | None = None,
                  training: bool = False, eps: float = 1e-5) -> Tensor:
    """``layer_norm(x + dropout(fx, p, rng, training), gain, bias, eps)`` as
    one record; ``fx=None`` is ``layer_norm(x, gain, bias, eps)``.

    Values, gradients and the dropout draw are bit-identical to that chain
    of three ops, but the record keeps only the dropout mask, the
    standardized sum and its per-row scale, not the masked branch and the
    sum as well.
    """
    width = x.data.shape[-1]
    if gain.data.shape != (width,) or bias.data.shape != (width,):
        raise ShapeError(
            f"layer_norm gain/bias must have shape ({width},), got "
            f"{gain.data.shape} and {bias.data.shape}")
    keep, s = None, x.data
    if fx is not None:
        keep = _dropout_keep(fx.data.shape, p, rng, training)
        s = s + (fx.data if keep is None else fx.data * keep)
    mu = s.mean(axis=-1, keepdims=True)
    centered = s - mu
    del s
    var = (centered * centered).mean(axis=-1, keepdims=True)
    denom = np.sqrt(np.maximum(var, eps))
    xhat = centered / denom
    del centered
    data = xhat * gain.data + bias.data
    inputs = (x, gain, bias) if fx is None else (x, fx, gain, bias)

    def make_vjp():
        floored = var <= eps

        def vjp(g):
            if gain.requires_grad:
                _accumulate(gain, (g * xhat).reshape(-1, width).sum(axis=0))
            if bias.requires_grad:
                _accumulate(bias, g.reshape(-1, width).sum(axis=0))
            x_grad = x.requires_grad
            fx_grad = fx is not None and fx.requires_grad
            if not (x_grad or fx_grad):
                return
            gx = g * gain.data
            mean_gx = gx.mean(axis=-1, keepdims=True)
            mean_gx_xhat = (gx * xhat).mean(axis=-1, keepdims=True)
            # the variance term vanishes where the eps floor is active
            correction = np.where(floored, 0.0, xhat * mean_gx_xhat)
            gs = (gx - mean_gx - correction) / denom
            if x_grad:
                _accumulate(x, gs)
            if fx_grad:
                _accumulate(fx, gs if keep is None else gs * keep)
        return vjp

    return _from_op(data, inputs, make_vjp)


def _dropout_keep(shape, p: float, rng: np.random.Generator | None,
                  training: bool) -> np.ndarray | None:
    """The inverted-dropout mask, 0 or 1/(1-p) per entry, or ``None`` where
    dropout is the identity (eval mode or p == 0)."""
    if not training or p == 0.0:
        return None
    if not 0.0 < p < 1.0:
        raise ContractError(f"dropout rate must lie in [0, 1), got {p}")
    if rng is None:
        raise ContractError("dropout in training mode needs an RNG")
    return (rng.random(shape) >= p) / (1.0 - p)


def dropout(x: Tensor, p: float, rng: np.random.Generator | None,
            training: bool) -> Tensor:
    """Inverted dropout: train-time Bernoulli mask with 1/(1-p) rescale.

    In eval mode (or with p == 0) the input tensor is returned unchanged,
    so eval is the identity bit for bit.
    """
    keep = _dropout_keep(x.data.shape, p, rng, training)
    if keep is None:
        return x
    data = x.data * keep

    def make_vjp():
        def vjp(g):
            _accumulate(x, g * keep)
        return vjp

    return _from_op(data, (x,), make_vjp)


def masked_fill(x: Tensor, keep_mask, fill_value: float) -> Tensor:
    """Keep entries where ``keep_mask`` is true, replace the rest by a constant.

    The mask broadcasts against ``x``; gradient flows only through kept slots.
    """
    keep = np.asarray(keep_mask, dtype=bool)
    data = np.where(keep, x.data, fill_value)

    def make_vjp():
        def vjp(g):
            _accumulate(x, _unbroadcast(np.where(keep, g, 0.0), x.data.shape))
        return vjp

    return _from_op(data, (x,), make_vjp)


# ---------------------------------------------------------------------------
# serialization: "TBJT" little-endian tensor format
# ---------------------------------------------------------------------------

TENSOR_MAGIC = b"TBJT"


def write_array(fh, arr: np.ndarray) -> None:
    """Write one array: magic, u8 rank, u32 extents, raw f64 payload."""
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    if arr.ndim > 255:
        raise ShapeError(f"rank {arr.ndim} exceeds the u8 rank field")
    fh.write(TENSOR_MAGIC)
    fh.write(bytes([arr.ndim]))
    fh.write(np.asarray(arr.shape, dtype="<u4").tobytes())
    fh.write(arr.astype("<f8", copy=False).tobytes(order="C"))


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


def read_array_into(fh, out: np.ndarray, what: str) -> np.ndarray:
    """Read one array into ``out``, whose shape it must have; ``what`` names
    the array in the error a wrong extent raises."""
    shape = read_array_header(fh)
    if shape != out.shape:
        raise ConfigError(f"{what} shaped {shape}, model expects {out.shape}")
    if out.flags.c_contiguous:
        return read_payload(fh, out)
    out[...] = read_payload(fh, np.empty(shape))
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
    with open(path, "wb") as fh:
        write_array(fh, arr)


def load_array(path) -> np.ndarray:
    with open(path, "rb") as fh:
        arr = read_array(fh)
        if fh.read(1):
            raise ConfigError(f"{path} has trailing bytes after its array")
    return arr
