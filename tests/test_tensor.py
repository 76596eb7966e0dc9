"""Primitive-level tests: forward values, tape mechanics, finite-difference
gradients, and the TBJT serialization format."""

import gc
import io
import weakref

import numpy as np
import pytest

import tbje.tensor as T
from tbje.errors import ConfigError, ContractError, NumericError, ShapeError
from tbje.gradcheck import central_difference, relative_error
from tbje.rng import make_rng

GRAD_TOL = 1e-5


def rand(rng, *shape):
    return rng.uniform(-2.0, 2.0, size=shape)


def fd_check(build, tensors, tol=GRAD_TOL, h=1e-5):
    """Compare taped gradients of scalar build(*tensors) to central differences."""
    for t in tensors:
        t.grad = None
    with T.Tape() as tape:
        loss = build()
        tape.backward(loss)
    for t in tensors:
        taped = t.grad if t.grad is not None else np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        for idx in range(flat.size):
            fd = central_difference(lambda: build().item(), flat, idx, h=h)
            assert relative_error(taped.reshape(-1)[idx], fd) < tol


# ---------------------------------------------------------------------------
# forward values from first principles
# ---------------------------------------------------------------------------

def test_matmul_identity():
    eye = T.Tensor(np.eye(2))
    a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(T.matmul(eye, a).data, a.data)


def test_matmul_zero():
    a = T.Tensor([[1.0, 0.0], [0.0, 1.0]])
    z = T.Tensor([[0.0], [0.0]])
    assert np.array_equal(T.matmul(a, z).data, np.zeros((2, 1)))


def test_matmul_shape_error_names_both_shapes():
    a = T.Tensor(np.zeros((3, 4)))
    b = T.Tensor(np.zeros((5, 2)))
    with pytest.raises(ShapeError, match=r"\(3, 4\).*\(5, 2\)"):
        T.matmul(a, b)


def test_softmax_symmetry():
    out = T.softmax(T.Tensor([0.0, 0.0]))
    assert np.allclose(out.data, [0.5, 0.5], atol=0, rtol=0)


def test_softmax_no_overflow():
    out = T.softmax(T.Tensor([1000.0, 0.0]))
    assert np.isfinite(out.data).all()
    assert out.data[0] == pytest.approx(1.0)
    assert out.data[1] < 1e-300


def test_softmax_matches_high_precision_reference():
    # exp-normalize of [1,2,3] evaluated with mpmath-free extended precision:
    # np.longdouble carries >= 63 mantissa bits, plenty for a 1e-15 check.
    x = np.array([1.0, 2.0, 3.0])
    hi = np.exp(np.longdouble(x))
    expected = (hi / hi.sum()).astype(np.float64)
    out = T.softmax(T.Tensor(x))
    assert np.allclose(out.data, expected, rtol=1e-15)


def test_softmax_rows_sum_to_one_and_positive():
    rng = make_rng(7, "softmax-rows")
    x = T.Tensor(rand(rng, 20, 9))
    out = T.softmax(x, axis=-1)
    assert np.all(out.data > 0)
    assert np.abs(out.data.sum(axis=-1) - 1.0).max() < 1e-12


def test_softmax_rejects_nan():
    with pytest.raises(NumericError):
        T.softmax(T.Tensor([np.nan, 0.0]))


def test_softmax_all_masked_slice_rejected():
    with pytest.raises(NumericError):
        T.softmax(T.Tensor([-np.inf, -np.inf]))


def test_layer_norm_constant_row_is_zero():
    x = T.Tensor([[5.0, 5.0, 5.0, 5.0]])
    out = T.layer_norm(x, T.Tensor(np.ones(4)), T.Tensor(np.zeros(4)))
    assert np.array_equal(out.data, np.zeros((1, 4)))


def test_layer_norm_standardized_row_unchanged():
    x = T.Tensor([[1.0, -1.0]])
    out = T.layer_norm(x, T.Tensor(np.ones(2)), T.Tensor(np.zeros(2)))
    assert np.allclose(out.data, [[1.0, -1.0]], atol=1e-9)


def test_layer_norm_moments_invariant():
    rng = make_rng(3, "ln-moments")
    x = T.Tensor(rand(rng, 50, 16))
    out = T.layer_norm(x, T.Tensor(np.ones(16)), T.Tensor(np.zeros(16)))
    row_var = x.data.var(axis=-1)
    mean = out.data.mean(axis=-1)
    var = out.data.var(axis=-1)
    keep = row_var >= 1e-3
    assert np.abs(mean).max() < 1e-9
    assert np.abs(var[keep] - 1.0).max() < 1e-6


def test_layer_norm_shape_check():
    with pytest.raises(ShapeError):
        T.layer_norm(T.Tensor(np.zeros((2, 4))), T.Tensor(np.ones(3)),
                     T.Tensor(np.zeros(3)))


def test_dropout_eval_is_identity_object():
    x = T.Tensor([[1.0, 2.0]])
    assert T.dropout(x, 0.5, None) is x


def test_dropout_train_masks_and_rescales():
    rng = make_rng(11, "dropout")
    x = T.Tensor(np.ones((200, 50)))
    out = T.dropout(x, 0.3, rng)
    vals = np.unique(out.data)
    assert set(np.round(vals, 12)) <= {0.0, round(1 / 0.7, 12)}
    # keep fraction concentrates near 1-p
    assert abs((out.data != 0).mean() - 0.7) < 0.02


def test_dropout_seed_reproducible():
    x = T.Tensor(np.ones((10, 10)))
    a = T.dropout(x, 0.4, make_rng(5, "d"))
    b = T.dropout(x, 0.4, make_rng(5, "d"))
    assert np.array_equal(a.data, b.data)


def test_masked_softmax_blocks_gradient():
    x = T.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    keep = np.array([[True, False, True], [False, True, True]])
    with T.Tape() as tape:
        out = T.softmax(x, axis=-1, keep=keep)
        loss = T.tsum(out)
        tape.backward(loss)
    assert np.array_equal(out.data[~keep], np.zeros(2))
    assert np.array_equal(x.grad[~keep], np.zeros(2))


# ---------------------------------------------------------------------------
# tape mechanics
# ---------------------------------------------------------------------------

def test_backward_sum_gives_ones():
    w = T.Tensor([1.0, 2.0, 3.0], requires_grad=True)
    with T.Tape() as tape:
        loss = T.tsum(w)
        tape.backward(loss)
    assert np.array_equal(w.grad, np.ones(3))


def test_backward_quadratic_analytic():
    w = T.Tensor([1.0, 2.0, 3.0], requires_grad=True)
    with T.Tape() as tape:
        loss = T.tsum(T.mul(w, w))
        tape.backward(loss)
    assert np.array_equal(w.grad, [2.0, 4.0, 6.0])


def test_backward_requires_scalar():
    w = T.Tensor([1.0, 2.0], requires_grad=True)
    with T.Tape() as tape:
        out = T.mul(w, w)
        with pytest.raises(ContractError):
            tape.backward(out)


def test_backward_twice_is_error():
    w = T.Tensor([1.0], requires_grad=True)
    with T.Tape() as tape:
        loss = T.tsum(w)
        tape.backward(loss)
        with pytest.raises(ContractError):
            tape.backward(loss)


def test_tape_replays_in_reverse_execution_order():
    order = []
    w = T.Tensor([1.0], requires_grad=True)
    with T.Tape() as tape:
        a = T.scale(w, 2.0)
        b = T.scale(a, 3.0)
        c = T.tsum(b)
        # tag each record's vjp with a probe
        for i, (out, inputs, vjp) in enumerate(tape._records):
            tape._records[i] = (out, inputs,
                                (lambda f, k: lambda g: (order.append(k),
                                                         f(g))[1])(vjp, i))
        tape.backward(c)
    assert order == [2, 1, 0]
    assert w.grad[0] == 6.0


def sigmoid_square_loss(x, w):
    """mean(sigmoid(x @ w)^2) with its hidden activation, built on a tape."""
    hidden = T.sigmoid(T.matmul(x, w))
    return hidden, T.tmean(T.mul(hidden, hidden))


def sigmoid_square_grads(x, w):
    """Analytic d/dx and d/dw of mean(sigmoid(x @ w)^2)."""
    s = 1.0 / (1.0 + np.exp(-(x @ w)))
    dz = 2.0 * s / s.size * s * (1.0 - s)
    return dz @ w.T, x.T @ dz


def test_backward_consumes_records_and_intermediate_grads():
    rng = make_rng(20, "consume")
    x = T.Tensor(rand(rng, 4, 3), requires_grad=True)
    w = T.Tensor(rand(rng, 3, 5), requires_grad=True)
    with T.Tape() as tape:
        hidden, loss = sigmoid_square_loss(x, w)
        assert len(tape) == 4
        tape.backward(loss)
        assert len(tape) == 0
        assert hidden.grad is None and loss.grad is None
        with pytest.raises(ContractError):
            tape.backward(loss)
    gx, gw = sigmoid_square_grads(x.data, w.data)
    assert np.allclose(x.grad, gx, rtol=1e-12, atol=0)
    assert np.allclose(w.grad, gw, rtol=1e-12, atol=0)


def test_backward_frees_intermediates_as_it_unwinds():
    rng = make_rng(21, "unwind")
    x = T.Tensor(rand(rng, 4, 3), requires_grad=True)
    w = T.Tensor(rand(rng, 3, 5), requires_grad=True)
    with T.Tape() as tape:
        hidden, loss = sigmoid_square_loss(x, w)
    # the vjps of the sigmoid and the product read the hidden array, not
    # the Tensor around it
    ref = weakref.ref(hidden.data)
    del hidden
    gc.collect()
    assert ref() is not None  # the unreplayed tape still holds it
    tape.backward(loss)
    gc.collect()
    assert ref() is None
    assert x.grad is not None and w.grad is not None


def test_every_exported_name_resolves():
    assert all(hasattr(T, name) for name in T.__all__)


def test_no_tape_means_no_recording():
    w = T.Tensor([1.0], requires_grad=True)
    out = T.scale(w, 2.0)
    assert out.requires_grad
    tape = T.Tape()
    with tape:
        pass
    assert len(tape) == 0


def test_first_gradient_is_stored_without_a_copy():
    w = T.Tensor([1.0, 2.0], requires_grad=True)
    g = np.array([3.0, 4.0])
    T._accumulate(w, g)
    assert w.grad is g
    # a later gradient makes a new sum: the stored array, which a vjp may
    # also have handed to another input, is never written
    T._accumulate(w, np.array([1.0, 1.0]))
    assert w.grad is not g
    assert np.array_equal(w.grad, [4.0, 5.0])
    assert np.array_equal(g, [3.0, 4.0])


def test_grad_accumulates_over_reuse():
    w = T.Tensor([3.0], requires_grad=True)
    with T.Tape() as tape:
        loss = T.tsum(T.add(T.mul(w, w), w))  # w^2 + w -> 2w + 1 = 7
        tape.backward(loss)
    assert w.grad[0] == 7.0


def test_gradients_deterministic_bit_exact():
    def run():
        rng = make_rng(42, "det")
        a = T.Tensor(rand(rng, 4, 5), requires_grad=True)
        b = T.Tensor(rand(rng, 5, 3), requires_grad=True)
        with T.Tape() as tape:
            out = T.softmax(T.matmul(a, b), axis=-1)
            loss = T.tmean(T.mul(out, out))
            tape.backward(loss)
        return a.grad.copy(), b.grad.copy()

    ga1, gb1 = run()
    ga2, gb2 = run()
    assert np.array_equal(ga1, ga2) and np.array_equal(gb1, gb2)


# ---------------------------------------------------------------------------
# finite-difference gradient contracts, one per primitive
# ---------------------------------------------------------------------------

def test_grad_matmul_against_ones_oracle():
    # d sum(a@b) / da == ones(m,n) @ b^T
    rng = make_rng(1, "mm")
    a = T.Tensor(rand(rng, 3, 4), requires_grad=True)
    b = T.Tensor(rand(rng, 4, 2), requires_grad=True)
    with T.Tape() as tape:
        loss = T.tsum(T.matmul(a, b))
        tape.backward(loss)
    assert np.allclose(a.grad, np.ones((3, 2)) @ b.data.T, rtol=1e-12)
    fd_check(lambda: T.tsum(T.matmul(a, b)), [a, b])


def test_grad_matmul_batched():
    rng = make_rng(2, "mmb")
    a = T.Tensor(rand(rng, 2, 3, 4), requires_grad=True)
    b = T.Tensor(rand(rng, 4, 5), requires_grad=True)
    fd_check(lambda: T.tmean(T.mul(m := T.matmul(a, b), m)), [a, b])


def rel_diff(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.mark.parametrize("lead", [(2, 3), (2, 3, 4)], ids=["3d", "4d"])
@pytest.mark.parametrize("wants", [(True, False), (False, True), (True, True)],
                         ids=["a", "b", "ab"])
def test_matmul_weight_equals_broadcast_batched_form(lead, wants):
    rng = make_rng(12, "flat", len(lead))
    a = T.Tensor(rand(rng, *lead, 5), requires_grad=wants[0])
    b = T.Tensor(rand(rng, 5, 4), requires_grad=wants[1])
    g = rand(rng, *lead, 4)
    with T.Tape() as tape:
        out = T.matmul(a, b)
        tape.backward(T.tsum(T.mul(out, T.Tensor(g))))
    assert out.shape == lead + (4,)
    assert rel_diff(out.data, np.matmul(a.data, b.data)) < 1e-12
    if wants[0]:
        assert rel_diff(a.grad, np.matmul(g, b.data.T)) < 1e-12
    else:
        assert a.grad is None
    if wants[1]:
        per_row = np.matmul(np.swapaxes(a.data, -1, -2), g)
        want = per_row.sum(axis=tuple(range(len(lead) - 1)))
        assert rel_diff(b.grad, want) < 1e-12
    else:
        assert b.grad is None
    fd_check(lambda: T.tmean(T.mul(m := T.matmul(a, b), m)),
             [t for t in (a, b) if t.requires_grad])


def test_batched_matmul_keeps_broadcast_path(monkeypatch):
    def flat(a, b):
        raise AssertionError("two batched operands took the weight path")

    monkeypatch.setattr(T, "_matmul_weight", flat)
    rng = make_rng(13, "bmm")
    a = T.Tensor(rand(rng, 2, 3, 5), requires_grad=True)
    b = T.Tensor(rand(rng, 2, 5, 4), requires_grad=True)
    g = rand(rng, 2, 3, 4)
    with T.Tape() as tape:
        out = T.matmul(a, b)
        tape.backward(T.tsum(T.mul(out, T.Tensor(g))))
    assert rel_diff(out.data, np.matmul(a.data, b.data)) < 1e-12
    assert rel_diff(a.grad, g @ np.swapaxes(b.data, -1, -2)) < 1e-12
    assert rel_diff(b.grad, np.swapaxes(a.data, -1, -2) @ g) < 1e-12
    fd_check(lambda: T.tmean(T.mul(m := T.matmul(a, b), m)), [a, b])


@pytest.mark.parametrize("op", [
    lambda a, b: T.add(a, b),
    lambda a, b: T.add(a, T.scale(b, -1.0)),
    lambda a, b: T.mul(a, b),
])
def test_grad_binary_broadcasting(op):
    """``b`` broadcasts against a (4, 3) ``a`` by a missing leading axis
    and by a size-1 axis of either position."""
    rng = make_rng(3, "bin")
    a = T.Tensor(rand(rng, 4, 3), requires_grad=True)
    for b_shape in [(3,), (4, 1), (1, 3)]:
        b = T.Tensor(rand(rng, *b_shape), requires_grad=True)
        fd_check(lambda: T.tsum(T.mul(o := op(a, b), o)), [a, b])


def test_grad_scale_transpose_reshape():
    rng = make_rng(4, "move")
    a = T.Tensor(rand(rng, 2, 3, 4), requires_grad=True)

    def build():
        # the head split and merge of multi-head attention
        heads = T.transpose(T.reshape(T.scale(a, 1.7), (2, 3, 2, 2)), -3, -2)
        merged = T.reshape(T.transpose(heads, -3, -2), (2, 3, 4))
        return T.tsum(T.mul(merged, T.transpose(T.transpose(merged))))

    fd_check(build, [a])


def test_grad_reductions():
    rng = make_rng(5, "red")
    a = T.Tensor(rand(rng, 4, 5), requires_grad=True)
    fd_check(lambda: T.tsum(T.mul(a, a)), [a])
    fd_check(lambda: T.tmean(T.mul(a, a)), [a])


@pytest.mark.parametrize("unary", [T.sigmoid, T.log_sigmoid, T.relu,
                                   lambda t: T.softmax(t, axis=-1),
                                   lambda t: T.log_softmax(t, axis=-1)])
def test_grad_unary(unary):
    rng = make_rng(6, "un")
    a = T.Tensor(rand(rng, 3, 6), requires_grad=True)
    fd_check(lambda: T.tsum(T.mul(u := unary(a), u)), [a])


def test_grad_layer_norm():
    rng = make_rng(7, "ln")
    x = T.Tensor(rand(rng, 4, 8), requires_grad=True)
    gain = T.Tensor(rand(rng, 8), requires_grad=True)
    bias = T.Tensor(rand(rng, 8), requires_grad=True)
    fd_check(lambda: T.tsum(T.mul(o := T.layer_norm(x, gain, bias), o)),
             [x, gain, bias])


def test_grad_dropout_is_scaled_mask():
    x = T.Tensor(np.ones((6, 6)), requires_grad=True)
    with T.Tape() as tape:
        out = T.dropout(x, 0.25, make_rng(9, "dg"))
        tape.backward(T.tsum(out))
    expected = (T.dropout(x, 0.25, make_rng(9, "dg")).data != 0)
    assert np.array_equal(x.grad, expected / 0.75)


def test_transpose_is_a_view_and_leaves_stay_contiguous():
    x = T.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with T.Tape():
        t = T.transpose(x)
    assert np.shares_memory(t.data, x.data)
    assert T.Tensor(x.data.T).data.flags.c_contiguous


# ---------------------------------------------------------------------------
# fused primitives: the affine map and the residual sublayer
# ---------------------------------------------------------------------------

def test_affine_matmul_equals_matmul_then_add():
    rng = make_rng(15, "affine")
    x = T.Tensor(rand(rng, 2, 3, 5), requires_grad=True)
    w = T.Tensor(rand(rng, 5, 4), requires_grad=True)
    b = T.Tensor(rand(rng, 4), requires_grad=True)
    g = T.Tensor(rand(rng, 2, 3, 4))
    grads = []
    for build in (lambda: T.matmul(x, w, b),
                  lambda: T.add(T.matmul(x, w), b)):
        for t in (x, w, b):
            t.grad = None
        with T.Tape() as tape:
            out = build()
            tape.backward(T.tsum(T.mul(out, g)))
        grads.append((out.data, x.grad, w.grad, b.grad))
    (y, dx, dw, db), (y0, dx0, dw0, db0) = grads
    assert np.array_equal(y, y0)
    assert np.array_equal(dx, dx0) and np.array_equal(dw, dw0)
    assert np.abs(db - db0).max() < 1e-12
    fd_check(lambda: T.tmean(T.mul(m := T.matmul(x, w, b), m)), [x, w, b])


def test_affine_matmul_is_one_record_and_checks_its_bias():
    x = T.Tensor(np.ones((3, 2)), requires_grad=True)
    w = T.Tensor(np.ones((2, 4)), requires_grad=True)
    with T.Tape() as tape:
        T.matmul(x, w, T.Tensor(np.zeros(4), requires_grad=True))
    assert len(tape) == 1
    with pytest.raises(ShapeError, match="bias"):
        T.matmul(x, w, T.Tensor(np.zeros(1)))
    with pytest.raises(ShapeError, match="bias"):
        T.matmul(T.Tensor(np.ones((2, 3, 2))), T.Tensor(np.ones((2, 2, 4))),
                 T.Tensor(np.zeros(4)))


def residual_chain(x, fx, gain, bias, p, seed, training):
    rng = make_rng(seed, "res") if training else None
    return T.layer_norm(T.add(x, T.dropout(fx, p, rng)), gain, bias)


def residual_fused(x, fx, gain, bias, p, seed, training):
    rng = make_rng(seed, "res") if training else None
    return T.residual_norm(x, fx, gain, bias, p, rng)


@pytest.mark.parametrize("p, training", [(0.1, True), (0.1, False),
                                         (0.0, True)],
                         ids=["train", "eval", "p0"])
def test_residual_norm_bit_identical_to_three_op_chain(p, training):
    rng = make_rng(16, "res-eq")
    x = T.Tensor(rand(rng, 3, 4, 8), requires_grad=True)
    fx = T.Tensor(rand(rng, 3, 4, 8), requires_grad=True)
    gain = T.Tensor(rand(rng, 8), requires_grad=True)
    bias = T.Tensor(rand(rng, 8), requires_grad=True)
    g = T.Tensor(rand(rng, 3, 4, 8))
    results = []
    for op in (residual_fused, residual_chain):
        for t in (x, fx, gain, bias):
            t.grad = None
        with T.Tape() as tape:
            out = op(x, fx, gain, bias, p, 3, training)
            tape.backward(T.tsum(T.mul(out, g)))
        results.append([out.data] + [t.grad for t in (x, fx, gain, bias)])
    for got, want in zip(*results):
        assert np.array_equal(got, want)


def test_residual_norm_is_one_record_and_passes_fd_check():
    rng = make_rng(17, "res-fd")
    x = T.Tensor(rand(rng, 4, 6), requires_grad=True)
    fx = T.Tensor(rand(rng, 4, 6), requires_grad=True)
    gain = T.Tensor(rand(rng, 6), requires_grad=True)
    bias = T.Tensor(rand(rng, 6), requires_grad=True)
    with T.Tape() as tape:
        residual_fused(x, fx, gain, bias, 0.1, 4, True)
    assert len(tape) == 1
    fd_check(lambda: T.tsum(T.mul(
        o := residual_fused(x, fx, gain, bias, 0.1, 4, True), o)),
        [x, fx, gain, bias])


def test_residual_norm_keeps_dropout_errors():
    x = T.Tensor(np.ones((2, 3)))
    ones, zeros = T.Tensor(np.ones(3)), T.Tensor(np.zeros(3))
    for p in (1.0, -0.1):
        with pytest.raises(ContractError, match="dropout rate"):
            T.residual_norm(x, x, ones, zeros, p, make_rng(0, "r"))


def float_mask(shape, p, seed):
    """The float inverted-dropout mask, 0 or 1/(1-p) per entry, drawn as
    ``T.dropout`` draws its bool mask."""
    return (make_rng(seed, "res").random(shape) >= p) / (1.0 - p)


def signed_inputs(rng, *shape):
    """Random values with signed zeros, so a dropped entry of either sign
    shows whether it comes out as +0.0 or -0.0."""
    a = rand(rng, *shape)
    a.reshape(-1)[::5] = 0.0
    a.reshape(-1)[1::5] = -0.0
    return a


def bit_identical(got, want):
    return (np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


def test_dropout_bool_mask_matches_float_mask_formula():
    rng = make_rng(18, "drop-float")
    x = T.Tensor(signed_inputs(rng, 5, 7), requires_grad=True)
    g = signed_inputs(rng, 5, 7)
    mask = float_mask(x.shape, 0.3, 6)
    with T.Tape() as tape:
        out = T.dropout(x, 0.3, make_rng(6, "res"))
        tape.backward(T.tsum(T.mul(out, T.Tensor(g))))
    assert bit_identical(out.data, x.data * mask)
    assert bit_identical(x.grad, g * mask)
    assert np.signbit(out.data[mask == 0]).any()


def test_residual_norm_bool_mask_matches_float_mask_formula():
    rng = make_rng(19, "res-float")
    x, fx, gain, bias = (T.Tensor(signed_inputs(rng, *shape),
                                  requires_grad=True)
                         for shape in ((3, 4, 8), (3, 4, 8), (8,), (8,)))
    g = T.Tensor(signed_inputs(rng, 3, 4, 8))
    mask = T.Tensor(float_mask(fx.shape, 0.2, 7))
    results = []
    for build in (lambda: residual_fused(x, fx, gain, bias, 0.2, 7, True),
                  lambda: T.layer_norm(T.add(x, T.mul(fx, mask)), gain, bias)):
        for t in (x, fx, gain, bias):
            t.grad = None
        with T.Tape() as tape:
            out = build()
            tape.backward(T.tsum(T.mul(out, g)))
        results.append([out.data] + [t.grad for t in (x, fx, gain, bias)])
    for got, want in zip(*results):
        assert bit_identical(got, want)
    assert np.signbit(results[0][2][mask.data == 0]).any()


def test_dropout_mask_is_kept_as_bool():
    x = T.Tensor(np.ones((4, 4)), requires_grad=True)
    with T.Tape() as tape:
        T.dropout(x, 0.5, make_rng(1, "d"))
    _, _, vjp = tape._records[0]
    arrays = [c.cell_contents for c in vjp.__closure__
              if isinstance(c.cell_contents, np.ndarray)]
    assert [a.dtype for a in arrays] == [np.dtype(bool)]


def test_grad_masked_softmax_chain():
    rng = make_rng(8, "mf")
    a = T.Tensor(rand(rng, 3, 5), requires_grad=True)
    keep = np.array([True, True, False, True, False])

    def build():
        return T.tsum(T.mul(s := T.softmax(a, axis=-1, keep=keep), s))

    fd_check(build, [a])


def test_sigmoid_bodies_bit_identical_to_three_exp_formulas():
    rng = make_rng(14, "sig")
    x = np.concatenate([rand(rng, 64) * 20.0,
                        [-800.0, -40.0, -1e-300, -0.0, 0.0, 1e-300, 40.0, 800.0]])
    g = rand(rng, x.size)
    e = np.exp(-np.abs(x))
    old_sigmoid = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                           np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    old_log_sigmoid = np.where(x >= 0, -np.log1p(np.exp(-np.abs(x))),
                               x - np.log1p(np.exp(-np.abs(x))))
    old_log_sigmoid_grad = g * np.where(x >= 0, e / (1.0 + e), 1.0 / (1.0 + e))
    for op, value, grad in (
            (T.sigmoid, old_sigmoid, g * old_sigmoid * (1.0 - old_sigmoid)),
            (T.log_sigmoid, old_log_sigmoid, old_log_sigmoid_grad)):
        a = T.Tensor(x, requires_grad=True)
        with T.Tape() as tape:
            out = op(a)
            tape.backward(T.tsum(T.mul(out, T.Tensor(g))))
        assert np.array_equal(out.data, value)
        assert np.array_equal(a.grad, grad)


def test_grad_log_sigmoid_extreme_logits_stable():
    z = T.Tensor(np.array([-500.0, -40.0, 0.0, 40.0, 500.0]), requires_grad=True)
    with T.Tape() as tape:
        loss = T.tsum(T.log_sigmoid(z))
        tape.backward(loss)
    assert np.isfinite(loss.data).all()
    assert np.isfinite(z.grad).all()


# ---------------------------------------------------------------------------
# TBJT serialization
# ---------------------------------------------------------------------------

def test_tensor_roundtrip_bit_exact(tmp_path):
    rng = make_rng(10, "ser")
    arr = rand(rng, 3, 4, 2)
    path = tmp_path / "t.tbjt"
    T.save_array(path, arr)
    back = T.load_array(path)
    assert back.dtype == np.float64
    assert np.array_equal(back, arr)


def test_tensor_wire_layout():
    fh = io.BytesIO()
    T.write_array(fh, np.array([[1.0, 2.0], [3.0, 4.0]]))
    raw = fh.getvalue()
    assert raw[:4] == b"TBJT"
    assert raw[4] == 2                      # rank
    assert raw[5:13] == (2).to_bytes(4, "little") * 2
    assert np.frombuffer(raw[13:], dtype="<f8").tolist() == [1.0, 2.0, 3.0, 4.0]


def copying_encoding(arr):
    """``write_array``'s bytes as the copying encoder produced them, with a
    0-d array kept at rank 0."""
    arr = np.array(arr, dtype=np.float64, order="C")
    return (T.TENSOR_MAGIC + bytes([arr.ndim])
            + np.asarray(arr.shape, dtype="<u4").tobytes()
            + arr.astype("<f8", copy=False).tobytes(order="C"))


@pytest.mark.parametrize("arr", [
    np.array(2.5), np.zeros((0, 3)), np.arange(12.0).reshape(3, 4).T,
    np.arange(6.0, dtype=">f8").reshape(2, 3), np.arange(5, dtype=np.int64),
    np.array([-0.0, np.inf, -np.nan])],
    ids=["0-d", "empty", "transposed", "big-endian", "int", "special"])
def test_write_array_bytes_equal_the_copying_encoding(arr, tmp_path):
    fh = io.BytesIO()
    T.write_array(fh, arr)
    assert fh.getvalue() == copying_encoding(arr)
    T.save_array(tmp_path / "a.tbjt", arr)
    assert (tmp_path / "a.tbjt").read_bytes() == copying_encoding(arr)


def test_zero_d_array_round_trips_at_rank_0(tmp_path):
    T.save_array(tmp_path / "s.tbjt", np.array(2.5))
    back = T.load_array(tmp_path / "s.tbjt")
    assert back.shape == () and back == 2.5


def test_tensor_bad_magic_rejected():
    with pytest.raises(ContractError):
        T.read_array(io.BytesIO(b"NOPE" + bytes(16)))


def test_tensor_truncated_at_every_byte_is_config_error():
    raw = io.BytesIO()
    T.write_array(raw, np.arange(6.0).reshape(2, 3))
    raw = raw.getvalue()
    for cut in range(len(raw)):
        with pytest.raises(ConfigError, match="truncated"):
            T.read_array(io.BytesIO(raw[:cut]))


@pytest.mark.parametrize("extents", [(2 ** 31, 2 ** 31), (3, 3)])
def test_tensor_header_claiming_more_than_the_file_is_config_error(extents):
    # 2^31 x 2^31 float64 is past what numpy can allocate; 3 x 3 is not,
    # but either way the check fires before any payload buffer exists
    raw = (T.TENSOR_MAGIC + bytes([2]) + np.asarray(extents, "<u4").tobytes()
           + bytes(8 * 4))
    with pytest.raises(ConfigError, match="truncated file: array header "
                                          "claims"):
        T.read_array(io.BytesIO(raw))


def test_tensor_file_with_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "t.tbjt"
    T.save_array(path, np.arange(4.0))
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(ConfigError, match="trailing bytes"):
        T.load_array(path)
