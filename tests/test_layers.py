"""Attention, multi-head attention, residual sublayers, positional encoding."""

import numpy as np
import pytest

import tbje.tensor as T
from tbje.errors import ConfigError, ContractError
from tbje.gradcheck import check_gradients
from tbje.layers import (AffineParams, MhaParams, MlpParams, SublayerParams,
                         attention, multi_head_attention, named_tensors,
                         positional_encoding, sublayer)
from tbje.rng import make_rng
from tbje.tensor import Tensor

import oracles

ORACLE_TOL = 1e-10


def tens(rng, *shape):
    return Tensor(rng.uniform(-2.0, 2.0, size=shape))


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------

def test_attention_single_key_returns_content_row():
    r = Tensor([[0.3, -1.2, 0.7]])
    out = attention(r, r, r)
    assert np.allclose(out.data, r.data, rtol=0, atol=1e-15)


def test_attention_saturates_to_selected_row():
    key = Tensor(np.eye(4))
    content = Tensor(np.arange(16.0).reshape(4, 4))
    query = Tensor((np.eye(4)[2] * 1000.0)[None, :])
    out = attention(query, key, content)
    assert np.allclose(out.data[0], content.data[2], atol=1e-12)


def test_attention_matches_straight_line_oracle():
    rng = make_rng(20, "attn-oracle")
    for _ in range(100):
        q, k, c = tens(rng, 3, 4), tens(rng, 5, 4), tens(rng, 5, 4)
        out = attention(q, k, c)
        assert np.abs(out.data - oracles.attention_ref(q.data, k.data, c.data)).max() < ORACLE_TOL


def test_attention_masked_oracle_and_zero_weight():
    rng = make_rng(21, "attn-mask")
    for _ in range(25):
        q, k = tens(rng, 4, 6), tens(rng, 4, 6)
        c = Tensor(rng.uniform(-2, 2, size=(4, 4)) + 4 * np.eye(4))  # invertible
        keep = np.array([True, False, True, True])
        out = attention(q, k, c, key_mask=keep)
        assert np.abs(out.data - oracles.attention_ref(q.data, k.data, c.data, keep)).max() < ORACLE_TOL
        weights = oracles.recover_attention_weights(out.data, c.data)
        assert np.abs(weights[:, 1]).max() < 1e-9
        assert np.abs(weights.sum(axis=1) - 1.0).max() < 1e-9
        assert weights.min() > -1e-9


def test_attention_rows_are_convex_combinations():
    rng = make_rng(22, "attn-hull")
    for _ in range(25):
        q, k = tens(rng, 5, 3), tens(rng, 3, 3)
        c = Tensor(rng.uniform(-2, 2, size=(3, 3)) + 4 * np.eye(3))
        weights = oracles.recover_attention_weights(attention(q, k, c).data, c.data)
        assert np.abs(weights.sum(axis=1) - 1.0).max() < 1e-9
        assert weights.min() > -1e-9


def test_attention_all_masked_is_contract_error():
    q = Tensor(np.ones((2, 3)))
    with pytest.raises(ContractError):
        attention(q, q, q, key_mask=np.zeros(2, dtype=bool))


def test_attention_mismatched_key_content_rows():
    rng = make_rng(23, "attn-rows")
    with pytest.raises(ContractError):
        attention(tens(rng, 2, 3), tens(rng, 4, 3), tens(rng, 5, 3))


def test_attention_batched_equals_per_example():
    rng = make_rng(24, "attn-batch")
    q, k, c = tens(rng, 3, 4, 5), tens(rng, 3, 6, 5), tens(rng, 3, 6, 5)
    keep = rng.uniform(size=(3, 6)) > 0.3
    keep[:, 0] = True
    stacked = attention(q, k, c, key_mask=keep)
    for b in range(3):
        single = attention(Tensor(q.data[b]), Tensor(k.data[b]),
                           Tensor(c.data[b]), key_mask=keep[b])
        assert np.array_equal(stacked.data[b], single.data)


# ---------------------------------------------------------------------------
# multi-head attention
# ---------------------------------------------------------------------------

def identity_mha(width):
    eye = lambda: AffineParams(Tensor(np.eye(width)), Tensor(np.zeros(width)))
    return MhaParams(query=eye(), key=eye(), content=eye(), out=eye(), heads=1)


def test_mha_single_identity_head_equals_attention():
    rng = make_rng(30, "mha-id")
    q, k, c = tens(rng, 4, 6), tens(rng, 5, 6), tens(rng, 5, 6)
    got = multi_head_attention(identity_mha(6), q, k, c)
    assert np.allclose(got.data, attention(q, k, c).data, atol=1e-14)


def test_mha_head_subspace_width():
    params = MhaParams.init(512, 4)
    assert params.query.weight.data.shape == (512, 512)
    assert params.heads == 4
    assert params.query.weight.data.shape[1] // params.heads == 128
    assert params.out.weight.data.shape == (512, 512)


def test_key_bias_cancels_in_the_softmax():
    """The oracle with a random key bias added agrees with the bias-free
    MHA: the bias shifts every score of a query row by the same q·b."""
    rng = make_rng(38, "mha-key-bias")
    for heads, keep in ((2, None),
                        (4, np.array([True, False, True, True, False, True]))):
        params = oracles.drawn(MhaParams.init(8, heads), rng)
        biased = MhaParams(
            query=params.query,
            key=AffineParams(params.key.weight,
                             Tensor(rng.uniform(-2.0, 2.0, size=8))),
            content=params.content, out=params.out, heads=heads)
        q, k, c = tens(rng, 3, 8), tens(rng, 6, 8), tens(rng, 6, 8)
        got = multi_head_attention(params, q, k, c, key_mask=keep)
        want = oracles.mha_ref(biased, q.data, k.data, c.data, keep)
        assert np.abs(got.data - want).max() < ORACLE_TOL


def test_mha_rejects_indivisible_width():
    with pytest.raises(ConfigError):
        MhaParams.init(10, 3)


def test_mha_matches_per_head_oracle():
    rng = make_rng(33, "mha-oracle")
    for _ in range(25):
        params = oracles.drawn(MhaParams.init(8, 2), rng)
        q, k, c = tens(rng, 5, 8), tens(rng, 5, 8), tens(rng, 5, 8)
        got = multi_head_attention(params, q, k, c)
        assert np.abs(got.data - oracles.mha_ref(params, q.data, k.data, c.data)).max() < ORACLE_TOL


def test_mha_masked_matches_oracle():
    rng = make_rng(34, "mha-mask")
    params = oracles.drawn(MhaParams.init(8, 4), rng)
    q, k, c = tens(rng, 3, 8), tens(rng, 6, 8), tens(rng, 6, 8)
    keep = np.array([True, True, False, True, False, True])
    got = multi_head_attention(params, q, k, c, key_mask=keep)
    assert np.abs(got.data - oracles.mha_ref(params, q.data, k.data, c.data, keep)).max() < ORACLE_TOL


def test_mha_gradcheck():
    rng = make_rng(35, "mha-grad")
    params = oracles.drawn(MhaParams.init(6, 2), rng)
    q, k, c = tens(rng, 3, 6), tens(rng, 4, 6), tens(rng, 4, 6)
    named = dict(named_tensors(params, "mha"))

    def loss_fn():
        out = multi_head_attention(params, q, k, c)
        return T.tmean(T.mul(out, out))

    errs = check_gradients(loss_fn, named, max_coords=16)
    assert max(errs.values()) < 1e-4


# ---------------------------------------------------------------------------
# sublayer wrapper and MLP
# ---------------------------------------------------------------------------

def test_sublayer_zero_function_is_layer_norm():
    rng = make_rng(40, "sub-zero")
    x = tens(rng, 4, 8)
    params = SublayerParams.init(8)
    got = sublayer(x, lambda t: T.scale(t, 0.0), params)
    want = T.layer_norm(x, params.gain, params.bias)
    assert np.array_equal(got.data, want.data)


def test_sublayer_identity_on_constant_rows_is_zero():
    x = Tensor(np.full((3, 5), 2.5))
    got = sublayer(x, lambda t: t, SublayerParams.init(5))
    assert np.array_equal(got.data, np.zeros((3, 5)))


def test_sublayer_matches_oracle():
    rng = make_rng(41, "sub-oracle")
    for _ in range(25):
        x = tens(rng, 4, 6)
        params = SublayerParams.init(6)
        params.gain.data = rng.uniform(0.5, 1.5, size=6)
        params.bias.data = rng.uniform(-0.5, 0.5, size=6)
        mlp = oracles.drawn(MlpParams.init(6, 12), rng)
        got = sublayer(x, mlp.apply, params)
        want = oracles.sublayer_ref(x.data, oracles.mlp_ref(mlp, x.data), params)
        assert np.abs(got.data - want).max() < ORACLE_TOL


def test_sublayer_shape_change_rejected():
    rng = make_rng(42, "sub-shape")
    with pytest.raises(ContractError):
        sublayer(tens(rng, 3, 4), lambda t: T.transpose(t),
                 SublayerParams.init(4))


def test_sublayer_preserves_shape():
    rng = make_rng(43, "sub-pres")
    x = tens(rng, 2, 7, 4)
    out = sublayer(x, lambda t: T.relu(t), SublayerParams.init(4))
    assert out.data.shape == x.data.shape


def test_sublayer_gradient_flows_both_paths():
    rng = make_rng(44, "sub-grad")
    x = tens(rng, 3, 6)
    x.requires_grad = True
    params = SublayerParams.init(6)
    mlp = oracles.drawn(MlpParams.init(6, 10), rng)
    named = {"x": x, **dict(named_tensors(params, "ln")),
             **dict(named_tensors(mlp, "mlp"))}

    def loss_fn():
        out = sublayer(x, mlp.apply, params)
        return T.tmean(T.mul(out, out))

    errs = check_gradients(loss_fn, named, max_coords=10)
    assert max(errs.values()) < 1e-4


def test_sublayer_training_dropout_differs_from_eval():
    rng = make_rng(45, "sub-drop")
    x = tens(rng, 8, 8)
    params = SublayerParams.init(8)
    evaled = sublayer(x, lambda t: T.relu(t), params, dropout_p=0.5)
    trained = sublayer(x, lambda t: T.relu(t), params, dropout_p=0.5,
                       rng=make_rng(1, "drop"))
    assert not np.array_equal(evaled.data, trained.data)


def test_mlp_bad_inner_width():
    with pytest.raises(ConfigError):
        MlpParams.init(4, 0)


# ---------------------------------------------------------------------------
# positional encoding
# ---------------------------------------------------------------------------

def test_positional_encoding_row_zero_pattern():
    table = positional_encoding(3, 8).data
    assert np.array_equal(table[0], np.array([0.0, 1.0] * 4))


def test_positional_encoding_bounded():
    table = positional_encoding(200, 16).data
    assert table.min() >= -1.0 and table.max() <= 1.0


def test_positional_encoding_known_entries():
    table = positional_encoding(4, 6).data
    assert table[1, 0] == pytest.approx(np.sin(1.0))
    assert table[1, 1] == pytest.approx(np.cos(1.0))
    assert table[2, 2] == pytest.approx(np.sin(2.0 / 10000.0 ** (2.0 / 6.0)))


def test_positional_encoding_rows_distinct_at_scale():
    table = positional_encoding(10_000, 512).data
    assert np.unique(table, axis=0).shape[0] == 10_000


def test_positional_encoding_odd_width():
    table = positional_encoding(5, 7).data
    assert table.shape == (5, 7)
    assert np.array_equal(table[0], np.array([0, 1, 0, 1, 0, 1, 0.0]))


def test_positional_encoding_rejects_empty():
    with pytest.raises(ConfigError):
        positional_encoding(0, 8)
