"""Encoder variants, glimpse pooling, classification head, parameter init,
checkpoints."""

import gc
import hashlib
import io
import json
import os
import signal
import struct
import sys
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import tbje.layers
import tbje.model
import tbje.rng
import tbje.tensor as T
from tbje.errors import ConfigError, ContractError
from tbje.features import ModalityBatch
from tbje.gradcheck import check_gradients
from tbje.model import (CHECKPOINT_MAGIC, CHECKPOINT_VERSION, EncoderConfig,
                        GlimpseParams, classify, encode_joint,
                        forward_logits, glimpse, init_model,
                        load_model, model_bytes, read_model, save_model)
from tbje.rng import make_rng
from tbje.tensor import Tensor
from tbje.training import loss

import oracles
from toy_corpus import truncation_cuts

ORACLE_TOL = 1e-10


def toy_config(**kw):
    base = dict(modalities=("L", "A"), primary="L", blocks=1, width=8, heads=2,
                mlp_width=12, lengths={"L": 3, "A": 4},
                input_widths={"L": 5, "A": 6}, task="sentiment-7",
                positional={})
    base.update(kw)
    return EncoderConfig(**base)


def toy_batch(rng, tag, batch, n, width, ragged=True):
    feats = rng.uniform(-1.0, 1.0, size=(batch, n, width))
    mask = np.ones((batch, n), dtype=bool)
    if ragged:
        for i in range(batch):
            mask[i, int(rng.integers(1, n + 1)):] = False
    feats[~mask] = 0.0
    return ModalityBatch(feats, mask, tag)


def toy_batches(rng, cfg, batch):
    return {m: toy_batch(rng, m, batch, cfg.lengths[m], cfg.input_widths[m])
            for m in cfg.modalities}


# ---------------------------------------------------------------------------
# glimpse pooling
# ---------------------------------------------------------------------------

def test_glimpse_single_row_returned_for_every_glimpse():
    rng = make_rng(50, "gl-one")
    params = oracles.drawn(GlimpseParams.init(4, 3, with_norm=False), rng)
    row = Tensor(rng.uniform(-1, 1, size=(1, 4)))
    out = glimpse(row, params)
    assert np.allclose(out.data, np.repeat(row.data, 3, axis=0), atol=1e-14)


def test_glimpse_zero_scores_average_valid_rows():
    rng = make_rng(51, "gl-zero")
    params = oracles.drawn(GlimpseParams.init(4, 2, with_norm=False), rng)
    params.scores.data = np.zeros_like(params.scores.data)
    m = Tensor(rng.uniform(-1, 1, size=(5, 4)))
    keep = np.array([True, True, False, True, False])
    out = glimpse(m, params, keep)
    want = m.data[keep].mean(axis=0)
    assert np.allclose(out.data, np.stack([want, want]), atol=1e-12)


def test_glimpse_matches_straight_line_oracle():
    rng = make_rng(52, "gl-oracle")
    for _ in range(100):
        params = oracles.drawn(GlimpseParams.init(2, 3, with_norm=False), rng)
        m = Tensor(rng.uniform(-2, 2, size=(3, 2)))
        got = glimpse(m, params)
        want = oracles.glimpse_ref(m.data, params.embed.data, params.scores.data)
        assert np.abs(got.data - want).max() < ORACLE_TOL


def glimpse_embed_first(m, params, keep):
    """The glimpse scored in the other association, (m @ embed) @ scoresᵀ."""
    embedded = T.matmul(m, params.embed)
    scores = T.transpose(T.matmul(embedded, T.transpose(params.scores)))
    return T.matmul(T.softmax(scores, axis=-1, keep=keep[..., None, :]), m)


def test_glimpse_matches_embed_first_order_with_gradients():
    rng = make_rng(57, "gl-assoc")
    params = oracles.drawn(GlimpseParams.init(6, 5, with_norm=False), rng)
    m = Tensor(rng.uniform(-2, 2, size=(3, 5, 6)), requires_grad=True)
    keep = rng.uniform(size=(3, 5)) > 0.3
    keep[:, 0] = True
    g = Tensor(rng.uniform(-1, 1, size=(3, 5, 6)))
    results = []
    for pool in (lambda: glimpse(m, params, keep),
                 lambda: glimpse_embed_first(m, params, keep)):
        for t in (m, params.embed, params.scores):
            t.grad = None
        with T.Tape() as tape:
            out = pool()
            tape.backward(T.tsum(T.mul(out, g)))
        results.append((out.data, m.grad, params.embed.grad,
                        params.scores.grad))
    for got, want in zip(*results):
        assert np.abs(got - want).max() < 1e-12


def test_glimpse_batched_matches_per_example():
    rng = make_rng(53, "gl-batch")
    params = oracles.drawn(GlimpseParams.init(4, 5, with_norm=False), rng)
    m = Tensor(rng.uniform(-1, 1, size=(3, 5, 4)))
    keep = rng.uniform(size=(3, 5)) > 0.3
    keep[:, 0] = True
    out = glimpse(m, params, keep)
    for b in range(3):
        single = glimpse(Tensor(m.data[b]), params, keep[b])
        assert np.array_equal(out.data[b], single.data)


def test_glimpse_rows_are_convex_combinations_of_valid_rows():
    rng = make_rng(54, "gl-hull")
    params = oracles.drawn(GlimpseParams.init(3, 4, with_norm=False), rng)
    m = Tensor(rng.uniform(-2, 2, size=(3, 3)) + 4 * np.eye(3))
    weights = oracles.recover_attention_weights(glimpse(m, params).data, m.data)
    assert np.abs(weights.sum(axis=1) - 1.0).max() < 1e-9
    assert weights.min() > -1e-9


def test_glimpse_all_masked_rejected():
    params = oracles.drawn(GlimpseParams.init(4, 2, with_norm=False),
                           make_rng(55, "gl-bad"))
    with pytest.raises(ContractError):
        glimpse(Tensor(np.zeros((2, 4))), params, np.zeros(2, dtype=bool))


def test_glimpse_invariant_to_row_permutation_when_uniform():
    rng = make_rng(56, "gl-perm")
    params = oracles.drawn(GlimpseParams.init(4, 2, with_norm=False), rng)
    params.scores.data = np.zeros_like(params.scores.data)
    m = rng.uniform(-1, 1, size=(5, 4))
    perm = rng.permutation(5)
    a = glimpse(Tensor(m), params).data
    b = glimpse(Tensor(m[perm]), params).data
    assert np.allclose(a, b, atol=1e-12)


def test_glimpse_slots_without_rng_are_allocated_once(monkeypatch):
    """Each glimpse array is the one ``np.empty`` allocated, not a
    C-ordered copy of a transposed one."""
    allocated, real_empty = [], np.empty

    def empty(*args, **kwargs):
        allocated.append(real_empty(*args, **kwargs))
        return allocated[-1]

    monkeypatch.setattr(np, "empty", empty)
    params = GlimpseParams.init(4, 3, with_norm=False)
    assert params.scores.data.shape == (3, 8)
    for t in (params.embed, params.scores):
        assert any(np.shares_memory(a, t.data) for a in allocated)


# ---------------------------------------------------------------------------
# monomodal encoder
# ---------------------------------------------------------------------------

def test_monomodal_zero_blocks_is_input_projection():
    cfg = toy_config(modalities=("L",), blocks=0, lengths={"L": 3},
                     input_widths={"L": 5})
    model = init_model(cfg, seed=1)
    rng = make_rng(60, "mono-b0")
    batch = toy_batch(rng, "L", 2, 3, 5)
    got = encode_joint({"L": batch}, model)["L"]
    want = oracles.affine_ref(model.input_proj["L"], batch.features)
    assert np.abs(got.data - want).max() < 1e-14


def test_monomodal_single_token_attention_is_identity_weighted():
    cfg = toy_config(modalities=("L",), blocks=1, lengths={"L": 1},
                     input_widths={"L": 5})
    model = init_model(cfg, seed=2)
    rng = make_rng(61, "mono-one")
    batch = toy_batch(rng, "L", 1, 1, 5, ragged=False)
    got = encode_joint({"L": batch}, model)["L"]
    # with one key the softmax weight is 1, so MHA reduces to the content
    # path: out_proj(content projection of the single row, all heads)
    x = oracles.affine_ref(model.input_proj["L"], batch.features[0])
    block = model.blocks["L"][0]
    content = oracles.affine_ref(block.mha.content, x)
    mha_out = oracles.affine_ref(block.mha.out, content)
    state = oracles.sublayer_ref(x, mha_out, block.mha_norm)
    state = oracles.sublayer_ref(state, oracles.mlp_ref(block.mlp, state),
                                 block.mlp_norm)
    assert np.abs(got.data[0] - state).max() < ORACLE_TOL


def test_monomodal_matches_unrolled_oracle():
    cfg = toy_config(modalities=("L",), blocks=2, lengths={"L": 4},
                     input_widths={"L": 5}, positional={"L": True})
    model = init_model(cfg, seed=3)
    rng = make_rng(62, "mono-oracle")
    batch = toy_batch(rng, "L", 3, 4, 5)
    got = encode_joint({"L": batch}, model)["L"]
    for i in range(3):
        want = oracles.monomodal_forward_ref(model, "L", batch.features[i],
                                             batch.mask[i])
        assert np.abs(got.data[i] - want).max() < ORACLE_TOL


def test_monomodal_wrong_width_rejected():
    cfg = toy_config(modalities=("L",), lengths={"L": 3}, input_widths={"L": 5})
    model = init_model(cfg)
    bad = ModalityBatch(np.ones((1, 3, 4)), np.ones((1, 3), dtype=bool), "L")
    with pytest.raises(ConfigError):
        encode_joint({"L": bad}, model)


def test_monomodal_permutation_equivariant_without_positions():
    cfg = toy_config(modalities=("L",), blocks=1, lengths={"L": 4},
                     input_widths={"L": 5}, positional={})
    model = init_model(cfg, seed=4)
    rng = make_rng(63, "mono-perm")
    batch = toy_batch(rng, "L", 1, 4, 5, ragged=False)
    perm = rng.permutation(4)
    permuted = ModalityBatch(batch.features[:, perm], batch.mask[:, perm], "L")
    base = encode_joint({"L": batch}, model)["L"].data
    moved = encode_joint({"L": permuted}, model)["L"].data
    assert np.allclose(moved[0], base[0][perm], atol=1e-12)


# ---------------------------------------------------------------------------
# joint encoder
# ---------------------------------------------------------------------------

def test_joint_matches_straight_line_oracle():
    cfg = toy_config(blocks=1, width=4, heads=2, mlp_width=6,
                     lengths={"L": 3, "A": 4}, input_widths={"L": 5, "A": 6})
    model = init_model(cfg, seed=5)
    rng = make_rng(70, "joint-oracle")
    batches = toy_batches(rng, cfg, 3)
    states = encode_joint(batches, model)
    logits = forward_logits(model, batches)
    for i in range(3):
        feats = {m: batches[m].features[i] for m in cfg.modalities}
        keeps = {m: batches[m].mask[i] for m in cfg.modalities}
        want = oracles.joint_encode_ref(model, feats, keeps)
        for m in cfg.modalities:
            assert np.abs(states[m].data[i] - want[m]).max() < ORACLE_TOL
        assert np.abs(logits.data[i]
                      - oracles.classify_ref(model, want, keeps)).max() < ORACLE_TOL


def test_joint_multiblock_deep_oracle():
    cfg = toy_config(blocks=3, width=8, heads=4, mlp_width=10,
                     positional={"L": True})
    model = init_model(cfg, seed=6)
    rng = make_rng(71, "joint-deep")
    batches = toy_batches(rng, cfg, 2)
    logits = forward_logits(model, batches)
    for i in range(2):
        want = oracles.joint_logits_ref(
            model, {m: batches[m].features[i] for m in cfg.modalities},
            {m: batches[m].mask[i] for m in cfg.modalities})
        assert np.abs(logits.data[i] - want).max() < ORACLE_TOL


def test_joint_single_modality_is_monomodal_plus_block_glimpses():
    cfg = toy_config(modalities=("L",), variant="joint", blocks=2,
                     lengths={"L": 3}, input_widths={"L": 5})
    model = init_model(cfg, seed=7)
    rng = make_rng(72, "joint-single")
    batch = toy_batch(rng, "L", 2, 3, 5)
    got = encode_joint({"L": batch}, model)["L"]
    # decompose: self-attention + MLP sublayers, then the glimpse sublayer
    for i in range(2):
        state = oracles.affine_ref(model.input_proj["L"], batch.features[i])
        keep = batch.mask[i]
        for block in model.blocks["L"]:
            state = oracles.sublayer_ref(
                state, oracles.mha_ref(block.mha, state, state, state, keep),
                block.mha_norm)
            state = oracles.sublayer_ref(
                state, oracles.mlp_ref(block.mlp, state), block.mlp_norm)
            pooled = oracles.glimpse_ref(state, block.glimpse.embed.data,
                                         block.glimpse.scores.data, keep)
            state = oracles.sublayer_ref(state, pooled, block.glimpse.norm)
        assert np.abs(got.data[i] - state).max() < ORACLE_TOL


def test_joint_missing_primary_rejected():
    cfg = toy_config()
    model = init_model(cfg)
    rng = make_rng(73, "joint-miss")
    with pytest.raises(ConfigError, match="primary"):
        encode_joint({"A": toy_batch(rng, "A", 1, 4, 6)}, model)


def test_joint_missing_modality_rejected():
    cfg = toy_config()
    model = init_model(cfg)
    rng = make_rng(74, "joint-miss2")
    with pytest.raises(ConfigError, match="missing"):
        encode_joint({"L": toy_batch(rng, "L", 1, 3, 5)}, model)


def test_directional_flow_primary_drives_others():
    cfg = toy_config(blocks=2)
    model = init_model(cfg, seed=8)
    rng = make_rng(75, "flow")
    batches = toy_batches(rng, cfg, 2)
    _, base = encode_joint(batches, model, return_blocks=True)

    # perturbing the non-primary modality must leave the primary untouched,
    # bit for bit, at every block
    bumped_a = {m: b for m, b in batches.items()}
    feats = batches["A"].features.copy()
    feats[batches["A"].mask] += 0.25
    bumped_a["A"] = ModalityBatch(feats, batches["A"].mask, "A")
    _, moved = encode_joint(bumped_a, model, return_blocks=True)
    for b in range(cfg.blocks):
        assert np.array_equal(moved[b]["L"], base[b]["L"])
    assert not np.array_equal(moved[0]["A"], base[0]["A"])

    # perturbing the primary reaches the other modality already at block 1
    bumped_l = {m: b for m, b in batches.items()}
    feats = batches["L"].features.copy()
    feats[batches["L"].mask] += 0.25
    bumped_l["L"] = ModalityBatch(feats, batches["L"].mask, "L")
    _, moved = encode_joint(bumped_l, model, return_blocks=True)
    assert not np.array_equal(moved[0]["A"], base[0]["A"])
    assert not np.array_equal(moved[0]["L"], base[0]["L"])


def test_masked_tail_rows_do_not_change_logits():
    cfg = toy_config(blocks=2)
    model = init_model(cfg, seed=9)
    rng = make_rng(76, "pad-grow")
    batches = toy_batches(rng, cfg, 2)
    base = forward_logits(model, batches).data

    grown_cfg = toy_config(blocks=2, lengths={"L": 6, "A": 7})
    grown = init_model(grown_cfg, seed=99)
    donors = dict(model.named_parameters())
    for name, slot in grown.named_parameters():
        src = donors[name]
        if slot.data.shape == src.data.shape:
            slot.data = src.data.copy()
        else:
            # in-block glimpse score vectors follow the padded length; the
            # extra vectors only produce rows that stay masked downstream
            assert name.endswith(".scores")
            slot.data[: src.data.shape[0]] = src.data
    grown_batches = {}
    for m, batch in batches.items():
        n_new = grown_cfg.lengths[m]
        feats = np.zeros((len(batch), n_new, batch.features.shape[2]))
        mask = np.zeros((len(batch), n_new), dtype=bool)
        feats[:, : batch.features.shape[1]] = batch.features
        mask[:, : batch.mask.shape[1]] = batch.mask
        grown_batches[m] = ModalityBatch(feats, mask, m)
    grown_logits = forward_logits(grown, grown_batches).data
    assert np.abs(grown_logits - base).max() < ORACLE_TOL


# ---------------------------------------------------------------------------
# classification head
# ---------------------------------------------------------------------------

def test_classify_single_modality_skips_sum():
    cfg = toy_config(modalities=("L",), lengths={"L": 3}, input_widths={"L": 5})
    model = init_model(cfg, seed=10)
    rng = make_rng(80, "cls-one")
    batch = toy_batch(rng, "L", 2, 3, 5)
    encoded = encode_joint({"L": batch}, model)["L"]
    got = classify({"L": encoded}, {"L": batch.mask}, model)
    vec = glimpse(encoded, model.final_glimpse["L"], batch.mask)
    want = model.head.apply(
        T.layer_norm(vec, model.head_norm.gain, model.head_norm.bias))
    assert np.array_equal(got.data, want.data.reshape(2, -1))


def test_classify_zero_head_gives_uniform_prediction():
    cfg = toy_config()
    model = init_model(cfg, seed=11)
    model.head.weight.data[:] = 0.0
    model.head.bias.data[:] = 0.0
    rng = make_rng(81, "cls-zero")
    logits = forward_logits(model, toy_batches(rng, cfg, 2))
    assert np.array_equal(logits.data, np.zeros((2, 7)))
    probs = T.softmax(logits, axis=-1).data
    assert np.allclose(probs, 1.0 / 7.0, atol=1e-15)


def test_classify_shape_follows_task():
    for task, classes in (("sentiment-2", 2), ("sentiment-7", 7),
                          ("emotions-6", 6)):
        cfg = toy_config(task=task)
        model = init_model(cfg, seed=12)
        rng = make_rng(82, "cls-shape", task)
        logits = forward_logits(model, toy_batches(rng, cfg, 3))
        assert logits.data.shape == (3, classes)


# ---------------------------------------------------------------------------
# training-mode stochasticity
# ---------------------------------------------------------------------------

def test_training_forward_needs_seed():
    cfg = toy_config(dropout_block=0.1)
    model = init_model(cfg)
    rng = make_rng(83, "train-seed")
    with pytest.raises(ContractError):
        forward_logits(model, toy_batches(rng, cfg, 2), training=True)


def test_training_forward_reproducible_and_distinct_from_eval():
    cfg = toy_config(dropout_block=0.2, dropout_classifier=0.5)
    model = init_model(cfg, seed=13)
    rng = make_rng(84, "train-repro")
    batches = toy_batches(rng, cfg, 2)
    a = forward_logits(model, batches, rng_seed=7, training=True).data
    b = forward_logits(model, batches, rng_seed=7, training=True).data
    c = forward_logits(model, batches, rng_seed=8, training=True).data
    ev = forward_logits(model, batches).data
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, ev)


def test_per_block_dropout_mode_only_touches_attention_sublayer():
    # with the per-block mode, zeroing is confined to the MHA sublayer; the
    # same seed with per-sublayer mode must draw more masks and so differ
    cfg_block = toy_config(dropout_block=0.3, dropout_per_sublayer=False)
    cfg_sub = toy_config(dropout_block=0.3, dropout_per_sublayer=True)
    rng = make_rng(85, "drop-mode")
    batches = toy_batches(rng, cfg_block, 2)
    m_block = init_model(cfg_block, seed=14)
    m_sub = init_model(cfg_sub, seed=14)
    a = forward_logits(m_block, batches, rng_seed=3, training=True).data
    b = forward_logits(m_sub, batches, rng_seed=3, training=True).data
    assert not np.array_equal(a, b)
    assert np.array_equal(forward_logits(m_block, batches).data,
                          forward_logits(m_sub, batches).data)


@pytest.mark.parametrize("rates", [
    dict(dropout_block=0.2, dropout_classifier=0.0),
    dict(dropout_block=0.0, dropout_classifier=0.5)], ids=["block", "classifier"])
def test_training_forward_without_seed_is_rejected(rates):
    cfg = toy_config(**rates)
    batches = toy_batches(make_rng(88, "no-seed"), cfg, 2)
    with pytest.raises(ContractError,
                       match="training-mode forward needs an RNG seed"):
        forward_logits(init_model(cfg, seed=18), batches, training=True)


def test_training_forward_without_dropout_needs_no_seed():
    cfg = toy_config(dropout_block=0.0, dropout_classifier=0.0)
    model = init_model(cfg, seed=19)
    batches = toy_batches(make_rng(89, "no-drop"), cfg, 2)
    assert np.array_equal(forward_logits(model, batches, training=True).data,
                          forward_logits(model, batches).data)


def test_zero_rate_sites_draw_no_rng(monkeypatch):
    # per-block mode: one RNG per attention sublayer and one for the
    # classifier; the MLP and glimpse sublayers drop nothing and get none
    cfg = toy_config(modalities=("L", "A", "V"), blocks=2,
                     lengths={"L": 3, "A": 4, "V": 2},
                     input_widths={"L": 5, "A": 6, "V": 3},
                     dropout_block=0.3, dropout_per_sublayer=False)
    model = init_model(cfg, seed=20)
    batches = toy_batches(make_rng(90, "rng-count"), cfg, 2)
    streams = []

    def counted(*args):
        streams.append(args)
        return make_rng(*args)

    monkeypatch.setattr(tbje.model, "make_rng", counted)
    forward_logits(model, batches, rng_seed=4, training=True)
    assert len(streams) == cfg.blocks * len(cfg.modalities) + 1


# ---------------------------------------------------------------------------
# end-to-end gradient check (toy config)
# ---------------------------------------------------------------------------

def test_end_to_end_gradcheck_two_modalities():
    cfg = toy_config(blocks=1, width=8, heads=2, mlp_width=10,
                     lengths={"L": 3, "A": 3}, input_widths={"L": 4, "A": 5})
    model = init_model(cfg, seed=15)
    rng = make_rng(86, "e2e-grad")
    batches = toy_batches(rng, cfg, 2)

    def loss_fn():
        logits = forward_logits(model, batches)
        return T.tmean(T.mul(logits, logits))

    errs = check_gradients(loss_fn, model.parameter_dict(), max_coords=8)
    assert max(errs.values()) < 1e-4


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kw", [
    dict(modalities=()),
    dict(modalities=("L", "L")),
    dict(modalities=("L", "X")),
    dict(primary="V"),
    dict(task="sentiment-3"),
    dict(variant="monomodal"),           # two modalities
    dict(blocks=-1),
    dict(width=9),                       # not divisible by heads=2
    dict(dropout_block=1.0),
    dict(dropout_classifier=-0.1),
    dict(lengths={"L": 3}),              # A missing
    dict(input_widths={"L": 5}),
])
def test_config_rejections(kw):
    with pytest.raises(ConfigError):
        toy_config(**kw)


@pytest.mark.parametrize("task", ["sentiment-2", "sentiment-7", "emotions-6"])
def test_sentiment_boundary_only_with_sentiment_2(task):
    assert toy_config(task=task).sentiment_boundary == 0.0
    if task == "sentiment-2":
        assert toy_config(task=task,
                          sentiment_boundary=1.0).sentiment_boundary == 1.0
    else:
        with pytest.raises(ConfigError, match="sentiment_boundary"):
            toy_config(task=task, sentiment_boundary=1.0)


def test_default_model_has_240_parameter_tensors():
    names = [name for name, _ in init_model(EncoderConfig()).named_parameters()]
    assert len(names) == 240
    # one query, key, content and output map per block: 2 modalities x 6
    # blocks, each with a weight and, except the key map, a bias
    assert sum(".mha." in name for name in names) == 2 * 6 * 7
    assert [n for n in names if n.startswith("enc.A.5.mha.")] == [
        f"enc.A.5.mha.{proj}.{kind}"
        for proj in ("query", "key", "content", "out")
        for kind in ("weight", "bias")
        if (proj, kind) != ("key", "bias")]


def test_config_roundtrip_and_unknown_keys():
    cfg = toy_config(positional={"L": True})
    again = EncoderConfig.from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()
    with pytest.raises(ConfigError, match="unknown config keys"):
        EncoderConfig.from_dict({"n_layers": 6})


def test_config_variant_resolution():
    assert toy_config().resolved_variant() == "joint"
    assert toy_config(modalities=("A",), primary="A").resolved_variant() == "monomodal"
    assert toy_config(modalities=("A",), primary="A",
                      variant="joint").resolved_variant() == "joint"


# ---------------------------------------------------------------------------
# parameter init
# ---------------------------------------------------------------------------

# SHA-256 over every (name, float64 bytes) of ``named_parameters``, as the
# single-stream serial draw gave them; the two-range draw must not move them
INIT_SHA256 = {
    "full": "f852255c636fd0d585e02d4159c3a51e028ca8df7fae4bb11d04a3e64468af20",
    "joint": "429120fc494ebefe64f9f31a6f7e381d36de146f4eaf70bbf1f7232162918f40",
    "monomodal":
        "0409ed4f35b372422a963bdca1d7229f483c97a883b6f9ca723da2c020d4a851",
}


def init_sha256(model):
    digest = hashlib.sha256()
    for name, p in model.named_parameters():
        digest.update(name.encode())
        digest.update(p.data.tobytes())
    return digest.hexdigest()


def usable_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))


@pytest.mark.parametrize("cpus", [(0, 1), (0,)], ids=["worker", "inline"])
def test_init_model_values_are_pinned(monkeypatch, cpus):
    usable_cpus(monkeypatch, cpus)
    on_caller, real_fill = [], tbje.rng._fill

    def fill(rng, draws):
        on_caller.append(threading.current_thread() is threading.main_thread())
        real_fill(rng, draws)

    monkeypatch.setattr(tbje.rng, "_fill", fill)
    for variant, cfg, seed in (
            ("full", EncoderConfig(), 0),
            ("joint", toy_config(blocks=2), 3),
            ("monomodal", toy_config(modalities=("A",), primary="A"), 4)):
        on_caller.clear()
        assert init_sha256(init_model(cfg, seed=seed)) == INIT_SHA256[variant]
        assert sorted(on_caller) == ([False, True] if len(cpus) > 1
                                     else [True])


def test_init_model_draws_per_head_blocks_in_parameter_order():
    """One stream, weight by weight in ``named_parameters`` order: each
    query, key and content map one head's (k, k/h) block at a time, each
    limited by that block's own shape, and a glimpse's (G, 2k) scores as
    their (2k, G) transpose. Biases start at zero, layer-norms at unit
    gain."""
    cfg = toy_config(modalities=("L",), variant="joint", lengths={"L": 3},
                     input_widths={"L": 5})
    model = init_model(cfg, seed=36)
    stream = make_rng(36, "model-init")

    def xavier(n_in, n_out):
        limit = np.sqrt(6.0 / (n_in + n_out))
        return stream.uniform(-limit, limit, size=(n_in, n_out))

    def by_head():
        return np.hstack([xavier(8, 4), xavier(8, 4)])

    want = {"proj.L.weight": xavier(5, 8),
            "enc.L.0.mha.query.weight": by_head(),
            "enc.L.0.mha.key.weight": by_head(),
            "enc.L.0.mha.content.weight": by_head(),
            "enc.L.0.mha.out.weight": xavier(8, 8),
            "enc.L.0.mlp.hidden.weight": xavier(8, 12),
            "enc.L.0.mlp.out.weight": xavier(12, 8),
            "enc.L.0.glimpse.embed": xavier(8, 16),
            "enc.L.0.glimpse.scores": xavier(16, 3).T,
            "final.L.embed": xavier(8, 16),
            "final.L.scores": xavier(16, 1).T,
            "head.out.weight": xavier(8, 7)}
    params = model.parameter_dict()
    assert {n for n, p in params.items() if p.data.ndim == 2} == set(want)
    assert "enc.L.0.mha.key.bias" not in params
    for name, p in params.items():
        fixed = 1.0 if name.endswith(".gain") else 0.0
        assert np.array_equal(p.data, want.get(name, np.full(p.shape, fixed)))


def test_init_model_joins_no_per_head_blocks(monkeypatch):
    """Each head's block is drawn into its own columns of the one (k, k)
    map, and a checkpoint read fills that map whole: neither joins
    per-head arrays."""
    blob = model_bytes(init_model(toy_config(), seed=9))

    def no_hstack(*args, **kwargs):
        raise AssertionError("per-head blocks were joined")

    monkeypatch.setattr(np, "hstack", no_hstack)
    for model in (init_model(toy_config(), seed=9),
                  read_model(io.BytesIO(blob))):
        assert model_bytes(model) == blob
        mha = model.blocks["A"][0].mha
        for tag in ("query", "key", "content", "out"):
            assert getattr(mha, tag).weight.data.shape == (8, 8)
        assert mha.key.bias is None


def test_init_model_raises_the_workers_exception(monkeypatch):
    usable_cpus(monkeypatch, (0, 1))
    real_fill = tbje.rng._fill

    def fill(rng, draws):
        if threading.current_thread() is not threading.main_thread():
            raise FloatingPointError("drawn off the calling thread")
        real_fill(rng, draws)

    monkeypatch.setattr(tbje.rng, "_fill", fill)
    with pytest.raises(FloatingPointError,
                       match="^drawn off the calling thread$"):
        init_model(toy_config(), seed=1)


def test_init_model_keeps_one_worker_thread(monkeypatch):
    usable_cpus(monkeypatch, (0, 1))
    before = threading.active_count()
    for seed in range(20):
        init_model(toy_config(), seed=seed)
    assert threading.active_count() <= before + 1


def test_concurrent_first_inits_start_one_worker(monkeypatch):
    """Sixteen inits on eight threads, switching every microsecond, in a
    process whose worker has not started: each draws the same model, and
    one worker thread serves them all."""
    usable_cpus(monkeypatch, (0, 1))
    want = model_bytes(init_model(toy_config(), seed=2))
    monkeypatch.setattr(tbje.rng, "_worker", None)
    monkeypatch.setattr(tbje.rng, "_worker_pid", None)
    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            got = list(pool.map(
                lambda seed: model_bytes(init_model(toy_config(), seed=seed)),
                [2] * 16, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == [want] * 16
    assert threading.active_count() == before + 1
    tbje.rng._worker.shutdown()


def test_init_model_in_a_forked_child_draws_the_same_model(monkeypatch):
    """A child forked after the worker thread started inherits the
    executor but not its thread; its init must start a worker of its own,
    not queue work for a thread that is not there."""
    usable_cpus(monkeypatch, (0, 1))
    want = model_bytes(init_model(toy_config(), seed=2))
    pid = os.fork()
    if pid == 0:
        same = False
        try:
            same = model_bytes(init_model(toy_config(), seed=2)) == want
        finally:
            os._exit(0 if same else 1)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("init_model in a forked child did not return")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(done[1]) == 0


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip_bit_exact(tmp_path):
    cfg = toy_config()
    model = init_model(cfg, seed=16, vocab_hash="abc123")
    path = tmp_path / "model.tbjm"
    save_model(path, model)
    loaded = load_model(path)
    assert loaded.vocab_hash == "abc123"
    assert model_bytes(loaded) == path.read_bytes()
    rng = make_rng(87, "ckpt")
    batches = toy_batches(rng, cfg, 2)
    assert np.array_equal(forward_logits(model, batches).data,
                          forward_logits(loaded, batches).data)


def test_read_model_draws_no_init(monkeypatch):
    blob = model_bytes(init_model(toy_config(), seed=16, vocab_hash="abc123"))

    def no_draw(*args, **kwargs):
        raise AssertionError("read_model drew a random init")

    monkeypatch.setattr(tbje.model, "make_rng", no_draw)
    assert model_bytes(read_model(io.BytesIO(blob))) == blob


def with_key_bias(model) -> list:
    """``model``'s (name, array) list with a zero key bias after each
    attention map's key weight, as checkpoint versions 1 and 2 held it."""
    tensors = []
    for name, p in model.named_parameters():
        tensors.append((name, p.data))
        if name.endswith(".mha.key.weight"):
            tensors.append((name[:-len("weight")] + "bias",
                            np.zeros(model.config.width)))
    return tensors


def test_key_bias_has_no_slot_in_a_version_3_checkpoint():
    model = init_model(toy_config(), seed=19)
    buf = io.BytesIO()
    T.write_head(buf, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, json.dumps(
        {"config": model.config.to_dict()}).encode("utf-8"))
    T.write_named(buf, ((name, (data,)) for name, data in with_key_bias(model)))
    with pytest.raises(ConfigError, match="'enc.L.0.mha.key.bias' has no slot"):
        read_model(io.BytesIO(buf.getvalue()))


@pytest.mark.parametrize("value", [None, {"L": 50}, 1])
def test_glimpses_key_rejected_with_any_value(value):
    with pytest.raises(ConfigError) as err:
        EncoderConfig.from_dict({"glimpses": value})
    assert str(err.value) == "unknown config keys ['encoder.glimpses']"


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "m.tbjm"
    path.write_bytes(model_bytes(init_model(toy_config())) + b"\0")
    with pytest.raises(ConfigError, match="trailing bytes"):
        load_model(path)


@pytest.mark.parametrize("header", [
    b'{"config": {"blocks": 1, "wid',     # cut mid-string
    b'\xff\xfe{}',                        # not UTF-8
    b'{"vocab_hash": null}',               # no config
    b'[]',                                 # not an object
])
def test_checkpoint_corrupt_header_is_config_error(header):
    blob = (CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION,
                                           len(header)) + header)
    with pytest.raises(ConfigError, match="checkpoint header"):
        read_model(io.BytesIO(blob))


def test_checkpoint_header_config_not_an_object_is_config_error():
    header = b'{"config": 5}'
    blob = (CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION,
                                           len(header)) + header)
    with pytest.raises(ConfigError, match="'encoder' must be an object"):
        read_model(io.BytesIO(blob))


def test_checkpoint_wrong_width_names_both_values(tmp_path):
    model = init_model(toy_config(width=8))
    path = tmp_path / "m.tbjm"
    save_model(path, model)
    with pytest.raises(ConfigError, match=r"8.*16"):
        load_model(path, into=init_model(toy_config(width=16, mlp_width=16)))


def test_read_into_a_model_equals_a_fresh_read():
    cfg = toy_config(heads=4)
    blob = model_bytes(init_model(cfg, seed=21, vocab_hash="abc123"))
    fresh = read_model(io.BytesIO(blob))
    into = init_model(cfg, seed=22)
    arrays = [p.data for _, p in into.named_parameters()]
    assert read_model(io.BytesIO(blob), into=into) is into
    assert into.vocab_hash == "abc123"
    got, want = into.parameter_dict(), fresh.parameter_dict()
    assert list(got) == list(want)
    for name in want:
        assert np.array_equal(got[name].data, want[name].data), name
    assert all(p.data is a for (_, p), a in zip(into.named_parameters(),
                                                arrays))
    batches = toy_batches(make_rng(91, "read-into"), cfg, 2)
    assert np.array_equal(forward_logits(into, batches).data,
                          forward_logits(fresh, batches).data)


def test_read_into_a_model_of_another_config_reads_no_payload():
    blob = model_bytes(init_model(toy_config(dropout_block=0.2), seed=23))
    into = init_model(toy_config(), seed=24, vocab_hash="abc123")
    before = model_bytes(into)
    (header_len,) = struct.unpack("<I", blob[8:12])
    # cut just past the header: reading any payload would report truncation
    for cut in (len(blob), 12 + header_len):
        with pytest.raises(ConfigError) as err:
            read_model(io.BytesIO(blob[:cut]), into=into)
        assert str(err.value) == (
            "checkpoint config does not match the model it is read into "
            "(dropout_block: checkpoint 0.2, model 0.1)")
    assert model_bytes(into) == before


def test_integer_for_a_float_field_writes_the_float_checkpoint():
    raw = toy_config().to_dict()
    as_int = EncoderConfig.from_dict({**raw, "dropout_block": 0})
    as_float = EncoderConfig.from_dict({**raw, "dropout_block": 0.0})
    assert isinstance(as_int.dropout_block, float)
    assert model_bytes(init_model(as_int)) == model_bytes(init_model(as_float))


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.tbjm"
    path.write_bytes(b"WHAT" + bytes(64))
    with pytest.raises(ConfigError, match="magic"):
        load_model(path)


def test_checkpoint_truncated_tensor_list(tmp_path):
    model = init_model(toy_config())
    blob = model_bytes(model)
    path = tmp_path / "cut.tbjm"
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(Exception):
        load_model(path)


def test_checkpoint_truncated_anywhere_is_config_error():
    cfg = toy_config(modalities=("L",), lengths={"L": 3}, input_widths={"L": 5})
    blob = model_bytes(init_model(cfg))
    for cut in truncation_cuts(blob, stride=97):
        with pytest.raises(ConfigError, match="truncated"):
            read_model(io.BytesIO(blob[:cut]))


def test_each_residual_sublayer_and_affine_map_is_one_record(monkeypatch):
    """A training forward of a toy joint model: every residual sublayer
    records once around its function, every affine map records once."""
    cfg = toy_config(dropout_block=0.1, dropout_classifier=0.5)
    model = init_model(cfg, seed=6)
    batches = toy_batches(make_rng(58, "records"), cfg, 3)
    tape = T.Tape()
    sublayer_adds, affine_adds = [], []
    real_sublayer, real_apply = tbje.model.sublayer, tbje.layers.AffineParams.apply

    def sublayer(x, f, *args):
        after_f = []

        def counted_f(t):
            out = f(t)
            after_f.append(len(tape))
            return out

        out = real_sublayer(x, counted_f, *args)
        sublayer_adds.append(len(tape) - after_f[0])
        return out

    def apply(self, x):
        before = len(tape)
        out = real_apply(self, x)
        affine_adds.append(len(tape) - before)
        return out

    monkeypatch.setattr(tbje.model, "sublayer", sublayer)
    monkeypatch.setattr(tbje.layers.AffineParams, "apply", apply)
    with tape:
        forward_logits(model, batches, rng_seed=1, training=True)
    # per modality and block: attention, MLP and glimpse sublayers; the
    # affine maps are 4 in attention and 2 in the MLP, plus one input
    # projection per modality and the classifier head
    assert sublayer_adds == [1] * 3 * 2 * cfg.blocks
    assert affine_adds == [1] * (6 * 2 * cfg.blocks + 2 + 1)


# ---------------------------------------------------------------------------
# what the tape keeps
# ---------------------------------------------------------------------------

def toy_training_forward(seed=59):
    cfg = toy_config(blocks=2, dropout_block=0.2, dropout_classifier=0.5)
    model = init_model(cfg, seed=6)
    rng = make_rng(seed, "tape-keeps")
    batches = toy_batches(rng, cfg, 3)
    labels = rng.integers(0, cfg.num_classes(), size=3)
    tape = T.Tape()
    with tape:
        value = loss(forward_logits(model, batches, rng_seed=1, training=True),
                     labels, cfg.task)
    return tape, value


def test_no_record_or_vjp_closure_holds_a_tensor():
    tape, _ = toy_training_forward()
    assert len(tape) > 0
    for slot, inputs, vjp in tape._records:
        assert not isinstance(slot, Tensor)
        assert not any(isinstance(s, Tensor) for s in inputs)
        for cell in vjp.__closure__ or ():
            held = cell.cell_contents
            items = held if isinstance(held, (tuple, list)) else (held,)
            assert not any(isinstance(item, Tensor) for item in items), \
                vjp.__qualname__


def _root(arr):
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def test_relu_vjp_holds_only_arrays_the_next_record_holds():
    """relu's vjp reads its output, which the out projection recorded next
    holds anyway, so a relu record keeps no array of its own."""
    def roots(vjp):
        return {id(_root(cell.cell_contents)) for cell in vjp.__closure__
                if isinstance(cell.cell_contents, np.ndarray)}

    tape, _ = toy_training_forward()
    vjps = [vjp for _, _, vjp in tape._records]
    relus = [i for i, vjp in enumerate(vjps)
             if vjp.__qualname__.startswith("relu.")]
    assert len(relus) == 4
    for i in relus:
        assert roots(vjps[i]) and roots(vjps[i]) <= roots(vjps[i + 1])


def test_unread_activations_are_freed_before_backward(monkeypatch):
    """The MLP's pre-ReLU array and each sublayer's ``fx`` are read by no
    vjp, so they are gone while the tape is still unreplayed."""
    pre_relu, branches = [], []
    real_relu, real_residual_norm = T.relu, T.residual_norm

    def relu(a):
        pre_relu.append(weakref.ref(_root(a.data)))
        return real_relu(a)

    def residual_norm(x, fx, *args, **kwargs):
        if fx is not None:
            branches.append(weakref.ref(_root(fx.data)))
        return real_residual_norm(x, fx, *args, **kwargs)

    monkeypatch.setattr(T, "relu", relu)
    monkeypatch.setattr(T, "residual_norm", residual_norm)
    tape, value = toy_training_forward()
    gc.collect()
    assert len(pre_relu) == 4 and len(branches) == 12
    assert all(ref() is None for ref in pre_relu + branches)
    tape.backward(value)


FLOAT_MASK_REFERENCE = Path(__file__).parent / "data" / "float_mask_dropout_reference.npz"

FLOAT_MASK_CONFIGS = {
    "L": dict(modalities=("L",), primary="L", lengths={"L": 3},
              input_widths={"L": 5}, positional={"L": True}),
    "A": dict(modalities=("A",), primary="A", lengths={"A": 4},
              input_widths={"A": 6}),
    "LA": dict(),
}


def float_mask_step(name):
    """Loss and parameter gradients of one training-mode step of a toy
    model with dropout in every sublayer and the classifier."""
    cfg = toy_config(blocks=2, dropout_block=0.3, dropout_classifier=0.5,
                     **FLOAT_MASK_CONFIGS[name])
    model = init_model(cfg, seed=8)
    rng = make_rng(90, "float-mask", name)
    batches = toy_batches(rng, cfg, 4)
    labels = rng.integers(0, 7, size=4)
    with T.Tape() as tape:
        value = loss(forward_logits(model, batches, rng_seed=3, training=True),
                     labels, cfg.task)
        tape.backward(value)
    out = {f"{name}/loss": value.data}
    out.update((f"{name}/{p}", t.grad) for p, t in model.named_parameters())
    return out


@pytest.mark.parametrize("name", sorted(FLOAT_MASK_CONFIGS))
def test_bool_dropout_masks_match_the_float_mask_reference(name):
    """The stored arrays were recorded with float dropout masks (0 or
    1/(1-p) per entry, applied as ``x * mask``); the bool masks give the
    same loss and every parameter gradient bit for bit."""
    got = float_mask_step(name)
    with np.load(FLOAT_MASK_REFERENCE) as ref:
        want = {k: ref[k] for k in ref.files if k.startswith(name + "/")}
    assert sorted(got) == sorted(want)
    for key, arr in want.items():
        assert np.array_equal(got[key], arr), key
