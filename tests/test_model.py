"""Encoder variants, glimpse pooling, classification head, checkpoints."""

import io

import numpy as np
import pytest

import tbje.tensor as T
from tbje.errors import ConfigError, ContractError
from tbje.features import ModalityBatch
from tbje.gradcheck import check_gradients
from tbje.model import (EncoderConfig, GlimpseParams, classify,
                        encode_joint, encode_monomodal, forward_logits,
                        glimpse, init_model, load_model, model_bytes,
                        read_model, save_model)
from tbje.rng import make_rng
from tbje.tensor import Tensor

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
    params = GlimpseParams.init(rng, 4, 3, with_norm=False)
    row = Tensor(rng.uniform(-1, 1, size=(1, 4)))
    out = glimpse(row, params)
    assert np.allclose(out.data, np.repeat(row.data, 3, axis=0), atol=1e-14)


def test_glimpse_zero_scores_average_valid_rows():
    rng = make_rng(51, "gl-zero")
    params = GlimpseParams.init(rng, 4, 2, with_norm=False)
    params.scores.data = np.zeros_like(params.scores.data)
    m = Tensor(rng.uniform(-1, 1, size=(5, 4)))
    keep = np.array([True, True, False, True, False])
    out = glimpse(m, params, keep)
    want = m.data[keep].mean(axis=0)
    assert np.allclose(out.data, np.stack([want, want]), atol=1e-12)


def test_glimpse_matches_straight_line_oracle():
    rng = make_rng(52, "gl-oracle")
    for _ in range(100):
        params = GlimpseParams.init(rng, 2, 3, with_norm=False)
        m = Tensor(rng.uniform(-2, 2, size=(3, 2)))
        got = glimpse(m, params)
        want = oracles.glimpse_ref(m.data, params.embed.data, params.scores.data)
        assert np.abs(got.data - want).max() < ORACLE_TOL


def test_glimpse_batched_matches_per_example():
    rng = make_rng(53, "gl-batch")
    params = GlimpseParams.init(rng, 4, 5, with_norm=False)
    m = Tensor(rng.uniform(-1, 1, size=(3, 5, 4)))
    keep = rng.uniform(size=(3, 5)) > 0.3
    keep[:, 0] = True
    out = glimpse(m, params, keep)
    for b in range(3):
        single = glimpse(Tensor(m.data[b]), params, keep[b])
        assert np.array_equal(out.data[b], single.data)


def test_glimpse_rows_are_convex_combinations_of_valid_rows():
    rng = make_rng(54, "gl-hull")
    params = GlimpseParams.init(rng, 3, 4, with_norm=False)
    m = Tensor(rng.uniform(-2, 2, size=(3, 3)) + 4 * np.eye(3))
    weights = oracles.recover_attention_weights(glimpse(m, params).data, m.data)
    assert np.abs(weights.sum(axis=1) - 1.0).max() < 1e-9
    assert weights.min() > -1e-9


def test_glimpse_all_masked_rejected():
    params = GlimpseParams.init(make_rng(55, "gl-bad"), 4, 2, with_norm=False)
    with pytest.raises(ContractError):
        glimpse(Tensor(np.zeros((2, 4))), params, np.zeros(2, dtype=bool))


def test_glimpse_invariant_to_row_permutation_when_uniform():
    rng = make_rng(56, "gl-perm")
    params = GlimpseParams.init(rng, 4, 2, with_norm=False)
    params.scores.data = np.zeros_like(params.scores.data)
    m = rng.uniform(-1, 1, size=(5, 4))
    perm = rng.permutation(5)
    a = glimpse(Tensor(m), params).data
    b = glimpse(Tensor(m[perm]), params).data
    assert np.allclose(a, b, atol=1e-12)


# ---------------------------------------------------------------------------
# monomodal encoder
# ---------------------------------------------------------------------------

def test_monomodal_zero_blocks_is_input_projection():
    cfg = toy_config(modalities=("L",), blocks=0, lengths={"L": 3},
                     input_widths={"L": 5})
    model = init_model(cfg, seed=1)
    rng = make_rng(60, "mono-b0")
    batch = toy_batch(rng, "L", 2, 3, 5)
    got = encode_monomodal(batch, model)
    want = oracles.affine_ref(model.input_proj["L"], batch.features)
    assert np.abs(got.data - want).max() < 1e-14


def test_monomodal_single_token_attention_is_identity_weighted():
    cfg = toy_config(modalities=("L",), blocks=1, lengths={"L": 1},
                     input_widths={"L": 5})
    model = init_model(cfg, seed=2)
    rng = make_rng(61, "mono-one")
    batch = toy_batch(rng, "L", 1, 1, 5, ragged=False)
    got = encode_monomodal(batch, model)
    # with one key the softmax weight is 1, so MHA reduces to the content
    # path: out_proj(concat(content projections of the single row))
    x = oracles.affine_ref(model.input_proj["L"], batch.features[0])
    block = model.blocks["L"][0]
    content = np.concatenate([oracles.affine_ref(p, x)
                              for p in block.mha.content], axis=-1)
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
    got = encode_monomodal(batch, model)
    for i in range(3):
        want = oracles.monomodal_forward_ref(model, "L", batch.features[i],
                                             batch.mask[i])
        assert np.abs(got.data[i] - want).max() < ORACLE_TOL


def test_monomodal_wrong_width_rejected():
    cfg = toy_config(modalities=("L",), lengths={"L": 3}, input_widths={"L": 5})
    model = init_model(cfg)
    bad = ModalityBatch(np.ones((1, 3, 4)), np.ones((1, 3), dtype=bool), "L")
    with pytest.raises(ConfigError):
        encode_monomodal(bad, model)


def test_monomodal_permutation_equivariant_without_positions():
    cfg = toy_config(modalities=("L",), blocks=1, lengths={"L": 4},
                     input_widths={"L": 5}, positional={})
    model = init_model(cfg, seed=4)
    rng = make_rng(63, "mono-perm")
    batch = toy_batch(rng, "L", 1, 4, 5, ragged=False)
    perm = rng.permutation(4)
    permuted = ModalityBatch(batch.features[:, perm], batch.mask[:, perm], "L")
    base = encode_monomodal(batch, model).data
    moved = encode_monomodal(permuted, model).data
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
    encoded = encode_monomodal(batch, model)
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

    errs = check_gradients(loss_fn, model.parameter_dict(), max_coords=4)
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
    dict(glimpses={"L": 2}),             # != padded length in joint variant
])
def test_config_rejections(kw):
    with pytest.raises(ConfigError):
        toy_config(**kw)


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


def test_checkpoint_wrong_width_names_both_values(tmp_path):
    model = init_model(toy_config(width=8))
    path = tmp_path / "m.tbjm"
    save_model(path, model)
    with pytest.raises(ConfigError, match=r"8.*16"):
        load_model(path, expect=toy_config(width=16, mlp_width=16))


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
