"""Encoder variants, glimpse pooling, classification head, checkpoints."""

import io
import json
import struct

import numpy as np
import pytest

import tbje.layers
import tbje.model
import tbje.tensor as T
from tbje.config import default_encoder
from tbje.errors import ConfigError, ContractError
from tbje.features import ModalityBatch
from tbje.gradcheck import check_gradients
from tbje.model import (CHECKPOINT_MAGIC, CHECKPOINT_VERSION, EncoderConfig,
                        GlimpseParams, classify, encode_joint,
                        forward_logits, glimpse, init_model,
                        load_model, model_bytes, read_model, save_model)
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


def glimpse_embed_first(m, params, keep):
    """The glimpse scored in the other association, (m @ embed) @ scoresᵀ."""
    embedded = T.matmul(m, params.embed)
    scores = T.transpose(T.matmul(embedded, T.transpose(params.scores)))
    scores = T.masked_fill(scores, keep[..., None, :], -np.inf)
    return T.matmul(T.softmax(scores, axis=-1), m)


def test_glimpse_matches_embed_first_order_with_gradients():
    rng = make_rng(57, "gl-assoc")
    params = GlimpseParams.init(rng, 6, 5, with_norm=False)
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
    names = [name for name, _ in init_model(default_encoder()).named_parameters()]
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


def test_v1_header_with_null_glimpses_and_no_boundary_loads():
    model = init_model(toy_config(), seed=17)
    blob = model_bytes(model)
    (old_len,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12:12 + old_len])
    del header["config"]["sentiment_boundary"]
    header["config"]["glimpses"] = None
    v1 = json.dumps(header).encode("utf-8")
    loaded = read_model(io.BytesIO(blob[:8] + struct.pack("<I", len(v1)) + v1
                                   + blob[12 + old_len:]))
    assert loaded.config.sentiment_boundary == 0.0
    assert model_bytes(loaded) == blob


def with_key_bias(model, rng=None) -> list:
    """``model``'s (name, array) list as checkpoint versions 1 and 2 hold
    it: each attention map's key weight is followed by a key bias, zero or,
    given ``rng``, random."""
    tensors = []
    for name, p in model.named_parameters():
        tensors.append((name, p.data))
        if name.endswith(".mha.key.weight"):
            bias = (np.zeros(model.config.width) if rng is None
                    else rng.uniform(-2.0, 2.0, size=model.config.width))
            tensors.append((name[:-len("weight")] + "bias", bias))
    return tensors


def legacy_checkpoint(version, config, model, tensors, edit=None) -> bytes:
    if edit is not None:
        tensors = edit(tensors)
    header = json.dumps({"config": config,
                         "vocab_hash": model.vocab_hash}).encode("utf-8")
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC + struct.pack("<II", version, len(header))
              + header)
    buf.write(struct.pack("<I", len(tensors)))
    for name, data in tensors:
        buf.write(struct.pack("<I", len(name)) + name.encode("utf-8"))
        T.write_array(buf, data)
    return buf.getvalue()


def v2_checkpoint(model, rng=None, edit=None) -> bytes:
    """``model`` in checkpoint format 2: the format 3 header and tensors
    plus a key bias per attention map (see ``with_key_bias``). ``edit``
    may rewrite the (name, array) list before it is written."""
    return legacy_checkpoint(2, model.config.to_dict(), model,
                             with_key_bias(model, rng), edit)


def v1_checkpoint(model, edit=None, rng=None) -> bytes:
    """``model`` in checkpoint format 1: a v1 header (null glimpses, no
    boundary), a key bias per attention map (see ``with_key_bias``), and
    every attention head's query/key/content block as its own tensor,
    ``….mha.{q,k,c}{i}.{weight,bias}``. ``edit`` may rewrite the
    (name, array) list before it is written."""
    tensors = []
    for name, data in with_key_bias(model, rng):
        head, _, kind = name.rpartition(".")
        mha, _, proj = head.rpartition(".")
        if mha.endswith(".mha") and proj in ("query", "key", "content"):
            blocks = np.split(data, model.config.heads, axis=-1)
            tensors += [(f"{mha}.{proj[0]}{i}.{kind}", block)
                        for i, block in enumerate(blocks)]
        else:
            tensors.append((name, data))
    config = model.config.to_dict()
    del config["sentiment_boundary"]
    config["glimpses"] = None
    return legacy_checkpoint(1, config, model, tensors, edit)


@pytest.mark.parametrize("write", [v1_checkpoint, v2_checkpoint])
def test_legacy_key_bias_is_read_and_dropped(write):
    cfg = toy_config(heads=4)
    model = init_model(cfg, seed=19, vocab_hash="abc123")
    loaded = read_model(io.BytesIO(write(model, rng=make_rng(89, "key-bias"))))
    want = model.parameter_dict()
    got = loaded.parameter_dict()
    assert list(got) == list(want)
    assert not [n for n in got if n.endswith("mha.key.bias")]
    for name in want:
        assert np.array_equal(got[name].data, want[name].data), name
    batches = toy_batches(make_rng(90, "key-bias"), cfg, 2)
    assert np.array_equal(forward_logits(model, batches).data,
                          forward_logits(loaded, batches).data)
    assert model_bytes(loaded) == model_bytes(model)


@pytest.mark.parametrize("write, edit, message", [
    (v2_checkpoint,
     lambda ts: [(n, d[:3] if n == "enc.A.0.mha.key.bias" else d)
                 for n, d in ts], "'enc.A.0.mha.key.bias' shaped"),
    (v1_checkpoint,
     lambda ts: [(n, d[:1] if n == "enc.L.0.mha.k1.bias" else d)
                 for n, d in ts], "'enc.L.0.mha.k1.bias' shaped"),
    (v2_checkpoint,
     lambda ts: [t for t in ts if t[0] != "enc.L.0.mha.key.bias"],
     r"missing tensors \['enc.L.0.mha.key.bias'\]"),
])
def test_legacy_key_bias_is_checked_like_any_tensor(write, edit, message):
    model = init_model(toy_config(), seed=19)
    with pytest.raises(ConfigError, match=message):
        read_model(io.BytesIO(write(model, edit=edit)))


def test_key_bias_has_no_slot_in_a_version_3_checkpoint():
    model = init_model(toy_config(), seed=19)
    blob = v2_checkpoint(model)
    blob = blob[:4] + struct.pack("<I", CHECKPOINT_VERSION) + blob[8:]
    with pytest.raises(ConfigError, match="'enc.L.0.mha.key.bias' has no slot"):
        read_model(io.BytesIO(blob))


def test_v1_checkpoint_heads_fill_column_blocks():
    cfg = toy_config(heads=4)
    model = init_model(cfg, seed=18, vocab_hash="abc123")
    loaded = read_model(io.BytesIO(v1_checkpoint(model)))
    want = model.parameter_dict()
    got = loaded.parameter_dict()
    assert list(got) == list(want)
    for name in want:
        assert np.array_equal(got[name].data, want[name].data), name
    batches = toy_batches(make_rng(88, "ckpt-v1"), cfg, 2)
    assert np.array_equal(forward_logits(model, batches).data,
                          forward_logits(loaded, batches).data)
    assert model_bytes(loaded) == model_bytes(model)


@pytest.mark.parametrize("edit, message", [
    (lambda ts: [t for t in ts if t[0] != "enc.A.0.mha.k1.weight"],
     r"missing tensors \['enc.A.0.mha.k1.weight'\]"),
    (lambda ts: [(n, d[:, :1] if n == "enc.L.0.mha.c0.weight" else d)
                 for n, d in ts], "'enc.L.0.mha.c0.weight' shaped"),
    (lambda ts: [(n, d[:1] if n == "enc.L.0.mha.q1.bias" else d)
                 for n, d in ts], "'enc.L.0.mha.q1.bias' shaped"),
    (lambda ts: ts + [("enc.L.0.mha.q2.bias", np.zeros(4))], "no slot"),
    (lambda ts: ts + [("enc.L.0.mha.query.bias", np.zeros(8))], "no slot"),
])
def test_v1_checkpoint_bad_head_is_config_error(edit, message):
    model = init_model(toy_config(), seed=18)
    with pytest.raises(ConfigError, match=message):
        read_model(io.BytesIO(v1_checkpoint(model, edit)))


def test_v1_checkpoint_truncated_anywhere_is_config_error():
    blob = v1_checkpoint(init_model(toy_config(), seed=18))
    for cut in truncation_cuts(blob, stride=97):
        with pytest.raises(ConfigError, match="truncated"):
            read_model(io.BytesIO(blob[:cut]))


def test_glimpses_key_rejected_unless_null():
    assert EncoderConfig.from_dict({"glimpses": None}) == EncoderConfig()
    with pytest.raises(ConfigError, match="glimpses"):
        EncoderConfig.from_dict({"glimpses": {"L": 50}})


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
