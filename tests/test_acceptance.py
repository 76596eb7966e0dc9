"""Top-level acceptance suite: one test per shipped guarantee.

Each test states its tolerance inline and checks the package against an
independent route (straight-line oracles, brute-force counting, scripted
schedules, byte comparison), so `pytest -v` prints one verdict line per
guarantee.
"""

import json
import math
import time

import numpy as np
import pytest

from tbje.cli import main
from tbje.config import RunConfig, save_run_config
from tbje.data import write_bundle
from tbje.features import MelConfig, ModalityBatch, mel_spectrogram
from tbje.layers import MhaParams, attention, multi_head_attention
from tbje.metrics import accuracy, f1_unweighted, f1_weighted
from tbje.model import (EncoderConfig, GlimpseParams, classify, encode_joint,
                        glimpse, init_model)
from tbje.rng import make_rng
from tbje.synthetic import (DEFAULT_LENGTHS, DEFAULT_WIDTHS,
                            make_synthetic_bundle)
from tbje.tensor import Tensor
from tbje.training import TrainConfig, evaluate_accuracy, fit, schedule_trace

import oracles

ORACLE_TOL = 1e-10


def random_keep(rng, n):
    """Boolean validity row with at least one surviving entry."""
    keep = rng.integers(0, 2, size=n).astype(bool)
    if not keep.any():
        keep[int(rng.integers(0, n))] = True
    return keep


def random_modality_batch(rng, tag, n, width):
    keep = random_keep(rng, n)
    feats = rng.uniform(-1.0, 1.0, size=(1, n, width))
    feats[0, ~keep] = 0.0
    return ModalityBatch(feats, keep[None, :], tag)


# ---------------------------------------------------------------------------
# 1. finite-difference gradient check on the toy joint model
# ---------------------------------------------------------------------------

def test_01_gradcheck_toy_joint_model(capsys):
    started = time.monotonic()
    # each (k, k) attention map holds both heads' column blocks, so 12
    # coordinates per tensor sample each head as densely as the default 6
    # samples a head-sized tensor
    code = main(["gradcheck", "--max-coords", "12"])
    elapsed = time.monotonic() - started
    out = capsys.readouterr().out

    assert code == 0
    assert elapsed < 60.0
    assert "FAIL" not in out
    errs = [float(line.split()[-1]) for line in out.splitlines()
            if line.startswith("PASS")]
    assert len(errs) > 50                 # every parameter tensor reported
    assert max(errs) < 1e-4


# ---------------------------------------------------------------------------
# 2. attention / MHA / glimpse / joint block / classifier vs oracles
# ---------------------------------------------------------------------------

def tiny_joint_config(rng):
    """Random small joint-encoder shape; lengths and widths drawn fresh."""
    mods = ("L", "A", "V")[:int(rng.integers(2, 4))]
    width = int(rng.choice([4, 8]))
    return EncoderConfig(
        modalities=mods,
        primary=mods[int(rng.integers(0, len(mods)))],
        blocks=1,
        width=width,
        heads=int(rng.choice([1, 2])),
        mlp_width=width + 2,
        lengths={m: int(rng.integers(2, 5)) for m in mods},
        input_widths={m: int(rng.integers(2, 6)) for m in mods},
        task=str(rng.choice(["sentiment-7", "sentiment-2"])),
        positional={m: bool(rng.integers(0, 2)) for m in mods})


def test_02_equations_match_straight_line_oracles():
    rng = make_rng(41, "acceptance-equations")

    for _ in range(100):                  # scaled dot-product attention
        n_q, n_k = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        width = int(rng.choice([4, 8]))
        q = rng.uniform(-2, 2, size=(n_q, width))
        k = rng.uniform(-2, 2, size=(n_k, width))
        c = rng.uniform(-2, 2, size=(n_k, width))
        keep = random_keep(rng, n_k)
        got = attention(Tensor(q), Tensor(k), Tensor(c), key_mask=keep).data
        assert np.abs(got - oracles.attention_ref(q, k, c, keep)).max() \
            < ORACLE_TOL

    for _ in range(100):                  # multi-head attention
        width = int(rng.choice([4, 8]))
        heads = int(rng.choice([1, 2]))
        params = MhaParams.init(rng, width, heads)
        n_q, n_k = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        q = rng.uniform(-1, 1, size=(n_q, width))
        k = rng.uniform(-1, 1, size=(n_k, width))
        c = rng.uniform(-1, 1, size=(n_k, width))
        keep = random_keep(rng, n_k)
        got = multi_head_attention(params, Tensor(q), Tensor(k), Tensor(c),
                                   key_mask=keep).data
        assert np.abs(got - oracles.mha_ref(params, q, k, c, keep)).max() \
            < ORACLE_TOL

    for _ in range(100):                  # glimpse pooling
        width = int(rng.choice([4, 8]))
        count = int(rng.integers(1, 5))
        n = int(rng.integers(2, 7))
        params = GlimpseParams.init(rng, width, count, with_norm=False)
        m = rng.uniform(-1, 1, size=(n, width))
        keep = random_keep(rng, n)
        got = glimpse(Tensor(m), params, mask=keep).data
        want = oracles.glimpse_ref(m, params.embed.data, params.scores.data,
                                   keep)
        assert np.abs(got - want).max() < ORACLE_TOL

    for i in range(100):                  # full co-attention block stack
        cfg = tiny_joint_config(rng)
        model = init_model(cfg, seed=1000 + i)
        batches = {m: random_modality_batch(rng, m, cfg.lengths[m],
                                            cfg.input_widths[m])
                   for m in cfg.modalities}
        states = encode_joint(batches, model)
        ref = oracles.joint_encode_ref(
            model, {m: batches[m].features[0] for m in cfg.modalities},
            {m: batches[m].mask[0] for m in cfg.modalities})
        for m in cfg.modalities:
            assert np.abs(states[m].data[0] - ref[m]).max() < ORACLE_TOL

    for i in range(100):                  # classifier head
        cfg = tiny_joint_config(rng)
        model = init_model(cfg, seed=2000 + i)
        encoded = {m: Tensor(rng.uniform(-1, 1,
                                         size=(1, cfg.lengths[m], cfg.width)))
                   for m in cfg.modalities}
        masks = {m: random_keep(rng, cfg.lengths[m])[None, :]
                 for m in cfg.modalities}
        got = classify(encoded, masks, model).data
        want = oracles.classify_ref(
            model, {m: encoded[m].data[0] for m in cfg.modalities},
            {m: masks[m][0] for m in cfg.modalities})
        assert np.abs(got[0] - want).max() < ORACLE_TOL


# ---------------------------------------------------------------------------
# 3. separable synthetic data is memorized by every modality combination
# ---------------------------------------------------------------------------

def test_03_synthetic_overfit_all_modality_combinations():
    bundle = make_synthetic_bundle(seed=3)
    train = bundle.splits["train"]

    for mods in [("L",), ("A",), ("L", "A"), ("L", "A", "V")]:
        enc = EncoderConfig(
            modalities=mods, primary=mods[0], blocks=2, width=16, heads=2,
            mlp_width=32,
            lengths={m: DEFAULT_LENGTHS[m] for m in mods},
            input_widths={m: DEFAULT_WIDTHS[m] for m in mods},
            task="sentiment-7",
            positional={"L": True} if "L" in mods else {})
        cfg = TrainConfig(lr=2e-3, batch_size=8, decay_factor=0.5,
                          max_decays=2, patience=150, max_epochs=150,
                          seed=11)
        model = init_model(enc, seed=11)
        started = time.monotonic()
        state = fit(model, train, train, cfg)   # memorization: valid is train
        elapsed = time.monotonic() - started

        label = "+".join(mods)
        assert state.best_accuracy >= 0.99, (label, state.best_accuracy)
        assert evaluate_accuracy(model, train) >= 0.99, label
        assert state.epoch <= 200, (label, state.epoch)
        assert elapsed < 300.0, (label, elapsed)


# ---------------------------------------------------------------------------
# 4. information flows from the primary modality outward, never back
# ---------------------------------------------------------------------------

def test_04_primary_stream_unaffected_by_other_modalities():
    cfg = EncoderConfig(
        modalities=("L", "A", "V"), primary="L", blocks=3, width=16, heads=2,
        mlp_width=24, lengths={"L": 4, "A": 4, "V": 3},
        input_widths={"L": 5, "A": 3, "V": 2}, task="sentiment-7",
        positional={"L": True})
    model = init_model(cfg, seed=7)
    rng = make_rng(7, "acceptance-flow")

    def batches_with(bump=None):
        out = {}
        for m in cfg.modalities:
            n, w = cfg.lengths[m], cfg.input_widths[m]
            feats = rng_feats[m].copy()
            if bump == m:
                feats[0, 0] += 1e-3       # first row is valid in every mask
            out[m] = ModalityBatch(feats, masks[m], m)
        return out

    masks, rng_feats = {}, {}
    for m in cfg.modalities:
        n, w = cfg.lengths[m], cfg.input_widths[m]
        mask = np.ones((2, n), dtype=bool)
        mask[1, -1] = False               # one padded tail row in example 1
        feats = rng.uniform(-1.0, 1.0, size=(2, n, w))
        feats[1, -1] = 0.0
        masks[m], rng_feats[m] = mask, feats

    _, base = encode_joint(batches_with(), model, return_blocks=True)

    # nudging a modulated stream must leave every other stream bit-identical
    for bumped, untouched in [("A", ("L", "V")), ("V", ("L", "A"))]:
        _, trace = encode_joint(batches_with(bumped), model,
                                return_blocks=True)
        for b in range(cfg.blocks):
            for m in untouched:
                assert np.array_equal(trace[b][m], base[b][m]), (bumped, b, m)
        assert not np.array_equal(trace[0][bumped], base[0][bumped])

    # nudging the primary must reach every modulated stream in block 1
    _, trace = encode_joint(batches_with("L"), model, return_blocks=True)
    for m in ("A", "V"):
        assert not np.array_equal(trace[0][m], base[0][m]), m
    assert not np.array_equal(trace[0]["L"], base[0]["L"])


# ---------------------------------------------------------------------------
# 5. plateau schedule: decay twice at most, then stop after three flat epochs
# ---------------------------------------------------------------------------

# outcome letters: i improved, d decayed, g stagnant, s stopped
SCHEDULE_TABLE = [
    ([0.5] * 10, "iddggs"),
    ([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8], "iiiiiiii"),
    ([0.5], "i"),
    ([0.5, 0.6], "ii"),
    ([0.6, 0.5], "id"),
    ([0.6, 0.6], "id"),                   # a tie is not an improvement
    ([0.5, 0.4, 0.6, 0.4, 0.6, 0.6, 0.6, 0.6], "ididggs"),
    ([0.1, 0.2, 0.1, 0.1, 0.1, 0.3, 0.1, 0.1, 0.1], "iiddgiggs"),
    ([0.9, 0.1, 0.1, 0.1, 0.1, 0.1], "iddggs"),
    ([0.2, 0.3, 0.4, 0.1, 0.5, 0.1, 0.1, 0.1, 0.1], "iiididggs"),
    ([0.5, 0.5, 0.6, 0.6, 0.7, 0.7, 0.7, 0.7], "ididiggs"),
    ([1.0] * 6, "iddggs"),
    ([0.0] * 6, "iddggs"),                # first epoch always improves
    ([0.5, 0.4, 0.5, 0.4, 0.5, 0.4], "iddggs"),
    ([0.5, 0.4, 0.6, 0.5, 0.7, 0.6, 0.8, 0.7, 0.9], "ididigigi"),
    ([0.5, 0.4, 0.4, 0.4, 0.4, 0.6, 0.4, 0.4, 0.4], "iddggiggs"),
    ([0.2, 0.1, 0.1, 0.9, 0.9, 0.9, 0.9], "iddiggs"),
    ([0.3, 0.5, 0.5, 0.5, 0.5, 0.5], "iiddgg"),   # runs out before stopping
    ([0.5, 0.500001, 0.500002, 0.500003], "iiii"),
    ([0.9, 0.8, 0.7, 0.6, 0.5, 0.4], "iddggs"),
    ([0.7, 0.1, 0.8, 0.1, 0.9, 0.1, 0.1, 0.1], "ididiggs"),
    ([], ""),
]

OUTCOME = {"i": "improved", "d": "decayed", "g": "stagnant", "s": "stopped"}


def test_05_schedule_follows_scripted_sequences():
    assert len(SCHEDULE_TABLE) >= 20
    cfg = TrainConfig(lr=1e-4, decay_factor=0.2, max_decays=2, patience=3)

    for values, expected in SCHEDULE_TABLE:
        trace = schedule_trace(values, cfg)
        outcomes = [o for o, _ in trace]
        assert outcomes == [OUTCOME[ch] for ch in expected], values
        assert outcomes.count("decayed") <= 2, values
        assert "stopped" not in outcomes[:-1], values

    # learning-rate trajectory on a flat sequence, bit for bit
    trace = schedule_trace([0.5] * 10, cfg)
    lr1, lr2 = 1e-4 * 0.2, (1e-4 * 0.2) * 0.2
    assert [lr for _, lr in trace] == [1e-4, lr1, lr2, lr2, lr2, lr2]


# ---------------------------------------------------------------------------
# 6. mel front-end vs an O(n^2) DFT and a hand-built filter bank
# ---------------------------------------------------------------------------

def test_06_mel_front_end_matches_brute_force_oracle():
    cfg = MelConfig(sample_rate=8000, n_fft=256, hop=64, window=128,
                    bands=12, stride=16)
    rng = make_rng(29, "acceptance-mel")
    wave = rng.uniform(-1.0, 1.0, size=4096)

    got = mel_spectrogram(wave, cfg)
    spectra = oracles.naive_dft_magnitudes(wave, cfg)
    mel = spectra @ oracles.triangle_bank_ref(cfg).T
    want = np.log(np.maximum(mel, cfg.floor))[::cfg.stride]
    rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-9)
    assert rel.max() < 1e-6

    for samples in (128, 1088, 1152, 2176, 4096):
        frames = 1 + (samples - cfg.window) // cfg.hop
        out = mel_spectrogram(np.ones(samples), cfg)
        assert out.shape == (math.ceil(frames / 16), cfg.bands), samples


# ---------------------------------------------------------------------------
# 7. metrics agree exactly with counting oracles
# ---------------------------------------------------------------------------

def test_07_metrics_equal_counting_oracles_exactly():
    rng = make_rng(17, "acceptance-metrics")
    for _ in range(1000):
        n = int(rng.integers(1, 41))
        pred = rng.integers(0, 2, size=n)
        gold = rng.integers(0, 2, size=n)
        assert accuracy(pred, gold) == oracles.accuracy_oracle(pred, gold)
        assert f1_weighted(pred, gold) == oracles.f1_weighted_oracle(pred, gold)
        assert f1_unweighted(pred, gold) == \
            oracles.f1_unweighted_oracle(pred, gold)

    # fixture where support weighting visibly changes the score
    pred, gold = [1, 0, 1, 1], [1, 1, 1, 0]
    assert f1_unweighted(pred, gold) == pytest.approx(2 / 3, rel=1e-12)
    assert f1_weighted(pred, gold) == pytest.approx(0.5, rel=1e-12)
    assert f1_weighted(pred, gold) != f1_unweighted(pred, gold)


# ---------------------------------------------------------------------------
# 8. training through the CLI is bit-deterministic
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    """Synthetic bundle plus a matching three-modality run config on disk."""
    root = tmp_path_factory.mktemp("acceptance-cli")
    write_bundle(root / "bundle", make_synthetic_bundle(seed=5))
    enc = EncoderConfig(
        modalities=("L", "A", "V"), primary="L", blocks=1, width=16, heads=2,
        mlp_width=24, lengths=dict(DEFAULT_LENGTHS),
        input_widths=dict(DEFAULT_WIDTHS), task="sentiment-7",
        positional={"L": True})
    cfg = RunConfig(
        encoder=enc,
        training=TrainConfig(lr=2e-3, batch_size=8, decay_factor=0.5,
                             max_decays=2, patience=150, max_epochs=3,
                             ensemble_size=2, seed=0))
    save_run_config(root / "config.json", cfg)
    return root


def test_08_cli_training_is_bit_deterministic(cli_workspace):
    root = cli_workspace
    byte_maps = []
    for name in ("det-a", "det-b"):
        assert main(["train", "--config", str(root / "config.json"),
                     "--bundle", str(root / "bundle"),
                     "--out", str(root / name)]) == 0
        byte_maps.append({p.name: p.read_bytes()
                          for p in sorted((root / name).iterdir())})

    first, second = byte_maps
    assert sorted(first) == sorted(second)
    assert any(n.startswith("model-member") for n in first)
    assert any(n.startswith("train-member") for n in first)
    for name in first:
        if name == "summary.json":        # echoes the differing --out path
            continue
        assert first[name] == second[name], name

    summaries = [json.loads(m["summary.json"]) for m in byte_maps]
    assert summaries[0]["members"] == summaries[1]["members"]


# ---------------------------------------------------------------------------
# 9. block-count sweep completes and reports a well-formed table
# ---------------------------------------------------------------------------

def test_09_block_sweep_emits_well_formed_table(cli_workspace):
    root = cli_workspace
    assert main(["sweep-blocks", "--config", str(root / "config.json"),
                 "--bundle", str(root / "bundle"),
                 "--out", str(root / "sweep"),
                 "--blocks", "1,2,4,6"]) == 0

    lines = (root / "sweep" / "sweep-blocks.txt").read_text().splitlines()
    assert lines[0].split() == ["blocks", "val_accuracy", "test_accuracy",
                                "seconds"]
    rows = [line.split() for line in lines[1:] if line.strip()]
    assert [int(r[0]) for r in rows] == [1, 2, 4, 6]
    for r in rows:
        assert 0.0 <= float(r[1]) <= 1.0
        assert 0.0 <= float(r[2]) <= 1.0
        assert float(r[3]) >= 0.0
