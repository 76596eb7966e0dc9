"""Losses, Adam, the plateau schedule, fit(), ensembles, and train-state
serialization, each checked against straight-line references."""

import json
import struct
import weakref
from pathlib import Path

import numpy as np
import pytest

import tbje.training as TR
from tbje import tensor as T
from tbje.data import Split
from tbje.errors import ConfigError, ContractError, NumericError
from tbje.metrics import accuracy, sentiment_bins
from tbje.model import (CHECKPOINT_MAGIC, EncoderConfig, init_model,
                        model_bytes, read_model)
from tbje.synthetic import make_synthetic_bundle
from tbje.tensor import Tape, Tensor
from tbje.training import (TrainConfig, TrainState, adam_step,
                           binary_cross_entropy, cross_entropy,
                           ensemble_predict, evaluate_accuracy, fit,
                           gold_labels, init_state, load_train_state, loss,
                           observe_validation, predict_probabilities,
                           predictions_from_probabilities, save_train_state,
                           schedule_trace, train_ensemble)

import io

from toy_corpus import truncation_cuts


@pytest.fixture(scope="module")
def bundle():
    return make_synthetic_bundle(seed=3)


def tiny_encoder(modalities=("L", "A")):
    lengths = {"L": 6, "A": 5, "V": 4}
    widths = {"L": 12, "A": 9, "V": 7}
    return EncoderConfig(
        modalities=tuple(modalities), primary=modalities[0], blocks=1,
        width=16, heads=2, mlp_width=32,
        lengths={m: lengths[m] for m in modalities},
        input_widths={m: widths[m] for m in modalities},
        task="sentiment-7", positional={"L": True})


def quick_cfg(**kw):
    base = dict(lr=2e-3, batch_size=8, decay_factor=0.5, max_decays=2,
                patience=150, max_epochs=8, seed=11)
    base.update(kw)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

class TestCrossEntropy:
    def test_uniform_logits_give_log_classes(self):
        logits = Tensor(np.zeros((4, 7)))
        value = cross_entropy(logits, [0, 3, 6, 2], classes=7).item()
        assert value == np.log(7.0)

    def test_confident_correct_prediction_is_cheap(self):
        logits = Tensor(np.array([[30.0, 0.0, 0.0]]))
        assert cross_entropy(logits, [0], classes=3).item() < 1e-12

    def test_matches_longdouble_reference(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(scale=4.0, size=(8, 7))
        labels = rng.integers(0, 7, size=8)
        total = np.longdouble(0.0)
        for row, lab in zip(logits, labels):
            z = row.astype(np.longdouble) - np.max(row)
            total += -(z[lab] - np.log(np.sum(np.exp(z))))
        expected = float(total / 8)
        got = cross_entropy(Tensor(logits), labels, classes=7).item()
        assert abs(got - expected) <= 1e-12 * abs(expected)

    def test_gradient_is_softmax_minus_onehot(self):
        logits = Tensor(np.zeros((2, 3)), requires_grad=True)
        with Tape() as tape:
            tape.backward(cross_entropy(logits, [0, 1], classes=3))
        onehot = np.eye(3)[[0, 1]]
        expected = (np.full((2, 3), 1.0 / 3) - onehot) / 2
        np.testing.assert_allclose(logits.grad, expected, atol=1e-15)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ContractError, match=r"\[0, 3\)"):
            cross_entropy(Tensor(np.zeros((2, 3))), [0, 3], classes=3)
        with pytest.raises(ContractError):
            cross_entropy(Tensor(np.zeros((2, 3))), [-1, 0], classes=3)

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(ContractError, match="do not match"):
            cross_entropy(Tensor(np.zeros((2, 3))), [0], classes=3)


class TestBinaryCrossEntropy:
    def test_zero_logits_give_log_two(self):
        logits = Tensor(np.zeros((4, 6)))
        labels = np.zeros((4, 6))
        labels[0, 0] = labels[2, 3] = 1.0
        value = binary_cross_entropy(logits, labels).item()
        assert value == pytest.approx(np.log(2.0), rel=1e-14)

    def test_matches_longdouble_reference(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(scale=5.0, size=(7, 6))
        labels = rng.integers(0, 2, size=(7, 6)).astype(float)
        z = logits.astype(np.longdouble)
        log_sig = np.where(z >= 0, -np.log1p(np.exp(-np.abs(z))),
                           z - np.log1p(np.exp(-np.abs(z))))
        log_one_minus = log_sig - z
        expected = float(-np.mean(labels * log_sig
                                  + (1.0 - labels) * log_one_minus))
        got = binary_cross_entropy(Tensor(logits), labels).item()
        assert abs(got - expected) <= 1e-12 * abs(expected)

    def test_extreme_logits_stay_finite(self):
        logits = Tensor(np.array([[800.0, -800.0]]))
        value = binary_cross_entropy(logits, [[0.0, 1.0]]).item()
        assert np.isfinite(value) and value > 700

    def test_non_binary_target_rejected(self):
        with pytest.raises(ContractError, match="0 or 1"):
            binary_cross_entropy(Tensor(np.zeros((1, 2))), [[0.5, 1.0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractError):
            binary_cross_entropy(Tensor(np.zeros((2, 6))), np.zeros((2, 5)))


def test_loss_dispatch():
    logits = Tensor(np.zeros((2, 2)))
    assert loss(logits, [0, 1], "sentiment-2").item() == np.log(2.0)
    multi = Tensor(np.zeros((2, 6)))
    assert loss(multi, np.zeros((2, 6)), "emotions-6").item() == pytest.approx(
        np.log(2.0), rel=1e-14)
    with pytest.raises(ContractError, match="unknown task"):
        loss(logits, [0, 1], "sentiment-3")


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def adam_reference(p0, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Straight-line Adam with the same float expressions as the optimizer."""
    p = np.array(p0, dtype=np.float64)
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grads, start=1):
        g = np.asarray(g, dtype=np.float64)
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    return p


def one_param(values):
    p = Tensor(np.array(values, dtype=float), requires_grad=True)
    params = {"w": p}
    return p, params, init_state(params, lr=0.01)


class TestAdam:
    def test_first_step_matches_reference(self):
        p, params, state = one_param([1.0, -2.0, 0.5])
        g = np.array([3.0, -0.5, 0.0])
        p.grad = g.copy()
        adam_step(params, state, lr=0.01)
        assert np.array_equal(p.data, adam_reference([1.0, -2.0, 0.5], [g], 0.01))
        assert state.step == 1

    def test_first_step_is_roughly_signed_lr(self):
        p, params, state = one_param([0.0, 0.0])
        p.grad = np.array([4.0, -0.25])
        adam_step(params, state, lr=0.01)
        np.testing.assert_allclose(p.data, [-0.01, 0.01], rtol=1e-6)

    def test_zero_gradient_leaves_parameter_bits(self):
        p, params, state = one_param([1.5, -2.25])
        before = p.data.copy()
        p.grad = np.zeros(2)
        adam_step(params, state, lr=0.01)
        assert np.array_equal(p.data, before)

    def test_quadratic_descent_matches_stepwise_reference(self):
        # minimize (w - 3)^2 / 2 from 0; gradient is w - 3
        beta1, beta2, eps = TR.ADAM_BETA1, TR.ADAM_BETA2, TR.ADAM_EPS
        p, params, state = one_param([0.0])
        ref = np.array([0.0])
        m = np.zeros(1)
        v = np.zeros(1)
        for t in range(1, 121):
            p.grad = p.data - 3.0
            g = ref - 3.0
            m = beta1 * m + (1.0 - beta1) * g
            v = beta2 * v + (1.0 - beta2) * g * g
            m_hat = m / (1.0 - beta1 ** t)
            v_hat = v / (1.0 - beta2 ** t)
            ref = ref - 0.05 * m_hat / (np.sqrt(v_hat) + eps)
            adam_step(params, state, lr=0.05)
            assert np.array_equal(p.data, ref)
        assert abs(p.data[0] - 3.0) < 0.5

    def test_in_place_steps_equal_the_formula_on_a_toy_model(self, bundle):
        beta1, beta2, eps = TR.ADAM_BETA1, TR.ADAM_BETA2, TR.ADAM_EPS
        model = init_model(tiny_encoder(), seed=5)
        params = model.parameter_dict()
        state = init_state(params, lr=2e-3)
        ref = {n: (p.data.copy(), np.zeros_like(p.data),
                   np.zeros_like(p.data)) for n, p in params.items()}
        train = bundle.splits["train"]
        labels = gold_labels(train, "sentiment-7")
        for t in range(1, 4):
            idx = np.arange(8 * (t - 1), 8 * t)
            sub = {m: train.batches[m].take(idx) for m in ("L", "A")}
            for p in params.values():
                p.grad = None
            with Tape() as tape:
                logits = TR.forward_logits(model, sub, rng_seed=t,
                                           training=True)
                tape.backward(loss(logits, labels[idx], "sentiment-7"))
            for name, p in params.items():
                w, m, v = ref[name]
                g = p.grad
                m = beta1 * m + (1.0 - beta1) * g
                v = beta2 * v + (1.0 - beta2) * g * g
                m_hat = m / (1.0 - beta1 ** t)
                v_hat = v / (1.0 - beta2 ** t)
                ref[name] = (w - 2e-3 * m_hat / (np.sqrt(v_hat) + eps), m, v)
            adam_step(params, state, lr=2e-3)
        for name, p in params.items():
            w, m, v = ref[name]
            assert np.array_equal(p.data, w)
            assert np.array_equal(state.first_moment[name], m)
            assert np.array_equal(state.second_moment[name], v)

    def test_missing_gradient_raises(self):
        _, params, state = one_param([1.0])
        with pytest.raises(ContractError, match="'w'"):
            adam_step(params, state, lr=0.01)

    def test_non_finite_gradient_raises(self):
        p, params, state = one_param([1.0])
        p.grad = np.array([np.nan])
        with pytest.raises(NumericError, match="'w'"):
            adam_step(params, state, lr=0.01)

    def test_step_counter_is_shared(self):
        p, params, state = one_param([1.0])
        for _ in range(3):
            p.grad = np.ones(1)
            adam_step(params, state, lr=0.01)
        assert state.step == 3


# ---------------------------------------------------------------------------
# plateau / early-stop schedule
# ---------------------------------------------------------------------------

class TestSchedule:
    def test_flat_sequence_decays_twice_then_stops_three_later(self):
        cfg = TrainConfig(lr=1e-4)
        trace = schedule_trace([0.5] * 10, cfg)
        assert [o for o, _ in trace] == [
            "improved", "decayed", "decayed", "stagnant", "stagnant",
            "stopped"]
        lrs = [lr for _, lr in trace]
        assert lrs[0] == 1e-4
        assert lrs[1] == pytest.approx(2e-5, rel=1e-12)
        assert lrs[2] == pytest.approx(4e-6, rel=1e-12)
        assert lrs[3:] == [lrs[2]] * 3

    def test_improvement_resets_patience_but_not_lr(self):
        cfg = TrainConfig(lr=1e-4)
        trace = schedule_trace([.5, .4, .4, .6, .6, .6, .6, .9], cfg)
        assert [o for o, _ in trace] == [
            "improved", "decayed", "decayed", "improved", "stagnant",
            "stagnant", "stopped"]
        # the improvement at epoch 4 does not restore the learning rate
        assert trace[3][1] == trace[2][1]

    def test_equal_value_is_not_improvement(self):
        cfg = TrainConfig()
        state = TrainState(lr=cfg.lr)
        assert observe_validation(state, 0.7, cfg) == "improved"
        assert observe_validation(state, 0.7, cfg) == "decayed"

    def test_first_epoch_always_improves(self):
        cfg = TrainConfig()
        state = TrainState(lr=cfg.lr)
        assert observe_validation(state, 0.0, cfg) == "improved"
        assert state.best_accuracy == 0.0

    def test_no_decays_goes_straight_to_patience(self):
        cfg = TrainConfig(max_decays=0, patience=2)
        trace = schedule_trace([.5, .5, .5, .5], cfg)
        assert [o for o, _ in trace] == ["improved", "stagnant", "stopped"]
        assert all(lr == cfg.lr for _, lr in trace)

    def test_interleaved_recovery_never_stops(self):
        cfg = TrainConfig()
        values = [0.1 * i for i in range(1, 9)]
        trace = schedule_trace(values, cfg)
        assert all(o == "improved" for o, _ in trace)
        assert all(lr == cfg.lr for _, lr in trace)


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

class TestFit:
    def test_zero_lr_leaves_parameters_bitexact(self, bundle):
        model = init_model(tiny_encoder(("L",)), seed=7)
        before = model_bytes(model)
        fit(model, bundle.splits["train"], bundle.splits["valid"],
            quick_cfg(lr=0.0, max_epochs=1))
        assert model_bytes(model) == before

    def test_loss_decreases_and_accuracy_rises(self, bundle):
        model = init_model(tiny_encoder(), seed=7)
        state = fit(model, bundle.splits["train"], bundle.splits["valid"],
                    quick_cfg(max_epochs=12))
        losses = [r["train_loss"] for r in state.log]
        assert np.mean(losses[-3:]) < np.mean(losses[:3])
        assert state.best_accuracy > 0.5

    def test_two_runs_are_bit_identical(self, bundle):
        results = []
        for _ in range(2):
            model = init_model(tiny_encoder(), seed=7)
            state = fit(model, bundle.splits["train"],
                        bundle.splits["valid"], quick_cfg(max_epochs=4))
            results.append((model_bytes(model), state.log))
        assert results[0][0] == results[1][0]
        assert results[0][1] == results[1][1]

    def test_member_index_changes_trajectory(self, bundle):
        outputs = []
        for member in (0, 1):
            model = init_model(tiny_encoder(), seed=7)
            fit(model, bundle.splits["train"], bundle.splits["valid"],
                quick_cfg(max_epochs=2), member=member)
            outputs.append(model_bytes(model))
        assert outputs[0] != outputs[1]

    def test_log_records_have_the_documented_fields(self, bundle):
        model = init_model(tiny_encoder(("L",)), seed=7)
        state = fit(model, bundle.splits["train"], bundle.splits["valid"],
                    quick_cfg(max_epochs=3))
        assert [r["epoch"] for r in state.log] == [1, 2, 3]
        for record in state.log:
            assert set(record) == {"epoch", "lr", "train_loss",
                                   "val_accuracy", "decays_used"}

    def test_model_ends_at_best_checkpoint(self, bundle):
        model = init_model(tiny_encoder(), seed=7)
        state = fit(model, bundle.splits["train"], bundle.splits["valid"],
                    quick_cfg(max_epochs=6))
        best = state.best
        for (name, p), name2 in zip(model.named_parameters(), best):
            assert name == name2
            assert np.array_equal(p.data, best[name2])

    def test_best_snapshot_does_not_alias_the_model(self, bundle):
        model = init_model(tiny_encoder(), seed=7)
        state = fit(model, bundle.splits["train"], bundle.splits["valid"],
                    quick_cfg(max_epochs=2))
        before = {n: b.copy() for n, b in state.best.items()}
        for p in model.parameter_dict().values():
            p.data += 1.0
        for name, b in state.best.items():
            assert np.array_equal(b, before[name]), name

    def test_resume_replays_identical_trajectory(self, bundle, tmp_path):
        cfg_full = quick_cfg(max_epochs=6)
        direct = init_model(tiny_encoder(), seed=11)
        path_a = tmp_path / "direct.tbjs"
        state_a = fit(direct, bundle.splits["train"], bundle.splits["valid"],
                      cfg_full, state_path=path_a)

        paused = init_model(tiny_encoder(), seed=11)
        path_b = tmp_path / "paused.tbjs"
        fit(paused, bundle.splits["train"], bundle.splits["valid"],
            quick_cfg(max_epochs=3), state_path=path_b)
        resumed, mid_state = load_train_state(path_b)
        assert mid_state.epoch == 3
        state_b = fit(resumed, bundle.splits["train"], bundle.splits["valid"],
                      cfg_full, state=mid_state, state_path=path_b)

        assert model_bytes(direct) == model_bytes(resumed)
        assert state_a.log == state_b.log
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_state_file_tracks_live_run(self, bundle, tmp_path):
        model = init_model(tiny_encoder(("L",)), seed=7)
        path = tmp_path / "state.tbjs"
        state = fit(model, bundle.splits["train"], bundle.splits["valid"],
                    quick_cfg(max_epochs=2), state_path=path)
        _, loaded = load_train_state(path)
        assert loaded.epoch == 2
        assert loaded.log == state.log
        assert loaded.step == state.step

    def test_empty_split_rejected(self, bundle):
        model = init_model(tiny_encoder(), seed=7)
        empty = bundle.splits["valid"].take([])
        with pytest.raises(ContractError, match="non-empty"):
            fit(model, bundle.splits["train"], empty, quick_cfg())

    def test_runaway_learning_rate_raises_numeric_error(self, bundle):
        model = init_model(tiny_encoder(("L",)), seed=7)
        # the first non-finite value trips whichever detector sees it first
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError):
                fit(model, bundle.splits["train"], bundle.splits["valid"],
                    quick_cfg(lr=1e80, max_epochs=6))

    def test_non_finite_loss_aborts_with_diagnostics(self, bundle,
                                                     monkeypatch):
        model = init_model(tiny_encoder(("L",)), seed=7)

        def broken_forward(model, batches, training=False, rng_seed=None):
            n = len(next(iter(batches.values())))
            bad = np.zeros((n, 7))
            bad[:, 0] = -np.inf
            return Tensor(bad)

        monkeypatch.setattr(TR, "forward_logits", broken_forward)
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericError, match="training diverged"):
                fit(model, bundle.splits["train"], bundle.splits["valid"],
                    quick_cfg(max_epochs=1))


# ---------------------------------------------------------------------------
# ensembles and evaluation
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def trained_pair(bundle):
    """Two lightly trained joint models with identical configs."""
    models = []
    for seed in (11, 12):
        model = init_model(tiny_encoder(), seed=seed)
        fit(model, bundle.splits["train"], bundle.splits["valid"],
            quick_cfg(max_epochs=3, seed=seed))
        models.append(model)
    return models


def eval_batches(bundle, modalities=("L", "A")):
    return {m: bundle.splits["test"].batches[m] for m in modalities}


class TestEnsemble:
    def test_single_member_is_identity(self, bundle, trained_pair):
        batches = eval_batches(bundle)
        alone = predict_probabilities(trained_pair[0], batches)
        assert np.array_equal(ensemble_predict([trained_pair[0]], batches),
                              alone)

    def test_duplicate_members_change_nothing(self, bundle, trained_pair):
        batches = eval_batches(bundle)
        alone = predict_probabilities(trained_pair[0], batches)
        doubled = ensemble_predict([trained_pair[0]] * 2, batches)
        assert np.array_equal(doubled, alone)

    def test_pair_average_is_arithmetic_mean(self, bundle, trained_pair):
        batches = eval_batches(bundle)
        a = predict_probabilities(trained_pair[0], batches)
        b = predict_probabilities(trained_pair[1], batches)
        got = ensemble_predict(trained_pair, batches)
        assert np.array_equal(got, (a + b) / 2)

    def test_sentiment_probabilities_sum_to_one(self, bundle, trained_pair):
        probs = ensemble_predict(trained_pair, eval_batches(bundle))
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)

    def test_config_mismatch_rejected(self, bundle, trained_pair):
        other = init_model(tiny_encoder(("L",)), seed=11)
        with pytest.raises(ConfigError, match="member 1"):
            ensemble_predict([trained_pair[0], other], eval_batches(bundle))

    def test_empty_ensemble_rejected(self, bundle):
        with pytest.raises(ContractError):
            ensemble_predict([], eval_batches(bundle))

    def test_generator_of_members_equals_list(self, bundle, trained_pair):
        batches = eval_batches(bundle)
        assert np.array_equal(
            ensemble_predict((m for m in trained_pair), batches),
            ensemble_predict(trained_pair, batches))
        with pytest.raises(ContractError):
            ensemble_predict(iter(()), batches)

    def test_chunked_scoring_matches_one_pass(self, bundle, trained_pair,
                                              monkeypatch):
        batches = eval_batches(bundle)
        n = len(batches["L"])
        assert n > 3
        one_pass = ensemble_predict(trained_pair, batches, chunk=n)
        sizes, true_forward = [], TR.forward_logits

        def forward(model, sub, *args, **kwargs):
            sizes.append(len(sub["L"]))
            return true_forward(model, sub, *args, **kwargs)

        monkeypatch.setattr(TR, "forward_logits", forward)
        chunked = ensemble_predict(trained_pair, batches, chunk=3)
        np.testing.assert_allclose(chunked, one_pass, rtol=0, atol=1e-12)
        per_member = [3] * (n // 3) + ([n % 3] if n % 3 else [])
        assert sizes == per_member * 2

    def test_empty_split_scores_to_no_rows(self, bundle, trained_pair):
        none = {m: b.take([]) for m, b in eval_batches(bundle).items()}
        assert ensemble_predict(trained_pair, none, chunk=3).shape == (0, 7)

    def test_each_member_is_released_before_the_next_loads(self, bundle,
                                                           trained_pair):
        blobs = [model_bytes(m) for m in trained_pair] * 2
        loaded = []

        def members():
            for blob in blobs:
                assert all(ref() is None for ref in loaded)
                model = read_model(io.BytesIO(blob))
                loaded.append(weakref.ref(model))
                yield model
                del model

        batches = eval_batches(bundle)
        assert np.array_equal(ensemble_predict(members(), batches),
                              ensemble_predict(trained_pair * 2, batches))
        assert len(loaded) == 4

    def test_prediction_rules(self):
        probs = np.array([[0.1, 0.7, 0.2], [0.5, 0.2, 0.3]])
        assert predictions_from_probabilities(probs, "sentiment-7").tolist() \
            == [1, 0]
        multi = np.array([[0.4, 0.6], [0.5, 0.1]])
        assert predictions_from_probabilities(multi, "emotions-6").tolist() \
            == [[0, 1], [1, 0]]

    def test_train_ensemble_members_differ_and_log(self, bundle, tmp_path):
        cfg = quick_cfg(max_epochs=2, ensemble_size=2)
        members = train_ensemble(
            lambda seed: init_model(tiny_encoder(("L",)), seed=seed),
            bundle.splits["train"], bundle.splits["valid"], cfg,
            log_dir=tmp_path, state_dir=tmp_path)
        assert len(members) == 2
        assert model_bytes(members[0][0]) != model_bytes(members[1][0])
        for i, (_, state) in enumerate(members):
            lines = (tmp_path / f"train-member{i}.ndjson").read_text().splitlines()
            assert [json.loads(l) for l in lines] == state.log
            assert (tmp_path / f"state-member{i}.tbjs").is_file()

    def test_train_ensemble_resume_matches_uninterrupted(self, bundle,
                                                         tmp_path):
        make = lambda seed: init_model(tiny_encoder(("L",)), seed=seed)
        cfg = quick_cfg(max_epochs=4, ensemble_size=1)
        a_dir = tmp_path / "direct"
        b_dir = tmp_path / "paused"
        a_dir.mkdir()
        b_dir.mkdir()
        direct = train_ensemble(make, bundle.splits["train"],
                                bundle.splits["valid"], cfg,
                                log_dir=a_dir, state_dir=a_dir)
        train_ensemble(make, bundle.splits["train"], bundle.splits["valid"],
                       quick_cfg(max_epochs=2, ensemble_size=1),
                       log_dir=b_dir, state_dir=b_dir)
        resumed = train_ensemble(make, bundle.splits["train"],
                                 bundle.splits["valid"], cfg,
                                 log_dir=b_dir, state_dir=b_dir, resume=True)
        assert model_bytes(direct[0][0]) == model_bytes(resumed[0][0])
        assert (a_dir / "train-member0.ndjson").read_bytes() == \
            (b_dir / "train-member0.ndjson").read_bytes()


class TestEvaluation:
    def test_gold_labels_per_task(self, bundle):
        split = bundle.splits["test"]
        assert np.array_equal(gold_labels(split, "sentiment-7"),
                              sentiment_bins(split.sentiment, classes=7))
        assert np.array_equal(gold_labels(split, "sentiment-2"),
                              sentiment_bins(split.sentiment, classes=2))
        assert np.array_equal(gold_labels(split, "emotions-6"),
                              split.emotions)
        with pytest.raises(ContractError):
            gold_labels(split, "sentiment-5")

    def test_accuracy_matches_direct_computation(self, bundle, trained_pair):
        model = trained_pair[0]
        split = bundle.splits["test"]
        task = model.config.task
        probs = predict_probabilities(model, eval_batches(bundle))
        direct = accuracy(predictions_from_probabilities(probs, task),
                          gold_labels(split, task))
        assert evaluate_accuracy(model, split) == direct

    def test_accuracy_is_chunking_invariant(self, bundle, trained_pair):
        model = trained_pair[0]
        split = bundle.splits["test"]
        assert evaluate_accuracy(model, split, chunk=3) == \
            evaluate_accuracy(model, split, chunk=64)


# ---------------------------------------------------------------------------
# train-state serialization
# ---------------------------------------------------------------------------

class TestTrainState:
    def test_round_trip_preserves_everything(self, bundle, tmp_path):
        model = init_model(tiny_encoder(), seed=7)
        state = fit(model, bundle.splits["train"], bundle.splits["valid"],
                    quick_cfg(max_epochs=2))
        path = tmp_path / "state.tbjs"
        save_train_state(path, model, state)
        loaded_model, loaded = load_train_state(path)
        assert model_bytes(loaded_model) == model_bytes(model)
        for field in ("step", "epoch", "lr", "best_accuracy", "stagnant",
                      "decays_used", "stopped", "log"):
            assert getattr(loaded, field) == getattr(state, field)
        for name in state.first_moment:
            assert np.array_equal(loaded.first_moment[name],
                                  state.first_moment[name])
            assert np.array_equal(loaded.second_moment[name],
                                  state.second_moment[name])
        assert list(loaded.best) == sorted(state.best)
        for name in state.best:
            assert np.array_equal(loaded.best[name], state.best[name])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.tbjs"
        path.write_bytes(b"NOPE" + b"\0" * 32)
        with pytest.raises(ConfigError, match="magic"):
            load_train_state(path)

    @pytest.mark.parametrize("header", [
        b'{"epoch": 1, "lo',                   # cut mid-string
        b'\xff{}',                             # not UTF-8
        b'{"epoch": 1}',                       # keys missing
    ])
    def test_corrupt_header_is_config_error(self, tmp_path, header):
        path = tmp_path / "state.tbjs"
        path.write_bytes(TR.STATE_MAGIC + struct.pack(
            "<II", TR.STATE_VERSION, len(header)) + header)
        with pytest.raises(ConfigError, match="train-state header"):
            load_train_state(path)

    def test_truncated_anywhere_is_config_error(self, bundle, tmp_path):
        model = init_model(tiny_encoder(("L",)), seed=7)
        state = fit(model, bundle.splits["train"], bundle.splits["valid"],
                    quick_cfg(max_epochs=1))
        path = tmp_path / "state.tbjs"
        save_train_state(path, model, state)
        blob = path.read_bytes()
        model_start = blob.index(CHECKPOINT_MAGIC)
        model_end = model_start + len(model_bytes(model))
        # the embedded checkpoint is cut at every header byte by the
        # checkpoint test; moments and best arrays are cut here
        cuts = (list(range(model_start))
                + list(range(model_start, model_end, 211))
                + truncation_cuts(blob, 211, start=model_end))
        for cut in cuts:
            path.write_bytes(blob[:cut])
            with pytest.raises(ConfigError, match="truncated"):
                load_train_state(path)

    def test_trailing_bytes_rejected(self, bundle, tmp_path):
        model = init_model(tiny_encoder(("L",)), seed=7)
        state = fit(model, bundle.splits["train"], bundle.splits["valid"],
                    quick_cfg(max_epochs=1))
        path = tmp_path / "state.tbjs"
        save_train_state(path, model, state)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ConfigError, match="trailing bytes"):
            load_train_state(path)

    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_misshaped_array_is_config_error(self, bundle, tmp_path, slot):
        """A first moment, second moment or best array with a wrong extent
        is caught on load, not by the first Adam step."""
        model = init_model(tiny_encoder(("L",)), seed=7)
        state = fit(model, bundle.splits["train"], bundle.splits["valid"],
                    quick_cfg(max_epochs=1))
        name = "head.out.bias"
        arrays = (state.first_moment, state.second_moment, state.best)
        arrays[slot][name] = arrays[slot][name][:-1]
        path = tmp_path / "state.tbjs"
        save_train_state(path, model, state)
        with pytest.raises(ConfigError, match=f"'{name}' shaped"):
            load_train_state(path)

    def test_moment_name_mismatch_rejected(self, bundle, tmp_path):
        model = init_model(tiny_encoder(("L",)), seed=7)
        state = fit(model, bundle.splits["train"], bundle.splits["valid"],
                    quick_cfg(max_epochs=1))
        dropped = sorted(state.first_moment)[0]
        del state.first_moment[dropped]
        del state.second_moment[dropped]
        path = tmp_path / "state.tbjs"
        save_train_state(path, model, state)
        with pytest.raises(ConfigError, match="parameter names"):
            load_train_state(path)


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

class TestTrainConfig:
    def test_round_trip(self):
        cfg = quick_cfg(lr=5e-4, patience=7)
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="momentum"):
            TrainConfig.from_dict({"momentum": 0.9})

    @pytest.mark.parametrize("overrides", [
        {"lr": -1.0},
        {"batch_size": 0},
        {"decay_factor": 0.0},
        {"decay_factor": 1.0},
        {"max_decays": -1},
        {"patience": 0},
        {"ensemble_size": 0},
        {"max_epochs": 0},
    ])
    def test_invalid_values_rejected(self, overrides):
        with pytest.raises(ConfigError):
            TrainConfig(**overrides)

    def test_full_scale_defaults(self):
        cfg = TrainConfig()
        assert cfg.lr == 1e-4
        assert cfg.batch_size == 32
        assert cfg.decay_factor == 0.2
        assert cfg.max_decays == 2
        assert cfg.patience == 3
        assert cfg.ensemble_size == 5
