"""Losses, Adam, the plateau schedule, fit(), ensembles, and train-state
serialization, each checked against straight-line references."""

import json
import struct
import sys
import tempfile
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import tbje.training as TR
from tbje import tensor as T
from tbje.data import Split
from tbje.errors import ConfigError, ContractError, NumericError
from tbje.metrics import accuracy, sentiment_bins
from tbje.model import (CHECKPOINT_MAGIC, EncoderConfig, init_model,
                        load_model, model_bytes, read_model, save_model)
from tbje.synthetic import make_synthetic_bundle
from tbje.tensor import Tape, Tensor
from tbje.training import (TrainConfig, TrainState, adam_step,
                           binary_cross_entropy, cross_entropy,
                           ensemble_predict, evaluate_accuracy, fit,
                           gold_labels, init_state, load_train_state, loss,
                           observe_validation, predict_probabilities,
                           predictions_from_probabilities, save_train_state,
                           schedule_trace)

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

    def test_blocks_equal_the_whole_array_formula(self):
        beta1, beta2, eps = TR.ADAM_BETA1, TR.ADAM_BETA2, TR.ADAM_EPS
        rng = np.random.default_rng(4)
        size = 2 * TR._ADAM_BLOCK + 123          # a ragged last block
        p = Tensor(rng.standard_normal((size // 3, 3)), requires_grad=True)
        params = {"w": p}
        state = init_state(params, lr=1e-3)
        w, m, v = p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data)
        for t in range(1, 4):
            g = rng.standard_normal(p.data.shape)
            p.grad = g.copy()
            m = beta1 * m + (1.0 - beta1) * g
            v = beta2 * v + (1.0 - beta2) * g * g
            w = w - 1e-3 * (m / (1.0 - beta1 ** t)) / (
                np.sqrt(v / (1.0 - beta2 ** t)) + eps)
            adam_step(params, state, lr=1e-3)
            assert np.array_equal(p.data, w)
            assert np.array_equal(state.first_moment["w"], m)
            assert np.array_equal(state.second_moment["w"], v)

    @pytest.mark.parametrize("bad", ["nan", "missing", "strided"])
    def test_a_bad_last_parameter_moves_nothing(self, bad):
        rng = np.random.default_rng(5)
        params = {n: Tensor(rng.standard_normal((40, 50)), requires_grad=True)
                  for n in ("a", "b", "c")}
        state = init_state(params, lr=1e-3)
        for p in params.values():
            p.grad = rng.standard_normal(p.data.shape)
        adam_step(params, state, lr=1e-3)
        for p in params.values():
            p.grad = rng.standard_normal(p.data.shape)
        if bad == "nan":
            params["c"].grad[-1, -1] = np.nan
        elif bad == "missing":
            params["c"].grad = None
        else:
            params["c"].data = np.asfortranarray(params["c"].data)
        before = {n: (p.data.copy(), state.first_moment[n].copy(),
                      state.second_moment[n].copy())
                  for n, p in params.items()}
        error = NumericError if bad == "nan" else ContractError
        with pytest.raises(error, match="'c'"):
            adam_step(params, state, lr=1e-3)
        assert state.step == 1
        for n, p in params.items():
            w, m, v = before[n]
            assert np.array_equal(p.data, w)
            assert np.array_equal(state.first_moment[n], m)
            assert np.array_equal(state.second_moment[n], v)

    @staticmethod
    def serial_copy(params):
        """Copies of ``params`` and two zero moments each, for the formula
        run over every parameter in turn on the calling thread."""
        return {n: (Tensor(p.data.copy(), requires_grad=True),
                    np.zeros_like(p.data), np.zeros_like(p.data))
                for n, p in params.items()}

    @staticmethod
    def serial_step(copies, params, t, lr):
        for n, (p, _, _) in copies.items():
            p.grad = params[n].grad
        TR._adam_update(list(copies.values()), t, lr)

    def test_split_steps_equal_the_serial_formula(self, monkeypatch):
        """Parameters split at half the entries, the worker thread takes
        the second part, and after three steps the parameters and both
        moments are bit for bit those of one thread updating them all; a
        strided gradient and a ragged last block are among them."""
        rng = np.random.default_rng(8)
        shapes = [(TR._ADAM_BLOCK + 5,), (40, 50), (3,), (70, 30), (25, 25)]
        params = {f"p{i}": Tensor(rng.standard_normal(s), requires_grad=True)
                  for i, s in enumerate(shapes)}
        state = init_state(params, lr=1e-3)
        copies = self.serial_copy(params)
        ran_on = {}
        real_update = TR._adam_update

        def update(work, *hyper):
            for p, _, _ in work:
                ran_on[id(p)] = threading.current_thread()
            real_update(work, *hyper)

        monkeypatch.setattr(TR, "_adam_update", update)
        for t in range(1, 4):
            for p in params.values():
                p.grad = rng.standard_normal(p.data.shape[::-1]).T
            adam_step(params, state, lr=1e-3)
            self.serial_step(copies, params, t, 1e-3)
        assert [ran_on[id(p)] is threading.main_thread()
                for p in params.values()] == [True] + [False] * 4
        for n, p in params.items():
            w, m, v = copies[n]
            assert np.array_equal(p.data, w.data)
            assert np.array_equal(state.first_moment[n], m)
            assert np.array_equal(state.second_moment[n], v)

    def test_the_workers_exception_leaves_the_callers_part_done(
            self, monkeypatch):
        rng = np.random.default_rng(9)
        params = {n: Tensor(rng.standard_normal((30, 30)), requires_grad=True)
                  for n in ("a", "b", "c", "d")}
        state = init_state(params, lr=1e-3)
        copies = self.serial_copy(params)
        for p in params.values():
            p.grad = rng.standard_normal(p.data.shape)
        real_update = TR._adam_update

        def update(work, *hyper):
            if threading.current_thread() is not threading.main_thread():
                raise FloatingPointError("updated off the calling thread")
            real_update(work, *hyper)

        monkeypatch.setattr(TR, "_adam_update", update)
        with pytest.raises(FloatingPointError,
                           match="^updated off the calling thread$"):
            adam_step(params, state, lr=1e-3)
        # the caller's part, a and b, moved; c and d are as they were
        self.serial_step({n: copies[n] for n in "ab"}, params, 1, 1e-3)
        for n, p in params.items():
            w, m, v = copies[n]
            assert np.array_equal(p.data, w.data), n
            assert np.array_equal(state.first_moment[n], m), n
            assert np.array_equal(state.second_moment[n], v), n

    def test_a_single_parameter_is_updated_on_the_calling_thread(
            self, monkeypatch):
        """One parameter is the calling thread's part, and the worker's
        is empty; an empty dict gives both threads an empty part and only
        advances the step."""
        ran_on = []
        real_update = TR._adam_update

        def update(work, *hyper):
            if work:
                ran_on.append(threading.current_thread())
            real_update(work, *hyper)

        monkeypatch.setattr(TR, "_adam_update", update)
        p, params, state = one_param([1.0, -2.0, 0.5])
        g = np.array([3.0, -0.5, 0.0])
        p.grad = g.copy()
        adam_step(params, state, lr=0.01)
        assert np.array_equal(p.data, adam_reference([1.0, -2.0, 0.5], [g],
                                                     0.01))
        assert ran_on == [threading.main_thread()]
        adam_step({}, state, lr=0.01)
        assert ran_on == [threading.main_thread()]
        assert state.step == 2

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

    def test_model_ends_at_best_checkpoint(self, bundle, tmp_path):
        """The model ends as it was after the first epoch of highest
        validation accuracy, and the best file holds exactly that model."""
        model = init_model(tiny_encoder(), seed=7)
        best_path = tmp_path / "best.tbjm"
        state = fit(model, bundle.splits["train"], bundle.splits["valid"],
                    quick_cfg(max_epochs=6), state_path=tmp_path / "s.tbjs",
                    best_path=best_path)
        accuracies = [r["val_accuracy"] for r in state.log]
        assert state.best_epoch == 1 + accuracies.index(max(accuracies))
        assert state.best_epoch < 6     # the end differs from the best epoch
        live, _ = load_train_state(tmp_path / "s.tbjs")
        assert model_bytes(live) != model_bytes(model)

        stopped = init_model(tiny_encoder(), seed=7)
        fit(stopped, bundle.splits["train"], bundle.splits["valid"],
            quick_cfg(max_epochs=state.best_epoch))
        assert model_bytes(model) == model_bytes(stopped)
        assert best_path.read_bytes() == model_bytes(model)

    @pytest.mark.parametrize("last_is_best", [True, False])
    def test_best_is_read_back_only_when_an_earlier_epoch_wrote_it(
            self, bundle, tmp_path, monkeypatch, last_is_best):
        """A best checkpoint the last epoch wrote holds the live parameters,
        so it is not read back; one an earlier epoch wrote is, once."""
        reads = []

        def counting_load(path, into=None):
            reads.append(path)
            return load_model(path, into=into)

        monkeypatch.setattr(TR, "load_model", counting_load)
        model = init_model(tiny_encoder(), seed=7)
        best_path = tmp_path / "best.tbjm"
        # one epoch always improves; of six, the fifth is the best
        state = fit(model, bundle.splits["train"], bundle.splits["valid"],
                    quick_cfg(max_epochs=1 if last_is_best else 6),
                    best_path=best_path)
        assert (state.best_epoch == state.epoch) == last_is_best
        assert reads == ([] if last_is_best else [best_path])
        best = dict(load_model(best_path).named_parameters())
        for name, p in model.named_parameters():
            assert np.array_equal(p.data, best[name].data), name

    def test_best_snapshot_does_not_alias_the_model(self, bundle, tmp_path):
        """The best parameters are read back into the model's own arrays,
        and the file they came from does not follow later changes."""
        model = init_model(tiny_encoder(), seed=7)
        arrays = {n: p.data for n, p in model.named_parameters()}
        best_path = tmp_path / "best.tbjm"
        fit(model, bundle.splits["train"], bundle.splits["valid"],
            quick_cfg(max_epochs=2), best_path=best_path)
        before = best_path.read_bytes()
        for name, p in model.named_parameters():
            assert p.data is arrays[name], name
            p.data += 1.0
        assert best_path.read_bytes() == before

    def test_resume_replays_identical_trajectory(self, bundle, tmp_path):
        cfg_full = quick_cfg(max_epochs=6)
        direct = init_model(tiny_encoder(), seed=11)
        path_a = tmp_path / "direct.tbjs"
        state_a = fit(direct, bundle.splits["train"], bundle.splits["valid"],
                      cfg_full, state_path=path_a)

        paused = init_model(tiny_encoder(), seed=11)
        path_b = tmp_path / "paused.tbjs"
        best_b = tmp_path / "paused.tbjm"
        fit(paused, bundle.splits["train"], bundle.splits["valid"],
            quick_cfg(max_epochs=3), state_path=path_b, best_path=best_b)
        resumed, mid_state = load_train_state(path_b)
        assert mid_state.epoch == 3
        state_b = fit(resumed, bundle.splits["train"], bundle.splits["valid"],
                      cfg_full, state=mid_state, state_path=path_b,
                      best_path=best_b)

        assert model_bytes(direct) == model_bytes(resumed)
        assert state_a.log == state_b.log
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_resume_under_a_changed_training_config_rejected(self, bundle,
                                                             tmp_path):
        """Every field but max_epochs and ensemble_size must match the
        state's; the one-line error names each differing field, and the
        model and state are left as they were."""
        model = init_model(tiny_encoder(("L",)), seed=7)
        path = tmp_path / "state.tbjs"
        fit(model, bundle.splits["train"], bundle.splits["valid"],
            quick_cfg(max_epochs=1), state_path=path)
        before = path.read_bytes()
        resumed, state = load_train_state(path)
        weights = model_bytes(resumed)
        with pytest.raises(ConfigError, match=(
                r"^training config does not match the one member 0's state "
                r"was trained under \(batch_size: state 8, config 1; "
                r"patience: state 150, config 3; seed: state 11, config 12\)"
                r"$")):
            fit(resumed, bundle.splits["train"], bundle.splits["valid"],
                quick_cfg(max_epochs=3, ensemble_size=9, batch_size=1,
                          patience=3, seed=12), state=state, state_path=path)
        assert model_bytes(resumed) == weights and state.epoch == 1
        assert path.read_bytes() == before

    def test_state_records_the_config_fit_last_ran(self, bundle, tmp_path):
        model = init_model(tiny_encoder(("L",)), seed=7)
        path = tmp_path / "state.tbjs"
        best = tmp_path / "best.tbjm"
        fit(model, bundle.splits["train"], bundle.splits["valid"],
            quick_cfg(max_epochs=1), state_path=path, best_path=best)
        resumed, state = load_train_state(path)
        assert state.config == quick_cfg(max_epochs=1).to_dict()
        longer = quick_cfg(max_epochs=2, ensemble_size=3)
        fit(resumed, bundle.splits["train"], bundle.splits["valid"], longer,
            state=state, state_path=path, best_path=best)
        assert load_train_state(path)[1].config == longer.to_dict()

    def test_state_file_tracks_live_run(self, bundle, tmp_path):
        model = init_model(tiny_encoder(("L",)), seed=7)
        path = tmp_path / "state.tbjs"
        state = fit(model, bundle.splits["train"], bundle.splits["valid"],
                    quick_cfg(max_epochs=2), state_path=path)
        _, loaded = load_train_state(path)
        assert loaded.epoch == 2
        assert loaded.log == state.log
        assert loaded.step == state.step

    def test_without_best_path_only_the_state_file_is_written(
            self, bundle, tmp_path):
        model = init_model(tiny_encoder(("L",)), seed=7)
        path = tmp_path / "state.tbjs"
        fit(model, bundle.splits["train"], bundle.splits["valid"],
            quick_cfg(max_epochs=2), state_path=path)
        assert list(tmp_path.iterdir()) == [path]

    def test_without_best_path_no_temporary_file_outlives_the_fit(
            self, bundle, tmp_path, monkeypatch):
        """With no best_path the best checkpoint lives in a temporary
        directory that goes with the fit, whether it ends or fails."""
        tmpdir = tmp_path / "tmpdir"
        tmpdir.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(tmpdir))
        model = init_model(tiny_encoder(("L",)), seed=7)
        state = fit(model, bundle.splits["train"], bundle.splits["valid"],
                    quick_cfg(max_epochs=2))
        assert state.best_epoch and not list(tmpdir.iterdir())

        def failing_save(path, model, state):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(TR, "save_train_state", failing_save)
        with pytest.raises(OSError):
            fit(init_model(tiny_encoder(("L",)), seed=7),
                bundle.splits["train"], bundle.splits["valid"],
                quick_cfg(max_epochs=2), state_path=tmp_path / "s.tbjs")
        assert not list(tmpdir.iterdir())

    def test_resume_past_a_best_epoch_needs_the_best_path(self, bundle,
                                                          tmp_path):
        model = init_model(tiny_encoder(("L",)), seed=7)
        path = tmp_path / "state.tbjs"
        fit(model, bundle.splits["train"], bundle.splits["valid"],
            quick_cfg(max_epochs=1), state_path=path)
        resumed, state = load_train_state(path)
        with pytest.raises(ContractError, match="best epoch is 1"):
            fit(resumed, bundle.splits["train"], bundle.splits["valid"],
                quick_cfg(max_epochs=2), state=state)

    def test_empty_split_rejected(self, bundle):
        model = init_model(tiny_encoder(), seed=7)
        valid = bundle.splits["valid"]
        empty = Split(name="valid", ids=[],
                      batches={m: b.take([]) for m, b in valid.batches.items()},
                      sentiment=valid.sentiment[:0],
                      emotions=valid.emotions[:0])
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

    def test_two_threads_train_two_models_as_serial_runs_do(self, bundle):
        """Two toy models take Adam steps on two threads at once, switching
        every microsecond: each thread records on its own tape, so every
        step's gradients are byte for byte those of the serial runs."""
        train = bundle.splits["train"]
        labels = gold_labels(train, "sentiment-7")

        def run(seed):
            model = init_model(tiny_encoder(), seed=seed)
            params = model.parameter_dict()
            state = init_state(params, lr=2e-3)
            grads = []
            for t in range(4):
                idx = np.arange(8 * t, 8 * t + 8)
                sub = {m: train.batches[m].take(idx) for m in ("L", "A")}
                for p in params.values():
                    p.grad = None
                with Tape() as tape:
                    logits = TR.forward_logits(model, sub, rng_seed=t,
                                               training=True)
                    tape.backward(loss(logits, labels[idx], "sentiment-7"))
                grads.append([p.grad.tobytes() for p in params.values()])
                adam_step(params, state, lr=2e-3)
            return grads

        want = [run(seed) for seed in (5, 6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(2) as pool:
                got = list(pool.map(run, (5, 6), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert got == want


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
        with pytest.raises(ConfigError) as caught:
            ensemble_predict([trained_pair[0], other], eval_batches(bundle))
        assert str(caught.value) == (
            "ensemble member 1 has a different config than member 0 ("
            "input_widths: member 1 {'L': 12}, member 0 {'L': 12, 'A': 9}; "
            "lengths: member 1 {'L': 6}, member 0 {'L': 6, 'A': 5}; "
            "modalities: member 1 ['L'], member 0 ['L', 'A'])")

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
        monkeypatch.setattr(TR, "SCORE_CHUNK", n)
        one_pass = ensemble_predict(trained_pair, batches)
        sizes, true_forward = [], TR.forward_logits

        def forward(model, sub, *args, **kwargs):
            sizes.append(len(sub["L"]))
            return true_forward(model, sub, *args, **kwargs)

        monkeypatch.setattr(TR, "forward_logits", forward)
        monkeypatch.setattr(TR, "SCORE_CHUNK", 3)
        chunked = ensemble_predict(trained_pair, batches)
        np.testing.assert_allclose(chunked, one_pass, rtol=0, atol=1e-12)
        per_member = [3] * (n // 3) + ([n % 3] if n % 3 else [])
        assert sizes == per_member * 2

    def test_empty_split_scores_to_no_rows(self, bundle, trained_pair,
                                          monkeypatch):
        monkeypatch.setattr(TR, "SCORE_CHUNK", 3)
        none = {m: b.take([]) for m, b in eval_batches(bundle).items()}
        assert ensemble_predict(trained_pair, none).shape == (0, 7)

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

    def test_accuracy_is_chunking_invariant(self, bundle, trained_pair,
                                            monkeypatch):
        model = trained_pair[0]
        split = bundle.splits["test"]
        whole = evaluate_accuracy(model, split)
        monkeypatch.setattr(TR, "SCORE_CHUNK", 3)
        assert evaluate_accuracy(model, split) == whole


# ---------------------------------------------------------------------------
# train-state serialization
# ---------------------------------------------------------------------------

class TestTrainState:
    def test_artifact_bytes_follow_the_documented_layout(self, tmp_path):
        """A checkpoint and a train state, byte for byte as README's
        "On-disk formats" lays them out."""
        def tbjt(arr):
            return (b"TBJT" + bytes([arr.ndim])
                    + struct.pack(f"<{arr.ndim}I", *arr.shape)
                    + arr.astype("<f8").tobytes())

        def section(entries):
            out = struct.pack("<I", len(entries))
            for name, arrays in entries:
                out += struct.pack("<I", len(name.encode())) + name.encode()
                out += b"".join(tbjt(a) for a in arrays)
            return out

        model = init_model(tiny_encoder(), seed=4, vocab_hash="v1")
        params = model.parameter_dict()
        rng = np.random.default_rng(4)
        state = init_state(params, 0.01)
        for arrays in (state.first_moment, state.second_moment):
            for name in arrays:
                arrays[name] = rng.normal(size=arrays[name].shape)
        state.step, state.epoch, state.best_accuracy = 3, 1, 0.5
        state.best_epoch = 1
        state.log = [{"epoch": 1, "lr": 0.01}]
        state.config = quick_cfg().to_dict()

        config = json.dumps({"config": model.config.to_dict(),
                             "vocab_hash": "v1"}, sort_keys=True,
                            separators=(",", ":")).encode()
        checkpoint = (b"TBJM" + struct.pack("<II", 3, len(config)) + config
                      + section([(n, [p.data]) for n, p in params.items()]))
        counters = json.dumps({
            "best_accuracy": 0.5, "best_epoch": 1, "decays_used": 0,
            "epoch": 1, "log": state.log, "lr": 0.01, "stagnant": 0,
            "step": 3, "stopped": False, "config": quick_cfg().to_dict()},
            sort_keys=True).encode()
        moments = section([(n, [state.first_moment[n], state.second_moment[n]])
                           for n in sorted(params)])
        save_model(tmp_path / "m.tbjm", model)
        save_train_state(tmp_path / "s.tbjs", model, state)
        assert (tmp_path / "m.tbjm").read_bytes() == checkpoint
        assert (tmp_path / "s.tbjs").read_bytes() == (
            b"TBJS" + struct.pack("<II", 5, len(counters)) + counters
            + checkpoint + moments)

    def test_round_trip_preserves_everything(self, bundle, tmp_path):
        model = init_model(tiny_encoder(), seed=7)
        state = fit(model, bundle.splits["train"], bundle.splits["valid"],
                    quick_cfg(max_epochs=2))
        path = tmp_path / "state.tbjs"
        save_train_state(path, model, state)
        loaded_model, loaded = load_train_state(path)
        assert model_bytes(loaded_model) == model_bytes(model)
        assert state.best_epoch > 0
        for field in ("step", "epoch", "lr", "best_accuracy", "best_epoch",
                      "stagnant", "decays_used", "stopped", "log"):
            assert getattr(loaded, field) == getattr(state, field)
        assert list(loaded.first_moment) == sorted(state.first_moment)
        for name in state.first_moment:
            assert np.array_equal(loaded.first_moment[name],
                                  state.first_moment[name])
            assert np.array_equal(loaded.second_moment[name],
                                  state.second_moment[name])

    def test_size_is_header_checkpoint_and_two_moment_sets(self, bundle,
                                                           tmp_path):
        """A state holds the live model and its two Adam moments, and no
        best-validation arrays."""
        model = init_model(tiny_encoder(), seed=7)
        state = fit(model, bundle.splits["train"], bundle.splits["valid"],
                    quick_cfg(max_epochs=1))
        path = tmp_path / "state.tbjs"
        save_train_state(path, model, state)
        header = json.dumps({k: getattr(state, k) for k in TR._STATE_HEADER},
                            sort_keys=True).encode()
        moments = sum(
            4 + len(name.encode())
            + 2 * (4 + 1 + 4 * p.data.ndim + 8 * p.data.size)
            for name, p in model.named_parameters())
        assert path.stat().st_size == (12 + len(header)
                                       + len(model_bytes(model))
                                       + 4 + moments)

    def test_write_over_a_longer_state_equals_a_fresh_write(self, bundle,
                                                            tmp_path):
        """A state is overwritten in place: written over a longer one it
        leaves no trailing bytes and the bytes of a write to a new path."""
        path, fresh = tmp_path / "state.tbjs", tmp_path / "fresh.tbjs"
        fit(init_model(tiny_encoder(("L",)), seed=7), bundle.splits["train"],
            bundle.splits["valid"], quick_cfg(max_epochs=3), state_path=path)
        longer = path.stat().st_size
        model = init_model(tiny_encoder(("L",)), seed=7)
        state = fit(model, bundle.splits["train"], bundle.splits["valid"],
                    quick_cfg(max_epochs=1))
        save_train_state(path, model, state)
        save_train_state(fresh, model, state)
        assert path.stat().st_size < longer
        assert path.read_bytes() == fresh.read_bytes()
        loaded_model, loaded = load_train_state(path)
        assert model_bytes(loaded_model) == model_bytes(model)
        assert loaded.log == state.log and loaded.epoch == 1

    def test_write_cut_at_any_array_is_rejected(self, bundle, tmp_path,
                                                monkeypatch):
        """A state write that fails after any number of arrays leaves a
        file with a zero magic, which is refused rather than read as a mix
        of the old state and the new one."""
        model = init_model(tiny_encoder(("L",)), seed=7)
        path = tmp_path / "state.tbjs"
        state = fit(model, bundle.splits["train"], bundle.splits["valid"],
                    quick_cfg(max_epochs=2), state_path=path)
        old = path.read_bytes()
        state.epoch += 1
        total = 3 * len(model.parameter_dict())
        real_write_array = T.write_array
        for cut in range(total):
            written = []

            def failing_write_array(fh, arr):
                if len(written) == cut:
                    raise OSError(28, "No space left on device")
                written.append(arr)
                real_write_array(fh, arr)

            path.write_bytes(old)
            monkeypatch.setattr(T, "write_array", failing_write_array)
            with pytest.raises(OSError):
                save_train_state(path, model, state)
            monkeypatch.setattr(T, "write_array", real_write_array)
            assert path.read_bytes()[:4] == b"\0\0\0\0"
            with pytest.raises(ConfigError, match=(
                    r"^bad train-state magic b'\\x00\\x00\\x00\\x00'; "
                    r"expected b'TBJS' \(in .*state\.tbjs\)$")):
                load_train_state(path)
        save_train_state(path, model, state)
        assert load_train_state(path)[1].epoch == 3

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

    @pytest.mark.parametrize("config, message", [
        (None, "config section 'training' must be an object"),
        ({"lr": "fast"}, "config key 'training.lr' must be a number"),
    ])
    def test_malformed_config_record_is_config_error(self, bundle, tmp_path,
                                                     config, message):
        model = init_model(tiny_encoder(("L",)), seed=7)
        state = fit(model, bundle.splits["train"], bundle.splits["valid"],
                    quick_cfg(max_epochs=1))
        state.config = config
        path = tmp_path / "state.tbjs"
        save_train_state(path, model, state)
        with pytest.raises(ConfigError, match=f"^{message}"):
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
        # checkpoint test; the moments are cut here
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

    @pytest.mark.parametrize("slot", [0, 1])
    def test_misshaped_array_is_config_error(self, bundle, tmp_path, slot):
        """A first or second moment with a wrong extent is caught on load,
        not by the first Adam step."""
        model = init_model(tiny_encoder(("L",)), seed=7)
        state = fit(model, bundle.splits["train"], bundle.splits["valid"],
                    quick_cfg(max_epochs=1))
        name = "head.out.bias"
        arrays = (state.first_moment, state.second_moment)
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
