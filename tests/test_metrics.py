"""Accuracy, the two F1 flavors, sentiment binning."""

import numpy as np
import pytest

from tbje.errors import ContractError
from tbje.metrics import (EMOTIONS, accuracy, evaluation_report, f1_unweighted,
                          f1_weighted, round_half_away, sentiment_bins)
from tbje.rng import make_rng

import oracles


def test_accuracy_trivial_cases():
    assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0
    assert accuracy([1, 1, 1], [0, 2, 3]) == 0.0
    pred = [0, 1, 2, 3, 4, 5, 6, 0, 1, 2]
    gold = [0, 1, 2, 3, 4, 5, 0, 1, 2, 3]
    assert accuracy(pred, gold) == 0.6


def test_accuracy_multilabel_averages_classes():
    pred = np.array([[1, 0], [1, 1]])
    gold = np.array([[1, 1], [0, 1]])
    # class 0 accuracy 0.5, class 1 accuracy 0.5
    assert accuracy(pred, gold) == 0.5


def test_accuracy_errors():
    with pytest.raises(ContractError):
        accuracy([], [])
    with pytest.raises(ContractError):
        accuracy([1, 2], [1])


def test_f1_unweighted_trivial():
    assert f1_unweighted([1, 0, 1], [1, 0, 1]) == 1.0
    assert f1_unweighted([0, 0, 0], [1, 1, 0]) == 0.0


def test_f1_unweighted_hand_counts():
    # tp=2, fp=1, fn=1 -> p = r = 2/3 -> f1 = 2/3
    pred = [1, 1, 1, 0, 0]
    gold = [1, 1, 0, 1, 0]
    assert f1_unweighted(pred, gold) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_f1_weighted_trivial():
    assert f1_weighted([1, 0, 1], [1, 0, 1]) == 1.0
    assert f1_weighted([0, 0, 0], [0, 0, 0]) == 1.0


def test_f1_flavors_differ_on_fixture():
    # positive-class F1 is 2/3 but the negative class scores 0, dragging the
    # support-weighted mean down to 0.5
    pred = [1, 0, 1, 1]
    gold = [1, 1, 1, 0]
    unweighted = f1_unweighted(pred, gold)
    weighted = f1_weighted(pred, gold)
    assert unweighted == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert weighted == pytest.approx(0.5, abs=1e-15)
    assert abs(weighted - unweighted) > 0.1


def test_f1_flavors_agree_when_gold_all_positive():
    rng = make_rng(100, "f1-allpos")
    for _ in range(20):
        pred = rng.integers(0, 2, size=50)
        gold = np.ones(50, dtype=int)
        assert f1_weighted(pred, gold) == f1_unweighted(pred, gold)


def test_metrics_permutation_invariant():
    rng = make_rng(101, "perm")
    pred = rng.integers(0, 2, size=80)
    gold = rng.integers(0, 2, size=80)
    perm = rng.permutation(80)
    assert accuracy(pred, gold) == accuracy(pred[perm], gold[perm])
    assert f1_weighted(pred, gold) == f1_weighted(pred[perm], gold[perm])
    assert f1_unweighted(pred, gold) == f1_unweighted(pred[perm], gold[perm])


def test_metrics_match_brute_force_oracle_exactly():
    rng = make_rng(103, "oracle")
    for trial in range(30):
        n = int(rng.integers(1, 201))
        pred = rng.integers(0, 2, size=n)
        gold = rng.integers(0, 2, size=n)
        assert accuracy(pred, gold) == oracles.accuracy_oracle(pred, gold)
        assert f1_unweighted(pred, gold) == oracles.f1_unweighted_oracle(pred, gold)
        assert f1_weighted(pred, gold) == oracles.f1_weighted_oracle(pred, gold)


def test_multiclass_accuracy_matches_oracle_exactly():
    rng = make_rng(104, "oracle-multi")
    for _ in range(10):
        pred = rng.integers(0, 7, size=150)
        gold = rng.integers(0, 7, size=150)
        assert accuracy(pred, gold) == oracles.accuracy_oracle(pred, gold)
        ml_pred = rng.integers(0, 2, size=(60, 6))
        ml_gold = rng.integers(0, 2, size=(60, 6))
        assert accuracy(ml_pred, ml_gold) == \
            oracles.multilabel_accuracy_oracle(ml_pred, ml_gold)


# ---------------------------------------------------------------------------
# sentiment binning
# ---------------------------------------------------------------------------

def test_round_half_away_from_zero():
    x = np.array([0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 0.49, -0.49])
    assert np.array_equal(round_half_away(x),
                          [1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 0.0, -0.0])


def test_sentiment_seven_class_bins():
    raw = np.array([-3.0, -2.5, -1.6, -0.5, 0.0, 0.49, 0.5, 1.4, 2.5, 3.0])
    assert np.array_equal(sentiment_bins(raw, classes=7),
                          [0, 0, 1, 2, 3, 3, 4, 4, 6, 6])


def test_sentiment_two_class_default_boundary():
    raw = np.array([-3.0, -0.01, 0.0, 0.2, 3.0])
    assert np.array_equal(sentiment_bins(raw, classes=2), [0, 0, 1, 1, 1])


def test_sentiment_two_class_custom_boundary():
    raw = np.array([-0.2, 0.0, 0.3, 1.0])
    assert np.array_equal(sentiment_bins(raw, classes=2, boundary=0.25),
                          [0, 0, 1, 1])


def test_sentiment_out_of_range_rejected():
    with pytest.raises(ContractError):
        sentiment_bins(np.array([3.2]))
    with pytest.raises(ContractError):
        sentiment_bins(np.array([-3.0001]))
    with pytest.raises(ContractError):
        sentiment_bins(np.array([0.0]), classes=5)


# ---------------------------------------------------------------------------
# report layout
# ---------------------------------------------------------------------------

def test_report_sentiment_two():
    rep = evaluation_report("sentiment-2", [1, 0, 1], [1, 1, 1])
    assert set(rep) == {"task", "accuracy", "f1_weighted", "f1_unweighted"}
    assert rep["accuracy"] == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_report_sentiment_seven_has_accuracy_only():
    rep = evaluation_report("sentiment-7", [3, 4], [3, 3])
    assert set(rep) == {"task", "accuracy"}


def test_report_emotions_structure():
    rng = make_rng(105, "report")
    pred = rng.integers(0, 2, size=(40, 6))
    gold = rng.integers(0, 2, size=(40, 6))
    rep = evaluation_report("emotions-6", pred, gold)
    assert set(rep["per_emotion"]) == set(EMOTIONS)
    mean_w = np.mean([rep["per_emotion"][e]["f1_weighted"] for e in EMOTIONS])
    assert rep["f1_weighted"] == pytest.approx(mean_w, abs=1e-15)
    assert rep["accuracy"] == accuracy(pred, gold)


def test_report_unknown_task():
    with pytest.raises(ContractError):
        evaluation_report("stance-3", [0], [0])
