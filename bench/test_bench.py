"""Self-test of the benchmark at toy size; takes seconds.

    python3 -m pytest -q bench/test_bench.py

Run from the root of a checkout.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, seed: int = 3) -> tuple:
    """(details, result) of one toy-size run."""
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace),
         "--size", "toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    _, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0


def test_seed_outside_the_recorded_range_is_still_checked_against_a_record():
    recorded = json.loads(workloads.REFERENCE_PATH.read_text("utf-8"))["toy"]
    seed = 1000
    assert str(seed) not in recorded
    details, result = _run("train_full", 0, seed=seed)
    assert result["correct"] is True
    check, = [c for c in details["checks"]
              if c["name"] == "log_matches_reference"]
    assert check["ok"]
    assert check["detail"]["reference_seed"] == \
        sorted(map(int, recorded))[seed % len(recorded)]


def test_a_moved_loss_fails_the_reference_check():
    seed, reference = workloads.load_reference("toy", 5)
    assert seed == 5
    assert workloads.compare_log(reference, reference)[0]
    moved = [dict(rec) for rec in reference]
    moved[-1]["train_loss"] *= 1 + 10 * workloads.LOSS_RTOL
    assert not workloads.compare_log(moved, reference)[0]


def test_training_inputs_change_with_the_seed_and_nothing_else():
    counts = {"train": 12, "valid": 5}
    a = inputs.train_arrays(1, ("L", "A"), counts)
    b = inputs.train_arrays(2, ("L", "A"), counts)
    again = inputs.train_arrays(1, ("L", "A"), counts)
    for split in counts:
        for m in ("L", "A"):
            fa, fb = a[split]["features"][m], b[split]["features"][m]
            assert fa.shape == fb.shape
            assert not np.array_equal(fa, fb)
            assert np.array_equal(fa, again[split]["features"][m])
            # the seed shuffles the true lengths; it never changes them
            assert sorted(a[split]["mask"][m].sum(axis=1)) == \
                sorted(b[split]["mask"][m].sum(axis=1))
        assert a[split]["sentiment"].shape == b[split]["sentiment"].shape


def test_workload_settings_do_not_depend_on_the_seed(tmp_path):
    for name in NAMES:
        one = workloads.WORKLOADS[name]("full", 1, tmp_path)
        two = workloads.WORKLOADS[name]("full", 2, tmp_path)
        assert one.size == two.size
        assert one.encoder.to_dict() == two.encoder.to_dict()
        if hasattr(one, "cfg"):
            assert {**one.cfg.to_dict(), "seed": 0} == \
                {**two.cfg.to_dict(), "seed": 0}


def test_corpus_changes_with_the_seed_and_nothing_else(tmp_path):
    args = ({"train": 3, "valid": 1, "test": 2}, 40, 20, (6.0, 9.0),
            (40, 60))
    facts = {}
    for seed, folder in ((1, "a"), (2, "b"), (1, "c")):
        facts[folder] = inputs.write_corpus(seed, tmp_path / folder, *args)
    for key in ("counts", "audio_s", "embedding_lines"):
        assert facts["a"][key] == facts["b"][key]

    def sizes(folder):
        return sorted(p.stat().st_size
                      for p in (tmp_path / folder / "audio").iterdir())

    def content(folder):
        return {p.relative_to(tmp_path / folder): p.read_bytes()
                for p in sorted((tmp_path / folder).rglob("*"))
                if p.is_file()}

    assert sizes("a") == sizes("b")
    assert content("a") == content("c")
    assert content("a") != content("b")
