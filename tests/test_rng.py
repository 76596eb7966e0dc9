"""Philox streams: skip-ahead, and the uniform fill that draws one stream
on two threads."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tbje.rng import fill_uniform, jumped, make_rng

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("already", [0, 3])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 1001])
def test_jumped_generator_continues_the_serial_stream(already, n):
    """A copy jumped ``n`` draws ahead gives the values the stream gives
    after ``n`` more draws, from a fresh generator and from one part way
    through a four-value Philox block; the original does not move."""
    serial = make_rng(7, "jump")
    serial.random(already)
    ahead = jumped(serial, n)
    serial.random(n)
    assert np.array_equal(ahead.random(9), serial.random(9))


@pytest.mark.parametrize("cpus", [(0, 1), (0,)], ids=["worker", "inline"])
def test_fill_uniform_equals_serial_uniform_calls(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))
    block, flat = np.empty((4, 6)), np.empty((7, 2))
    dests = [np.empty((3, 5)), block[:, :3], block[:, 3:], flat.T,
             np.empty(1001), np.empty((2, 2))]
    limits = [0.5, 0.25, 1.0, 2.0, 0.125, 3.0]
    rng, serial = make_rng(8, "fill"), make_rng(8, "fill")
    fill_uniform(rng, list(zip(dests, limits)))
    for dest, limit in zip(dests, limits):
        assert np.array_equal(dest, serial.uniform(-limit, limit, dest.shape))
    assert rng.random() == serial.random()


def test_importing_the_cli_starts_no_thread():
    done = subprocess.run(
        [sys.executable, "-c",
         "import threading, tbje.cli; print(threading.active_count())"],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
        text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "1"
