"""Deterministic, splittable random streams.

Every stochastic operation in the library draws from a Philox counter-based
generator keyed by the run seed plus a purpose string (and any extra
integers such as epoch or ensemble-member index). Streams derived this way
are independent and reproducible without carrying generator state around,
which is what makes mid-run resume bit-exact.

Because Philox is counter-based, a copy of a generator can also be jumped
to any later position of its stream without drawing the values before it;
``fill_uniform`` uses that to draw one stream on two threads: the caller's
and the module's one worker thread. ``run_beside`` lends that worker to
other work split in two, such as Adam's update. The worker starts on the
first such split and persists for the process; a forked child, which
inherits the executor but not its thread, makes its own.
"""

import bisect
import hashlib
import itertools
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np


def _key_int(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & 0xFFFFFFFFFFFFFFFF
    digest = hashlib.sha256(str(part).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def make_rng(seed: int, *stream) -> np.random.Generator:
    """Philox generator for the stream identified by ``seed`` and labels."""
    entropy = [_key_int(seed)] + [_key_int(p) for p in stream]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def derive_seed(seed: int, *stream) -> int:
    """Collapse a stream identity into a plain integer seed, for APIs that
    take one seed rather than a generator."""
    return int(make_rng(seed, *stream).integers(0, 2 ** 63))


def jumped(rng: np.random.Generator, n: int) -> np.random.Generator:
    """A copy of the Philox generator ``rng`` that stands where ``rng``
    would after ``n`` more 64-bit draws (one per float64 uniform); ``rng``
    does not move. Philox makes four draws per counter step, so ``advance``
    skips whole steps and the rest are drawn and dropped."""
    bits = np.random.Philox(0)
    bits.state = rng.bit_generator.state
    buffered = min(n, 4 - bits.state["buffer_pos"])
    bits.random_raw(buffered)
    if n > buffered:                    # advance also empties the buffer
        bits.advance((n - buffered) // 4)
        bits.random_raw((n - buffered) % 4)
    return np.random.Generator(bits)


def _fill(rng: np.random.Generator, draws) -> None:
    for dest, limit in draws:
        # random() writes only C-contiguous arrays: a strided destination
        # (a column block, a transpose) is drawn contiguous and copied in
        out = dest if dest.flags.c_contiguous else np.empty(dest.shape)
        rng.random(out=out)
        out *= limit - -limit           # uniform()'s own arithmetic
        out += -limit
        if out is not dest:
            dest[...] = out


def _new_worker() -> None:
    """Give this process an executor of its own; it starts its one thread
    on the first submit."""
    global _worker
    _worker = ThreadPoolExecutor(1, thread_name_prefix="tbje-rng")


_new_worker()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_worker)


def split_at_half(sizes) -> int:
    """How many of the items with these ``sizes`` the calling thread takes
    when work is split in two: those up to and including the one at which
    half the total is reached; 0 for no items."""
    ends = list(itertools.accumulate(sizes, initial=0))
    return bisect.bisect_left(ends, ends[-1] / 2)


def run_beside(mine, theirs) -> None:
    """Run ``theirs()`` on the worker thread while the calling thread runs
    ``mine()``. Both have ended when this returns or raises; an exception
    of ``mine`` is raised first, then one of ``theirs``."""
    future = _worker.submit(theirs)
    try:
        mine()
    finally:
        future.exception()              # the worker's part ends either way
    future.result()


def fill_uniform(rng: np.random.Generator,
                 draws: list[tuple[np.ndarray, float]]) -> None:
    """Fill each ``(dest, limit)`` in order with ``uniform(-limit, limit)``
    values from ``rng``'s stream: bit for bit what ``dest[...] =
    rng.uniform(-limit, limit, dest.shape)`` in turn gives, with ``rng``
    left where those calls leave it.

    The draws split at the destination where half the values are reached.
    The calling thread draws the first range while the worker thread draws
    the rest from a copy of ``rng`` jumped past the first range."""
    split = split_at_half(dest.size for dest, _ in draws)
    rest = jumped(rng, sum(dest.size for dest, _ in draws[:split]))
    run_beside(lambda: _fill(rng, draws[:split]),
               lambda: _fill(rest, draws[split:]))
    rng.bit_generator.state = rest.bit_generator.state
