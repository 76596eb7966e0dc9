"""In-memory span recorder for the traced benchmark run.

Wrappers are installed from the benchmark's own files around tbje's public
functions, at the module attribute each caller looks the function up in
(``tbje.model`` imports ``multi_head_attention`` by name, ``tbje.cli`` imports
``mel_spectrogram`` by name, tensor primitives are reached as ``T.matmul``).
A wrapper records only while its tracer is active; the runner turns it on
around each traced operation.

A span is (name, start, end, parent index). A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import statistics
import time


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, float] = {}
        self.samples: dict[str, list] = {}
        self.active = False
        self._stack: list[int] = []

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def wrap(self, fn, name, on_call=None, on_result=None):
        """``name`` is a string or a function of (args, kwargs) giving one;
        ``on_call``/``on_result`` record counts and must not touch the
        arguments' values."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            if on_call is not None:
                on_call(args, kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (label, start, end, parent)
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        return wrapper

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def totals(self) -> tuple[dict, dict]:
        """Per span name: summed inclusive seconds and summed self seconds."""
        inclusive: dict[str, float] = {}
        own: dict[str, float] = {}
        for (label, start, end, _), s in zip(self.spans, self.self_times()):
            inclusive[label] = inclusive.get(label, 0.0) + (end - start)
            own[label] = own.get(label, 0.0) + s
        return inclusive, own

    def median_sample(self, name: str) -> float:
        values = self.samples.get(name)
        return statistics.median(values) if values else 0.0

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for label, start, end, parent in self.spans:
                fh.write(json.dumps({"name": label, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def install(patches) -> list:
    """Apply (owner, attribute, wrapper) patches; returns the undo list."""
    undo = []
    for owner, attr, wrapper in patches:
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)
    return undo


def uninstall(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
