"""Spans and counters recorded around the benchmark's own calls into idealforge.

Nothing here reaches inside the library: a span or tally covers exactly one
call that a workload makes.  Workloads are written once against the small
interface below and run either with ``Direct`` (tracing off, each method is
the bare call) or with ``Tracer`` (tracing on).

Two kinds of record are kept in memory and handed out at the end:

* spans, for top-level calls and phases: name, start, end (ns since the
  tracer was made) and the index of the enclosing span, or -1;
* tallies, for every call: busy time, call count and, for the functions
  named in ``repeat_names``, how many calls repeated arguments already
  passed in this process.  High-frequency primitives get tallies only, so
  a replay of a million calls does not keep a million spans.

What the tracer itself costs is ``overhead_ns()``: every traced call times
the cost of the same wrapper around a no-op, less the bare no-op call.
"""
from __future__ import annotations

import statistics
import time
from collections import Counter
from contextlib import contextmanager, nullcontext


class Direct:
    'Tracing off: every method is the plain call.'

    def run(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, n):
        pass

    def phase(self, name):
        return nullcontext()


class Tracer:
    'Tracing on: spans for run() and phase(), tallies for run() and call().'

    def __init__(self, repeat_names=()):
        self.origin = time.perf_counter_ns()
        self.spans: list[list] = []
        self.busy_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.repeats: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self._repeat_names = frozenset(repeat_names)
        self._seen: dict[str, set] = {}
        self._stack = [-1]

    def _open(self, name):
        self.spans.append([name, time.perf_counter_ns() - self.origin, None, self._stack[-1]])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter_ns() - self.origin

    def _tally(self, name, fn, args, kwargs, ns):
        self.busy_ns[name] = self.busy_ns.get(name, 0) + ns
        self.calls[name] = self.calls.get(name, 0) + 1
        if name in self._repeat_names:
            # Keys hold the argument objects, so an id is never reused
            # while its key is stored; interned values compare by identity.
            key = (fn, args, tuple(sorted(kwargs.items())))
            seen = self._seen.setdefault(name, set())
            if key in seen:
                self.repeats[name] = self.repeats.get(name, 0) + 1
            else:
                seen.add(key)

    def run(self, name, fn, *args, **kwargs):
        self._open(name)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            ns = time.perf_counter_ns() - start
            self._close()
            self._tally(name, fn, args, kwargs, ns)

    def call(self, name, fn, *args, **kwargs):
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self._tally(name, fn, args, kwargs, time.perf_counter_ns() - start)

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    @contextmanager
    def phase(self, name):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def stat(self, metric: str) -> float:
        """One per-layer value by metric name, 0 for a layer never called.

        ``<function>.busy_s``, ``.calls`` and ``.repeat_share`` come from the
        tallies; any other ``<function>.<stat>`` is a count added by count().
        """
        fn, _, stat = metric.rpartition(".")
        if stat == "busy_s":
            return self.busy_ns.get(fn, 0) / 1e9
        if stat == "calls":
            return self.calls.get(fn, 0)
        if stat == "repeat_share":
            calls = self.calls.get(fn, 0)
            return self.repeats.get(fn, 0) / calls if calls else 0.0
        return self.counts.get(metric, 0)

    def overhead_ns(self) -> float:
        'The tracer\'s own time in this process: calls times wrapper cost.'
        runs = Counter(span[0] for span in self.spans)
        wrapped = Counter()
        for name, calls in self.calls.items():
            tracked = name in self._repeat_names
            wrapped["run", tracked] += runs[name]
            wrapped["call", tracked] += calls - runs[name]
        return sum(n * _wrapper_ns(*key) for key, n in wrapped.items() if n)

    def tallies(self) -> dict:
        return {
            name: {"busy_ns": self.busy_ns[name], "calls": self.calls[name],
                   "repeats": self.repeats.get(name, 0)}
            for name in self.calls
        }

    def spans_json(self) -> list[dict]:
        return [
            {"name": n, "start_ns": s, "end_ns": e, "parent": p}
            for n, s, e, p in self.spans
        ]


def _noop(arg):
    return arg


def _wrapper_ns(method, tracked, n=2000, batches=7):
    """Per-call cost of Tracer.<method> around a one-argument no-op, less the
    bare call: the median over batches."""
    wrap = getattr(Tracer(["noop"] if tracked else ()), method)
    args = [object() for _ in range(n)]
    samples = []
    for _ in range(batches):
        start = time.perf_counter_ns()
        for arg in args:
            _noop(arg)
        bare = time.perf_counter_ns() - start
        start = time.perf_counter_ns()
        for arg in args:
            wrap("noop", _noop, arg)
        samples.append((time.perf_counter_ns() - start - bare) / n)
    return statistics.median(samples)
