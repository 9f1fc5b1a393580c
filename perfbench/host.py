"""The host-speed probe and the environment stamped on every run record.

The probe is a fixed pure-Python loop whose mix of allocation, hashing and
dict traffic resembles the library's own inner loops.  Shared hosts change
speed by up to 2x, switching within a second or two, so a probe timed once
before a multi-second section says little about the section.  HostSampler
therefore times a short probe every 50 ms *during* the timed section, from
a SIGALRM handler in the same single thread, and ``wall_cal`` is the
section's time without the probes divided by the probes' trimmed mean (the
middle 60%): the section's length in probe units, which the host's speed
cancels out of.  The trimmed mean follows a host that changes speed in
mid-section better than the median does, and ignores the odd probe hit by
a page fault or preemption.  The cyclic garbage collector is held off
during a probe, so that a collection of the library's heap is not billed
to the probe.  Changing the probe changes the unit of ``wall_cal``.

Set-up is too short for a sampler, so a child times SETUP_PROBES probes
just after it starts and again once its inputs are built; ``setup_s`` is
the set-up time scaled from their trimmed mean to PROBE_REF_NS.
"""
from __future__ import annotations

import gc
import os
import platform
import signal
import statistics
import subprocess
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBE_PERIOD_S = 0.05
PROBE_ITERATIONS = 200  # about 0.15 ms per probe, 0.3% of the section
# setup_s is given in seconds on a nominal host where one set-up probe takes
# this long, about what it takes on the 2-core hosts this benchmark was built on.
PROBE_REF_NS = 150_000
SETUP_PROBES = 10  # probes at each end of a child's setup


def _loop(n):
    # Small frozensets built, hashed and counted in a dict, tuples appended:
    # the allocation-and-hashing mix of the library's own inner loops.  A
    # probe of pure arithmetic and dict hits reacted more strongly than the
    # workloads to the host's speed changes and over-corrected them.
    seen: dict = {}
    out = []
    for i in range(n):
        key = frozenset((i, i + 1, i & 7))
        seen[key] = seen.get(key, 0) + 1
        out.append((i, (i, i)))
    return len(out) + len(seen)


def host_loop_ns() -> int:
    'Best of three timings of a longer run of the probe loop, in nanoseconds.'
    best = None
    for _ in range(3):
        start = time.perf_counter_ns()
        _loop(4000)
        took = time.perf_counter_ns() - start
        best = took if best is None or took < best else best
    return best


def probe_ns() -> int:
    'One probe with the cyclic GC held off, in nanoseconds.'
    collecting = gc.isenabled()
    gc.disable()
    start = time.perf_counter_ns()
    _loop(PROBE_ITERATIONS)
    took = time.perf_counter_ns() - start
    if collecting:
        gc.enable()
    return took


def trimmed_mean(values):
    'Mean of the values left after dropping the lowest and highest 20%.'
    ordered = sorted(values)
    k = len(ordered) // 5
    return statistics.fmean(ordered[k:len(ordered) - k])


class HostSampler:
    """Time the block and probe the host's speed every PROBE_PERIOD_S inside it.

    On exit ``wall_ns`` is the block's time, ``samples`` the probe times in
    ns (one more probe runs after the block, so a block shorter than the
    period still has one) and ``wall_cal`` the block's time without its
    probes, in units of the probes' trimmed mean.
    """

    def __init__(self):
        self.samples: list[int] = []

    def _probe(self, *_):
        self.samples.append(probe_ns())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._start = time.perf_counter_ns()
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.wall_ns = time.perf_counter_ns() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        inside = sum(self.samples)
        self._probe()
        self.wall_cal = (self.wall_ns - inside) / trimmed_mean(self.samples)
        return False


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": git_sha(),
    }
