"""One repetition of one workload in a fresh interpreter.

run.py starts this script once per repetition, so the library's
module-global pools and memo tables start empty every time.  It prints one
JSON object on its last stdout line:

* ``setup_ns``: from the parent's spawn timestamp (CLOCK_MONOTONIC, shared
  by both processes) until ``import idealforge`` and the inputs are done,
  without the set-up probes, and ``setup_probe_ns`` their trimmed mean;
* ``wall_ns``: the workload's timed section;
* ``wall_cal``: the same section in host-probe units (see host.py), with
  ``probe_ns`` the probes' trimmed mean and ``probe_samples_ns`` every probe;
* ``rss_kib``: this process's peak resident set (getrusage);
* ``attempted``/``failed``/``mismatches``/``error``: the output gate;
* traced repetitions add per-layer values (``trace.overhead_s`` among
  them, see tracer.py), the replay's time, the tallies of every traced
  function and the spans.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback

from host import SETUP_PROBES, SRC, HostSampler, probe_ns, trimmed_mean


def _gate(expected: dict, observed: dict) -> list[dict]:
    'Every pinned value must be observed as pinned, and every observation pinned.'
    bad = []
    for key in sorted(expected.keys() | observed.keys()):
        want = expected.get(key, "<not pinned>")
        got = observed.get(key, "<not observed>")
        if type(want) is not type(got) or want != got:
            bad.append({"check": key, "expected": want, "observed": got})
    return bad


def _broken(expected: dict, key: str) -> dict:
    'A copy with one pinned value made wrong, to prove the gate can fail.'
    if key not in expected:
        raise SystemExit(f"--break-expect: {key!r} is not a pinned check")
    wrong = dict(expected)
    value = wrong[key]
    wrong[key] = (not value) if isinstance(value, bool) else value + 1
    return wrong


def main(argv=None) -> int:
    begin = time.perf_counter_ns()
    setup_probes = [probe_ns() for _ in range(SETUP_PROBES)]
    probing_ns = time.perf_counter_ns() - begin
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", required=True)
    ap.add_argument("--traced", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawn-ns", type=int, required=True)
    ap.add_argument("--break-expect")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import idealforge  # noqa: F401  (all eight modules and numpy)
    import numpy

    import metrics
    import tracer
    import workloads
    from expected import EXPECTED

    if not idealforge.__file__.startswith(str(SRC)):
        raise SystemExit(f"imported idealforge from {idealforge.__file__}, not from {SRC}")

    workload = workloads.WORKLOADS[args.workload]
    params = workloads.PARAMS[args.scale][args.workload]
    expected = dict(EXPECTED[args.scale][args.workload])
    if not args.traced:
        expected = {k: v for k, v in expected.items() if not k.startswith("replay_")}
    if args.break_expect:
        expected = _broken(expected, args.break_expect)

    record: dict = {"numpy": numpy.__version__, "traced": bool(args.traced)}
    t = tracer.Tracer(metrics.REPEAT_TRACKED) if args.traced else tracer.Direct()
    observed: dict = {}
    try:
        inputs = workload.inputs(args.seed, params)
        record["setup_ns"] = time.perf_counter_ns() - args.spawn_ns - probing_ns
        setup_probes += [probe_ns() for _ in range(SETUP_PROBES)]
        record["setup_probe_ns"] = trimmed_mean(setup_probes)
        with HostSampler() as sampler, t.phase("drive"):
            observed, state = workload.drive(inputs, t)
        record["wall_ns"] = sampler.wall_ns
        record["wall_cal"] = sampler.wall_cal
        record["probe_ns"] = trimmed_mean(sampler.samples)
        record["probe_samples_ns"] = sampler.samples
        if args.traced:
            start = time.perf_counter_ns()
            with t.phase("replay"):
                observed.update(workload.replay(inputs, state, t))
            record["replay_ns"] = time.perf_counter_ns() - start
        record["error"] = None
    except Exception:  # the gate counts it; the parent keeps the traceback
        record["error"] = traceback.format_exc()
    record["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    mismatches = _gate(expected, observed) if record["error"] is None else []
    record["attempted"] = len(expected.keys() | observed.keys())
    record["failed"] = record["attempted"] if record["error"] else len(mismatches)
    record["mismatches"] = mismatches
    if args.traced:
        record["layers"] = {name: t.stat(name) for name, _ in metrics.LAYER_METRICS}
        record["layers"][metrics.OVERHEAD[0]] = t.overhead_ns() / 1e9
        record["tallies"] = t.tallies()
        record["spans"] = t.spans_json()
    print(json.dumps(record, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
