"""Benchmark idealforge's verification sweeps, end to end and layer by layer.

    python3 perfbench/run.py --workload embed-sweep --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28 --trace 0

Each repetition runs in a fresh child interpreter (child.py), one at a
time, as a closed loop: the next starts only when the previous has exited.
A run keeps starting repetitions while the next one, predicted from the
median of those before it, still ends within --seconds per workload.
``--workload all`` interleaves the workloads repetition by repetition, so
that host drift does not land on one of them, and prints every metric of
every workload, failed_ratio and the raw wall_s included.

--trace 0 runs untraced repetitions and reports the end-to-end metrics.
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics plus trace.overhead_s.  The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics; the exit code
is 0 only when every check of every repetition passed.  A fuller record of
each run, with the environment, every repetition and the spans of one
traced repetition, is written under .perfbench_out/.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import host
from metrics import END_TO_END, PER_LAYER

HERE = Path(__file__).resolve().parent
OUT = host.ROOT / ".perfbench_out"
WORKLOADS = ("embed-sweep", "hierarchy-sweep", "oracle-sweep", "algebra-mix")
# A one-workload run must end within 180 s: a stuck repetition is killed
# once the run is this far past its start (past its deadline, for longer runs).
RUN_LIMIT_S = 170
# Children stay single-threaded: no BLAS thread pool beside the workload.
CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}


def _repetition(name, args, traced, deadline):
    'Run one child to completion and return its record.'
    timeout = max(5.0, deadline + max(RUN_LIMIT_S - args.seconds, 0) - time.monotonic())
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", name, "--seed", str(args.seed),
        "--scale", args.scale, "--traced", str(int(traced)),
    ]
    if args.break_expect:
        cmd += ["--break-expect", args.break_expect]
    begin = time.monotonic()
    cmd += ["--spawn-ns", str(time.perf_counter_ns())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, env=CHILD_ENV)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "error": f"repetition killed after {timeout:.0f} s"}
    took = time.monotonic() - begin
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"traced": traced, "error": f"exit {proc.returncode}: " + " | ".join(tail)}
    record["took_s"] = took
    return record


def measure(names, args):
    'Repetitions of each (workload, traced) slot, round-robin, until time is up.'
    kinds = (False, True) if args.trace else (False,)
    slots = [(name, traced) for name in names for traced in kinds]
    records = {slot: [] for slot in slots}
    deadline = time.monotonic() + args.seconds * len(names)
    while True:
        for slot in slots:
            done = records[slot]
            if done:
                predicted = statistics.median(r["took_s"] for r in done)
                if time.monotonic() + predicted > deadline:
                    return records
            record = _repetition(slot[0], args, slot[1], deadline)
            done.append(record)
            if "took_s" not in record:  # crashed or killed: nothing more to learn
                return records


def summarize(records):
    'End-to-end and per-layer values of one workload, medians over repetitions.'
    ok = [r for r in records if r.get("error") is None and "wall_ns" in r]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    out = {
        "attempted": sum(r.get("attempted", 1) for r in records),
        "failed": sum(r.get("failed", 1) for r in records),
        "plain_reps": len(plain),
        "traced_reps": len(traced),
        "errors": [r["error"] for r in records if r.get("error")],
        "mismatches": [m for r in records for m in r.get("mismatches", [])][:20],
        "e2e": {},
        "layers": {},
    }
    if plain:
        out["e2e"] = {
            "wall_cal": statistics.median(r["wall_cal"] for r in plain),
            "setup_s": statistics.median(
                r["setup_ns"] * host.PROBE_REF_NS / r["setup_probe_ns"] for r in plain
            ) / 1e9,
            "peak_rss_mb": statistics.median(r["rss_kib"] for r in plain) / 1024,
        }
        out["wall_s"] = statistics.median(r["wall_ns"] for r in plain) / 1e9
        out["setup_raw_s"] = statistics.median(r["setup_ns"] for r in plain) / 1e9
        probes = [r["probe_ns"] / 1e6 for r in plain]
        out["probe_ms"] = [statistics.median(probes), min(probes), max(probes)]
    if traced:
        out["layers"] = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name, _ in PER_LAYER
        }
    return out


def _print_summary(name, s, args):
    units = dict(END_TO_END + PER_LAYER)
    print(f"{name}  seed {args.seed}  scale {args.scale}  "
          f"{s['plain_reps']} untraced + {s['traced_reps']} traced repetitions")
    for key, value in s["e2e"].items():
        print(f"  {key:<44} {value:>14.6g} {units[key]}")
    if "wall_s" in s:
        med, lo, hi = s["probe_ms"]
        print(f"  {'wall_s (raw, host drift not removed)':<44} {s['wall_s']:>14.6g} s")
        print(f"  {'setup_s (raw, host drift not removed)':<44} {s['setup_raw_s']:>14.6g} s")
        print(f"  {'probe_ms (trimmed mean; min .. max over reps)':<44} {med:>14.6g} ms  {lo:.4g} .. {hi:.4g}")
    ratio = s["failed"] / s["attempted"] if s["attempted"] else 1.0
    print(f"  {'failed_ratio':<44} {ratio:>14.6g} fraction  "
          f"({s['failed']} of {s['attempted']} checks)")
    for key, value in s["layers"].items():
        print(f"  {key:<44} {value:>14.6g} {units[key]}")
    for m in s["mismatches"]:
        print(f"  MISMATCH {m['check']}: expected {m['expected']!r}, observed {m['observed']!r}")
    for e in s["errors"]:
        print("  ERROR " + e.strip().replace("\n", "\n        "))


def _write_record(name, args, records, summary, started_loop_ns, env):
    OUT.mkdir(exist_ok=True)
    traced = [r for r in records if r.get("traced") and "spans" in r]
    spans = traced[-1]["spans"] if traced else []
    reps = [{k: v for k, v in r.items() if k != "spans"} for r in records]
    numpy_version = next((r["numpy"] for r in records if "numpy" in r), None)
    path = OUT / f"{name}-seed{args.seed}-{args.scale}-trace{args.trace}.json"
    path.write_text(json.dumps({
        "workload": name, "seed": args.seed, "scale": args.scale, "trace": args.trace,
        "seconds": args.seconds, "environment": {**env, "numpy": numpy_version},
        "host_loop_ns_at_start": started_loop_ns, "summary": summary,
        "repetitions": reps, "spans_of_last_traced_repetition": spans,
    }, indent=1, default=str))
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("standard", "tiny"), default="standard",
                    help="tiny is for selftest.py")
    ap.add_argument("--break-expect", metavar="CHECK",
                    help="make one pinned value wrong, to show that the gate fails")
    args = ap.parse_args(argv)

    if not (host.SRC / "idealforge" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {host.SRC}", file=sys.stderr)
        return 2

    env = host.environment()
    started_loop_ns = host.host_loop_ns()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    print(f"perfbench: python {env['python']}, {env['cores']} cores, "
          f"git {env['git_sha'] or 'n/a'}, "
          f"host loop at start {started_loop_ns / 1e6:.3f} ms")
    by_slot = measure(names, args)

    attempted = failed = 0
    metrics = {}
    missing = []
    wanted = PER_LAYER if args.trace else END_TO_END
    for name in names:
        records = [r for (n, _), rs in by_slot.items() if n == name for r in rs]
        summary = summarize(records)
        _print_summary(name, summary, args)
        path = _write_record(name, args, records, summary, started_loop_ns, env)
        print(f"  record: {path.relative_to(host.ROOT)}")
        attempted += summary["attempted"]
        failed += summary["failed"]
        values = {**summary["e2e"], **summary["layers"]}
        prefix = "" if len(names) == 1 else f"{name}."
        for key, unit in wanted:
            if key in values:
                metrics[prefix + key] = {"value": values[key], "unit": unit}
            else:
                missing.append(prefix + key)
        if len(names) > 1:
            metrics[prefix + "failed_ratio"] = {
                "value": summary["failed"] / max(summary["attempted"], 1), "unit": "fraction",
            }
    correct = failed == 0 and not missing
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
