"""Smoke test of the benchmark itself, at the tiny scale (ten-odd seconds).

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

It checks that BENCHMARK.json, metrics.py, workloads.py and expected.py
name the same metrics and workloads, that a run prints every metric with
its unit and a well-formed result line, that a second seed passes the
gate, and that a deliberately wrong pinned count fails the run.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = ["--seed", "1", "--seconds", "1", "--scale", "tiny"]


def _run(*args):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=ROOT,
        capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout


def _result(stdout):
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_metric_lists_agree():
    sys.path.insert(0, str(ROOT / "src"))
    import run
    import workloads
    from expected import EXPECTED

    pairs = lambda entries: [(m["name"], m["unit"]) for m in entries]  # noqa: E731
    assert pairs(BENCH["end_to_end"]) == END_TO_END
    assert pairs(BENCH["per_layer"]) == PER_LAYER
    names = [w["name"] for w in BENCH["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    for scale in ("standard", "tiny"):
        assert list(workloads.PARAMS[scale]) == names == list(EXPECTED[scale])
    assert BENCH["command"] == ["python3", "perfbench/run.py"]


def test_every_metric_printed_with_unit():
    for workload in (w["name"] for w in BENCH["workloads"]):
        for trace, listed in (("0", BENCH["end_to_end"]), ("1", BENCH["per_layer"])):
            code, out = _run("--workload", workload, "--trace", trace, *RUN)
            result = _result(out)
            assert code == 0 and result["correct"], out
            assert result["attempted"] >= 1 and result["failed"] == 0
            printed = result["metrics"]
            assert list(printed) == [m["name"] for m in listed], workload
            for m in listed:
                assert printed[m["name"]]["unit"] == m["unit"]
                assert isinstance(printed[m["name"]]["value"], (int, float))
                assert any(
                    line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                    for line in out.splitlines()
                ), (workload, m["name"])


def test_wrong_expected_count_fails():
    code, out = _run("--workload", "embed-sweep", "--trace", "0",
                     "--break-expect", "systems", *RUN)
    result = _result(out)
    assert code != 0
    assert not result["correct"] and result["failed"] >= 1
    assert "MISMATCH systems" in out


def test_second_seed_passes_the_gate():
    code, out = _run("--workload", "algebra-mix", "--trace", "1",
                     "--seed", "2", "--seconds", "1", "--scale", "tiny")
    assert code == 0 and _result(out)["correct"], out


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} passed")
