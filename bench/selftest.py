"""Schema-only self-test of the benchmark; it checks no timings.

    python3 bench/selftest.py

It validates BENCHMARK.json against the benchmark contract and against the
metric names run.py and tracing.py produce, runs every workload for one
second with and without tracing and checks the shape of each result line,
and checks that a directory holding only the benchmark fails without a
result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import run
import tracing

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
E2E_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
             "peak_rss_mb": "MB", "setup_s": "s"}


def check_spec(spec: dict) -> None:
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, sorted(spec)
    assert 1 <= len(spec["command"]) <= 32
    assert all(isinstance(a, str) and len(a) <= 200 for a in spec["command"])
    assert 1 <= len(spec["paths"]) <= 16
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [w["name"] for w in spec["workloads"]]
    assert sorted(names) == sorted(run.WORKLOAD_NAMES), names
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}, m
        assert 0 < m["bound"] <= 0.25, m
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
    metrics = spec["end_to_end"] + spec["per_layer"]
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    all_names = names + [m["name"] for m in metrics]
    assert len(all_names) == len(set(all_names)), "names must be unique"
    for m in metrics:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m
        assert m["better"] in ("higher", "lower"), m
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert layer == tracing.layer_metric_names(), "per_layer differs from tracing.py"
    assert len(json.dumps(spec)) <= 64 * 1024


def check_result(line: str, expected: dict, ops: int) -> None:
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
    assert result["correct"] is True and result["failed"] == 0, result
    # one entry per operation and one for the output digest, whatever the passes
    assert result["attempted"] == ops + 1, (result["attempted"], ops)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, sorted(set(got) ^ set(expected))
    for m in result["metrics"].values():
        assert set(m) == {"value", "unit"} and isinstance(m["value"], (int, float))


def main() -> None:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    check_spec(spec)
    print("BENCHMARK.json: ok")
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for name in run.WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                spec["command"] + ["--workload", name, "--seed", "0", "--seconds", "1",
                                   "--trace", str(trace)],
                cwd=run.ROOT, capture_output=True, text=True, timeout=180)
            assert proc.returncode == 0, proc.stderr
            with open(run.OUT / f"{name}-seed0-trace{trace}.json") as fh:
                ops = json.load(fh)["env"]["ops_per_pass"]
            check_result(proc.stdout.strip().splitlines()[-1], expected[trace], ops)
            print(f"{name} --trace {trace}: ok")

    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for f in run.BENCH.iterdir():
        if f.is_file():
            shutil.copy(f, bare / "bench")
    proc = subprocess.run(spec["command"] + ["--workload", "oracle", "--seed", "0",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("without the package: fails without a result: ok")


if __name__ == "__main__":
    sys.exit(main())
