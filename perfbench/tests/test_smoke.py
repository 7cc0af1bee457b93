"""Smoke test of the benchmark: every workload runs briefly, and every
count-type result repeats exactly for a fixed seed.

    python3 -m pytest perfbench/tests -q

The count metrics are the scdf/cdf call counts, the candidate and refusal
shares, and the gate's fail counts.  Timings are not compared.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNTS = [m["name"] for m in SPEC["per_layer"]
          if m["unit"] == "count" or m["name"].startswith(("solver.candidate_share.",
                                                          "solver.refused_share"))]
SEED = 5


def bench(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    gate = json.loads(next(line for line in lines if line.startswith("gate "))[5:])
    return gate, json.loads(lines[-1])


@pytest.mark.parametrize("workload", ["solve", "verify", "cli"])
def test_workload_runs_and_gate_counts_repeat(workload):
    gate1, first = bench(workload, 0)
    gate2, second = bench(workload, 0)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in first["metrics"].values())
    assert gate1 == gate2
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])


def test_count_metrics_repeat():
    # every traced run makes the same fixed layer pass over all workloads
    _, first = bench("cli", 1)
    _, second = bench("cli", 1)
    assert COUNTS
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
