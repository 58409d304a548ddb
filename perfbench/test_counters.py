"""The exact per-layer counters repeat between two traced runs at one seed.

    python3 -m pytest perfbench/test_counters.py

Each case runs ``run.py --trace 1`` twice with the same seed and a one-second
measuring window (at least one untraced and one traced copy of the unit),
then compares every per-layer metric that is a count or a ratio of counts:
calls, memo hits, misses and sizes, ``partitions_of`` items, the
``enumerate_q`` yield and the span count.  Times and the tracing overhead are
left out; they are machine-dependent.  It takes about a minute, most of it
in the ``scale`` workload.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
COUNTERS = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "ratio")]


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout[-2000:]
    return {name: result["metrics"][name]["value"] for name in COUNTERS}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_counters_repeat_at_one_seed(workload):
    first = traced_run(workload, 11)
    second = traced_run(workload, 11)
    assert first == second
    assert any(first.values()), "the traced unit recorded nothing"
