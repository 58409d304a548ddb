"""Repeat the benchmark and print each metric's spread against its bound.

    python3 perfbench/steady.py --workload suite                  # twice, seed 1
    python3 perfbench/steady.py --workload suite --seeds 1,2,3,4,5

Runs ``run.py --trace 0`` once per listed seed, one run at a time, and
prints each end-to-end metric's spread, calibrated and raw, against its
bound from ``BENCHMARK.json``.  With two or three runs the spread is
(max - min) / median; with four or more it is the distance between the
first and third quartiles (``statistics.quantiles(values, n=4)``) over the
median.  That the exact per-layer counters repeat is ``test_counters.py``'s
concern.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list) -> float:
    med = statistics.median(values)
    if not med:
        return 0.0
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return (q3 - q1) / abs(med)
    return (max(values) - min(values)) / abs(med)


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run failed ({proc.returncode}): {proc.stderr[-2000:]}")
    detail = json.loads(lines[-2].removeprefix("detail: "))
    return json.loads(lines[-1]), detail


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,1", help="comma-separated, one run each (default: 1,1)")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    runs = []
    for seed in seeds:
        result, detail = run_once(args.workload, seed, args.seconds)
        runs.append((seed, result, detail))
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} kernel_round_ms={detail['calibration']['kernel_round_ms']:.3f}",
              flush=True)

    ok = all(r["correct"] and r["failed"] == 0 for _, r, _ in runs)
    print(f"{'metric':16s} {'median':>12s} {'spread':>8s} {'bound':>6s} {'raw spread':>10s}   values")
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for _, r, _ in runs]
        raw = [d["raw"][m["name"]] for _, _, d in runs if m["name"] in d["raw"]]
        s = spread(values)
        raw_s = f"{spread(raw):10.3f}" if raw else f"{'-':>10s}"
        flag = "" if s <= m["bound"] / 3 else ("  > bound/3" if s <= m["bound"] else "  > BOUND")
        rel = " ".join(f"{v / statistics.median(values):.3f}" for v in values)
        print(f"{m['name']:16s} {statistics.median(values):12.6g} {s:8.3f} {m['bound']:6.2f} {raw_s}   {rel}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
