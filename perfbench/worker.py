"""One measured child process of the benchmark.

Usage: ``python3 perfbench/worker.py '<json config>'`` (the harness in
``run.py`` builds the config).  The process runs the calibration kernel
first, then imports ``littlewood.cli`` from ``src/``, optionally wraps the
layer functions for tracing, runs one unit of a workload and prints a JSON
report as the last line of its standard output.

The kernel runs before anything else is imported: once library code has run,
its memo-filled heap and the garbage collector would slow the kernel by an
amount that depends on the workload, and the calibration would then measure
the workload instead of the machine.
"""

import sys
import time
from array import array

KERNEL_ROUNDS = 5
KERNEL_SIZE = 21


def _clock() -> int:
    # CLOCK_MONOTONIC is one system-wide clock, so the harness can place the
    # timestamps reported here on the same time line as its own.
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _kernel_round(n: int) -> int:
    """Pure-Python work shaped like the library's: a recursive partition
    generator that builds tuples and accumulates integer products in a dict."""
    acc = {}

    def rec(left, bound, prefix):
        if left == 0:
            key = tuple(prefix)
            acc[len(key)] = acc.get(len(key), 0) + sum(a * b for a, b in zip(key, key[1:]))
            return
        for p in range(min(bound, left), 0, -1):
            prefix.append(p)
            rec(left - p, p, prefix)
            prefix.pop()

    rec(n, n, [])
    return sum(acc.values())


def calibrate() -> list:
    """Kernel rounds as (CLOCK_MONOTONIC ns at mid-round, CPU ns)."""
    samples = []
    for _ in range(KERNEL_ROUNDS):
        start = _clock()
        cpu = time.process_time_ns()
        _kernel_round(KERNEL_SIZE)
        samples.append(((start + _clock()) // 2, time.process_time_ns() - cpu))
    return samples


def main() -> int:
    kernel = calibrate()

    import json
    import os
    import signal

    cfg = json.loads(sys.argv[1])
    # A hung unit must not outlive the harness's time budget; SIGALRM's
    # default action ends the process.
    signal.alarm(max(1, int(cfg["alarm_s"])))
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))

    import_start = time.process_time_ns()
    import littlewood.cli  # noqa: F401  (the set-up every command pays)

    report = {
        "kernel": kernel,
        "import_ns": time.process_time_ns() - import_start,
        # CPU time from process start to `littlewood.cli` imported, and when.
        "setup_cpu_ns": time.process_time_ns(),
        "setup_end_ns": _clock(),
    }
    sys.path.insert(0, here)
    import workloads

    layers = workloads.load_layers()
    tracer = None
    if cfg.get("trace"):
        from tracer import Tracer

        tracer = Tracer(cfg["run_id"])
        tracer.install(layers)

    code = 0
    mode = cfg["mode"]
    if mode == "setup":
        pass
    elif mode == "suite":
        acceptance = layers.acceptance
        report["passed"] = {cid: acceptance.run_criterion(cid).passed for cid in acceptance.criterion_ids()}
    elif mode == "case":
        report["result"] = workloads.run_scale_case(layers, cfg["case"])
    elif mode == "cli":
        # `python -m littlewood.cli` has no __main__ guard and exits 0 without
        # doing anything, and the console script may not be installed, so
        # the command goes straight through littlewood.cli.main.
        sys.argv = ["littlewood", *cfg["argv"]]
        try:
            layers.cli.main()
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        sys.stdout.flush()
    elif mode == "session":
        report.update(_session(layers, workloads, cfg, tracer))
    else:
        raise ValueError(f"unknown worker mode {mode}")

    if tracer is not None:
        from tracer import memo_stats

        report["trace"] = tracer.summary()
        report["memos"] = memo_stats(layers)
        if cfg.get("spans_path"):
            tracer.write(cfg["spans_path"])
    print(json.dumps(report))
    return code


def _session(layers, workloads, cfg, tracer) -> dict:
    """Warm queries until the CPU-time budget or the query limit, whichever
    comes first.  Each query is timed in thread CPU time; the report holds
    one time and one CLOCK_MONOTONIC end per round of SESSION_KINDS (a last,
    incomplete round is not reported), and the raw mean time of each kind.

    The first answer to each distinct query goes to standard output as a
    JSON line ``[kind, index, answer]``; the harness checks it in its own
    process, so the checks neither call the (possibly wrapped) library here
    nor fill its memos.  A repeat must give the first answer again, which
    catches a memo whose shared result a caller has mutated; only a hash of
    the first answer is kept, so the check adds nothing to the peak RSS.
    Neither the output nor the comparison is timed."""
    import json

    budget = cfg.get("budget_ns")
    limit = cfg.get("queries")
    kinds = workloads.SESSION_KINDS
    # Compact arrays, per round: per-query Python ints would make the peak
    # RSS grow with the number of queries run.
    round_ns, round_end = array("q"), array("q")
    kind_ns = dict.fromkeys(kinds, 0)
    # The budget counts warm queries only, so every run gets past the first
    # pass over the pool whatever the machine's speed.
    warm_from = len(kinds) * workloads.SESSION_POOL
    first, errors = {}, []
    failed = busy = this_round = 0
    for n, (kind, i, q) in enumerate(workloads.session_stream(cfg["seed"]), 1):
        if tracer is not None:
            tracer.request = n
        start = time.thread_time_ns()
        try:
            result = workloads.run_query(layers, kind, q)
        except Exception as exc:  # counted as a failed operation, run goes on
            ns = time.thread_time_ns() - start
            failed += 1
            errors.append(f"{kind} {q}: {exc!r}")
        else:
            ns = time.thread_time_ns() - start
            text = json.dumps(result)
            key = (kind, i)
            if key not in first:
                first[key] = hash(text)
                print(json.dumps([kind, i, result]))
            elif first[key] != hash(text):
                failed += 1
                errors.append(f"{kind} {q}: repeat differs from the first answer")
        kind_ns[kind] += ns
        this_round += ns
        if n > warm_from:
            busy += ns
        if n % len(kinds) == 0:
            round_ns.append(this_round)
            round_end.append(_clock())
            this_round = 0
        if (limit and n >= limit) or (budget and busy >= budget):
            break
    counts = {k: n // len(kinds) + (j < n % len(kinds)) for j, k in enumerate(kinds)}
    return {"round_ns": _packed(round_ns), "round_end_ns": _packed(round_end), "queries": n,
            "kind_mean_ns": {k: kind_ns[k] / counts[k] for k in kinds},
            "failed": failed, "errors": errors[:5], "distinct": len(first)}


def _packed(values: array) -> str:
    """An array as base64 text, small enough not to move the peak RSS."""
    import base64

    return base64.b64encode(values.tobytes()).decode()


if __name__ == "__main__":
    sys.exit(main())
