"""The littlewood benchmark.

    python3 perfbench/run.py --workload <suite|scale|cli-cold|session>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout: the library is imported from
``src/`` by each measured child process (``worker.py``), never installed.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
(``detail: {...}``) repeats every time metric raw, with sample counts,
per-kind medians and the calibration.  ``--trace 0`` reports the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` reports its per-layer metrics,
taken from children whose layer functions are wrapped (``tracer.py``).
See ``perfbench/README.md`` for the workloads and what each metric guards.
"""

from __future__ import annotations

import argparse
import base64
import bisect
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402

# Calibration.  The harness pins itself, and so every child, to one CPU, and
# times each child in CPU time.  Every child runs the kernel of worker.py
# before it imports the library, and sampler.py runs the same kernel every
# 50 ms beside the work on the same CPU.  With k the geometric mean of the
# kernel samples taken while a request ran (or of the nearest one on each
# side, if none was), its compute time is multiplied by REF_KERNEL_NS / k
# and its interpreter start and import time by (REF_KERNEL_NS / k) **
# IMPORT_ALPHA: import work follows the machine's speed less closely than
# the kernel does (fitted slope of log time on log k: 0.59-0.64 over 273
# cli commands, against 0.89 for warm queries).  A cli command is cold
# start-up work throughout, and its whole time takes IMPORT_ALPHA: the part
# after the import had a slope of 0.47 over 588 commands, and multiplying it
# by the full factor left calibrated times falling as k rose.  Calibrated
# times are thus those of a machine whose kernel round takes REF_KERNEL_NS;
# raw times are reported beside them.
REF_KERNEL_NS = 4_500_000
IMPORT_ALPHA = 0.6
# Set-up children, spread through the run: one per this much measured time.
SETUP_EVERY_S = 1.0
SETUP_FIRST = 3
# Every run must end within this many seconds of its start.
RUN_BUDGET_S = 170
# Queries in one traced session unit: the cold first pass and half a warm
# pass.  Fixed, so the counters repeat exactly.
SESSION_TRACE_QUERIES = len(W.SESSION_KINDS) * W.SESSION_POOL * 3 // 2
TAIL_BEYOND = 10


def clock() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least TAIL_BEYOND of n samples
    beyond it; 100 (the maximum) when that percentile would be below 75,
    that is with fewer than 40 samples."""
    for p in range(99, 74, -1):
        if n * (100 - p) / 100 >= TAIL_BEYOND:
            return p
    return 100


class Child:
    """One finished worker process, as the harness saw it."""

    def __init__(self, start_ns, end_ns, code, out, usage):
        self.code = code
        self.start_ns, self.end_ns = start_ns, end_ns
        self.rss_mb = usage.ru_maxrss / 1024
        lines = out.decode(errors="replace").splitlines()
        self.output = lines[:-1]
        try:
            self.report = json.loads(lines[-1])
        except (IndexError, ValueError):
            self.report = None
            self.output = lines
            return
        r = self.report
        self.kernel = [tuple(s) for s in r["kernel"]]
        # CPU time of the whole process, less its own kernel rounds.
        kernel_ns = sum(ns for _, ns in self.kernel)
        self.cpu_ns = round((usage.ru_utime + usage.ru_stime) * 1e9) - kernel_ns
        self.setup_ns = r["setup_cpu_ns"] - kernel_ns


class Request:
    """One timed operation: a child process, or one query of a session.
    `import_ns` is the part of `raw_ns` spent starting the interpreter and
    importing `littlewood.cli`."""

    __slots__ = ("kind", "start_ns", "end_ns", "raw_ns", "import_ns", "child", "cal_ns")

    def __init__(self, kind, start_ns, end_ns, raw_ns, child, import_ns=0):
        self.kind, self.start_ns, self.end_ns, self.raw_ns, self.child = kind, start_ns, end_ns, raw_ns, child
        self.import_ns = import_ns
        self.cal_ns = None


class Harness:
    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.started = clock()
        self.children: list[Child] = []
        self.setups: list[Request] = []
        self.samples: list[tuple[int, int]] = []
        self.since_setup_ns = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._layers = None
        self._expected_cli: dict[tuple, str] = {}
        # Session answers, first seen, by (kind, index): checked after the
        # measuring window, in this process (check_session).
        self._session_first: dict[tuple, str] = {}

    # -- processes ---------------------------------------------------------

    def spawn(self, cfg: dict) -> Child:
        """Run one worker to the end."""
        remaining = RUN_BUDGET_S - (clock() - self.started) / 1e9
        if remaining < 5:
            raise RuntimeError("run budget exhausted")
        cfg = dict(cfg, alarm_s=int(remaining))
        start = clock()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        try:
            out = proc.stdout.read()
            # wait4 reaps the child and returns its own CPU time and peak RSS.
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        child = Child(start, clock(), proc.returncode, out, usage)
        if child.report is None:
            self.problems.append(f"{cfg['mode']} worker exited {child.code}: " + " | ".join(child.output[-3:]))
        else:
            self.children.append(child)
            self.samples += child.kernel
        return child

    @contextlib.contextmanager
    def sampler(self):
        """sampler.py for the duration of the block; its samples join the
        children's kernel samples."""
        proc = subprocess.Popen([sys.executable, str(HERE / "sampler.py")], cwd=HERE,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            yield
        finally:
            try:
                out, _ = proc.communicate(timeout=30)  # closing stdin stops it
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise
        self.samples += [tuple(s) for s in json.loads(out)]

    def setup(self) -> None:
        """Fresh interpreter to `littlewood.cli` imported: one set-up sample."""
        child = self.spawn({"mode": "setup"})
        if child.report is not None:
            self.setups.append(Request("setup", child.start_ns, child.report["setup_end_ns"], child.setup_ns, child,
                                       import_ns=child.setup_ns))

    def measured(self, ns: int) -> None:
        """Count measured time; spawn a set-up child per SETUP_EVERY_S of it."""
        self.since_setup_ns += ns
        while self.since_setup_ns >= SETUP_EVERY_S * 1e9:
            self.since_setup_ns -= SETUP_EVERY_S * 1e9
            self.setup()

    def calibrate(self, requests: list) -> float:
        """Set cal_ns on every request; returns the geometric mean kernel."""
        samples = sorted(self.samples)
        times = [t for t, _ in samples]
        kernels = [k for _, k in samples]
        for req in requests:
            lo = bisect.bisect_left(times, req.start_ns)
            hi = bisect.bisect_right(times, req.end_ns)
            if hi == lo:  # no sample inside: the nearest one on each side
                lo, hi = max(lo - 1, 0), min(hi + 1, len(kernels))
            f = REF_KERNEL_NS / statistics.geometric_mean(kernels[lo:hi])
            req.cal_ns = (req.raw_ns - req.import_ns) * f + req.import_ns * f**IMPORT_ALPHA
        return statistics.geometric_mean(kernels)

    def layers(self):
        """The library, imported into the harness for the output checks."""
        if self._layers is None:
            sys.path.insert(0, str(ROOT / "src"))
            self._layers = W.load_layers()
        return self._layers

    def fail(self, ops: int, why: str) -> None:
        self.failed += ops
        if len(self.problems) < 20:
            self.problems.append(why)

    # -- units of work: each returns its requests ----------------------------

    def child_request(self, kind: str, child: Child, cold=False) -> list:
        """One child as one request; with `cold`, all of its time is
        calibrated as start-up work."""
        self.measured(child.cpu_ns)
        return [Request(kind, child.start_ns, child.end_ns, child.cpu_ns, child,
                        import_ns=child.cpu_ns if cold else child.setup_ns)]

    def suite(self, trace=False, spans=None) -> list:
        child = self.spawn({"mode": "suite", "trace": trace, "run_id": self.run_id("suite"),
                            "spans_path": spans and f"{spans}.jsonl"})
        self.attempted += len(W.CRITERIA)
        if child.report is None:
            self.fail(len(W.CRITERIA), "suite worker crashed")
            return []
        passed = child.report["passed"]
        if list(passed) != list(W.CRITERIA):
            self.fail(len(W.CRITERIA), f"criterion ids changed: {list(passed)}")
        bad = [cid for cid, ok in passed.items() if not ok]
        if bad:
            self.fail(len(bad), f"criteria failed: {bad}")
        return self.child_request("suite", child)

    def scale(self, trace=False, spans=None) -> list:
        out = []
        for case in W.SCALE_CASES:
            ops = W.scale_ops(case)
            self.attempted += ops
            child = self.spawn({"mode": "case", "case": case, "trace": trace, "run_id": self.run_id(case),
                                "spans_path": spans and f"{spans}-{case}.jsonl"})
            if child.report is None:
                self.fail(ops, f"{case} worker crashed")
                continue
            if not W.check_scale_case(self.layers(), case, child.report["result"]):
                self.fail(ops, f"{case}: wrong answer")
            out += self.child_request(case, child)
        return out

    def cli(self, index: int, trace=False, spans=None) -> list:
        out = []
        for k, argv in enumerate(W.cli_round(self.seed, index)):
            self.attempted += 1
            child = self.spawn({"mode": "cli", "argv": argv, "trace": trace, "run_id": self.run_id(argv[0]),
                                "spans_path": spans and f"{spans}-{k}.jsonl"})
            if child.report is None:
                self.fail(1, f"{argv} crashed")
                continue
            got = "\n".join(child.output)
            if child.code != 0:
                self.fail(1, f"{argv} exited {child.code}: {got[-200:]}")
            elif got != self.expected_cli(argv):
                self.fail(1, f"{argv}: output differs from the in-process answer")
            out += self.child_request(argv[0], child, cold=True)
        return out

    def expected_cli(self, argv: list) -> str:
        """The same command run inside the harness process."""
        key = tuple(argv)
        if key not in self._expected_cli:
            cli = self.layers().cli
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.run(argv)
            self._expected_cli[key] = buf.getvalue().rstrip("\n") if code == 0 else None
        return self._expected_cli[key]

    def session(self, trace=False, spans=None, budget=None, queries=None) -> list:
        child = self.spawn({"mode": "session", "seed": self.seed, "trace": trace, "run_id": self.run_id("session"),
                            "spans_path": spans and f"{spans}.jsonl", "budget_ns": budget, "queries": queries})
        if child.report is None:
            self.attempted += 1
            self.fail(1, "session worker crashed")
            return []
        r = child.report
        self.attempted += r["queries"]
        if r["failed"]:
            self.fail(r["failed"], f"session: {r['errors']}")
        for line in child.output:
            kind, i, answer = json.loads(line)
            text = json.dumps(answer)
            if self._session_first.setdefault((kind, i), text) != text:
                self.fail(1, f"session {kind} #{i}: answer differs between session processes")
        times, ends = (array("q", base64.b64decode(r[k])) for k in ("round_ns", "round_end_ns"))
        return [Request("round", end - ns, end, ns, child) for ns, end in zip(times, ends)]

    def check_session(self) -> None:
        """Cross-check every distinct session answer by a second route
        (workloads.check_query), here rather than in the measured session,
        whose spans and memos must hold only the session's own calls."""
        if not self._session_first:
            return
        stream = W.session_stream(self.seed)
        queries = {(kind, i): q for kind, i, q in (next(stream) for _ in range(len(W.SESSION_KINDS) * W.SESSION_POOL))}
        for (kind, i), text in sorted(self._session_first.items()):
            q = queries[(kind, i)]
            if not W.check_query(self.layers(), kind, q, json.loads(text)):
                self.fail(1, f"session {kind} {q}: check failed")

    def run_id(self, what: str) -> str:
        return f"{self.workload}/seed{self.seed}/{what}/{len(self.children)}"

    def unit(self, index: int, trace=False, spans=None) -> list:
        """One fixed unit of the workload, the same every time it runs."""
        if self.workload == "suite":
            return self.suite(trace, spans)
        if self.workload == "scale":
            return self.scale(trace, spans)
        if self.workload == "cli-cold":
            return self.cli(index, trace, spans)
        return self.session(trace, spans, queries=SESSION_TRACE_QUERIES)

    # -- the two kinds of run ----------------------------------------------

    def prepare(self) -> None:
        # Untimed: compiles the byte code once, as an installed package would.
        self.spawn({"mode": "setup"})
        self.children.clear()
        self.samples.clear()

    def measure(self) -> tuple[dict, dict]:
        """Untraced run: the end-to-end metrics."""
        with self.sampler():
            for _ in range(SETUP_FIRST):
                self.setup()
            deadline = clock() + self.seconds * 1_000_000_000
            requests = []
            if self.workload == "session":
                # The session process runs alone; its set-up samples come
                # before and after it.
                requests = self.session(budget=self.seconds * 1_000_000_000)
                self.measured(self.seconds * 1_000_000_000)
            else:
                index = 0
                while not requests or clock() < deadline:
                    requests += self.unit(index)
                    index += 1
        if not requests:
            raise RuntimeError("no request completed")
        self.check_session()
        kernel = self.calibrate(requests + self.setups)
        warmup = None
        if self.workload == "session":
            # The first pass computes every pool entry once; the session's
            # figures are those of the warm rounds after it.
            warmup, requests = requests[:W.SESSION_POOL], requests[W.SESSION_POOL:]
        metrics, raw = {}, {}
        n = len(requests)
        tail_pct = tail_percentile(n)
        for out, attr in ((metrics, "cal_ns"), (raw, "raw_ns")):
            lat = sorted(getattr(r, attr) / 1e9 for r in requests)
            out.update({
                "setup_s": statistics.median(getattr(r, attr) for r in self.setups) / 1e9,
                "latency_p50_s": statistics.median(lat),
                "latency_tail_s": statistics.quantiles(lat, n=100, method="inclusive")[tail_pct - 1] if tail_pct < 100 else lat[-1],
                "throughput_rps": n / sum(lat),
            })
        metrics["peak_rss_mb"] = max(c.rss_mb for c in self.children)
        by_kind: dict[str, list] = {}
        for r in requests:
            by_kind.setdefault(r.kind, []).append(r)
        detail = {
            "raw": raw,
            "calibration": self.calibration_detail(kernel),
            "samples": {"requests": n, "setup": len(self.setups), "tail_percentile": tail_pct},
            "kind_median_s": {k: {"calibrated": statistics.median(r.cal_ns for r in v) / 1e9,
                                  "raw": statistics.median(r.raw_ns for r in v) / 1e9, "n": len(v)}
                              for k, v in by_kind.items()},
        }
        if warmup:
            detail["session"] = {
                "first_pass_s": {"calibrated": sum(r.cal_ns for r in warmup) / 1e9, "raw": sum(r.raw_ns for r in warmup) / 1e9},
                "query_mean_raw_s": {k: ns / 1e9 for k, ns in requests[0].child.report["kind_mean_ns"].items()},
            }
        return metrics, detail

    def calibration_detail(self, kernel: float) -> dict:
        return {"samples": len(self.samples), "kernel_round_ms": kernel / 1e6, "ref_ms": REF_KERNEL_NS / 1e6,
                "cpu": sorted(os.sched_getaffinity(0))}

    def measure_traced(self, names: list) -> tuple[dict, dict]:
        """Traced run: alternate untraced and traced copies of one fixed
        unit; counters come from the traced copies and must repeat exactly.
        `names` are the per-layer metrics of BENCHMARK.json."""
        spans_dir = HERE / "out" / "spans" / f"{self.workload}-seed{self.seed}"
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir(parents=True)
        plain, traced = [], []
        with self.sampler():
            deadline = clock() + self.seconds * 1_000_000_000
            while not traced or clock() < deadline:
                plain.append(self.unit(0))
                traced.append(self.unit(0, trace=True, spans=None if traced else str(spans_dir / "unit0")))
        self.check_session()
        kernel = self.calibrate([r for unit in plain + traced for r in unit])
        summaries = [self.layer_metrics(unit, names) for unit in traced]
        counters = [{k: v for k, v in s.items() if not k.endswith("_s")} for s in summaries]
        if any(c != counters[0] for c in counters[1:]):
            self.fail(1, "exact counters differ between traced copies of the same unit")
        metrics = {name: statistics.median(s[name] for s in summaries) for name in summaries[0]}
        plain_s = statistics.median(sum(r.cal_ns for r in u) for u in plain) / 1e9
        traced_s = statistics.median(sum(r.cal_ns for r in u) for u in traced) / 1e9
        metrics["trace.overhead_pct"] = (traced_s / plain_s - 1) * 100
        detail = {
            "calibration": self.calibration_detail(kernel),
            "samples": {"pairs": len(traced)},
            "unit_s": {"untraced": plain_s, "traced": traced_s},
            "spans_dir": str(spans_dir.relative_to(ROOT)),
        }
        return metrics, detail

    def layer_metrics(self, unit: list, names: list) -> dict:
        """Per-layer metrics of one traced unit, summed over its processes.
        A function never called, or a memo that no longer exists, reads 0.
        A process's times take the calibration of its last request."""
        procs = {id(r.child): (r.child, r.cal_ns / r.raw_ns) for r in unit}.values()
        values: dict[str, float] = {}
        crit_ns: dict[str, float] = {}
        items = members = generated = 0
        for c, f in procs:
            t = c.report["trace"]
            for name, s in t["stats"].items():
                for stat, v in s.items():
                    key = f"{name}.{stat}"
                    if stat.endswith("_ns"):
                        key, v = key[:-3] + "_s", v * f / 1e9
                    values[key] = values.get(key, 0) + v
            for name, m in c.report["memos"].items():
                for stat in ("hits", "misses"):
                    values[f"{name}.{stat}"] = values.get(f"{name}.{stat}", 0) + m[stat]
                # Memos live per process: size is the largest one held.
                values[f"{name}.size"] = max(values.get(f"{name}.size", 0), m["size"])
            for cid, ns in t["criterion_ns"].items():
                crit_ns[cid] = crit_ns.get(cid, 0) + ns * f
            items += t["partitions_of_items"]
            members += t["enumerate_q_members"]
            generated += t["enumerate_q_generated"]
            values["trace.spans"] = values.get("trace.spans", 0) + t["spans"]
        values["cli.import_s"] = statistics.median(c.report["import_ns"] * f for c, f in procs) / 1e9
        values["partitions.partitions_of.items"] = items
        values["partitions.enumerate_q.yield"] = members / generated if generated else 0.0
        for cid in W.CRITERIA:
            values[f"acceptance.{cid}_s"] = crit_ns.get(cid, 0) / 1e9
        return {name: values.get(name, 0) for name in names if name != "trace.overhead_pct"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=W.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "littlewood" / "cli.py").is_file():
        print(f"error: no littlewood sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    # The machine's speed changes per CPU: measured processes and the
    # calibration samples must share one.  Children inherit the affinity.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    h = Harness(args.workload, args.seed, args.seconds)
    h.prepare()
    names = [m["name"] for m in wanted]
    metrics, detail = h.measure_traced(names) if args.trace else h.measure()
    if set(metrics) != set(names):
        print(f"error: metrics {sorted(set(metrics) ^ set(names))} disagree with BENCHMARK.json", file=sys.stderr)
        return 2
    detail.update(workload=args.workload, seed=args.seed, problems=h.problems)
    print("detail: " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": h.failed == 0 and not h.problems,
        "attempted": h.attempted,
        "failed": h.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
