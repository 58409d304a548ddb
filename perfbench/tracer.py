"""Spans around the library's public functions, recorded from outside.

The tracer replaces module attributes and class methods of the layer modules
with wrappers in the benchmark's own processes; nothing in ``src/`` changes.
Spans live in memory as ``[name, start_ns, end_ns, parent, request, extra]``
and are summarised (and optionally written) when the process ends.  Their
clock is the thread's CPU time, like every time the benchmark measures.
"""

from __future__ import annotations

import functools
import json
import time

# (layer module, attribute or Class.method).  Spans of these give calls,
# self time and total time.  RootSystem.height is only counted: it is a
# two-line helper called once per support weight on every pass of
# decompose_character, where a span per call would cost more than the call.
SPANNED = (
    ("cli", "main"),
    ("acceptance", "run_criterion"),
    ("resolutions", "g2_equivariant_resolution"),
    ("resolutions", "run_audit"),
    ("characters", "schur_character"),
    ("characters", "decompose_character"),
    ("characters", "Character.__mul__"),
    ("characters", "weight_multiplicities"),
    ("partitions", "enumerate_q"),
    ("partitions", "partitions_of"),
    ("partitions", "plethysm_wedge_power"),
    ("partitions", "lr_coefficient"),
    ("partitions", "skew_schur_expand"),
    ("bott", "bott"),
    ("complexes", "branch_gl_to_iso"),
    ("complexes", "verify_littlewood_identity"),
)
COUNTED = (("characters", "RootSystem.height"),)
# Spans whose `extra` field holds the length of the returned list.
SIZED = {"partitions.partitions_of", "partitions.enumerate_q"}
# Spans whose `extra` field holds the first argument (the criterion id).
LABELLED = {"acceptance.run_criterion"}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.request = 0

    def install(self, layers) -> None:
        """Wrap every target in the layer modules (a namespace of modules)."""
        modules = [getattr(layers, name) for name in vars(layers)]
        for mod_name, attr in SPANNED + COUNTED:
            name = f"{mod_name}.{attr}"
            make = self._span_wrapper if (mod_name, attr) in SPANNED else self._count_wrapper
            owner = getattr(layers, mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, make(name, cls.__dict__[meth]))
                continue
            original = getattr(owner, attr)
            wrapped = make(name, original)
            # `from .partitions import lr_coefficient` binds the function in
            # partitions, complexes, resolutions and cli alike; a call through
            # any unwrapped binding would lose its span and its children's
            # parent, so every binding of the same object is replaced.
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def _span_wrapper(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.thread_time_ns
        sized, labelled = name in SIZED, name in LABELLED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1] if stack else -1, self.request, args[0] if labelled else None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if sized:
                    rec[5] = len(result)
                return result
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def _count_wrapper(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def summary(self) -> dict:
        """Per-name calls, total and self time (ns), plus derived counters.

        Self time is a span's duration minus the durations of its direct
        children; calls never overlap inside one process, so the children
        of a span cover disjoint parts of it."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        stats: dict[str, dict] = {}
        for i, (name, start, end, _, _, extra) in enumerate(spans):
            s = stats.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            s["calls"] += 1
            s["total_ns"] += end - start
            s["self_ns"] += end - start - child_ns[i]
        for name, n in self.counts.items():
            stats[name] = {"calls": n}
        by_criterion: dict[str, int] = {}
        items = 0
        q_members = q_generated = 0
        for name, start, end, parent, _, extra in spans:
            if name == "acceptance.run_criterion":
                by_criterion[extra] = by_criterion.get(extra, 0) + end - start
            elif name == "partitions.enumerate_q":
                q_members += extra
            elif name == "partitions.partitions_of":
                items += extra
                if self._inside(parent, "partitions.enumerate_q"):
                    q_generated += extra
        return {
            "stats": stats,
            "criterion_ns": by_criterion,
            "partitions_of_items": items,
            "enumerate_q_members": q_members,
            "enumerate_q_generated": q_generated,
            "spans": len(spans),
        }

    def _inside(self, idx: int, name: str) -> bool:
        while idx >= 0:
            if self.spans[idx][0] == name:
                return True
            idx = self.spans[idx][3]
        return False

    def write(self, path: str) -> None:
        """All spans as JSON lines, after a header with the run id."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"run": self.run_id, "fields": ["name", "start_ns", "end_ns", "parent", "request", "extra"]}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def memo_stats(layers) -> dict:
    """``cache_info()`` of every memo in the layer modules, found by scanning
    module attributes, so a memo added or removed later is picked up."""
    out = {}
    for name in vars(layers):
        for value in vars(getattr(layers, name)).values():
            info = getattr(value, "cache_info", None)
            if callable(info):
                key = f"{value.__module__.rsplit('.', 1)[-1]}.{value.__qualname__}"
                ci = info()
                out[key] = {"hits": ci.hits, "misses": ci.misses, "size": ci.currsize}
    return out
