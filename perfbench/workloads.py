"""Inputs of the four benchmark workloads and the harness-side checks.

Everything here is stdlib only and imports nothing from ``littlewood`` at
module level: worker processes import this file after their calibration
kernel, and the harness imports it before it imports the library.  The
layer modules (``load_layers()``) are passed in where an input has to be
executed or checked.
"""

from __future__ import annotations

import importlib
import itertools
import json
import random
import types
from math import comb

WORKLOADS = ("suite", "scale", "cli-cold", "session")
# The library's modules as they stack, bottom first.
LAYERS = ("partitions", "characters", "bott", "complexes", "resolutions", "acceptance", "cli")


def load_layers() -> types.SimpleNamespace:
    """The layer modules by name.

    ``littlewood.bott`` is the *function*, not the module: the package
    re-exports ``bott``, and that attribute shadows the submodule, so
    ``import littlewood.bott as B`` binds the function too.
    ``importlib.import_module`` returns the module itself."""
    return types.SimpleNamespace(**{name: importlib.import_module(f"littlewood.{name}") for name in LAYERS})


# ---------------------------------------------------------------------------
# suite: the acceptance registry, in its own order
CRITERIA = (
    "g2-y2", "g2-y1", "e6-betti", "f4-betti", "littlewood-sweep", "qset-oracle",
    "spin-bott", "spinor-complexes", "dims", "koszul", "quadrics",
)

# ---------------------------------------------------------------------------
# scale: fixed large inputs, each run cold in its own interpreter

SCALE_CASES = ("qset", "pleth", "skew", "mults", "branch")
QSET_SIZE = 50
QSET_MEMBERS = 142
PLETH_K, PLETH_FORM, PLETH_DIM_E = 6, "alternating", 8
SKEW_OUTER, SKEW_INNER = (8, 7, 6, 5, 4, 3, 2, 1), (4, 3, 2, 1)
SKEW_TOTAL = 9133
E8_TOP = (1, 0, 0, 0, 0, 0, 0, 1)
E8_DIM = 779_247
# Oracle branchings inside the stable range (len(lambda) <= rank), so the
# combinatorial rule is an independent route to the same answer.
BRANCH_CALLS = (
    ((4, 2, 1, 1), "sp:8"),
    ((3, 3, 2), "o:9"),
    ((4, 2, 2), "o:8"),
    ((5, 2, 1), "o:7"),
)


def run_scale_case(lw, name: str):
    """Compute one scale case; returns a JSON-able summary for the harness."""
    if name == "qset":
        return [list(p.parts) for p in lw.partitions.enumerate_q("minus", QSET_SIZE)]
    if name == "pleth":
        dec = lw.partitions.plethysm_wedge_power(PLETH_K, PLETH_FORM, PLETH_DIM_E)
        return sorted([list(p.parts), m] for p, m in dec.entries.items())
    if name == "skew":
        dec = lw.partitions.skew_schur_expand(SKEW_OUTER, SKEW_INNER)
        return sorted([list(p.parts), m] for p, m in dec.entries.items())
    if name == "mults":
        rs = lw.characters.build_root_system("E", 8)
        char = lw.characters.weight_multiplicities(rs, E8_TOP)
        return {"mass": sum(char.entries.values()), "weights": len(char.entries)}
    if name == "branch":
        out = []
        for lam, target in BRANCH_CALLS:
            dec = lw.complexes.branch_gl_to_iso(lam, target, oracle=True)
            out.append(sorted([list(p.parts), m] for p, m in dec.entries.items()))
        return out
    raise ValueError(f"unknown scale case {name}")


def scale_ops(name: str) -> int:
    return len(BRANCH_CALLS) if name == "branch" else 1


def check_scale_case(lw, name: str, result) -> bool:
    """Known answers, computed by routes that do not share the timed code."""
    if name == "qset":
        return (
            len(result) == QSET_MEMBERS
            and all(sum(p) == QSET_SIZE and in_q_minus(p) for p in result)
            and result == sorted(result)
            and len({tuple(p) for p in result}) == QSET_MEMBERS
        )
    if name == "pleth":
        # Support: the size-2k Q-minus shapes with at most dimE rows, each
        # once; dimension: that of the k-th exterior power of wedge^2 C^dimE.
        expect = sorted(p for p in q_minus_shapes(2 * PLETH_K) if len(p) <= PLETH_DIM_E)
        pairs_dim = comb(PLETH_DIM_E * (PLETH_DIM_E - 1) // 2, PLETH_K)
        return (
            [p for p, _ in result] == expect
            and all(m == 1 for _, m in result)
            and sum(m * schur_dim(p, PLETH_DIM_E) for p, m in result) == pairs_dim
        )
    if name == "skew":
        size = sum(SKEW_OUTER) - sum(SKEW_INNER)
        return sum(m for _, m in result) == SKEW_TOTAL and all(sum(p) == size for p, _ in result)
    if name == "mults":
        return result["mass"] == E8_DIM
    if name == "branch":
        for (lam, target), got in zip(BRANCH_CALLS, result, strict=True):
            rule = lw.complexes.branch_gl_to_iso(lam, target)
            if got != sorted([list(p.parts), m] for p, m in rule.entries.items()):
                return False
        return True
    raise ValueError(f"unknown scale case {name}")


def in_q_minus(parts) -> bool:
    """Q-minus membership by Frobenius coordinates: every diagonal hook has
    leg one longer than its arm.  Independent of the library's hook peeling."""
    parts = list(parts)
    conj = [sum(1 for p in parts if p > j) for j in range(parts[0])] if parts else []
    rank = sum(1 for i, p in enumerate(parts) if p > i)
    return all(conj[i] == parts[i] + 1 for i in range(rank))


def q_minus_shapes(size: int) -> list[list[int]]:
    """Q-minus shapes of the given size, built from Frobenius coordinates
    (a_i | a_i + 1) with strictly decreasing arms."""
    out = []

    def rec(remaining, max_arm, arms):
        if remaining == 0:
            out.append(_from_frobenius(arms, [a + 1 for a in arms]))
            return
        for a in range(min(max_arm, (remaining - 2) // 2), -1, -1):
            rec(remaining - (2 * a + 2), a - 1, arms + [a])

    rec(size, size, [])
    return out


def _from_frobenius(arms, legs) -> list[int]:
    r = len(arms)
    if not r:
        return []
    rows = [i + 1 + arms[i] for i in range(r)]
    for i in range(r, legs[0] + 1):
        rows.append(sum(1 for j in range(r) if j + 1 + legs[j] > i))
    return rows


def schur_dim(parts, m: int) -> int:
    """dim S_lambda(C^m) by the Weyl product over pairs of rows."""
    lam = list(parts) + [0] * (m - len(parts))
    if len(lam) > m:
        return 0
    num = den = 1
    for i in range(m):
        for j in range(i + 1, m):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    return num // den


# ---------------------------------------------------------------------------
# random small inputs shared by cli-cold and session


def _partition(rng: random.Random, size: int, max_len: int | None = None) -> list[int]:
    while True:
        parts, left = [], size
        while left:
            p = rng.randint(1, min(left, parts[-1] if parts else left))
            parts.append(p)
            left -= p
        if max_len is None or len(parts) <= max_len:
            return sorted(parts, reverse=True)


def _sub_partition(rng: random.Random, outer: list[int], size: int) -> list[int]:
    """A partition of `size` contained in `outer`, built by removing corners."""
    cur = list(outer)
    while sum(cur) > size:
        corners = [i for i in range(len(cur)) if i == len(cur) - 1 or cur[i] > cur[i + 1]]
        i = rng.choice(corners)
        cur[i] -= 1
        if cur[i] == 0:
            cur.pop()
    return cur


def _fmt(parts) -> str:
    return ",".join(map(str, parts)) if parts else "-"


# Small enough that the Freudenthal mass can cross-check every Weyl dimension.
_DIM_TYPES = (("G", 2), ("B", 2), ("A", 4), ("B", 3), ("C", 3), ("D", 4))
_MULT_TYPES = (("G", 2), ("A", 2), ("B", 2), ("C", 2), ("A", 3), ("B", 3), ("C", 3))
_BOTT_TYPES = (("D", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("A", 3))
_BRACKET_CASES = (("G2", 2), ("F4_3", 3), ("E6_3", 3), ("E6_5", 5), ("E7_6", 6), ("E8_7", 7), ("SpC(3)", 3), ("OD(4)", 4), ("SOB(3)", 3))
_SLICE_CASES = ("G2", "F4_3", "E6_3", "SpC(2)", "SOB(2)", "OD(3)")
_AUDITS = ("g2-y1", "f4-cone", "e6-cone", "e8-start")
_HILBERT = (("e6-cone", 10), ("f4-cone", 10), ("g2-y1", 7))


def _stable_target(rng: random.Random, rows: int) -> tuple[str, str, int]:
    """(family, target, rank) with rank > rows, inside every stable range."""
    n = rows + rng.randint(1, 2)
    family = rng.choice("BCD")
    target = {"B": f"o:{2 * n + 1}", "C": f"sp:{2 * n}", "D": f"o:{2 * n}"}[family]
    return family, target, n


# Every kind is drawn from the same generator; the workloads fix the mix.
def draw(kind: str, rng: random.Random) -> dict:
    """One query of the given kind: a dict of plain values."""
    if kind == "dim":
        fam, rank = rng.choice(_DIM_TYPES)
        top = 2 if rank == 2 else 1
        return {"type": f"{fam}{rank}", "weight": [rng.randint(0, top) for _ in range(rank)]}
    if kind == "mults":
        fam, rank = rng.choice(_MULT_TYPES)
        top = 3 if rank == 2 else 1
        return {"type": f"{fam}{rank}", "weight": [rng.randint(0, top) for _ in range(rank)]}
    if kind == "lr":
        lam = _partition(rng, rng.randint(6, 9))
        k = rng.randint(1, sum(lam) - 1)
        mu = _sub_partition(rng, lam, k)
        nu = _sub_partition(rng, lam, sum(lam) - k)
        return {"lam": lam, "mu": mu, "nu": nu}
    if kind == "skew":
        outer = _partition(rng, rng.randint(8, 10), max_len=5)
        inner = _sub_partition(rng, outer, rng.randint(2, 4))
        return {"outer": outer, "inner": inner}
    if kind == "qset":
        # One size: enumerate_q filters all p(size) partitions, so its cost
        # is set by the size alone and would otherwise follow the seed.
        return {"variant": rng.choice(("minus", "plus")), "size": 16}
    if kind == "branch":
        lam = _partition(rng, rng.randint(3, 6), max_len=3)
        _, target, _ = _stable_target(rng, len(lam))
        return {"lam": lam, "target": target}
    if kind in ("lwood", "verify-lwood"):
        lam = _partition(rng, rng.randint(2, 5), max_len=3)
        family, _, n = _stable_target(rng, len(lam))
        return {"family": family, "lam": lam, "n": n}
    if kind == "bott":
        fam, rank = rng.choice(_BOTT_TYPES)
        return {"type": f"{fam}{rank}", "weight": [rng.randint(-3, 3) for _ in range(rank)]}
    if kind == "bracket":
        case, rows = rng.choice(_BRACKET_CASES)
        return {"case": case, "lam": _partition(rng, rng.randint(1, 6), max_len=rows)}
    if kind == "slice":
        return {"case": rng.choice(_SLICE_CASES), "degree": rng.randint(1, 4)}
    if kind == "hilbert":
        case, codim = rng.choice(_HILBERT)
        return {"case": case, "codim": codim}
    if kind == "audit":
        return {"case": rng.choice(_AUDITS)}
    raise ValueError(f"unknown query kind {kind}")


# ---------------------------------------------------------------------------
# cli-cold: one fresh interpreter per command

# One round runs each kind once, in this order; the seed picks the inputs.
CLI_KINDS = (
    "dim", "mults", "lr", "skew", "qset", "branch", "lwood",
    "verify-lwood", "bott", "bracket", "slice", "hilbert", "audit",
)


def cli_argv(kind: str, q: dict) -> list[str]:
    """The README-style command line for a query, in JSON mode."""
    if kind in ("dim", "mults", "bott"):
        # `--weight=` form: a leading minus sign would read as an option.
        args = [kind, "--type", q["type"], "--weight=" + ",".join(map(str, q["weight"]))]
    elif kind == "lr":
        args = ["lr", "--lambda", _fmt(q["lam"]), "--mu", _fmt(q["mu"]), "--nu", _fmt(q["nu"])]
    elif kind == "skew":
        args = ["skew", "--outer", _fmt(q["outer"]), "--inner", _fmt(q["inner"])]
    elif kind == "qset":
        args = ["qset", "--variant", q["variant"], "--size", str(q["size"])]
    elif kind == "branch":
        args = ["branch", "--lambda", _fmt(q["lam"]), "--target", q["target"]]
    elif kind == "lwood":
        args = ["lwood", "--family", q["family"], "--lambda", _fmt(q["lam"])]
    elif kind == "verify-lwood":
        args = ["verify-lwood", "--family", q["family"], "--lambda", _fmt(q["lam"]), "--n", str(q["n"])]
    elif kind == "bracket":
        args = ["bracket", "--case", q["case"], "--lambda", _fmt(q["lam"])]
    elif kind == "slice":
        args = ["slice", "--case", q["case"], "--degree", str(q["degree"])]
    elif kind == "hilbert":
        args = ["hilbert", "--case", q["case"], "--codim", str(q["codim"])]
    elif kind == "audit":
        args = ["audit", "--case", q["case"]]
    else:
        raise ValueError(f"unknown command kind {kind}")
    return args + ["--format", "json"]


def cli_round(seed: int, index: int) -> list[list[str]]:
    """Round `index` of the seeded command stream: one command per kind."""
    rng = random.Random(f"cli-cold/{seed}/{index}")
    return [cli_argv(kind, draw(kind, rng)) for kind in CLI_KINDS]


# ---------------------------------------------------------------------------
# session: warm queries in one long-lived process

# The stream runs in rounds of one query of each kind, in this order, so the
# per-kind mix does not depend on the seed; the seed picks only the pool of
# inputs.  One round is one request of the session workload: a single
# query's latency depends mostly on its kind, and the median of a mix of
# kinds jumps between kinds from run to run.  The mix is synthetic: one of
# each kind the README shows, no recorded traffic behind it.
SESSION_KINDS = ("dim", "mults", "lr", "skew", "qset", "branch", "verify-lwood", "bott")
SESSION_POOL = 400  # distinct inputs per kind


def session_stream(seed: int):
    """Endless seeded stream of (kind, query index, query), in rounds of
    SESSION_KINDS, cycling over the pool.

    The first pass computes every input once (cold); every later pass asks
    each kind's queries again in the same cyclic order, so each memoised
    call is a hit.  The session thus measures the warm path, and a bounded
    cache smaller than the pool would turn those hits into misses.  Pass p
    starts kind k at offset p * k, so a round joins other inputs on every
    pass: with the same rounds on every pass, the tail would be the cost of
    the same two or three heaviest rounds, which the seed alone decides."""
    rng = random.Random(f"session/{seed}")
    pools = {kind: [draw(kind, rng) for _ in range(SESSION_POOL)] for kind in SESSION_KINDS}
    # qset is the round's largest cost, and the plus variant transposes every
    # partition first; a seed-chosen mix of variants would set the rounds'
    # median, so the session asks for the minus set only.
    pools["qset"] = [dict(q, variant="minus") for q in pools["qset"]]
    for p in itertools.count():
        for i in range(SESSION_POOL):
            for k, kind in enumerate(SESSION_KINDS):
                j = (i + p * k) % SESSION_POOL
                yield kind, j, pools[kind][j]


def _weight(lw, q):
    fam, rank = q["type"][0], int(q["type"][1:])
    return lw.characters.build_root_system(fam, rank), tuple(q["weight"])


def run_query(lw, kind: str, q: dict):
    """Execute one session query through the library; returns plain data."""
    if kind == "dim":
        rs, fc = _weight(lw, q)
        return lw.characters.dim_irrep(rs, fc)
    if kind == "mults":
        rs, fc = _weight(lw, q)
        return sorted(lw.characters.weight_multiplicities(rs, fc).entries.items())
    if kind == "lr":
        return lw.partitions.lr_coefficient(q["lam"], q["mu"], q["nu"])
    if kind == "skew":
        dec = lw.partitions.skew_schur_expand(q["outer"], q["inner"])
        return sorted((p.parts, m) for p, m in dec.entries.items())
    if kind == "qset":
        return [p.parts for p in lw.partitions.enumerate_q(q["variant"], q["size"])]
    if kind == "branch":
        dec = lw.complexes.branch_gl_to_iso(q["lam"], q["target"])
        return sorted((p.parts, m) for p, m in dec.entries.items())
    if kind == "verify-lwood":
        return lw.complexes.verify_littlewood_identity(q["family"], q["lam"], q["n"]).passed
    if kind == "bott":
        rs, fc = _weight(lw, q)
        out = lw.bott.bott(rs, rs.weight(fc))
        return None if out.vanishes else (out.degree, out.weight.fund_coords())
    raise ValueError(f"unknown session kind {kind}")


def plain(value):
    """A value as JSON gives it back: tuples become lists."""
    return json.loads(json.dumps(value))


def check_query(lw, kind: str, q: dict, result) -> bool:
    """Cross-check a first answer, as decoded from the session's JSON
    output, by a second route through the library.  Runs in the harness
    process, so neither its calls nor its memo entries reach the session."""
    if kind == "dim":
        rs, fc = _weight(lw, q)
        return result == lw.characters.weight_multiplicities(rs, fc).dimension()
    if kind == "mults":
        rs, fc = _weight(lw, q)
        return sum(m for _, m in result) == lw.characters.dim_irrep(rs, fc)
    if kind == "lr":
        return result == lw.partitions.lr_coefficient(q["lam"], q["nu"], q["mu"])
    if kind == "skew":
        size = sum(q["outer"]) - sum(q["inner"])
        return all(sum(p) == size and m > 0 for p, m in result)
    if kind == "qset":
        shapes = q_minus_shapes(q["size"])
        if q["variant"] == "plus":
            shapes = [_transpose(p) for p in shapes]
        return result == sorted(shapes)
    if kind == "branch":
        return all(m > 0 for _, m in result) and bool(result)
    if kind == "verify-lwood":
        return result is True
    if kind == "bott":
        rs, fc = _weight(lw, q)
        out = lw.bott.bott(rs, rs.weight(fc), epsilon_shortcut=False)
        return result == plain(None if out.vanishes else (out.degree, out.weight.fund_coords()))
    raise ValueError(f"unknown session kind {kind}")


def _transpose(parts) -> list[int]:
    return [sum(1 for p in parts if p > j) for j in range(parts[0])] if parts else []
