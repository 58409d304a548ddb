"""Runnable acceptance criteria.

Each criterion is a zero-argument callable returning (passed, expected,
computed); the CLI `suite` subcommand and the acceptance test module both
drive this registry, so there is exactly one definition of what passing
means.  All comparisons are exact.
"""

from __future__ import annotations

import itertools
import time
from functools import partial
from typing import NamedTuple

from .bott import SPIN_FAMILIES, SpinLabel, bott, spin_cohomology, spin_label, spin_mirrors, spin_weight
from .characters import build_root_system, dim_irrep
from .complexes import LITTLEWOOD_FAMILIES, classical, parse_case, spinor_complex, verify_littlewood_identity, verify_spinor_identity
from .errors import LittlewoodError
from .partitions import enumerate_q, partitions_of, plethysm_wedge_power
from .resolutions import AUDITS, E6_HILBERT_NUMERATOR, cauchy_slice, euler_characteristics, hilbert_numerator, koszul_terms, label_dimension, quadric_space_dim, run_audit

G2_Y2_BETTI_TEXT = """\
       0  1  2  3  4 5
total: 1 10 16 16 10 1
    0: 1  .  .  .  . .
    1: . 10 16  .  . .
    2: .  .  . 16 10 .
    3: .  .  .  .  . 1"""

E6_BETTI_TEXT = """\
       0  1  2   3   4   5   6   7  8  9 10
total: 1 27 78 351 650 702 650 351 78 27  1
    0: 1  .  .   .   .   .   .   .  .  .  .
    1: . 27 78   .   .   .   .   .  .  .  .
    2: .  .  . 351 650 351   .   .  .  .  .
    3: .  .  .   .   . 351 650 351  .  .  .
    4: .  .  .   .   .   .   .   . 78 27  .
    5: .  .  .   .   .   .   .   .  .  .  1"""

# The six equivariant terms of the rank-2 reconstruction, frozen:
# (i, degree) -> {(E-shape, weight fund coords): mult}.
G2_Y2_EXPECTED_TERMS = {
    (0, 0): {((), (0, 0)): 1},
    (1, 2): {((1, 1), (1, 0)): 1, ((2,), (0, 0)): 1},
    (2, 3): {((2, 1), (0, 0)): 1, ((2, 1), (1, 0)): 1},
    (3, 5): {((3, 2), (0, 0)): 1, ((3, 2), (1, 0)): 1},
    (4, 6): {((3, 3), (1, 0)): 1, ((4, 2), (0, 0)): 1},
    (5, 8): {((4, 4), (0, 0)): 1},
}

DIM_SPOT_CHECKS = [
    ("G", 2, (1, 0), 7),
    ("G", 2, (0, 1), 14),
    ("F", 4, (0, 0, 0, 1), 26),
    ("F", 4, (1, 0, 0, 0), 52),
    ("E", 6, (1, 0, 0, 0, 0, 0), 27),
    ("E", 6, (0, 1, 0, 0, 0, 0), 78),
    ("E", 6, (0, 0, 1, 0, 0, 0), 351),
    ("E", 6, (0, 0, 0, 0, 1, 0), 351),
    ("E", 6, (1, 0, 0, 0, 0, 1), 650),
    ("E", 6, (0, 0, 0, 1, 0, 0), 2925),
    ("E", 7, (0, 0, 0, 0, 0, 0, 1), 56),
    ("E", 8, (0, 0, 0, 0, 0, 0, 0, 1), 248),
]


class CriterionResult(NamedTuple):
    cid: str
    title: str
    passed: bool
    expected: object
    computed: object
    seconds: float
    limit_seconds: float | None = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.cid} ({self.seconds:.2f}s): {self.title}"

    def to_json(self):
        return {
            "id": self.cid,
            "title": self.title,
            "pass": self.passed,
            "expected": self.expected,
            "computed": self.computed,
            "seconds": round(self.seconds, 3),
            "limit_seconds": self.limit_seconds,
        }


def _terms_as_plain(terms):
    out = {}
    for t in terms:
        cell = out.setdefault((t.index, t.degree), {})
        for (lam, w), mult in t.content.entries.items():
            cell[(lam.parts, w.fund_coords())] = mult
    return out


def _terms_json(terms):
    """(i, degree) -> {(E-shape, weight): mult} as JSON: keys "i,degree" and "[shape]|[weight]"."""
    return {f"{i},{j}": {f"{list(l)}|{list(w)}": m for (l, w), m in cell.items()} for (i, j), cell in terms.items()}


def _crit_g2_y2():
    report = run_audit("g2-y2")
    computed_terms = _terms_as_plain(report.terms)
    table = report.betti
    computed = {
        "terms": _terms_json(computed_terms),
        "totals": table.totals(),
        "layout": table.render(),
    }
    expected = {
        "terms": _terms_json(G2_Y2_EXPECTED_TERMS),
        "totals": AUDITS["g2-y2"].expected_totals,
        "layout": G2_Y2_BETTI_TEXT,
    }
    ok = report.passed and computed_terms == G2_Y2_EXPECTED_TERMS and table.render() == G2_Y2_BETTI_TEXT
    return ok, expected, computed


def _crit_audit_totals(name):
    report = run_audit(name)
    return report.passed, AUDITS[name].expected_totals, [r.computed for r in report.rows]


def _crit_e6():
    report = run_audit("e6-cone")
    layout_ok = report.betti.render() == E6_BETTI_TEXT
    hd = hilbert_numerator(report.betti, 10)
    ok = report.passed and layout_ok and hd.numerator == E6_HILBERT_NUMERATOR and hd.krull_dim == 17
    expected = {"totals": AUDITS["e6-cone"].expected_totals, "numerator": E6_HILBERT_NUMERATOR, "krull_dim": 17}
    computed = {"totals": [r.computed for r in report.rows], "numerator": hd.numerator, "krull_dim": hd.krull_dim}
    return ok, expected, computed


def _crit_littlewood_sweep():
    checked = 0
    failures = []
    for family in LITTLEWOOD_FAMILIES:
        for n in range(classical(family).least_rank, 5):
            for size in range(0, 7):
                for lam in partitions_of(size, max_length=n):
                    rep = verify_littlewood_identity(family, lam, n)
                    checked += 1
                    if not rep.passed:
                        failures.append(rep.case)
    return not failures, {"failures": []}, {"checked": checked, "failures": failures}


def _crit_qset_oracle():
    mism = []
    checked = 0
    for variant, form in (("minus", "alternating"), ("plus", "symmetric")):
        for size in range(0, 11, 2):
            expected = enumerate_q(variant, size)
            dec = plethysm_wedge_power(size // 2, form, 6)
            support = sorted(dec.support(), key=lambda p: p.parts)
            checked += 1
            if support != expected or any(dec[p] != 1 for p in support):
                mism.append((variant, size))
    return not mism, {"mismatches": []}, {"checked": checked, "mismatches": mism}


def _crit_spin_vs_bott():
    # the twist is spin_weight of -lam reversed, mirrored as the family's own
    # label (Dminus); a nonzero H^i is spin_weight of 0, mirrored for Delta-
    mism = []
    checked = 0
    for family in SPIN_FAMILIES:
        fam = family[0]
        (mirror,) = spin_mirrors(fam, spin_label(family, 0))
        for n in range(classical(fam).least_rank, 7):
            rs = build_root_system(fam, n)
            expect = {label: spin_weight(fam, n, (0,) * n, label is SpinLabel.DELTA_MINUS).fund_coords() for label in SpinLabel}
            for size in range(n * n + 1):
                for lam in partitions_of(size, max_length=n, max_part=n):
                    closed = spin_cohomology(family, n, lam)
                    walked = bott(rs, spin_weight(fam, n, [-lam[n - 1 - i] for i in range(n)], mirror))
                    checked += 1
                    ok = closed.vanishes == walked.vanishes
                    if ok and not closed.vanishes:
                        ok = walked.degree == closed.degree and walked.weight.fund_coords() == expect[closed.label]
                    if not ok:
                        mism.append((family, n, lam.parts))
    return not mism, {"mismatches": []}, {"checked": checked, "mismatches": mism}


SPINOR_EXPECTED = {
    2: {0: [()], 1: [(1,)], 2: [(2, 1)], 3: [(2, 2)]},
    3: {0: [()], 1: [(1,)], 2: [(2, 1)], 3: [(2, 2), (3, 1, 1)], 4: [(3, 2, 1)], 5: [(3, 3, 2)], 6: [(3, 3, 3)]},
}


def _shapes_json(by_n):
    """n -> i -> shapes as JSON, with string keys."""
    return {str(n): {str(i): [list(p) for p in v] for i, v in e.items()} for n, e in by_n.items()}


def _crit_spinor_complexes():
    problems = []
    computed = {}
    for n, expected in SPINOR_EXPECTED.items():
        by_i: dict[int, list] = {}
        for term in spinor_complex("Dfull", n):
            shapes = by_i.setdefault(term.index, [])
            for (lam, label), mult in term.content.entries.items():
                if label is not SpinLabel.DELTA or mult != 1:
                    problems.append((n, term.index, "label"))
                shapes.extend([lam.parts] * mult)
        by_i = {i: sorted(shapes) for i, shapes in by_i.items()}
        computed[n] = by_i
        if by_i != expected:
            problems.append((n, "terms"))
    checked = 0
    for family in ("B", "Dfull"):
        for n in range(classical(family[0]).least_rank, 4):
            for size in range(0, 5):
                for lam in partitions_of(size, max_length=n):
                    rep = verify_spinor_identity(family, n, lam)
                    checked += 1
                    if not rep.passed:
                        problems.append((family, n, lam.parts))
    report = {"terms": _shapes_json(computed), "identities_checked": checked, "problems": problems}
    return not problems, _shapes_json(SPINOR_EXPECTED), report


def _crit_dims():
    rows = []
    ok = True
    for family, rank, fc, expected in DIM_SPOT_CHECKS:
        got = dim_irrep(build_root_system(family, rank), fc)
        rows.append({"type": f"{family}{rank}", "weight": list(fc), "expected": expected, "computed": got})
        ok = ok and got == expected
    return ok, [r["expected"] for r in rows], rows


def _crit_koszul():
    expected = [[[]], [[1, 1]], [[2, 1, 1]], [[2, 2, 2]]]
    computed = []
    for i in range(4):
        dec = koszul_terms("alternating", 3, i)
        computed.append(sorted(p.to_json() for p in dec.support()))
        if any(m != 1 for m in dec.entries.values()):
            return False, expected, computed
    return computed == expected, expected, computed


# The quadric generators the source names, labelled (E-shape, weight):
# Sym^2 E (x) 27 for E6; wedge^2 E (x) adjoint plus Sym^2 E (x) (26 + 1) for F4.
QUADRIC_GENERATORS = {
    "E6_3": {((2,), (0, 0, 0, 0, 0, 1)): 1},
    "F4_3": {((1, 1), (1, 0, 0, 0)): 1, ((2,), (0, 0, 0, 1)): 1, ((2,), (0, 0, 0, 0)): 1},
}


def _crit_quadrics():
    # The quadrics F_{1,2} are minus the degree-2 Euler characteristic; their
    # dimension must also be that of Sym^2 of the matrix space less R_2.
    computed, generators_match = {}, True
    for name, generators in QUADRIC_GENERATORS.items():
        case = parse_case(name)
        quadrics = next(itertools.islice(euler_characteristics(case, lambda j: cauchy_slice(case, j)[0]), 2, None)).scale(-1)
        computed[name] = quadrics.total(label_dimension(case))
        generators_match = generators_match and quadrics.entries == generators and computed[name] == quadric_space_dim(case)
    expected = {"E6_3": 162, "F4_3": 318}
    return computed == expected and generators_match, expected, computed


CRITERIA = [
    ("g2-y2", "rank-2 equivariant resolution, Betti table, and layout", _crit_g2_y2, 10.0),
    ("g2-y1", "rank-1 resolution dimension audit", partial(_crit_audit_totals, "g2-y1"), 5.0),
    ("e6-betti", "27-dimensional minimal-orbit cone Betti table and Hilbert numerator", _crit_e6, None),
    ("f4-betti", "26-dimensional minimal-orbit cone dimension audit", partial(_crit_audit_totals, "f4-cone"), None),
    ("littlewood-sweep", "Euler identity for Littlewood complexes, all families", _crit_littlewood_sweep, 60.0),
    ("qset-oracle", "Q-set recursion against the plethysm oracle", _crit_qset_oracle, None),
    ("spin-bott", "closed-form spin cohomology against the generic walk", _crit_spin_vs_bott, None),
    ("spinor-complexes", "spinor complex term lists and Euler identities", _crit_spinor_complexes, None),
    ("dims", "dimension spot checks across the exceptional types", _crit_dims, None),
    ("koszul", "Koszul complex of the three-variable alternating system", _crit_koszul, None),
    ("quadrics", "quadric space dimensions for the spherical cone cases", _crit_quadrics, None),
]


def criterion_ids() -> list[str]:
    return [cid for cid, _, _, _ in CRITERIA]


def run_criterion(cid: str) -> CriterionResult:
    for known, title, fn, limit in CRITERIA:
        if known == cid:
            start = time.perf_counter()
            try:
                passed, expected, computed = fn()
            except LittlewoodError as exc:
                passed, expected, computed = False, None, f"error: {exc}"
            elapsed = time.perf_counter() - start
            if limit is not None and elapsed >= limit:
                passed = False
                computed = {"result": computed, "timeout": f"{elapsed:.2f}s >= {limit}s"}
            return CriterionResult(cid, title, passed, expected, computed, elapsed, limit)
    raise ValueError(f"unknown acceptance id {cid}; known: {', '.join(criterion_ids())}")


def run_all() -> list[CriterionResult]:
    return [run_criterion(cid) for cid in criterion_ids()]
