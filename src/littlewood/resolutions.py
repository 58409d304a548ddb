"""Graded Betti tables, Hilbert-series numerators, Koszul term decompositions,
coordinate-ring degree slices, and the equivariant minimal free resolutions
peeled from those slices by Euler characteristics.

Betti tables print in the classical computer-algebra text layout (one column
per homological degree, rows indexed by degree minus column, dots for zeros);
those strings are compared byte for byte in the golden tests.  All dimension
arithmetic is exact big-integer arithmetic end to end.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Callable
from typing import NamedTuple

from .characters import Weight, adams_series, dim_irrep
from .complexes import GradedTerm, GroupCase, bracket_labels, bracket_weight, branch_gl_to_iso
from .errors import InconsistencyError, check_bound
from .partitions import FORMS, Q_VARIANTS, Decomposition, Partition, dim_schur, enumerate_q, partitions_of


# ---------------------------------------------------------------------------
# Betti tables and Hilbert numerators


class BettiTable:
    __slots__ = ("entries", "ambient_dim", "cut")

    def __init__(self, entries: dict, ambient_dim: int | None = None, cut: int | None = None):
        self.entries = {k: v for k, v in entries.items() if v}
        self.ambient_dim, self.cut = ambient_dim, cut  # cut: the last internal degree of a resolution known only in part

    @property
    def max_index(self) -> int:
        return max((i for i, _ in self.entries), default=0)

    def total(self, i: int) -> int:
        return sum(v for (ii, _), v in self.entries.items() if ii == i)

    def totals(self) -> list[int]:
        return [self.total(i) for i in range(self.max_index + 1)]

    def kpolynomial(self) -> list[int]:
        """Coefficients of sum_i (-1)^i beta_{i,j} T^j."""
        deg = max((j for _, j in self.entries), default=0)
        out = [0] * (deg + 1)
        for (i, j), v in self.entries.items():
            out[j] += -v if i % 2 else v
        return out

    def render(self) -> str:
        ncols = self.max_index + 1
        nrows = max((j - i for i, j in self.entries), default=0) + 1
        grid = [[0] * ncols for _ in range(nrows)]
        for (i, j), v in self.entries.items():
            grid[j - i][i] += v
        totals = self.totals()

        def cell(v):
            return str(v) if v else "."

        label_w = max(len("total"), max(len(str(r)) for r in range(nrows)))
        widths = []
        for c in range(ncols):
            w = max(len(str(c)), len(str(totals[c])), max(len(cell(grid[r][c])) for r in range(nrows)))
            widths.append(w)
        lines = []
        lines.append(" " * (label_w + 2) + " ".join(str(c).rjust(widths[c]) for c in range(ncols)))
        lines.append("total".rjust(label_w) + ": " + " ".join(str(totals[c]).rjust(widths[c]) for c in range(ncols)))
        for r in range(nrows):
            row = " ".join(cell(grid[r][c]).rjust(widths[c]) for c in range(ncols))
            lines.append(str(r).rjust(label_w) + ": " + row)
        return "\n".join(lines)

    def to_json(self):
        return {
            "ambient": self.ambient_dim,
            "entries": {f"{i},{j}": v for (i, j), v in sorted(self.entries.items())},
        }


class HilbertData(NamedTuple):
    numerator: list[int]
    krull_dim: int

    def numerator_str(self) -> str:
        pieces = []
        for k, c in enumerate(self.numerator):
            if c == 0:
                continue
            if k == 0:
                pieces.append(str(c))
            else:
                mono = "T" if k == 1 else f"T^{k}"
                pieces.append(mono if c == 1 else f"{c}{mono}" if c != -1 else f"-{mono}")
        return " + ".join(pieces).replace("+ -", "- ") if pieces else "0"

    def to_json(self):
        return {"numerator": self.numerator, "krull_dim": self.krull_dim}


def betti_of(terms, dim_of, ambient_dim=None, cut=None) -> BettiTable:
    """Project equivariant terms to ranks: beta_{i,j} is the total dimension of
    the content at homological degree i, internal degree j."""
    entries = Decomposition()
    for term in terms:
        entries.add((term.index, term.degree), term.content.total(dim_of))
    return BettiTable(entries.entries, ambient_dim, cut)


def divide_by_one_minus_t(poly: list[int], codim: int) -> list[int]:
    """The exact quotient of a coefficient list by (1-T)^codim; a nonzero
    remainder at any stage raises InconsistencyError."""
    for step in range(codim):
        if sum(poly) != 0:
            raise InconsistencyError(
                f"not Cohen-Macaulay-consistent data: remainder {sum(poly)} at division step {step}"
            )
        poly = list(itertools.accumulate(poly[:-1])) or [0]
        while len(poly) > 1 and poly[-1] == 0:
            poly.pop()
    return poly


def hilbert_numerator(table: BettiTable, codim: int) -> HilbertData:
    """Divide the K-polynomial by (1-T)^codim exactly; a nonzero remainder at
    any stage means the table is not the Betti table of a Cohen-Macaulay
    quotient of the claimed codimension.  A resolution is never shorter than
    its codimension, so a table that is must be cut, and is refused first, as
    is a table known to be cut."""
    if codim < 0:
        raise ValueError(f"hilbert: codim {codim} is below 0")
    if table.ambient_dim is None:
        raise ValueError("table needs ambient_dim to fix the Krull dimension")
    if table.max_index < codim:
        raise InconsistencyError(
            f"hilbert: the table has homological length {table.max_index}, below the codimension {codim}; "
            "a resolution is never shorter than its codimension, so this table is cut"
        )
    if table.cut is not None:
        raise InconsistencyError(
            f"hilbert: the table is cut at internal degree {table.cut}, so its K-polynomial is not the "
            "resolution's and has no Hilbert numerator"
        )
    poly = divide_by_one_minus_t(table.kpolynomial(), codim)
    if sum(poly) <= 0:
        raise InconsistencyError("Hilbert numerator must have positive value at T=1")
    return HilbertData(poly, table.ambient_dim - codim)


# ---------------------------------------------------------------------------
# Koszul complexes of the generic quadric systems


def _koszul_top(form: str, m: int) -> int:
    """The number of quadrics, the last homological degree."""
    if form not in FORMS:
        raise ValueError(f"koszul {form}: form must be {' or '.join(FORMS)}")
    if m < 0:
        raise ValueError(f"koszul {form}: m {m} is negative")
    return m * (m - 1) // 2 if form == "alternating" else m * (m + 1) // 2


def koszul_terms(form: str, m: int, i: int) -> Decomposition:
    """Schur constituents of the i-th exterior power of the quadric space:
    size-2i members of the matching Q-set with at most m rows."""
    top = _koszul_top(form, m)
    if not 0 <= i <= top:
        raise ValueError(f"homological degree {i} out of range 0..{top}")
    out = Decomposition()
    for mu in enumerate_q(Q_VARIANTS[FORMS.index(form)], 2 * i):
        if len(mu) <= m:
            out.add(mu, 1)
    return out


def koszul_complex(form: str, m: int) -> list[GradedTerm]:
    return [GradedTerm(i, 2 * i, koszul_terms(form, m, i)) for i in range(_koszul_top(form, m) + 1)]


# ---------------------------------------------------------------------------
# coordinate-ring slices

SLICE_BOUND = 12  # the last coordinate-ring degree a slice reaches; a mirrored peel goes on to s past it


def cauchy_slice(case: GroupCase, d: int) -> Decomposition:
    """Degree-d slice of the coordinate ring as a decomposition of pairs
    (multiplicity-space shape, group weight); its exact total dimension is
    `dec.total(label_dimension(case))`.

    The six-copy F4 case is not spherical; there the slice carries genuine
    multiplicities, computed by branching each shape through the rank-3
    symplectic group and re-indexing, instead of a single bracket label.

    Every label is one irreducible of the connected group, so an even
    orthogonal shape with n rows carries both mirrors (see `bracket_labels`).
    """
    check_bound("cauchy_slice", case.name, "degree", d, SLICE_BOUND, "SLICE_BOUND", lower=0)
    out = Decomposition()
    for lam in partitions_of(d, max_length=case.dim_e):
        if case.kind == "F4_6":
            dec = branch_gl_to_iso(lam, ("Sp", 6), oracle=len(lam) > 3)
            labels = [
                (Weight.fundamental("F", 4, ((d - mu.size) // 2, mu[2], mu[1] - mu[2], mu[0] - mu[1])), mult)
                for mu, mult in dec.entries.items()
            ]
        else:
            labels = [(w, 1) for w in bracket_labels(case, lam)]
        for w, mult in labels:
            out.add((lam, w), mult)
    return out


def quadric_space_dim(case: GroupCase) -> int:
    """Dimension of the degree-2 part of the defining ideal: quadrics on the
    full matrix space minus the degree-2 part of the coordinate ring."""
    n = case.dim_e * case.dim_v
    return n * (n + 1) // 2 - cauchy_slice(case, 2).total(label_dimension(case))


# ---------------------------------------------------------------------------
# equivariant resolutions peeled from the coordinate ring


def euler_characteristics(case: GroupCase, slice_fn):
    """Yield sum_k (-1)^k R_{j-k} (x) wedge^k(E (x) V) for j = 0, 1, ...,
    labelled (E-shape parts, fundamental coordinates), R_d = slice_fn(d) and V
    = V_bracket((1)): slice d starts its series R_d (x) wedge^k(E (x) V)
    (`adams_series`), and each degree takes the next term of every series."""
    rs = case.root_system()
    v = rs.fund_tuple(bracket_weight(case, (1,)))
    series = []
    for j in itertools.count():
        ring = {(lam.parts, rs.fund_tuple(w)): m for (lam, w), m in slice_fn(j).entries.items()}
        series.append(adams_series(rs, v, ring, case.dim_e, -1))
        out = Decomposition()
        for d, terms in enumerate(series):
            for label, m in next(terms).items():
                out.add(label, -m if (j - d) % 2 else m)
        yield out


def peel_resolution(case: GroupCase, slice_fn, codim: int, stop: int | None = None) -> list[GradedTerm]:
    """Peel an equivariant minimal free resolution over Sym(E (x) V) from the
    coordinate-ring slices R_j = slice_fn(j), each computed once, labelled
    (shape, weight) as by `cauchy_slice`; V is bracket_weight(case, (1,)).

    Each internal degree j has sum_i (-1)^i F_{i,j} = sum_k (-1)^k R_{j-k} (x)
    wedge^k(E (x) V), from `euler_characteristics`.  With e
    the current end of the resolution, the positive part goes to whichever
    of e, e + 1 is even and the negative part to the odd one.  A summand
    present in both neighbouring homological degrees of one internal degree
    cancels there and is invisible to this rule, so a peeled resolution that
    matches stated Betti totals is consistent with them, not proven minimal.
    The rule also assumes that no summand lies below the current end.  The
    3 x 3 minors of a generic 5 x 5 matrix (det(5 x 5, r = 2)) break it: their
    Kempf terms put 225 in F_5 at internal degree 7 and 225 in F_4 at degree
    8, which the rule places at F_6, so that peel is refused later as a term
    past the codimension.

    The end: the ring has rational singularities, so it is Cohen-Macaulay,
    and its resolution has length codim and ends in internal degree s =
    codim + deg h, h = (sum_j dim R_j T^j)(1-T)^(N - codim), N = dim E dim V,
    read through SLICE_BOUND (the regularity is deg h).  The walk runs through
    s, and each degree drawn from the slices must have the dimension of T^j
    in K = h(T)(1-T)^codim.  An h that does not end before SLICE_BOUND, an s
    past SLICE_BOUND that is not mirrored, a term past the codimension, or a
    length other than codim at s raises InconsistencyError.  With stop, the
    walk ends after internal degree stop: a resolution cut there, with no h,
    and never mirrored.

    The mirror: if h is palindromic, the ring is Gorenstein (Stanley), so
    F_{c-i} = F_i^* (x) F_c with F_c = S_(a^n)E in degree s, n = dim E, a =
    s/n.  Degrees j <= s/2 are peeled; each later one is (-1)^codim times the
    dual of degree s - j, S_lam E (x) V_w going to S_(a - lam_n, ..., a -
    lam_1)E (x) V_{-w0 w}, which keeps each label's dimension, as a
    palindromic h keeps K_j = (-1)^codim K_{s-j}.  A degree s/2 that is not
    its own mirror, an s that n does not divide, or a shape outside the n x a
    box raises InconsistencyError.
    """
    rs = case.root_system()
    dim_of = label_dimension(case)
    slice_at = functools.cache(slice_fn)
    n, n_vars, s, kpoly, mirrored = case.dim_e, case.dim_e * case.dim_v, stop, None, False
    if stop is None:
        h = [slice_at(d).total(dim_of) for d in range(SLICE_BOUND + 1)]
        for _ in range(n_vars - codim):  # times (1-T), through SLICE_BOUND
            h = [a - b for a, b in zip(h, [0, *h])]
        deg = max((d for d, x in enumerate(h) if x), default=SLICE_BOUND)
        if deg == SLICE_BOUND:
            raise InconsistencyError(f"peel {case.name}: the h-vector at codimension {codim} does not end before SLICE_BOUND {SLICE_BOUND}")
        s, kpoly, mirrored = codim + deg, h[: deg + 1], h[: deg + 1] == h[deg::-1]
        for _ in range(codim):  # K = h(T)(1-T)^codim
            kpoly = [a - b for a, b in zip([*kpoly, 0], [0, *kpoly])]
        if not mirrored and s > SLICE_BOUND:
            raise InconsistencyError(f"peel {case.name}: h is not palindromic, and its top degree s = {s} is past SLICE_BOUND {SLICE_BOUND}")
        if mirrored and s % n:
            raise InconsistencyError(f"peel {case.name}: the mirror's top degree s = {s} is not a multiple of dim E = {n}")
        a = s // n

    def mirror(euler: Decomposition, j: int) -> Decomposition:
        out = Decomposition()
        for (parts, fc), m in euler.entries.items():
            if parts and parts[0] > a:
                raise InconsistencyError(f"peel {case.name}: internal degree {j} mirrors shape {parts}, outside F_c = S_({a}^{n})E")
            dual = tuple(a - p for p in reversed(parts + (0,) * (n - len(parts))) if p != a)
            out.add((dual, rs.dominant_conjugate(tuple(-c for c in fc))), -m if codim % 2 else m)
        return out

    cells: dict[tuple[int, int], Decomposition] = {}
    end, eulers, peeled = 0, euler_characteristics(case, slice_at), []
    for j in range(s + 1):
        if not mirrored or 2 * j <= s:
            peeled.append(euler := next(eulers))
            if kpoly is not None and euler.total(dim_of) != kpoly[j]:
                raise InconsistencyError(f"peel {case.name}: internal degree {j} has dimension {euler.total(dim_of)}, h(T)(1-T)^{codim} gives {kpoly[j]}")
            if mirrored and 2 * j == s and mirror(euler, j) != euler:
                raise InconsistencyError(f"peel {case.name}: internal degree {j} = s/2 is not (-1)^{codim} times its own dual")
        else:
            euler = mirror(peeled[s - j], j)
        last = end
        for sign, parity in ((1, 0), (-1, 1)):
            part = Decomposition({label: sign * m for label, m in euler.entries.items() if sign * m > 0})
            if not part:
                continue
            i = last if last % 2 == parity else last + 1
            if i > codim:
                raise InconsistencyError(
                    f"peel {case.name}: internal degree {j} needs homological degree {i}, past the codimension {codim}"
                )
            cells[(i, j)] = part
            end = max(end, i)
    if kpoly is not None and end != codim:
        raise InconsistencyError(f"peel {case.name}: resolution has length {end} at its top degree s = {s}, not the codimension {codim}")
    return [
        GradedTerm(i, j, content.map_labels(lambda lab: (Partition(lab[0]), rs.weight(lab[1]))))
        for (i, j), content in sorted(cells.items())
    ]


def g2_equivariant_resolution() -> list[GradedTerm]:
    """The equivariant minimal free resolution of the rank-2 variety (of
    codimension 5), peeled from its coordinate ring, with weight labels."""
    return peel_resolution(_G2, _cauchy(_G2), 5)


def _cauchy(case: GroupCase):
    """The case's coordinate ring, slice by slice, as `peel_resolution` reads
    it; `cauchy_slice` is looked up at each call, so a wrapper installed on
    the module sees every slice."""
    return lambda j: cauchy_slice(case, j)


def label_dimension(case: GroupCase):
    """The dimension of a (shape, weight) label, S_shape E (x) V_weight, as a
    function of the label."""
    rs = case.root_system()
    return lambda label: dim_irrep(rs, label[1]) * dim_schur(label[0], case.dim_e)


# ---------------------------------------------------------------------------
# dimension audits: peeled resolutions against stated Betti totals


def _g2_y1_slice(j: int) -> Decomposition:
    """The rank-1 variety's coordinate ring in degree j, Sym^j E (x) V_(j,0):
    the one-row part of the rank-2 slice."""
    return Decomposition({label: m for label, m in cauchy_slice(_G2, j).entries.items() if len(label[0]) <= 1})


E6_BETTI_TOTALS = [1, 27, 78, 351, 650, 702, 650, 351, 78, 27, 1]
E6_HILBERT_NUMERATOR = [1, 10, 28, 28, 10, 1]


class AuditSpec(NamedTuple):
    """A named resolution: its case, its terms over Sym(E (x) V) labelled
    (E-shape, weight), the Betti totals stated for it, and for a resolution
    known only in part the last internal degree it reaches."""

    case: GroupCase
    terms: Callable[[], list[GradedTerm]]
    expected_totals: list
    cut: int | None = None


class AuditRow(NamedTuple):
    index: int
    computed: int
    expected: int

    @property
    def passed(self) -> bool:
        return self.computed == self.expected

    def to_json(self):
        return {"i": self.index, "computed": self.computed, "expected": self.expected, "pass": self.passed}


class AuditReport:
    __slots__ = ("name", "rows", "betti", "terms", "passed")

    def __init__(self, name: str, rows: list, betti: BettiTable, terms: list):
        self.name, self.rows, self.betti, self.terms = name, rows, betti, terms
        self.passed = all(r.passed for r in rows)

    def to_json(self):
        return {
            "name": self.name,
            "pass": self.passed,
            "rows": [r.to_json() for r in self.rows],
            "betti": self.betti.to_json(),
        }


def run_audit(name: str) -> AuditReport:
    """The Betti totals of the audit's resolution against the stated ones; a
    column on one side only is compared with 0."""
    spec = AUDITS[name]
    terms = spec.terms()
    betti = betti_of(terms, label_dimension(spec.case), spec.case.dim_e * spec.case.dim_v, spec.cut)
    expected = spec.expected_totals
    ncols = max(betti.max_index + 1, len(expected))
    rows = [AuditRow(i, betti.total(i), expected[i] if i < len(expected) else 0) for i in range(ncols)]
    return AuditReport(name, rows, betti, terms)


# The one registry of named resolutions, each peeled from its coordinate ring:
# g2-y2 and g2-y1 (codimensions 5 and 7); the E6 and F4 cones (codimension 10,
# h = [1, 10, 28, 28, 10, 1], peeled through degree 7 and mirrored to 15); and
# e8-start, cut after internal degree 3 (the E8 cone has dimension 58,
# codimension 190).  The cones are their cases with dim E = 1.
_G2 = GroupCase("G2")
_F4_CONE, _E6_CONE, _E8_CONE = (GroupCase(kind, dim_e=1) for kind in ("F4_3", "E6_3", "E8_7"))
AUDITS = {
    # called by its module name, so a wrapper installed there sees the call
    "g2-y2": AuditSpec(_G2, lambda: g2_equivariant_resolution(), [1, 10, 16, 16, 10, 1]),
    "g2-y1": AuditSpec(_G2, lambda: peel_resolution(_G2, _g2_y1_slice, 7), [1, 24, 84, 126, 119, 77, 27, 4]),
    "f4-cone": AuditSpec(_F4_CONE, lambda: peel_resolution(_F4_CONE, _cauchy(_F4_CONE), 10), E6_BETTI_TOTALS),
    "e6-cone": AuditSpec(_E6_CONE, lambda: peel_resolution(_E6_CONE, _cauchy(_E6_CONE), 10), E6_BETTI_TOTALS),
    "e8-start": AuditSpec(_E8_CONE, lambda: peel_resolution(_E8_CONE, _cauchy(_E8_CONE), 190, stop=AUDITS["e8-start"].cut), [1, 3876, 151373], cut=3),
}

# Reference only: the characteristic-2 Betti table of the rank-2 variety, as
# stated; nothing in this package computes characteristic-p data.  It is the
# g2-y2 table with one more pair, beta_{2,4} = beta_{3,4} = 1, that cancels in
# the K-polynomial.
G2_Y2_BETTI_CHAR2 = BettiTable(
    {(0, 0): 1, (1, 2): 10, (2, 3): 16, (2, 4): 1, (3, 4): 1, (3, 5): 16, (4, 6): 10, (5, 8): 1}, ambient_dim=14
)
