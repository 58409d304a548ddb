"""Graded Betti tables, Hilbert-series numerators, Koszul term decompositions,
coordinate-ring degree slices, and the equivariant minimal free resolutions
peeled from those slices by Euler characteristics.

Betti tables print in the classical computer-algebra text layout (one column
per homological degree, rows indexed by degree minus column, dots for zeros);
those strings are compared byte for byte in the golden tests.  All dimension
arithmetic is exact big-integer arithmetic end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

from .characters import RootSystem, Weight, build_root_system, char_of_irrep, decompose_character, dim_irrep, schur_character
from .complexes import GradedTerm, GroupCase, bracket_dim, bracket_weight, branch_gl_to_iso
from .errors import InconsistencyError, ScaleError
from .partitions import Decomposition, Partition, dim_schur, enumerate_q, partitions_of, skew_schur_expand


# ---------------------------------------------------------------------------
# Betti tables and Hilbert numerators


@dataclass
class BettiTable:
    entries: dict
    ambient_dim: int | None = None

    def __post_init__(self):
        self.entries = {k: v for k, v in self.entries.items() if v}

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


@dataclass
class HilbertData:
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


def betti_of(terms, dim_of, ambient_dim=None) -> BettiTable:
    """Project equivariant terms to ranks: beta_{i,j} is the total dimension of
    the content at homological degree i, internal degree j."""
    entries = Decomposition()
    for term in terms:
        entries.add((term.index, term.degree), term.content.total(dim_of))
    return BettiTable(entries.entries, ambient_dim)


def hilbert_numerator(table: BettiTable, codim: int) -> HilbertData:
    """Divide the K-polynomial by (1-T)^codim exactly; a nonzero remainder at
    any stage means the table is not the Betti table of a Cohen-Macaulay
    quotient of the claimed codimension."""
    poly = table.kpolynomial()
    for step in range(codim):
        if sum(poly) != 0:
            raise InconsistencyError(
                f"not Cohen-Macaulay-consistent data: remainder {sum(poly)} at division step {step}"
            )
        prefix = 0
        quotient = []
        for c in poly[:-1]:
            prefix += c
            quotient.append(prefix)
        poly = quotient or [0]
        while len(poly) > 1 and poly[-1] == 0:
            poly.pop()
    if sum(poly) <= 0:
        raise InconsistencyError("Hilbert numerator must have positive value at T=1")
    if table.ambient_dim is None:
        raise ValueError("table needs ambient_dim to fix the Krull dimension")
    return HilbertData(poly, table.ambient_dim - codim)


# ---------------------------------------------------------------------------
# Koszul complexes of the generic quadric systems


def koszul_terms(form: str, m: int, i: int) -> Decomposition:
    """Schur constituents of the i-th exterior power of the quadric space:
    size-2i members of the matching Q-set with at most m rows."""
    if form not in ("alternating", "symmetric"):
        raise ValueError("form must be alternating or symmetric")
    top = m * (m - 1) // 2 if form == "alternating" else m * (m + 1) // 2
    if not 0 <= i <= top:
        raise ValueError(f"homological degree {i} out of range 0..{top}")
    variant = "minus" if form == "alternating" else "plus"
    out = Decomposition()
    for mu in enumerate_q(variant, 2 * i):
        if len(mu) <= m:
            out.add(mu, 1)
    return out


def koszul_complex(form: str, m: int) -> list[GradedTerm]:
    top = m * (m - 1) // 2 if form == "alternating" else m * (m + 1) // 2
    return [GradedTerm(i, 2 * i, koszul_terms(form, m, i)) for i in range(top + 1)]


# ---------------------------------------------------------------------------
# coordinate-ring slices


def cauchy_slice(case: GroupCase, d: int, bound: int = 12):
    """Degree-d slice of the coordinate ring as a decomposition of pairs
    (multiplicity-space shape, group weight), together with its exact total
    dimension.

    The six-copy F4 case is not spherical; there the slice carries genuine
    multiplicities, computed by branching each shape through the rank-3
    symplectic group and re-indexing, instead of a single bracket label.

    In the even orthogonal case a full-length shape tags a mirror pair of
    irreducibles of the connected group; the label carries only the bracket
    weight (last epsilon coordinate positive), while the dimension counts
    both mirrors.
    """
    if d < 0 or d > bound:
        raise ScaleError(f"slice degree {d} out of range 0..{bound}")
    rs = case.root_system()
    out = Decomposition()
    total = 0
    if case.kind == "F4_6":
        for lam in partitions_of(d, max_length=case.dim_e):
            gl_dim = dim_schur(lam, case.dim_e)
            dec = branch_gl_to_iso(lam, ("Sp", 6), oracle=len(lam) > 3)
            for mu, mult in dec.entries.items():
                w = Weight.fundamental(
                    "F", 4, ((lam.size - mu.size) // 2, mu[2], mu[1] - mu[2], mu[0] - mu[1])
                )
                out.add((lam, w), mult)
                total += gl_dim * mult * dim_irrep(rs, w)
        return out, total
    for lam in partitions_of(d, max_length=case.dim_e):
        out.add((lam, bracket_weight(case, lam)), 1)
        total += dim_schur(lam, case.dim_e) * bracket_dim(case, lam)
    return out, total


def quadric_space_dim(case: GroupCase) -> int:
    """Dimension of the degree-2 part of the defining ideal: quadrics on the
    full matrix space minus the degree-2 part of the coordinate ring."""
    n = case.dim_e * case.dim_v
    _, k2 = cauchy_slice(case, 2)
    return n * (n + 1) // 2 - k2


# ---------------------------------------------------------------------------
# equivariant resolutions peeled from the coordinate ring


@cache
def _schur_of_v(case: GroupCase, sigma: Partition) -> tuple:
    """S_sigma V as (fundamental coordinates, multiplicity) pairs, V the
    irreducible the bracket map gives the one-box shape."""
    rs = case.root_system()
    base = char_of_irrep(rs, bracket_weight(case, (1,)))
    dec = decompose_character(rs, schur_character(rs, base, sigma, size_bound=12))
    return tuple((w.fund_coords(), m) for w, m in dec.entries.items())


@cache
def _tensor(rs: RootSystem, a: tuple, b: tuple) -> tuple:
    dec = decompose_character(rs, char_of_irrep(rs, a) * char_of_irrep(rs, b))
    return tuple((w.fund_coords(), m) for w, m in dec.entries.items())


def _tensor_with_sym(case: GroupCase, content: Decomposition, d: int) -> Decomposition:
    """content (x) Sym^d(E (x) V), with Sym^d(E (x) V) the sum over sigma of
    S_sigma E (x) S_sigma V, expanded into (shape, fundamental coordinates)."""
    rs = case.root_system()
    out = Decomposition()
    for (lam, mu_fc), mult in content.entries.items():
        for tau in partitions_of(lam.size + d, max_length=case.dim_e):
            for sigma, c in skew_schur_expand(tau, lam).entries.items():
                for nu_fc, m1 in _schur_of_v(case, sigma):
                    for kappa_fc, m2 in _tensor(rs, mu_fc, nu_fc):
                        out.add((tau, kappa_fc), mult * c * m1 * m2)
    return out


def peel_resolution(case: GroupCase, slice_fn, codim: int) -> list[GradedTerm]:
    """Peel an equivariant minimal free resolution over Sym(E (x) V) from the
    coordinate-ring slices slice_fn(j), j = 0..9, each a decomposition with
    (shape, weight) labels as `cauchy_slice` gives them; V is the irreducible
    bracket_weight(case, (1,)) and shapes have at most dim E rows.

    In degree j the defect is the slice minus the Euler characteristic of the
    terms found so far, tensored up to degree j.  With e the current end of
    the resolution, the defect's positive part goes to whichever of e, e + 1
    is even and its negative part to the odd one.  A summand present in both
    neighbouring degrees of one internal degree cancels there and is
    invisible to this rule.  A term past the codimension, or a length other
    than the codimension, raises InconsistencyError; the walk stops at
    internal degree 9, so a resolution that ends later reads as too short.

    Every case but OD is supported.  The OD slices give a fused mirror pair
    of full-length shapes one label (see `cauchy_slice`), while V is an
    irreducible of the connected group, so the defect would be wrong; OD
    raises ValueError.
    """
    if case.kind == "OD":
        raise ValueError(f"peel {case.name}: the slices fuse mirror pairs into one label; OD is not supported")
    rs = case.root_system()
    cells: dict[tuple[int, int], Decomposition] = {}
    end = 0
    last_degree = 9  # the resolutions peeled so far end by internal degree 9
    for j in range(last_degree + 1):
        euler = Decomposition()
        for (i, k), content in cells.items():
            euler += _tensor_with_sym(case, content, j - k).scale(-1 if i % 2 else 1)
        defect = slice_fn(j).map_labels(lambda lab: (lab[0], rs.fund_tuple(lab[1]))) - euler
        last = end
        for sign, parity in ((1, 0), (-1, 1)):
            part = Decomposition({label: sign * m for label, m in defect.entries.items() if sign * m > 0})
            if not part:
                continue
            i = last if last % 2 == parity else last + 1
            if i > codim:
                raise InconsistencyError(
                    f"peel {case.name}: internal degree {j} needs homological degree {i}, past the codimension {codim}"
                )
            cells[(i, j)] = part
            end = max(end, i)
    if end != codim:
        raise InconsistencyError(
            f"peel {case.name}: resolution has length {end}, not the codimension {codim}, "
            f"when the walk stops at internal degree {last_degree}"
        )
    return [
        GradedTerm(i, j, content.map_labels(lambda lab: (lab[0], rs.weight(lab[1]))))
        for (i, j), content in sorted(cells.items())
    ]


def g2_equivariant_resolution() -> list[GradedTerm]:
    """The equivariant minimal free resolution of the rank-2 variety (of
    codimension 5), peeled from its coordinate ring, with weight labels."""
    case = GroupCase("G2")
    return peel_resolution(case, lambda j: cauchy_slice(case, j)[0], 5)


def label_dimension(rs: RootSystem, dim_e: int | None):
    """The dimension of a (shape, weight) label, S_shape E (x) V_weight, as a
    function of the label; a shape of None has no multiplicity space."""
    return lambda label: dim_irrep(rs, label[1]) * (1 if label[0] is None else dim_schur(label[0], dim_e))


# ---------------------------------------------------------------------------
# dimension audits of stated resolutions

# Term spec: (homological index, internal degree, E-shape or None, weight fund
# coords, multiplicity).


@dataclass
class AuditSpec:
    family: str
    rank: int
    e_dim: int | None
    terms: list
    expected_totals: list | None
    ambient_dim: int | None = None
    description: str = ""


@dataclass
class AuditRow:
    index: int
    computed: int
    expected: int | None

    @property
    def passed(self) -> bool:
        return self.expected is None or self.computed == self.expected

    def to_json(self):
        return {"i": self.index, "computed": self.computed, "expected": self.expected, "pass": self.passed}


@dataclass
class AuditReport:
    name: str
    rows: list
    betti: BettiTable
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = all(r.passed for r in self.rows)

    def to_json(self):
        return {
            "name": self.name,
            "pass": self.passed,
            "rows": [r.to_json() for r in self.rows],
            "betti": self.betti.to_json(),
        }


def _audit_terms_to_graded(spec: AuditSpec) -> list[GradedTerm]:
    by_cell: dict[tuple, Decomposition] = {}
    for i, j, e_parts, fc, mult in spec.terms:
        lam = Partition(e_parts) if e_parts is not None else None
        label = (lam, fc)
        by_cell.setdefault((i, j), Decomposition()).add(label, mult)
    return [GradedTerm(i, j, content) for (i, j), content in sorted(by_cell.items())]


def run_audit(name: str) -> AuditReport:
    spec = AUDITS[name]
    dim_of = label_dimension(build_root_system(spec.family, spec.rank), spec.e_dim)
    betti = betti_of(_audit_terms_to_graded(spec), dim_of, spec.ambient_dim)
    ncols = max(betti.max_index + 1, len(spec.expected_totals or []))
    rows = []
    for i in range(ncols):
        expected = spec.expected_totals[i] if spec.expected_totals and i < len(spec.expected_totals) else None
        rows.append(AuditRow(i, betti.total(i), expected))
    return AuditReport(name, rows, betti)


def _cone_terms(entries) -> list:
    """Terms of a resolution over Sym(V) with no multiplicity space."""
    return [(i, j, None, fc, mult) for i, j, fc, mult in entries]


_F4_TRIV = (0, 0, 0, 0)
_F4_W1 = (1, 0, 0, 0)
_F4_W3 = (0, 0, 1, 0)
_F4_W4 = (0, 0, 0, 1)
_F4_2W4 = (0, 0, 0, 2)

# Resolution of the cone over the minimal orbit of the 26-dimensional
# representation.  The extracted source text of the middle terms dropped the
# 273-dimensional summand in homological degrees 4 and 6; it is restored here,
# as both the stated Betti column totals (650) and branching the rank-6
# minimal-orbit resolution through the rank-4 subgroup require it.
F4_CONE_TERMS = _cone_terms(
    [
        (0, 0, _F4_TRIV, 1),
        (1, 2, _F4_TRIV, 1),
        (1, 2, _F4_W4, 1),
        (2, 3, _F4_W1, 1),
        (2, 3, _F4_W4, 1),
        (3, 5, _F4_W4, 1),
        (3, 5, _F4_W3, 1),
        (3, 5, _F4_W1, 1),
        (4, 6, _F4_TRIV, 1),
        (4, 6, _F4_W4, 2),
        (4, 6, _F4_2W4, 1),
        (4, 6, _F4_W3, 1),
        (5, 7, _F4_TRIV, 1),
        (5, 7, _F4_W4, 1),
        (5, 7, _F4_2W4, 1),
        (5, 8, _F4_TRIV, 1),
        (5, 8, _F4_W4, 1),
        (5, 8, _F4_2W4, 1),
        (6, 9, _F4_TRIV, 1),
        (6, 9, _F4_W4, 2),
        (6, 9, _F4_2W4, 1),
        (6, 9, _F4_W3, 1),
        (7, 10, _F4_W4, 1),
        (7, 10, _F4_W3, 1),
        (7, 10, _F4_W1, 1),
        (8, 12, _F4_W1, 1),
        (8, 12, _F4_W4, 1),
        (9, 13, _F4_TRIV, 1),
        (9, 13, _F4_W4, 1),
        (10, 15, _F4_TRIV, 1),
    ]
)


def _e6(a1=0, a2=0, a3=0, a4=0, a5=0, a6=0):
    return (a1, a2, a3, a4, a5, a6)


E6_CONE_TERMS = _cone_terms(
    [
        (0, 0, _e6(), 1),
        (1, 2, _e6(a1=1), 1),
        (2, 3, _e6(a2=1), 1),
        (3, 5, _e6(a5=1), 1),
        (4, 6, _e6(a1=1, a6=1), 1),
        (5, 7, _e6(a1=2), 1),
        (5, 8, _e6(a6=2), 1),
        (6, 9, _e6(a1=1, a6=1), 1),
        (7, 10, _e6(a3=1), 1),
        (8, 12, _e6(a2=1), 1),
        (9, 13, _e6(a6=1), 1),
        (10, 15, _e6(), 1),
    ]
)

E6_BETTI_TOTALS = [1, 27, 78, 351, 650, 702, 650, 351, 78, 27, 1]
E6_HILBERT_NUMERATOR = [1, 10, 28, 28, 10, 1]

_E8_TRIV = (0,) * 8
_E8_W1 = (1, 0, 0, 0, 0, 0, 0, 0)
_E8_W2 = (0, 1, 0, 0, 0, 0, 0, 0)
_E8_W8 = (0, 0, 0, 0, 0, 0, 0, 1)

E8_START_TERMS = _cone_terms(
    [
        (0, 0, _E8_TRIV, 1),
        (1, 2, _E8_TRIV, 1),
        (1, 2, _E8_W1, 1),
        (2, 3, _E8_W8, 1),
        (2, 3, _E8_W2, 1),
        (2, 3, _E8_W1, 1),
    ]
)

# Resolution of the rank-1 isotropic variety in two copies of the
# 7-dimensional representation, as (E-shape; weight) pairs.  The list is the
# unique one compatible with the coordinate ring, the stated Betti table, and
# Euler-characteristic exactness (every internal degree splits with exact
# dimension match); the extracted source text of the middle terms was
# internally inconsistent, and the test suite re-derives this list from
# scratch with peel_resolution.
G2_Y1_TERMS = [
    (0, 0, (), (0, 0), 1),
    (1, 2, (2,), (0, 0), 1),
    (1, 2, (1, 1), (1, 0), 1),
    (1, 2, (1, 1), (0, 1), 1),
    (2, 3, (2, 1), (0, 0), 1),
    (2, 3, (2, 1), (1, 0), 2),
    (2, 3, (2, 1), (2, 0), 1),
    (3, 4, (3, 1), (0, 0), 1),
    (3, 4, (2, 2), (1, 0), 1),
    (3, 4, (3, 1), (1, 0), 1),
    (3, 4, (3, 1), (2, 0), 1),
    (3, 4, (2, 2), (0, 1), 1),
    (4, 5, (4, 1), (1, 0), 1),
    (4, 5, (4, 1), (0, 1), 1),
    (4, 6, (3, 3), (0, 0), 1),
    (4, 6, (3, 3), (1, 0), 1),
    (4, 6, (3, 3), (2, 0), 1),
    (5, 6, (5, 1), (1, 0), 1),
    (5, 7, (4, 3), (1, 0), 1),
    (5, 7, (4, 3), (0, 1), 1),
    (6, 7, (6, 1), (0, 0), 1),
    (6, 8, (5, 3), (1, 0), 1),
    (7, 9, (6, 3), (0, 0), 1),
]

G2_Y1_BETTI_TOTALS = [1, 24, 84, 126, 119, 77, 27, 4]

AUDITS = {
    "g2-y1": AuditSpec(
        family="G",
        rank=2,
        e_dim=2,
        terms=G2_Y1_TERMS,
        expected_totals=G2_Y1_BETTI_TOTALS,
        ambient_dim=14,
        description="rank-1 variety in two copies of the 7-dimensional representation",
    ),
    "f4-cone": AuditSpec(
        family="F",
        rank=4,
        e_dim=None,
        terms=F4_CONE_TERMS,
        expected_totals=E6_BETTI_TOTALS,
        ambient_dim=26,
        description="cone over the minimal orbit of the 26-dimensional representation",
    ),
    "e6-cone": AuditSpec(
        family="E",
        rank=6,
        e_dim=None,
        terms=E6_CONE_TERMS,
        expected_totals=E6_BETTI_TOTALS,
        ambient_dim=27,
        description="cone over the minimal orbit of the 27-dimensional representation",
    ),
    "e8-start": AuditSpec(
        family="E",
        rank=8,
        e_dim=None,
        terms=E8_START_TERMS,
        expected_totals=[1, 3876, 151373],
        ambient_dim=248,
        description="first steps of the resolution of the adjoint minimal-orbit cone",
    ),
}

# Reference only: the characteristic-2 Betti table of the rank-2 variety, as
# stated; nothing in this package computes characteristic-p data.
G2_Y2_BETTI_CHAR2_TEXT = """\
       0  1  2  3  4 5
total: 1 10 17 17 10 1
    0: 1  .  .  .  . .
    1: . 10 16  1  . .
    2: .  .  1 16 10 .
    3: .  .  .  .  . 1"""
