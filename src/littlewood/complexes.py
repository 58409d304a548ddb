"""Littlewood complexes, bracket maps, stable-range branching, and the spinor
complexes for the orthogonal types.

Each group case pairs a multiplicity space E with a small representation V;
the bracket map sends a partition with at most dim E rows to the highest
weight of the irreducible it tags inside Sym(E (x) V).  The complexes are the
Schur-isotypic slices of the Koszul resolutions of the associated varieties,
and their Euler characteristics invert Littlewood's branching matrices, which
is exactly what verify_littlewood_identity checks.
"""

from __future__ import annotations

from functools import cache
from types import MappingProxyType
from typing import NamedTuple

from .bott import SPINOR_FAMILIES, SpinLabel, spin_label, spin_mirrors, spin_weight
from .characters import (
    RootSystem,
    Weight,
    build_root_system,
    dim_irrep,
    schur_character,
)
from .errors import InconsistencyError, StableRangeError, check_bound
from .partitions import (
    Decomposition,
    Partition,
    dim_schur,
    enumerate_q,
    partitions_of,
    skew_schur_expand,
)


class Classical(NamedTuple):
    """A classical kind: V of dimension 2n (+1 for B) with the form of its group."""
    family: str  # root-system family
    least_rank: int
    variant: str  # the Q-set of its Littlewood complex
    group: str  # the isometry group of the form, the branching target

    def dim_v(self, n: int) -> int:
        return 2 * n + (self.family == "B")


_CLASSICAL = {
    "SpC": Classical("C", 1, "minus", "Sp"),
    "SOB": Classical("B", 1, "plus", "O"),
    "OD": Classical("D", 2, "plus", "O"),
}
LITTLEWOOD_FAMILIES = tuple(sorted(row.family for row in _CLASSICAL.values()))


def classical(family: str) -> Classical:
    """The classical kind of a Littlewood family B, C or D."""
    if family not in LITTLEWOOD_FAMILIES:
        raise ValueError("family must be B, C, or D")
    return next(row for row in _CLASSICAL.values() if row.family == family)


_EXCEPTIONAL = {
    # kind: (dim E, dim V, root system, bracket columns): column k is the
    # bracket weight of 1^k, written as its fundamental weights' indices
    "G2": (2, 7, ("G", 2), ((1,), (2,))),
    "F4_6": (6, 26, ("F", 4), ((4,), (3,), (2,))),
    "F4_3": (3, 26, ("F", 4), ((4,), (3,), (2,))),
    "E6_5": (5, 27, ("E", 6), ((1,), (3,), (4,), (2, 5), (5, 5))),
    "E6_3": (3, 27, ("E", 6), ((1,), (3,), (4,))),
    "E7_6": (6, 56, ("E", 7), ((7,), (6,), (5,), (4,), (2, 3), (3, 3))),
    "E8_7": (7, 248, ("E", 8), ((8,), (7,), (6,), (5,), (4,), (2, 3), (3, 3))),
}

CASE_KINDS = (*_CLASSICAL, *_EXCEPTIONAL)


class GroupCase:
    """A multiplicity space E and a representation V of the kind's group.  dim E
    defaults to the kind's (n for a classical kind); an exceptional kind with
    dim E = 1 is the cone over the minimal orbit of V."""

    __slots__ = ("kind", "n", "dim_e")

    def __init__(self, kind: str, n: int | None = None, dim_e: int | None = None):
        if kind not in CASE_KINDS:
            raise ValueError(f"unknown case kind {kind}")
        if kind in _CLASSICAL:
            least = _CLASSICAL[kind].least_rank
            if n is None or n < least:
                raise ValueError(f"case {kind} needs a rank n >= {least}, got {n}")
        elif n is not None:
            raise ValueError(f"case {kind} takes no rank parameter")
        if dim_e is None:
            dim_e = n if n is not None else _EXCEPTIONAL[kind][0]
        elif dim_e < 1:
            raise ValueError(f"case {kind}: dim E {dim_e} is below 1")
        self.kind, self.n, self.dim_e = kind, n, dim_e

    def __eq__(self, other):
        return other.__class__ is GroupCase and (self.kind, self.n, self.dim_e) == (other.kind, other.n, other.dim_e)

    def __hash__(self):
        return hash((self.kind, self.n, self.dim_e))

    def __repr__(self):
        return f"GroupCase(kind={self.kind!r}, n={self.n!r}, dim_e={self.dim_e!r})"

    @property
    def name(self) -> str:
        return f"{self.kind}({self.n})" if self.n is not None else self.kind

    @property
    def dim_v(self) -> int:
        return _CLASSICAL[self.kind].dim_v(self.n) if self.n is not None else _EXCEPTIONAL[self.kind][1]

    @property
    def bracket_rows(self) -> int:
        return self.n if self.n is not None else len(_EXCEPTIONAL[self.kind][3])

    def root_system(self) -> RootSystem:
        family, rank = (_CLASSICAL[self.kind].family, self.n) if self.n is not None else _EXCEPTIONAL[self.kind][2]
        return build_root_system(family, rank)

    def __str__(self):
        return self.name


def parse_case(text: str) -> GroupCase:
    text = text.strip()
    if "(" in text:
        kind, rest = text.split("(", 1)
        try:
            n = int(rest.rstrip(")"))
        except ValueError:
            raise ValueError(f"parse_case: {text!r} is not a case; expected a kind, or a classical kind with its rank, e.g. SpC(3)") from None
        return GroupCase(kind, n)
    return GroupCase(text)


def bracket_weight(case: GroupCase, lam) -> Weight:
    """The case's bracket map: the dominant weight tagging the shape's
    isotypic piece of the coordinate ring.  It is additive, so the columns 1^k
    fix it.  Row counts are capped at dim E, except in the six-copy F4 case,
    which is spherical only on shapes with at most three rows (beyond that the
    slice carries multiplicities and no single weight exists)."""
    lam = Partition(lam)
    if len(lam) > case.bracket_rows:
        raise ValueError(f"{case.name}: bracket map accepts at most {case.bracket_rows} rows, got {len(lam)}")
    if case.n is not None:
        return Weight.epsilon(_CLASSICAL[case.kind].family, case.n, tuple(lam[i] for i in range(case.n)))
    _, _, (family, rank), columns = _EXCEPTIONAL[case.kind]
    coords = [0] * rank
    for k, column in enumerate(columns):
        for i in column:
            coords[i - 1] += lam[k] - lam[k + 1]
    return Weight.fundamental(family, rank, coords)


def bracket_labels(case: GroupCase, lam) -> list[Weight]:
    """The irreducibles of the connected group that the shape tags: its
    bracket weight, and for an even orthogonal shape with n rows also the
    mirror, the same epsilon weight with the last coordinate negated."""
    lam = Partition(lam)
    w = bracket_weight(case, lam)
    if case.kind == "OD" and len(lam) == case.n:
        return [w, Weight(w.system, w.twice[:-1] + (-w.twice[-1],))]
    return [w]


# ---------------------------------------------------------------------------
# Littlewood complexes


class GradedTerm(NamedTuple):
    index: int  # homological degree
    degree: int  # internal degree, the twist A(-degree)
    content: Decomposition

    def to_json(self):
        return {"i": self.index, "degree": self.degree, "content": self.content.to_json()}


def littlewood_complex(family: str, lam) -> list[GradedTerm]:
    """The Schur-isotypic slice of the Koszul complex of the Littlewood
    variety: in homological degree i, the skew Schur functors by the size-2i
    members of the Q-set (minus for the symplectic family, plus for the
    orthogonal ones)."""
    variant = classical(family).variant
    lam = Partition(lam)
    terms = []
    for i in range(lam.size // 2 + 1):
        content = Decomposition()
        for mu in enumerate_q(variant, 2 * i):
            content += skew_schur_expand(lam, mu)
        terms.append(GradedTerm(i, 2 * i, content))
    return terms


def _parse_target(target):
    given = target
    if isinstance(target, str):
        try:
            kind, m = target.replace("(", ":").rstrip(")").split(":")
            target = (kind.capitalize() if kind.lower() == "sp" else kind.upper(), int(m))
        except ValueError:  # not two fields, or no int after the kind
            target = None
    if target is None or target[0] not in ("Sp", "O"):
        raise ValueError(f"branch_gl_to_iso: {given!r} is not a target; expected Sp:<m> or O:<m>, e.g. O:5 or Sp(4)")
    kind, m = target
    if m < 2 or kind == "Sp" and m % 2:
        raise ValueError(f"branch_gl_to_iso: {given!r} is not a target; {kind} needs {'an even' if kind == 'Sp' else 'a'} dimension m >= 2")
    return kind, m


def branch_gl_to_iso(lam, target, oracle: bool = False) -> Decomposition:
    """Restriction of a GL Schur functor to the isometry group of a form.

    The default is Littlewood's stable-range rule in skew form,
    s_lam restricted = sum over beta of s_{lam/beta}, with beta running over
    the shapes inside lam with even columns (symplectic) or even rows
    (orthogonal) (Koike-Terada, J. Algebra 107 (1987)).  Each beta comes
    from a partition nu of half its size, rows doubled (nu1, nu1, nu2, nu2,
    ...) for Sp and parts doubled (2 nu) for O.  The rule's table is
    memoised per shape and group, after the row limit; each call returns a
    fresh Decomposition of it.  With oracle=True the answer is
    recomputed from scratch through characters of the connected group.  That
    covers every shape for Sp targets, and for odd-dimensional O targets too:
    there -I acts on S_lam by (-1)^|lam|, which tells an O(m) label from its
    associate.  For even-dimensional O targets -I cannot, so there the oracle
    also refuses shapes with more than m/2 rows.
    """
    kind, m = _parse_target(target)
    lam = Partition(lam)
    n = m // 2
    if oracle and (kind == "Sp" or m % 2 or len(lam) <= n):
        return _branch_by_characters(lam, kind, m)
    if len(lam) > n:
        route = "the character oracle" if oracle else "Littlewood's rule"
        raise StableRangeError(
            f"{route} needs at most {n} rows for {kind}({m}); {lam} has {len(lam)} "
            "(the wider regime is out of scope)"
        )
    return Decomposition(_littlewood_rule(lam, kind))


@cache
def _littlewood_rule(lam: Partition, kind: str) -> MappingProxyType:
    """Littlewood's rule for the shape and the group, Sp or O, as a read-only
    table {label: multiplicity}: it never reads m, so one table serves every
    target in the stable range, which the caller checks first."""
    # nu boxed so that beta fits in lam's first row and its number of rows
    rows, cols = (len(lam) // 2, lam[0]) if kind == "Sp" else (len(lam), lam[0] // 2)
    out = Decomposition()
    for half in range(lam.size // 2 + 1):
        for nu in partitions_of(half, max_length=rows, max_part=cols):
            beta = [p for p in nu for _ in (0, 1)] if kind == "Sp" else [2 * p for p in nu]
            out += skew_schur_expand(lam, beta)
    return MappingProxyType(out.entries)


def _branch_by_characters(lam: Partition, kind: str, m: int) -> Decomposition:
    """Branching through characters of the connected group: the constituents
    of the Schur functor of the vector representation (`schur_character`),
    independent of Littlewood's rule.  Labels are partitions; in the even
    orthogonal case the two mirror full-length irreducibles are fused into one
    orthogonal label, and in the odd one a constituent mu whose size has the
    other parity than lam is the associate label (first column m - len(mu)),
    since -I acts on S_lam by (-1)^|lam|."""
    n = m // 2
    family = next(row.family for row in _CLASSICAL.values() if row.group == kind and row.dim_v(n) == m)
    dec = schur_character(build_root_system(family, n), Weight.epsilon(family, n, (1,) + (0,) * (n - 1)), lam)  # V_{eps_1}
    out, unmatched = Decomposition(), Decomposition()
    for w, mult in dec.entries.items():
        eps = tuple(t >> 1 for t in w.to_epsilon().twice)  # integral, as in every tensor power of V
        label = Partition(tuple(map(abs, eps)))
        if kind == "O" and m % 2 and (label.size - lam.size) % 2:
            label = Partition(label.parts + (1,) * (m - 2 * len(label)))
        if kind == "O" and m % 2 == 0 and eps[-1]:
            unmatched.add(label, mult if eps[-1] > 0 else -mult)
            if eps[-1] < 0:
                continue
        out.add(label, mult)
    if unmatched:
        raise InconsistencyError(
            f"branch {lam} to O({m}): mirror irreducibles differ in multiplicity (last coordinate positive "
            f"minus negative: {unmatched!r}); not an O(V)-stable character"
        )
    return out


class Report(NamedTuple):
    passed: bool
    case: str
    lhs: object
    rhs: object

    def to_json(self):
        def dump(x):
            return x.to_json() if hasattr(x, "to_json") else x

        return {"pass": self.passed, "case": self.case, "lhs": dump(self.lhs), "rhs": dump(self.rhs)}


def verify_littlewood_identity(family: str, lam, n: int, oracle: bool = False) -> Report:
    """Euler characteristic of the Littlewood complex against the single
    bracket label: exact multiset equality, not a dimension count."""
    lam = Partition(lam)
    row = classical(family)
    check_bound("verify_littlewood_identity", (family, lam), "n", n, None, lower=1)
    if len(lam) > n:
        raise StableRangeError(f"verify_littlewood_identity {family} {lam}: need at most {n} rows in the stable range, got {len(lam)}")
    target = (row.group, row.dim_v(n))
    euler = Decomposition()
    for term in littlewood_complex(family, lam):
        sign = -1 if term.index % 2 else 1
        for nu, c in term.content.entries.items():
            euler += branch_gl_to_iso(nu, target, oracle=oracle).scale(sign * c)
    rhs = Decomposition({lam: 1})
    return Report(passed=euler == rhs, case=f"{family} lambda={lam} n={n}", lhs=euler, rhs=rhs)


# ---------------------------------------------------------------------------
# spinor complexes


def spinor_complex(family: str, n: int) -> list[GradedTerm]:
    """Terms of the minimal free resolution of the Littlewood spinor module:
    one summand for every self-transpose shape in the n-box, sitting in
    homological degree (size + diagonal)/2 and internal degree size, tagged by
    the spin label the parity rule dictates."""
    if family not in SPINOR_FAMILIES:
        raise ValueError(f"family must be one of {SPINOR_FAMILIES}")
    check_bound("spinor_complex", family, "n", n, 8, lower=1)
    by_cell: dict[tuple, Decomposition] = {}
    for size in range(n * n + 1):
        for lam in partitions_of(size, max_length=n, max_part=n):
            if lam.transpose() == lam:
                cell = by_cell.setdefault(((size + lam.rank) // 2, size), Decomposition())
                cell.add((lam, spin_label(family, lam.rank)), 1)
    return [GradedTerm(i, j, content) for (i, j), content in sorted(by_cell.items())]


def _spin_dim(rs: RootSystem, label: SpinLabel, parts) -> int:
    """dim of the irreducible(s) parts + delta over the mirrors the label spans."""
    return sum(dim_irrep(rs, spin_weight(rs.family, rs.rank, parts, mirror)) for mirror in spin_mirrors(rs.family, label))


def verify_spinor_identity(family: str, n: int, lam) -> Report:
    """Dimension-level Euler check of the spinor complex against the spin-
    shifted irreducible(s): alternating sums of skew Schur dimensions times
    the spin dimension must equal dim V_{lam+delta}."""
    lam = Partition(lam)
    if family in SPINOR_FAMILIES:  # the rank first: B_n needs n >= 1, D_n n >= 2
        check_bound("verify_spinor_identity", family, "n", n, None, lower=classical(family[0]).least_rank)
    if len(lam) > n:
        raise ValueError(f"verify_spinor_identity {family} {lam}: need at most {n} rows, got {len(lam)}")
    terms = spinor_complex(family, n)  # checks the family, and n against its bound, first
    rs, dim_v = build_root_system(family[0], n), classical(family[0]).dim_v(n)
    label_dims = {label: _spin_dim(rs, label, (0,) * n) for label in {label for term in terms for _, label in term.content.entries}}
    lhs = 0
    for term in terms:
        for (mu, label), mult in term.content.entries.items():
            if lam.contains(mu):
                skew_dim = sum(c * dim_schur(nu, dim_v) for nu, c in skew_schur_expand(lam, mu).entries.items())
                lhs += (-1) ** term.index * mult * skew_dim * label_dims[label]
    rhs = _spin_dim(rs, spin_label(family, 0), lam)  # the family's own label, that of the empty shape
    return Report(passed=lhs == rhs, case=f"{family} n={n} lambda={lam}", lhs=lhs, rhs=rhs)
