"""Root systems, exact weights, and character arithmetic for types A through G.

Weights are stored internally as integer vectors of pairings with the simple
coroots ("fundamental coordinates").  The epsilon realizations of the
classical types are provided for input and output because that is how the
classical literature writes weights as partitions; spin weights are
half-integral there but always integral in fundamental coordinates, and a
`Weight` stores every coordinate doubled, so it holds both as ints.  All
arithmetic is exact, in ints and doubled ints; Fractions appear only in
`RootSystem.height`.

Conversion conventions (Bourbaki node numbering):
  A_n: eps has n+1 coordinates, m_i = x_i - x_{i+1}; back-conversion pins
       x_{n+1} = 0.
  B_n: m_i = x_i - x_{i+1} for i < n, m_n = 2 x_n.
  C_n: m_i = x_i - x_{i+1} for i < n, m_n = x_n.
  D_n: m_i = x_i - x_{i+1} for i < n-1, m_{n-1} = x_{n-1} - x_n,
       m_n = x_{n-1} + x_n.
"""

from __future__ import annotations

import itertools
import operator
import os
from fractions import Fraction
from functools import cache
from types import MappingProxyType
from typing import NamedTuple

from .errors import InconsistencyError, NotCharacterError, check_bound
from .partitions import Decomposition, Partition, border_strips, dim_schur, newton_series

DIM_BOUND_ENV = "LITTLEWOOD_DIM_BOUND"

SCHUR_SIZE_BOUND = 8


def dim_bound() -> int:
    try:
        return int(os.environ.get(DIM_BOUND_ENV, 10**6))
    except ValueError:
        raise ValueError(f"dim_bound: {DIM_BOUND_ENV} {os.environ[DIM_BOUND_ENV]!r} is not an integer") from None


class CoordSystem:
    __slots__ = ("kind", "family", "rank")

    def __init__(self, kind: str, family: str, rank: int):
        if kind not in ("fundamental", "epsilon"):
            raise ValueError(f"unknown coordinate kind {kind}")
        self.kind, self.family, self.rank = kind, family, rank

    def __eq__(self, other):
        return other.__class__ is CoordSystem and (self.kind, self.family, self.rank) == (other.kind, other.family, other.rank)

    def __hash__(self):
        return hash((self.kind, self.family, self.rank))

    @property
    def dimension(self) -> int:
        if self.kind == "epsilon":
            return self.rank + 1 if self.family == "A" else self.rank
        return self.rank

    def __str__(self):
        return f"{self.kind}:{self.family}{self.rank}"


def _half_str(t: int) -> str:
    """The number t/2, written as an integer or as n/2."""
    return str(t >> 1) if t & 1 == 0 else f"{t}/2"


class Weight:
    """A weight in one coordinate system, every coordinate stored doubled, so
    the half-integral epsilon coordinates of spin weights are ints too."""

    __slots__ = ("system", "twice")

    def __init__(self, system: CoordSystem, twice):
        twice = tuple(twice)
        if not all(isinstance(t, int) for t in twice):
            raise TypeError(f"doubled weight coordinates must be ints, got {twice!r}")
        if len(twice) != system.dimension:
            raise ValueError(f"{system} weights have {system.dimension} coordinates, got {len(twice)}")
        self.system, self.twice = system, twice

    def __eq__(self, other):
        return other.__class__ is Weight and self.system == other.system and self.twice == other.twice

    def __hash__(self):
        return hash((self.system, self.twice))

    @classmethod
    def fundamental(cls, family: str, rank: int, coords) -> "Weight":
        return cls(CoordSystem("fundamental", family, rank), tuple(2 * c for c in coords))

    @classmethod
    def epsilon(cls, family: str, rank: int, coords) -> "Weight":
        return cls(CoordSystem("epsilon", family, rank), tuple(2 * c for c in coords))

    def fund_coords(self) -> tuple:
        """Integer fundamental coordinates; errors off the weight lattice."""
        twice = self.twice
        if self.system.kind == "epsilon":
            twice = _eps_to_fund(self.system.family, self.system.rank, twice)
        if any(t & 1 for t in twice):
            raise ValueError(f"{self} is not on the weight lattice")
        return tuple(t >> 1 for t in twice)

    def to_epsilon(self) -> "Weight":
        if self.system.kind == "epsilon":
            return self
        xs = _fund_to_eps(self.system.family, self.system.rank, self.fund_coords())
        return Weight(CoordSystem("epsilon", self.system.family, self.system.rank), xs)

    def __str__(self):
        kind = "fund" if self.system.kind == "fundamental" else "eps"
        coords = ",".join(map(_half_str, self.twice))
        return f"{kind}:{self.system.family}{self.system.rank}:{coords}"

    def __repr__(self):
        return f"Weight({self})"

    def to_json(self):
        return {"system": str(self.system), "coords": [_half_str(t) if t & 1 else t >> 1 for t in self.twice]}


def _eps_to_fund(family: str, rank: int, xs) -> tuple:
    """Doubled fundamental coordinates from doubled epsilon coordinates."""
    n = rank
    if family == "A":
        if len(xs) != n + 1:
            raise ValueError(f"A{n} epsilon weights have {n + 1} coordinates")
        return tuple(xs[i] - xs[i + 1] for i in range(n))
    if len(xs) != n:
        raise ValueError(f"{family}{n} epsilon weights have {n} coordinates")
    if family == "B":
        return tuple(xs[i] - xs[i + 1] for i in range(n - 1)) + (2 * xs[n - 1],)
    if family == "C":
        return tuple(xs[i] - xs[i + 1] for i in range(n - 1)) + (xs[n - 1],)
    if family == "D":
        if n < 2:
            raise ValueError("type D needs rank >= 2")
        head = tuple(xs[i] - xs[i + 1] for i in range(n - 2))
        return head + (xs[n - 2] - xs[n - 1], xs[n - 2] + xs[n - 1])
    raise ValueError(f"epsilon coordinates are not defined for type {family}")


def _fund_to_eps(family: str, rank: int, ms) -> tuple:
    """Doubled epsilon coordinates from integer fundamental coordinates."""
    n = rank
    # Fix the last coordinates, then x_i = x_{i+1} + m_i below them.
    xs = [0] * (n + 1 if family == "A" else n)
    if family == "A":
        tail = n
    elif family in ("B", "C"):
        xs[n - 1] = ms[n - 1] if family == "B" else 2 * ms[n - 1]
        tail = n - 1
    elif family == "D":
        xs[n - 2] = ms[n - 2] + ms[n - 1]
        xs[n - 1] = ms[n - 1] - ms[n - 2]
        tail = n - 2
    else:
        raise ValueError(f"epsilon coordinates are not defined for type {family}")
    for i in range(tail - 1, -1, -1):
        xs[i] = xs[i + 1] + 2 * ms[i]
    return tuple(xs)


# ---------------------------------------------------------------------------
# root system construction

RANK_BOUND = 8  # the families A-D have every rank from their first; they are built up to this one
_RANK_RANGES = {"A": (1, RANK_BOUND), "B": (1, RANK_BOUND), "C": (1, RANK_BOUND), "D": (2, RANK_BOUND), "E": (6, 8), "F": (4, 4), "G": (2, 2)}

_EXPECTED_POSITIVE = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * n - n,
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}


def _cartan_and_d(family: str, n: int):
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def link(i, j, aij=-1, aji=-1):
        a[i][j] = aij
        a[j][i] = aji

    d = [1] * n
    if family == "A":
        for i in range(n - 1):
            link(i, i + 1)
    elif family in ("B", "C"):
        for i in range(n - 2):
            link(i, i + 1)
        if n >= 2:
            if family == "B":
                link(n - 2, n - 1, -2, -1)
            else:
                link(n - 2, n - 1, -1, -2)
        d = [2] * (n - 1) + [1] if family == "B" else [1] * (n - 1) + [2]
    elif family == "D":
        for i in range(n - 2):
            link(i, i + 1)
        if n >= 3:
            link(n - 3, n - 1)
    elif family == "E":
        for i, j in [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4), (6, 7), (7, 8)]:
            if i <= n and j <= n:
                link(i - 1, j - 1)
    elif family == "F":
        link(0, 1)
        link(1, 2, -2, -1)
        link(2, 3)
        d = [2, 2, 1, 1]
    elif family == "G":
        link(0, 1, -1, -3)
        d = [1, 3]
    else:
        raise ValueError(f"unknown type {family}")
    return tuple(tuple(row) for row in a), tuple(d)


class _Root(NamedTuple):
    fund_coords: tuple  # pairings with the simple coroots
    coroot_coords: tuple  # coefficients of the coroot on the simple coroots
    d: int  # half the squared length
    simple_coords: tuple  # coefficients on the simple roots


class RootSystem:
    """Immutable root-system data for one simple type; cached singleton."""

    def __init__(self, family: str, rank: int):
        if family not in _RANK_RANGES:
            raise ValueError(f"unsupported type {family}{rank}")
        lo, hi = _RANK_RANGES[family]
        if rank < lo or rank > hi and family in "EFG":  # a rank the family does not have
            ranks = f"ranks {lo} and up" if family in "ABCD" else f"ranks {lo} to {hi}" if lo < hi else f"rank {lo}"
            raise ValueError(f"unsupported type {family}{rank}: {family} takes {ranks}")
        check_bound("build_root_system", family, "rank", rank, RANK_BOUND, "RANK_BOUND")
        self.family = family
        self.rank = rank
        self.cartan, self.d = _cartan_and_d(family, rank)
        # Sparse Cartan rows: node i itself and its Dynkin neighbours.
        self._links = tuple(tuple((j, a) for j, a in enumerate(row) if a) for row in self.cartan)
        self._roots = self._close_roots()
        count = _EXPECTED_POSITIVE[family](rank)
        if len(self._roots) != count:
            raise InconsistencyError(f"{family}{rank}: got {len(self._roots)} positive roots, expected {count}")
        # rho both ways: half-sum of positive roots must be all ones.
        twice_rho = [0] * rank
        for root in self._roots:
            for i, c in enumerate(root.fund_coords):
                twice_rho[i] += c
        if any(c != 2 for c in twice_rho):
            raise InconsistencyError(f"{family}{rank}: half-sum of positive roots is not the rho vector")
        # 2 rho^vee on the simple coroots, the sum of the positive coroots: it
        # pairs to 2 with every simple root, so fc . height_vector == 2 height(fc).
        self.height_vector = tuple(map(sum, zip(*(r.coroot_coords for r in self._roots))))
        if any(sum(map(operator.mul, row, self.height_vector)) != 2 for row in self.cartan):
            raise InconsistencyError(f"{family}{rank}: the sum of the positive coroots {self.height_vector} does not pair to 2 with every simple root")

    def _close_roots(self):
        n = self.rank
        a = self.cartan
        seen = {}
        queue = []
        for i in range(n):
            rc = tuple(int(i == j) for j in range(n))
            seen[rc] = self.d[i]
            queue.append(rc)
        while queue:
            rc = queue.pop()
            for i in range(n):
                p = sum(rc[j] * a[j][i] for j in range(n))
                new = list(rc)
                new[i] -= p
                new = tuple(new)
                if new == rc or new in seen:
                    continue
                if all(c >= 0 for c in new):
                    seen[new] = seen[rc]
                    queue.append(new)
        roots = []
        for rc in sorted(seen):
            d_alpha = seen[rc]
            fc = tuple(sum(rc[j] * a[j][i] for j in range(self.rank)) for i in range(self.rank))
            co = []
            for j in range(self.rank):
                num = rc[j] * self.d[j]
                if num % d_alpha != 0:
                    raise InconsistencyError(f"non-integral coroot for {rc} in {self}")
                co.append(num // d_alpha)
            roots.append(_Root(fc, tuple(co), d_alpha, rc))
        return tuple(roots)

    # -- identity ----------------------------------------------------------
    def __eq__(self, other):
        return isinstance(other, RootSystem) and (self.family, self.rank) == (other.family, other.rank)

    def __hash__(self):
        return hash((self.family, self.rank))

    def __repr__(self):
        return f"RootSystem({self.family}{self.rank})"

    # -- internal exact linear algebra on fundamental coordinates ----------
    def reflect(self, i: int, fc: tuple) -> tuple:
        """s_i: coordinate j loses fc[i] * a_ij, so coordinate i changes sign, each
        Dynkin neighbour grows (a_ij < 0) and no other coordinate moves."""
        c = fc[i]
        if c == 0:
            return fc
        v = list(fc)
        for j, a in self._links[i]:
            v[j] -= c * a
        return tuple(v)

    def _walk(self, fc: tuple, shifted: bool):
        """(steps, dominant conjugate of fc) by reflections of one list in
        place, each at its lowest coordinate.  A reflection at any negative
        coordinate turns exactly one positive root from negative to positive
        on the weight, so steps is the number of positive roots negative on
        fc whichever is taken, and the dominant conjugate is unique.  Shifted
        (fc is some lam + rho): None at the first zero coordinate, as a zero
        anywhere puts the weight on a root's wall."""
        v, links = list(fc), self._links
        for steps in range(len(self._roots) + 1):
            if shifted and 0 in v:
                return None
            c = min(v)
            if c >= 0:
                return steps, tuple(v)
            for j, a in links[v.index(c)]:
                v[j] -= c * a
        raise InconsistencyError(f"Weyl walk from {fc} in {self}: more than {len(self._roots)} reflections, the number of positive roots")

    def walk(self, fc: tuple) -> tuple:
        """(steps, dominant conjugate of fc): steps is the length of the Weyl
        element that takes fc there, at most the number of positive roots."""
        return self._walk(fc, False)

    def dominant_conjugate(self, fc: tuple) -> tuple:
        return self._walk(fc, False)[1]

    def dot_walk(self, fc: tuple):
        """Bott's rho-shifted walk: (steps, lam) with lam + rho the dominant
        conjugate of fc + rho, or None when fc + rho lies on a wall."""
        walked = self._walk(tuple(c + 1 for c in fc), True)
        return walked and (walked[0], tuple(c - 1 for c in walked[1]))

    def height(self, fc: tuple) -> Fraction:
        """<fc, rho^vee>: the sum of the simple-root coordinates (Fractions off the root lattice)."""
        return Fraction(sum(map(operator.mul, fc, self.height_vector)), 2)

    def fund_tuple(self, weight) -> tuple:
        if isinstance(weight, Weight):
            return weight.fund_coords()
        if isinstance(weight, Partition):
            raise TypeError("convert partitions to Weights explicitly")
        return tuple(int(c) for c in weight)

    def weight(self, fc) -> Weight:
        return Weight.fundamental(self.family, self.rank, tuple(fc))


@cache
def build_root_system(family: str, rank: int) -> RootSystem:
    return RootSystem(family, rank)


# ---------------------------------------------------------------------------
# Weyl dimension formula


def dim_irrep(rs: RootSystem, weight) -> int:
    fc = rs.fund_tuple(weight)
    if any(c < 0 for c in fc):
        raise ValueError(f"weight {fc} is not dominant for {rs}")
    return _dim_irrep(rs.family, rs.rank, fc)


@cache
def _dim_irrep(family: str, rank: int, fc: tuple) -> int:
    rs = build_root_system(family, rank)
    v = tuple(c + 1 for c in fc)
    num = 1
    den = 1
    for root in rs._roots:
        num *= sum(e * x for e, x in zip(root.coroot_coords, v))
        den *= sum(root.coroot_coords)
    if num % den:
        raise InconsistencyError(f"Weyl dimension of {fc} in {family}{rank}: quotient {num}/{den} is not an integer")
    return num // den


# ---------------------------------------------------------------------------
# Freudenthal weight multiplicities


@cache
def _dominant_mults(family: str, rank: int, top: tuple) -> dict:
    """Freudenthal on the dominant weights below top, by depth: the height of
    top - mu.  The search down from top by positive roots carries ks, the
    simple-root coordinates of top - mu, and a weight reached twice must be
    reached with the same ks."""
    rs = build_root_system(family, rank)
    dom = {top: (0,) * rank}
    queue = [top]
    while queue:
        v = queue.pop()
        for root in rs._roots:
            cand = tuple(map(operator.sub, v, root.fund_coords))
            if all(c >= 0 for c in cand):
                ks = tuple(map(operator.add, dom[v], root.simple_coords))
                if cand not in dom:
                    dom[cand] = ks
                    queue.append(cand)
                elif dom[cand] != ks:
                    raise InconsistencyError(f"Freudenthal for {top} in {family}{rank}: {top} - {cand} has two root expansions {dom[cand]} and {ks}")

    mults: dict[tuple, int] = {}
    for mu, ks in sorted(dom.items(), key=lambda t: sum(t[1])):
        if mu == top:
            mults[mu] = 1
            continue
        num = 0
        for root in rs._roots:
            pairing = sum(e * m for e, m in zip(root.coroot_coords, mu))
            k = 1
            while True:
                w = tuple(a + k * b for a, b in zip(mu, root.fund_coords))
                m = mults.get(rs.dominant_conjugate(w))
                if m is None:
                    break
                if m:
                    num += m * root.d * (pairing + 2 * k)
                k += 1
        denom = sum(k * di * (t + m + 2) for k, di, t, m in zip(ks, rs.d, top, mu))
        val = 2 * num
        if denom <= 0 or val % denom:
            raise InconsistencyError(
                f"Freudenthal for {top} in {family}{rank}: multiplicity of {mu} is {val}/{denom}; "
                "the denominator must be positive and divide the numerator"
            )
        mults[mu] = val // denom
    return mults


def weyl_orbit(rs: RootSystem, fc: tuple):
    """Yield each weight of the orbit of fc once, from a tree rooted at the
    dominant conjugate: the parent of a non-dominant v is s_i v for the least i
    with v_i < 0, so s_j u is a child of u iff u_j > 0 and every coordinate
    u_k - u_j a_jk of s_j u before j is >= 0, read off u before reflecting."""
    stack = [rs.dominant_conjugate(fc)]
    while stack:
        u = stack.pop()
        yield u
        for j, c in enumerate(u):
            if c > 0:
                row = rs.cartan[j]
                for k in range(j):
                    if u[k] < c * row[k]:
                        break
                else:
                    stack.append(rs.reflect(j, u))


def weight_multiplicities(rs: RootSystem, weight, bound=None) -> "Character":
    """The weight diagram of the irreducible, the memoised read-only one
    `char_of_irrep` reads too; the bound is checked before the memo, so a
    lowered one still refuses a diagram memoised before."""
    fc = rs.fund_tuple(weight)
    check_bound("weight_multiplicities", rs.weight(fc), "dim", dim_irrep(rs, fc), *((dim_bound(), DIM_BOUND_ENV) if bound is None else (bound,)))
    return _irrep_character(rs.family, rs.rank, fc)


@cache
def _irrep_character(family: str, rank: int, fc: tuple) -> "Character":
    """The weight diagram, once per irreducible: the Weyl orbits of the
    dominant multiplicities, whose mass must be the Weyl dimension.  It is
    shared by every caller, so its entries are a read-only view, and a
    caller's `add` raises instead of corrupting it.  The callers check the
    dimension bound first."""
    rs = build_root_system(family, rank)
    char, mass = Character(rs), 0
    for mu, m in _dominant_mults(family, rank, fc).items():
        if m == 0:
            continue
        size = len(char.entries)
        for w in weyl_orbit(rs, mu):
            char.entries[w] = m
        mass += m * (len(char.entries) - size)
    if mass != (dim := _dim_irrep(family, rank, fc)):
        raise InconsistencyError(f"weight diagram mass {mass} != Weyl dimension {dim} for {fc} in {rs}")
    char.entries = MappingProxyType(char.entries)
    return char


def char_of_irrep(rs: RootSystem, weight) -> "Character":
    fc = rs.fund_tuple(weight)
    check_bound("char_of_irrep", rs.weight(fc), "dim", dim_irrep(rs, fc), dim_bound(), DIM_BOUND_ENV)  # before the memo: a lowered bound still refuses
    return _irrep_character(rs.family, rs.rank, fc)


# ---------------------------------------------------------------------------
# formal characters


class Character(Decomposition):
    """Formal integer combination of weights of one root system: a
    `Decomposition` keyed by fundamental-coordinate tuples.  Sums, scaling and
    zero-dropping are inherited; the methods here need the weights themselves
    or order them as tuples (listing and JSON)."""

    __slots__ = ("rs",)

    def __init__(self, rs: RootSystem, entries=None):
        self.rs = rs
        super().__init__(entries)

    def _blank(self) -> "Character":
        return Character(self.rs)

    def dimension(self) -> int:
        return self.total()

    def __iadd__(self, other):
        self._check(other)
        return super().__iadd__(other)

    def __mul__(self, other):
        """Tensor product: convolution of weight multisets."""
        self._check(other)
        out = Character(self.rs)
        for fa, ma in self.entries.items():
            for fb, mb in other.entries.items():
                out.add(tuple(map(operator.add, fa, fb)), ma * mb)
        return out

    def _check(self, other):
        if self.rs != other.rs:
            raise ValueError("characters live on different root systems")

    def __eq__(self, other):
        return isinstance(other, Character) and self.rs == other.rs and self.entries == other.entries

    def weyl_defect(self):
        """The first (weight, simple index i) with chi[s_i weight] != chi[weight],
        or None for a Weyl-invariant character."""
        for fc, m in self.entries.items():
            for i in range(self.rs.rank):
                if self[self.rs.reflect(i, fc)] != m:
                    return fc, i

    def sorted_items(self):
        return sorted(self.entries.items())

    def __repr__(self):
        inner = ", ".join(f"{k}:{v}" for k, v in self.sorted_items())
        return f"Character({self.rs.family}{self.rs.rank}; {inner})"

    def to_json(self):
        return {str(self.rs.weight(fc)): m for fc, m in self.sorted_items()}


# ---------------------------------------------------------------------------
# the representation ring: Brauer-Klimyk and Adams operations


def brauer_klimyk(rs: RootSystem, weights, top: tuple) -> dict:
    """{dominant fc: multiplicity} of sum m V_{top + w} over the (w, m) of a
    Weyl-invariant weights: the rho-shifted walk (`RootSystem.dot_walk`) of
    top + w, run on top + rho + w, takes it to V_lam with sign (-1)^steps, or
    to nothing on a wall.  Zeros are dropped."""
    out, shifted, walk = {}, tuple(c + 1 for c in top), rs._walk
    for fc, m in weights:
        walked = walk(tuple(map(operator.add, shifted, fc)), True)
        if walked:
            out[walked[1]] = out.get(walked[1], 0) + (-m if walked[0] % 2 else m)
    return {tuple(c - 1 for c in fc): m for fc, m in out.items() if m}


def _constituents(rs: RootSystem, mults: dict, dim: int, where: str, negative=InconsistencyError) -> Decomposition:
    """{dominant fc: multiplicity} as checked constituents whose dimensions sum
    to dim, highest first by fc . 2 rho^vee (`height_vector`), twice the height, then lex."""
    out = Decomposition()
    for fc in sorted(mults, key=lambda fc: (sum(map(operator.mul, fc, rs.height_vector)), fc), reverse=True):
        m = mults[fc]
        if m < 0:
            raise negative(f"negative multiplicity {m} at {fc} in {rs}")
        out.add(rs.weight(fc), m)
    mass = sum(m * dim_irrep(rs, fc) for fc, m in mults.items())
    if mass != dim:
        raise InconsistencyError(f"{where}: constituent dimensions sum to {mass}, the character to {dim} in {rs}")
    return out


def decompose_character(rs: RootSystem, char: Character) -> Decomposition:
    """Write a character as a nonnegative sum of irreducible characters:
    Weyl's character formula read backwards, Brauer-Klimyk with the trivial
    representation.  Fails loudly if the input was not a genuine character."""
    defect = char.weyl_defect()
    if defect:
        fc, s = defect[0], rs.reflect(defect[1], defect[0])
        raise NotCharacterError(f"decompose_character: {fc} has multiplicity {char[fc]} but its reflection s_{defect[1] + 1} {fc} = {s} has {char[s]} in {rs}; not Weyl-invariant")
    mults = brauer_klimyk(rs, char.entries.items(), (0,) * rs.rank)
    return _constituents(rs, mults, char.dimension(), "decompose_character", NotCharacterError)


@cache
def _adams_weights(family: str, rank: int, v: tuple, i: int) -> tuple:
    """The weights of psi^i(V_v), ((fc, multiplicity), ...): those of V_v
    times i."""
    return tuple((tuple(i * c for c in fc), m) for fc, m in char_of_irrep(build_root_system(family, rank), v).entries.items())


@cache
def _adams_tensor(family: str, rank: int, v: tuple, i: int, kappa: tuple) -> tuple:
    """psi^i(V_v) (x) V_kappa as ((dominant fc, multiplicity), ...), by
    Brauer-Klimyk over the weights of psi^i(V_v)."""
    return tuple(brauer_klimyk(build_root_system(family, rank), _adams_weights(family, rank, v, i), kappa).items())


def adams_series(rs: RootSystem, v: tuple, start: dict, rows: int, sign: int, inside=None):
    """Yield X_0 = start, X_1, ...: X_k = start (x) Lambda^k(E (x) V) for sign
    -1, Sym^k for +1, V = V_v, keyed (E-shape parts with at most rows rows,
    dominant fc).  Newton's identity (`newton_series`), k X_k =
    sum_{i=1..k} sign^(i-1) p_i(E) psi^i(V) X_{k-i}: p_i moves beads
    (`border_strips`), psi^i(V) is Brauer-Klimyk over i times the weights of
    V, and the division by k must be exact.  With inside, only its shapes are kept: exact when it holds every
    shape inside its members, as a border strip only grows a shape."""

    def psi(i, x):
        # two passes: the shape coefficients summed over the border strips
        # for each kappa, then one product with psi^i(V) (x) V_kappa per
        # kappa, summed in a row {lam: c} per shape and flattened once
        shapes = {}
        for (parts, kappa), m in x.items():
            at = shapes.setdefault(kappa, {})
            for mu, s in border_strips(parts, i, rows):
                if inside is None or mu in inside:
                    at[mu] = at.get(mu, 0) + s * m
        rows_of = {}
        for kappa, at in shapes.items():
            tensor = _adams_tensor(rs.family, rs.rank, v, i, kappa)
            for mu, c in at.items():
                row = rows_of.setdefault(mu, {})
                for lam, t in tensor:
                    row[lam] = row.get(lam, 0) + c * t
        return {(mu, lam): c for mu, row in rows_of.items() for lam, c in row.items()}

    return newton_series(start, psi, sign, f"adams_series of {rs.weight(v)} in {rs}")


def schur_character(rs: RootSystem, weight, lam) -> Decomposition:
    """The constituents of S_lam(V), V the irreducible of the given highest
    weight, listed as by `decompose_character`: by Cauchy, the S_lam E part
    of Sym^|lam|(E (x) V), the Adams series kept to the shapes inside lam."""
    v, lam = rs.fund_tuple(weight), Partition(lam)
    subject = f"{lam} of {rs.weight(v)}"
    check_bound("schur_character", subject, "size", lam.size, SCHUR_SIZE_BOUND, "SCHUR_SIZE_BOUND")
    dim_v = char_of_irrep(rs, v).dimension()
    inside = {tuple(filter(None, mu)) for mu in itertools.product(*(range(p + 1) for p in lam)) if all(map(operator.ge, mu, mu[1:]))}
    top = next(itertools.islice(adams_series(rs, v, {((), (0,) * rs.rank): 1}, len(lam), 1, inside), lam.size, None))
    mults = {fc: m for (mu, fc), m in top.items() if mu == lam.parts}
    return _constituents(rs, mults, dim_schur(lam, dim_v), f"schur_character {subject}")
