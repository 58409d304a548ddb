"""Partition combinatorics and Schur-function plumbing.

Everything is exact integer arithmetic on plain tuples.  Partition is a thin
immutable wrapper that normalizes away trailing zeros, so equal partitions
compare and hash equally.

Symmetric functions of a representation are built by Newton's identity over
Adams operations, in one place, `newton_series`.  On the GL side a power sum
p_r acts on Schur functions by the Murnaghan-Nakayama bead move of
`border_strips`; the plethysm oracle here and the Schur functors of group
representations (`characters.adams_series`) both run on it.

Littlewood-Richardson coefficients count lattice-word fillings, a different
object, in `_lr`: one walk per skew shape lam/mu gives every c^lam_{mu nu}
at once, memoised as a read-only table that `lr_coefficient` reads one entry
of and `skew_schur_expand` reads whole.

The Q-sets index the Schur constituents of exterior powers of wedge^2 E
(minus variant) and Sym^2 E (plus variant); the plethysm routine recomputes
those constituents from scratch by Newton's identity, never reading the
membership rule, and acts as its independent oracle.
"""

from __future__ import annotations

import itertools
import math
from functools import cache
from types import MappingProxyType

from .errors import InconsistencyError, check_bound

Q_VARIANTS = ("minus", "plus")
FORMS = ("alternating", "symmetric")
# enumerate_q keeps only the members in memory, but still walks all p(size)
# partitions: the p(60) = 966,467 take 3.2-4.0 s CPU and 18 MB peak RSS for
# the 296 members (2-vCPU Xeon VM, Python 3.11); p(70) = 4,087,968.
Q_SIZE_BOUND = 60


class Partition:
    """Weakly decreasing tuple of positive integers (trailing zeros dropped).

    The parts are checked once, at the boundary: a Partition passed in is
    returned as it is (the class is immutable), and the walks of this module
    that build their tuples decreasing, positive and zero-free by
    construction skip the checks through `_of`.
    """

    __slots__ = ("parts",)

    def __new__(cls, parts=()):
        if isinstance(parts, Partition):
            return parts
        ps = _trim(tuple(int(p) for p in parts))
        if any(a < b for a, b in zip(ps, ps[1:])):
            raise ValueError(f"parts not weakly decreasing: {ps}")
        if ps and ps[-1] < 0:
            raise ValueError(f"negative part in {ps}")
        return cls._of(ps)

    @classmethod
    def _of(cls, parts: tuple) -> "Partition":
        """Unchecked: parts must already be a weakly decreasing tuple of
        positive ints.  Only this module calls it."""
        self = object.__new__(cls)
        self.parts = parts
        return self

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i: int) -> int:
        # Reads beyond the stored length are zero; handy in coordinate formulas.
        return self.parts[i] if 0 <= i < len(self.parts) else 0

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def rank(self) -> int:
        """Length of the main diagonal of the Young diagram."""
        return sum(1 for i, p in enumerate(self.parts) if p >= i + 1)

    def transpose(self) -> "Partition":
        if not self.parts:
            return self
        cols = [0] * self.parts[0]
        for p in self.parts:
            for j in range(p):
                cols[j] += 1
        return Partition._of(tuple(cols))

    def contains(self, other) -> bool:
        other = Partition(other)
        return all(self[i] >= q for i, q in enumerate(other.parts))

    def remove_first_hook(self) -> "Partition":
        """Delete the first row and first column (the Q-set recursion step)."""
        return Partition._of(tuple(p - 1 for p in self.parts[1:] if p > 1))

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __lt__(self, other):
        return self.parts < Partition(other).parts

    def __hash__(self):
        return hash(self.parts)

    def __bool__(self):
        return bool(self.parts)

    def __repr__(self):
        return f"Partition({list(self.parts)})"

    def __str__(self):
        return "[" + ",".join(str(p) for p in self.parts) + "]"

    def to_json(self):
        return list(self.parts)


def _trim(parts: tuple) -> tuple:
    """parts without its trailing zeros, cut off with one slice."""
    end = len(parts)
    while end and parts[end - 1] == 0:
        end -= 1
    return parts[:end]


def label_str(label) -> str:
    """Canonical string for a decomposition label (partition, weight, pair...)."""
    if isinstance(label, tuple):
        return "|".join(label_str(x) for x in label)
    return str(label)


class Decomposition:
    """Multiset of labels with integer multiplicities; zeros are never stored.

    Multiplicities are plain Python ints, so they are arbitrary precision.
    Negative values are tolerated so that Euler-characteristic bookkeeping can
    pass through.  Every operation accumulates through `add`, the one place
    that drops zeros, into an empty instance of the same kind (`_blank`).
    """

    __slots__ = ("entries",)

    def __init__(self, entries=None):
        if hasattr(entries, "items"):
            # A mapping cannot repeat a label, so only its zeros need dropping.
            self.entries = {label: mult for label, mult in entries.items() if mult}
            return
        self.entries = {}
        for label, mult in entries or ():
            self.add(label, mult)

    def _blank(self) -> "Decomposition":
        return Decomposition()

    def add(self, label, mult=1):
        if mult == 0:
            return
        new = self.entries.get(label, 0) + mult
        if new == 0:
            self.entries.pop(label, None)
        else:
            self.entries[label] = new

    def __getitem__(self, label) -> int:
        return self.entries.get(label, 0)

    __iter__ = None  # __getitem__ answers 0 for any label, so iter() and `in` would never end

    def __add__(self, other):
        out = self.scale(1)
        out += other
        return out

    def __iadd__(self, other):
        """In place: a sum built by += adds each term's entries once."""
        for label, mult in other.entries.items():
            self.add(label, mult)
        return self

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c: int) -> "Decomposition":
        return self.map_labels(None, c)

    def map_labels(self, fn, c: int = 1) -> "Decomposition":
        """Each label sent through fn (None keeps it), its multiplicity times c."""
        out = self._blank()
        for label, mult in self.entries.items():
            out.add(label if fn is None else fn(label), c * mult)
        return out

    def support(self):
        return set(self.entries)

    def total(self, weight_fn=None) -> int:
        if weight_fn is None:
            return sum(self.entries.values())
        return sum(m * weight_fn(k) for k, m in self.entries.items())

    def sorted_items(self):
        return sorted(self.entries.items(), key=lambda kv: label_str(kv[0]))

    def __eq__(self, other):
        return isinstance(other, Decomposition) and self.entries == other.entries

    def __bool__(self):
        return bool(self.entries)

    def __repr__(self):
        inner = ", ".join(f"{label_str(k)}:{v}" for k, v in self.sorted_items())
        return "{" + inner + "}"

    def to_json(self):
        return {label_str(k): v for k, v in self.sorted_items()}


# ---------------------------------------------------------------------------
# basic operations


def partitions_of(n: int, max_length=None, max_part=None, *, where=None) -> list[Partition]:
    """All partitions of n, ascending lexicographic, optionally boxed; with
    where, only those it accepts.

    Parts are chosen in ascending order, each at least the share of what
    remains that the rows left must carry, so every branch ends in a
    partition.  where is asked at each such leaf as the walk makes it, so
    the list holds only what it keeps, while the walk still visits all of
    the box."""
    out = []

    def rec(remaining, bound, prefix):
        if remaining == 0:
            lam = Partition._of(tuple(prefix))
            if where is None or where(lam):
                out.append(lam)
            return
        rows = remaining if max_length is None else max_length - len(prefix)
        if rows <= 0:
            return
        for p in range(-(-remaining // rows), min(bound, remaining) + 1):  # ceil(remaining / rows) >= 1
            prefix.append(p)
            rec(remaining - p, p, prefix)
            prefix.pop()

    rec(n, n if max_part is None else max_part, [])
    return out


def in_q(lam, variant: str) -> bool:
    """Membership in the Q-set family.

    minus: empty, or the row count is one more than the column count and the
    partition left after deleting the first row and column is again a member.
    plus: the transpose is a minus member.
    """
    if variant not in Q_VARIANTS:
        raise ValueError(f"variant must be one of {Q_VARIANTS}")
    lam = Partition(lam)
    return _in_minus(lam.transpose() if variant == "plus" else lam)


def _in_minus(lam: Partition) -> bool:
    while lam:
        if len(lam) != lam[0] + 1:
            return False
        lam = lam.remove_first_hook()
    return True


def check_q_size(size: int) -> None:
    if size % 2 or size < 0:
        raise ValueError(f"Q-sets contain only even sizes; size {size} is {'odd' if size % 2 else 'negative'}")


def enumerate_q(variant: str, size: int) -> list[Partition]:
    """All partitions of the given even size in the Q-set, lexicographic.
    The plus members are the transposes of the minus ones, so both variants
    walk the partitions of size and keep those the minus rule accepts: the
    list holds only the members, while the time follows p(size)."""
    check_q_size(size)
    if variant not in Q_VARIANTS:
        raise ValueError(f"variant must be one of {Q_VARIANTS}")
    check_bound("enumerate_q", variant, "size", size, Q_SIZE_BOUND, "Q_SIZE_BOUND")
    minus = partitions_of(size, where=_in_minus)
    return minus if variant == "minus" else sorted(p.transpose() for p in minus)


# ---------------------------------------------------------------------------
# Littlewood-Richardson coefficients: one lattice-word walk per skew shape


def lr_coefficient(lam, mu, nu) -> int:
    """c^lam_{mu nu}, read from the skew table `_lr(lam, mu)`.

    Shapes of the wrong size, or not inside lam, give 0 without touching the
    memo.  The first call for any other (lam, mu) pair walks the whole skew
    shape, so one coefficient of a large shape costs its full table: for the
    staircase (9,...,1)/(4,3,2,1), about twice a search for that coefficient
    alone.  Every later coefficient of the pair is a lookup.
    """
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    if lam.size != mu.size + nu.size or not (lam.contains(mu) and lam.contains(nu)):
        return 0
    return _lr(lam.parts, mu.parts).get(nu, 0)


@cache
def _lr(lam: tuple, mu: tuple) -> MappingProxyType:
    """{nu: c^lam_{mu nu}} over every nu at once, as a read-only mapping.

    Counts the column-strict fillings of lam/mu whose reverse reading word is
    a lattice word, each under its content nu.  Cells are filled in reverse
    reading order (rows top to bottom, right to left inside a row), so the
    lattice condition is checked prefix by prefix; an entry in row r is at
    most r + 1.  Fillings that agree on the content so far and on the row
    just finished extend alike, so at each row end they merge into one state
    with a multiplicity, and each state is walked once.  The callers check
    that lam contains mu.
    """
    mu = mu + (0,) * (len(lam) - len(mu))
    # state: (content so far, entries of the last row by column, 0 for the
    # inner cells and cut to the next row's width) -> number of fillings
    states = {((0,) * len(lam), (0,) * (lam[0] if lam else 0)): 1}
    for r, (lo, hi) in enumerate(zip(mu, lam)):
        width = lam[r + 1] if r + 1 < len(lam) else 0
        following = {}
        for (content, above), mult in states.items():
            counts, row = list(content), [0] * hi

            def walk(c, right):
                if c < lo:
                    key = (tuple(counts), tuple(row[:width]))
                    following[key] = following.get(key, 0) + mult
                    return
                for v in range(above[c] + 1, right + 1):
                    if v == 1 or counts[v - 1] < counts[v - 2]:
                        counts[v - 1] += 1
                        row[c] = v
                        walk(c - 1, v)
                        counts[v - 1] -= 1

            walk(hi - 1, r + 1)
        states = following
    # the last row is cut to width 0, so each content is one state; the
    # lattice condition makes a content weakly decreasing, so it is a
    # partition once its trailing zeros are cut
    return MappingProxyType({Partition._of(_trim(content)): mult for (content, _), mult in states.items()})


def skew_schur_expand(outer, inner) -> Decomposition:
    """Expansion of the skew Schur functor of outer/inner into straight Schur
    functors: the table `_lr(outer, inner)` of one lattice-word walk, empty
    when outer does not contain inner.  A first call on a skew shape walks
    all of it; repeats are memo hits."""
    outer, inner = Partition(outer), Partition(inner)
    if not outer.contains(inner):
        return Decomposition()
    return Decomposition(_lr(outer.parts, inner.parts))


# ---------------------------------------------------------------------------
# power sums and dimensions


@cache
def border_strips(parts: tuple, r: int, rows: int) -> tuple:
    """((mu, sign), ...) with p_r s_parts = sum sign s_mu over the mu of at most
    rows rows (Murnaghan-Nakayama): on the abacus of rows beads at parts[i] +
    rows - 1 - i, a border strip of r cells moves a bead from x to an empty
    x + r, and its height, the number of beads passed, gives the sign."""
    beads = [p + rows - 1 - i for i, p in enumerate(parts + (0,) * (rows - len(parts)))]
    out = []
    for x in beads:
        if x + r not in beads:
            moved = sorted([b for b in beads if b != x] + [x + r], reverse=True)
            mu = tuple(b - rows + 1 + i for i, b in enumerate(moved))
            out.append((Partition(mu).parts, -1 if sum(x < b < x + r for b in beads) % 2 else 1))
    return tuple(out)


def dim_schur(lam, m: int) -> int:
    """Dimension of the Schur functor on an m-dimensional space (hook content)."""
    lam = Partition(lam)
    if len(lam) > m:
        return 0
    num = 1
    den = 1
    for i, p in enumerate(lam.parts):
        for j in range(p):
            num *= m + j - i
            arm = p - j - 1
            leg = sum(1 for ii in range(i + 1, len(lam)) if lam[ii] > j)
            den *= arm + leg + 1
    if num % den:
        raise InconsistencyError(f"dim_schur({lam}, {m}): hook-content quotient {num}/{den} is not an integer")
    return num // den


# ---------------------------------------------------------------------------
# Newton's identity and the plethysm oracle


def newton_series(start: dict, psi, sign: int, where: str):
    """Yield X_0 = start, X_1, ... with k X_k = sum_{i=1..k} sign^(i-1)
    psi(i, X_{k-i}): Newton's identity, so when psi(i, X) is X times the i-th
    Adams operation of W, X_k is X_0 times Lambda^k W (sign -1) or Sym^k W
    (sign +1).  Each X is a {key: int} dict without zeros; psi returns one
    that may hold zeros.  The division by k must be exact, or `where` names
    the failing series."""
    done = [start]
    for k in itertools.count(1):
        yield done[-1]
        acc = {}
        for i in range(1, k + 1):
            c = -1 if sign < 0 and i % 2 == 0 else 1
            for key, x in psi(i, done[k - i]).items():
                acc[key] = acc.get(key, 0) + c * x
        if any(x % k for x in acc.values()):
            raise InconsistencyError(f"{where}: step {k} is not divisible by {k}")
        done.append({key: x // k for key, x in acc.items() if x})


def plethysm_wedge_power(k: int, form: str, dim_e: int) -> Decomposition:
    """Schur decomposition of the k-th exterior power of wedge^2 E (alternating)
    or of Sym^2 E (symmetric), dim E = dim_e, by `newton_series` on the Schur
    functions of at most dim_e rows.  The i-th Adams operation of e_2 or h_2
    is the plethysm (p_i^2 -+ p_2i) / 2 (Macdonald, Symmetric Functions and
    Hall Polynomials, I.8), each p_r the bead moves of `border_strips`; the
    halves must be exact, the multiplicities nonnegative, and the
    constituents must have the dimension of the k-th exterior power, C(N, k)
    for N = dim wedge^2 E or dim Sym^2 E.
    """
    if form not in FORMS:
        raise ValueError(f"form must be one of {FORMS}")
    check_bound("plethysm_wedge_power", form, "dimE", dim_e, 8, lower=1)
    check_bound("plethysm_wedge_power", form, "k", k, 6, lower=0)

    where = f"plethysm_wedge_power: k {k}, {form}, dimE {dim_e}"
    c = -1 if form == "alternating" else 1

    def psi(i, x):
        twice = {}
        for parts, m in x.items():
            for mu, s in border_strips(parts, i, dim_e):
                for nu, t in border_strips(mu, i, dim_e):
                    twice[nu] = twice.get(nu, 0) + s * t * m
            for nu, t in border_strips(parts, 2 * i, dim_e):
                twice[nu] = twice.get(nu, 0) + c * t * m
        odd = next((nu for nu, y in twice.items() if y % 2), None)
        if odd is not None:
            raise InconsistencyError(f"{where}: psi^{i} has the odd coefficient {twice[odd]} at {Partition._of(odd)} before halving")
        return {nu: y // 2 for nu, y in twice.items()}

    out = Decomposition()
    for parts, m in next(itertools.islice(newton_series({(): 1}, psi, -1, where), k, None)).items():
        if m < 0:
            raise InconsistencyError(f"{where}: negative multiplicity {m} at {Partition._of(parts)}")
        out.add(Partition._of(parts), m)
    n = dim_e * (dim_e + c) // 2
    dim, want = out.total(lambda lam: dim_schur(lam, dim_e)), math.comb(n, k)
    if dim != want:
        raise InconsistencyError(f"{where}: dimension {dim}, not C({n}, {k}) = {want}")
    return out
