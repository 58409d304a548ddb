"""Reference oracles shared by the test modules.

The weight-fill routes here are the ones the library replaced by Adams
operations (`characters.adams_series`, `partitions.newton_series`); they
expand every Schur functor weight by weight through `schur_fill`, so they are
slow but independent of the kernel they check.
The reference Weyl walk is the one the library replaced by its in-place
walk (`RootSystem.walk`): it reflects at the first negative coordinate and
builds a tuple per step, so the Cauchy oracle does not share the kernel it
checks.
The folding restriction from E6 to F4 is the route by which the library once
derived the F4 cone's resolution from the E6 cone's; it now checks the peel.
"""

import itertools
import operator
from functools import cache

from littlewood.characters import Character, weight_multiplicities
from littlewood.complexes import bracket_weight
from littlewood.partitions import Decomposition, Partition, lr_coefficient, partitions_of


def schur_fill(outer, letters, zero: tuple, inner=()) -> dict:
    """{sum of the letters used: count} over the semistandard fillings of
    outer/inner, entry i standing for letters[i] (vectors of one length,
    zero being that length's zero vector).

    Strip recursion: the cells holding entry i form a horizontal strip, so
    one table per shape mu (inner <= mu <= outer) holds the sums over the
    fillings of mu/inner by the entries seen so far.  Each new letter lets
    every shape nu take the table of each predecessor mu (nu/mu a non-empty
    horizontal strip) shifted by |nu/mu| copies of the letter.  Larger shapes
    are updated first, so they read their predecessors' tables from before
    this letter: the 0/1-knapsack trick, for any shape.
    """
    outer, inner = Partition(outer), Partition(inner)
    if not outer.contains(inner):
        return {}
    outer = outer.parts
    inner = inner.parts + (0,) * (len(outer) - len(inner))
    shapes = [()]
    for lo, hi in zip(inner, outer):
        shapes = [mu + (p,) for mu in shapes for p in range(lo, min(hi, mu[-1] if mu else hi) + 1)]
    shapes.sort(key=sum, reverse=True)
    strips = []
    for nu in shapes:
        # mu interlaces nu: nu[r+1] <= mu[r] <= nu[r], and mu contains inner.
        ranges = [range(max(lo, below), top + 1) for lo, top, below in zip(inner, nu, nu[1:] + (0,))]
        strips.append([(mu, sum(nu) - sum(mu)) for mu in itertools.product(*ranges) if mu != nu])
    tables = {mu: {} for mu in shapes}
    tables[inner] = {zero: 1}
    for done, letter in enumerate(letters, 1):
        # Each letter still to come fills at most one cell of a column, so a
        # shape that can still grow into outer contains outer less that many
        # top rows; the other shapes are not updated.
        rest = outer[len(letters) - done:]
        shifts = [zero]
        for _ in range(max(outer, default=0)):
            shifts.append(tuple(map(operator.add, shifts[-1], letter)))
        for nu, preds in zip(shapes, strips):
            if any(p < q for p, q in zip(nu, rest)):
                continue
            dst = tables[nu]
            for mu, d in preds:
                src = tables[mu]
                if not src:
                    continue
                shift = shifts[d]
                for vec, c in src.items():
                    key = tuple(map(operator.add, vec, shift))
                    dst[key] = dst.get(key, 0) + c
    return tables[outer]


def count_skew_ssyt(outer, inner, m: int) -> int:
    """Number of semistandard fillings of outer/inner with entries <= m.

    Counted by the horizontal-strip recursion `schur_fill`, independently
    of the lattice-word walk of the LR route it checks.
    """
    return sum(schur_fill(outer, [(1,)] * m, (0,), inner).values())


def letters(char: Character) -> list:
    """The weight multiset of a character as a sorted list with repetitions."""
    out = []
    for fc, m in sorted(char.entries.items()):
        if m < 0:
            raise ValueError("virtual character has no weight multiset")
        out.extend([fc] * m)
    return out


def fill_character(rs, base: Character, lam) -> Character:
    """The character of S_lam applied to a space with character base: the
    Schur polynomial evaluated on its weight multiset, by `schur_fill`."""
    return Character(rs, schur_fill(lam, letters(base), (0,) * rs.rank))


@cache
def _schur_weights_of_v(case, sigma: Partition) -> tuple:
    """The (fundamental coordinates, multiplicity) weights of S_sigma' V, sigma'
    the transpose and V the irreducible of the one-box shape."""
    rs = case.root_system()
    base = weight_multiplicities(rs, bracket_weight(case, (1,)))
    return tuple(fill_character(rs, base, sigma.transpose()).entries.items())


def reference_walk(rs, fc: tuple) -> tuple:
    """(steps, dominant conjugate of fc): reflect at the first negative
    coordinate until none is left, s_i taking v to v - v_i (row i of the
    Cartan matrix), one new tuple per step."""
    v = tuple(fc)
    for steps in range(len(rs._roots) + 1):
        i = next((i for i, c in enumerate(v) if c < 0), None)
        if i is None:
            return steps, v
        v = tuple(x - v[i] * a for x, a in zip(v, rs.cartan[i]))
    raise AssertionError(f"reference walk from {fc} in {rs}: more than {len(rs._roots)} reflections")


def reference_dot_walk(rs, fc: tuple):
    """(steps, lam) with lam + rho the dominant conjugate of fc + rho, or None
    when fc + rho has a zero coordinate before or after the walk."""
    if -1 in fc:
        return None
    steps, v = reference_walk(rs, tuple(c + 1 for c in fc))
    return None if 0 in v else (steps, tuple(c - 1 for c in v))


def cauchy_euler(case, slices: list, j: int) -> Decomposition:
    """sum_k (-1)^k R_{j-k} (x) wedge^k(E (x) V), R_d = slices[d] labelled (shape
    parts, fundamental coordinates), wedge^k(E (x) V) = sum over sigma |- k of
    S_sigma E (x) S_sigma' V (dual Cauchy).  E side: c^tau_{lam sigma}; V side:
    Brauer-Klimyk, a reference Bott walk of mu + w for each weight w of
    S_sigma' V."""
    rs = case.root_system()
    taus = partitions_of(j, max_length=case.dim_e)
    out = Decomposition()
    for d, ring in enumerate(slices):
        for sigma in partitions_of(j - d, max_length=case.dim_e):
            for (lam, mu), m in ring.entries.items():
                v_side = Decomposition()
                for w, mw in _schur_weights_of_v(case, sigma):
                    walked = reference_dot_walk(rs, tuple(a + b for a, b in zip(mu, w)))
                    if walked:
                        v_side.add(walked[1], -mw if walked[0] % 2 else mw)
                for tau in taus:
                    c = (-1) ** (j - d) * m * lr_coefficient(tau, lam, sigma)
                    if c:
                        for kappa, v in v_side.entries.items():
                            out.add((tau.parts, kappa), c * v)
    return out


def restrict(char: Character, target_rs, coord_map) -> Character:
    """Push the weight multiset of a character through a map on fundamental
    coordinates."""
    return Character(target_rs, ((tuple(coord_map(fc)), m) for fc, m in char.entries.items()))


def fold(a: tuple) -> tuple:
    """The folding F4 < E6 on fundamental coordinates, a -> (a2, a4, a3 + a5,
    a1 + a6): the 27 restricts to 26 + 1."""
    return (a[1], a[3], a[2] + a[4], a[0] + a[5])
