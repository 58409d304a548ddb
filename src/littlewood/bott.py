"""Bott's algorithm for full flag varieties, plus the closed-form spin
cohomology predicates for the orthogonal types.

The walk applies rho-shifted simple reflections, always at the smallest simple
index whose pairing is negative.  Each step fixes exactly one inversion, so
the number of steps is the length of the unique Weyl element that makes the
weight dominant; a zero pairing anywhere at the end means the shifted weight
sits on a reflection hyperplane and all cohomology vanishes.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .characters import CoordSystem, RootSystem, Weight, _fund_to_eps
from .errors import check_bound
from .partitions import Partition, in_q


class SpinLabel(Enum):
    DELTA = "Delta"
    DELTA_PLUS = "Delta+"
    DELTA_MINUS = "Delta-"

    def __str__(self):
        return self.value


class BottOutcome(NamedTuple):
    vanishes: bool
    degree: int | None = None
    weight: Weight | None = None

    def to_json(self):
        if self.vanishes:
            return {"vanishes": True}
        return {"degree": self.degree, "weight": self.weight.to_json()}


class SpinOutcome(NamedTuple):
    vanishes: bool
    degree: int | None = None
    label: SpinLabel | None = None

    def to_json(self):
        if self.vanishes:
            return {"vanishes": True}
        return {"degree": self.degree, "label": str(self.label)}


def _on_wall(family: str, twice) -> bool:
    """Wall test on doubled epsilon coordinates: two coordinates equal (up to
    sign outside type A), or (B and C, where a coroot is a single epsilon) a
    zero coordinate."""
    if family in ("B", "C") and 0 in twice:
        return True
    return len(set(twice if family == "A" else map(abs, twice))) < len(twice)


def bott(rs: RootSystem, weight: Weight, epsilon_shortcut: bool = True) -> BottOutcome:
    """Either the line bundle has no cohomology, or its unique nonvanishing
    degree and the dominant weight sitting there."""
    fc = weight.fund_coords()
    if epsilon_shortcut and rs.family in "BCD" and _on_wall(rs.family, _fund_to_eps(rs.family, rs.rank, [c + 1 for c in fc])):
        return BottOutcome(vanishes=True)
    walked = rs.dot_walk(fc)
    if walked is None:
        return BottOutcome(vanishes=True)
    return BottOutcome(vanishes=False, degree=walked[0], weight=rs.weight(walked[1]))


# ---------------------------------------------------------------------------
# spinor bundles on the orthogonal Grassmannians: closed forms and the weights
# that feed the generic algorithm for cross-validation


def spin_weight(family: str, n: int, parts, mirror: bool = False) -> Weight:
    """The B_n or D_n weight parts + delta in epsilon coordinates, twice each
    coordinate 2p + 1, the last one negated if mirrored (the outer involution
    of D_n).  Parts -lam reversed give the twist of the spinor bundle (mirrored
    for the minus component: the involution exchanges the two maximal isotropic
    families), parts lam the spin-shifted irreducible, parts 0 a spin
    representation; reads past the end of a partition are 0."""
    twice = [2 * parts[i] + 1 for i in range(n)]
    if mirror:
        twice[-1] = -twice[-1]
    return Weight(CoordSystem("epsilon", family, n), twice)


def spin_mirrors(family: str, label: SpinLabel) -> tuple[bool, ...]:
    """The label rule: the mirrors of spin_weight a label spans.  Delta+ is
    unmirrored, Delta- mirrored, and Delta is both mirrors for D (the sum of
    the half-spin representations) but unmirrored for B."""
    if label is SpinLabel.DELTA:
        return (False,) if family == "B" else (False, True)
    return (label is SpinLabel.DELTA_MINUS,)


SPIN_FAMILIES = ("B", "Dplus", "Dminus")  # the families of spin_cohomology
SPINOR_FAMILIES = (*SPIN_FAMILIES, "Dfull")  # Dfull, both half-spin labels, only for a spinor complex


def spin_label(family: str, diag: int) -> SpinLabel:
    """Delta for B and Dfull; for Dplus and Dminus the parity rule on a self-transpose
    shape: an even diagonal keeps the family's half-spin label, an odd one swaps it."""
    if family in ("B", "Dfull"):
        return SpinLabel.DELTA
    return SpinLabel.DELTA_PLUS if (diag % 2 == 0) == (family == "Dplus") else SpinLabel.DELTA_MINUS


def spin_cohomology(family: str, n: int, lam) -> SpinOutcome:
    """Cohomology of the lam-Schur functor of the tautological bundle twisted
    by the spinor line bundle on the maximal orthogonal Grassmannian of C^(2n+1)
    (B), or on a component of that of C^2n (Dplus, Dminus).  For D it is nonzero
    exactly on self-transpose shapes, in degree (|lam| - rank(lam))/2, labelled
    by spin_label; for B exactly on the plus Q-set, in degree |lam|/2, and it is
    the full spin representation.  Valid on the n-box only, the shapes the
    exterior algebra of E (x) R feeds the bundle when dim E = rank R = n: outside
    it the B rule genuinely diverges (already for n = 1 and one row of 3)."""
    if family not in SPIN_FAMILIES:
        raise ValueError(f"spin_cohomology: family {family!r} is not one of {', '.join(SPIN_FAMILIES)}")
    lam = Partition(lam)
    check_bound("spin_cohomology", (family, lam), "n", n, None, lower=1)
    if len(lam) > n or lam[0] > n:
        raise ValueError(f"spin_cohomology {family} {lam}: the shape does not fit in the {n}x{n} box")
    if family == "B":
        nonzero, degree = in_q(lam, "plus"), lam.size // 2
    else:
        nonzero, degree = lam.transpose() == lam, (lam.size - lam.rank) // 2
    if not nonzero:
        return SpinOutcome(vanishes=True)
    return SpinOutcome(vanishes=False, degree=degree, label=spin_label(family, lam.rank))
