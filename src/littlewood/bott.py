"""Bott's algorithm for full flag varieties, plus the closed-form spin
cohomology predicates for the orthogonal types.

The walk applies rho-shifted simple reflections, always at the smallest simple
index whose pairing is negative.  Each step fixes exactly one inversion, so
the number of steps is the length of the unique Weyl element that makes the
weight dominant; a zero pairing anywhere at the end means the shifted weight
sits on a reflection hyperplane and all cohomology vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .characters import CoordSystem, RootSystem, Weight, _fund_to_eps
from .errors import check_bound
from .partitions import Partition, in_q


class SpinLabel(Enum):
    DELTA = "Delta"
    DELTA_PLUS = "Delta+"
    DELTA_MINUS = "Delta-"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class BottOutcome:
    vanishes: bool
    degree: int | None = None
    weight: Weight | None = None

    def to_json(self):
        if self.vanishes:
            return {"vanishes": True}
        return {"degree": self.degree, "weight": self.weight.to_json()}


@dataclass(frozen=True)
class SpinOutcome:
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


def spin_cohomology_D(n: int, lam, component: str) -> SpinOutcome:
    """Cohomology of the lam-Schur functor of the tautological bundle twisted
    by the spinor line bundle on a component of the maximal orthogonal
    Grassmannian of a 2n-dimensional space: nonzero exactly for self-transpose
    shapes, in degree (|lam| - rank(lam))/2, with the half-spin label set by
    the parity of the diagonal."""
    if component not in ("plus", "minus"):
        raise ValueError("component must be plus or minus")
    lam = Partition(lam)
    check_bound("spin_cohomology_D", f"{component} {lam}", "n", n, None, lower=1)
    if len(lam) > n or lam[0] > n:
        raise ValueError(f"shape {lam} does not fit in the {n}x{n} box")
    if lam.transpose() != lam:
        return SpinOutcome(vanishes=True)
    return SpinOutcome(vanishes=False, degree=(lam.size - lam.rank) // 2, label=half_spin_label(component, lam.rank))


def half_spin_label(component: str, rank: int) -> SpinLabel:
    """The parity rule: a self-transpose shape with an even diagonal keeps the
    component's half-spin label, an odd diagonal swaps it."""
    return SpinLabel.DELTA_PLUS if (rank % 2 == 0) == (component == "plus") else SpinLabel.DELTA_MINUS


def spin_mirrors(family: str, label: SpinLabel) -> tuple[bool, ...]:
    """The label rule: the mirrors of spin_weight a label spans.  Delta+ is
    unmirrored, Delta- mirrored, and Delta is both mirrors for D (the sum of
    the half-spin representations) but unmirrored for B."""
    if label is SpinLabel.DELTA:
        return (False,) if family == "B" else (False, True)
    return (label is SpinLabel.DELTA_MINUS,)


def spin_cohomology_B(n: int, lam) -> SpinOutcome:
    """Odd orthogonal analogue: nonzero exactly for shapes in the plus Q-set,
    in degree |lam|/2, and the cohomology is the full spin representation.

    Valid on the n-box only: these are the shapes fed to the twisted bundle by
    the exterior algebra of E (x) R with dim E = rank R = n, and outside the
    box the Q-set rule genuinely diverges from the cohomology (already for
    n = 1 and a single row of length 3)."""
    lam = Partition(lam)
    check_bound("spin_cohomology_B", lam, "n", n, None, lower=1)
    if len(lam) > n or lam[0] > n:
        raise ValueError(f"shape {lam} does not fit in the {n}x{n} box")
    if not in_q(lam, "plus"):
        return SpinOutcome(vanishes=True)
    return SpinOutcome(vanishes=False, degree=lam.size // 2, label=SpinLabel.DELTA)

