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


def d_spinor_twist_weight(n: int, lam, component: str) -> Weight:
    """The D_n weight (-lam reversed) + delta_plus in epsilon coordinates, with
    the last coordinate sign-flipped for the minus component (the two maximal
    isotropic families are exchanged by the outer involution, which negates the
    last epsilon coordinate; the flip carries the bundle on one component to
    the bundle on the other)."""
    lam = Partition(lam)
    if component not in ("plus", "minus"):
        raise ValueError("component must be plus or minus")
    twice = [-2 * lam[n - 1 - i] + 1 for i in range(n)]
    if component == "minus":
        twice[-1] = 2 * lam[0] - 1
    return Weight(CoordSystem("epsilon", "D", n), twice)


def b_spinor_twist_weight(n: int, lam) -> Weight:
    """The B_n weight (-lam reversed) + delta in epsilon coordinates."""
    lam = Partition(lam)
    return Weight(CoordSystem("epsilon", "B", n), [-2 * lam[n - 1 - i] + 1 for i in range(n)])


def spin_cohomology_D(n: int, lam, component: str) -> SpinOutcome:
    """Cohomology of the lam-Schur functor of the tautological bundle twisted
    by the spinor line bundle on a component of the maximal orthogonal
    Grassmannian of a 2n-dimensional space: nonzero exactly for self-transpose
    shapes, in degree (|lam| - rank(lam))/2, with the half-spin label set by
    the parity of the diagonal."""
    if component not in ("plus", "minus"):
        raise ValueError("component must be plus or minus")
    lam = Partition(lam)
    if len(lam) > n or lam[0] > n:
        raise ValueError(f"shape {lam} does not fit in the {n}x{n} box")
    if lam.transpose() != lam:
        return SpinOutcome(vanishes=True)
    return SpinOutcome(vanishes=False, degree=(lam.size - lam.rank) // 2, label=half_spin_label(component, lam.rank))


def half_spin_label(component: str, rank: int) -> SpinLabel:
    """The parity rule: a self-transpose shape with an even diagonal keeps the
    component's half-spin label, an odd diagonal swaps it."""
    return SpinLabel.DELTA_PLUS if (rank % 2 == 0) == (component == "plus") else SpinLabel.DELTA_MINUS


def spin_cohomology_B(n: int, lam) -> SpinOutcome:
    """Odd orthogonal analogue: nonzero exactly for shapes in the plus Q-set,
    in degree |lam|/2, and the cohomology is the full spin representation.

    Valid on the n-box only: these are the shapes fed to the twisted bundle by
    the exterior algebra of E (x) R with dim E = rank R = n, and outside the
    box the Q-set rule genuinely diverges from the cohomology (already for
    n = 1 and a single row of length 3)."""
    lam = Partition(lam)
    if len(lam) > n or lam[0] > n:
        raise ValueError(f"shape {lam} does not fit in the {n}x{n} box")
    if not in_q(lam, "plus"):
        return SpinOutcome(vanishes=True)
    return SpinOutcome(vanishes=False, degree=lam.size // 2, label=SpinLabel.DELTA)


def delta_weight_B(n: int) -> Weight:
    return Weight(CoordSystem("epsilon", "B", n), (1,) * n)


def delta_weight_D(n: int, component: str) -> Weight:
    sign = 1 if component == "plus" else -1
    return Weight(CoordSystem("epsilon", "D", n), (1,) * (n - 1) + (sign,))
