"""Property test: a `Weight` is a value.  Two weights are equal exactly when
their coordinate systems (kind, family, rank) and their doubled coordinates
are, and equal weights hash equal, so a dict keyed by weights finds a weight
however it was built."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from littlewood.characters import CoordSystem, Weight

SYSTEMS = [(kind, family, rank) for kind in ("fundamental", "epsilon") for family, rank in (("A", 1), ("B", 2), ("C", 2), ("G", 2))]


@st.composite
def weights(draw, system=None):
    kind, family, rank = system or draw(st.sampled_from(SYSTEMS))
    size = CoordSystem(kind, family, rank).dimension
    return Weight(CoordSystem(kind, family, rank), draw(st.lists(st.integers(-1, 1), min_size=size, max_size=size)))


@st.composite
def weight_pairs(draw):
    a = draw(weights())
    system = (a.system.kind, a.system.family, a.system.rank)
    # a second weight in the same system half the time, so equal pairs are common
    return a, draw(st.one_of(weights(), weights(system)))


@settings(deadline=None, max_examples=300)
@given(weight_pairs())
def test_weights_are_equal_exactly_when_system_and_coordinates_are(pair):
    a, b = pair
    same = (a.system.kind, a.system.family, a.system.rank, a.twice) == (b.system.kind, b.system.family, b.system.rank, b.twice)
    assert (a == b) is same and (a != b) is not same
    assert (a.system == b.system and a.twice == b.twice) is same
    if same:
        assert hash(a) == hash(b) and {a: 1}[b] == 1
