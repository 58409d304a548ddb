"""Property test: for the classical types B, C and D the epsilon-coordinate
wall test is a shortcut for the generic Bott walk, so both must agree on the
vanishing, the degree and the dominant weight."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from littlewood.bott import bott
from littlewood.characters import _RANK_RANGES, Weight, build_root_system

CLASSICAL = [(f, r) for f in "BCD" for r in range(_RANK_RANGES[f][0], _RANK_RANGES[f][1] + 1)]


@st.composite
def classical_weights(draw):
    family, rank = draw(st.sampled_from(CLASSICAL))
    coords = draw(st.lists(st.integers(-6, 6), min_size=rank, max_size=rank))
    return Weight.fundamental(family, rank, coords)


@settings(deadline=None, max_examples=300)
@given(classical_weights())
def test_epsilon_shortcut_agrees_with_the_walk(weight):
    rs = build_root_system(weight.system.family, weight.system.rank)
    assert bott(rs, weight) == bott(rs, weight, epsilon_shortcut=False)
