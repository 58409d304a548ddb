"""Property test: the in-place Weyl walk (`RootSystem.walk`, `dot_walk`), which
reflects at the lowest coordinate and stops the rho-shifted form at the first
zero, against the reference walk of `oracles`, which reflects at the first
negative coordinate and builds a tuple per step.  The number of reflections
is the number of positive roots negative on the weight whichever negative
coordinate is taken, so the steps, the weight and the walls must agree."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from littlewood.characters import _RANK_RANGES, build_root_system
from oracles import reference_dot_walk, reference_walk

TYPES = [(family, rank) for family, (lo, hi) in _RANK_RANGES.items() for rank in range(lo, hi + 1)]


@st.composite
def weights(draw):
    rs = build_root_system(*draw(st.sampled_from(TYPES)))
    return rs, tuple(draw(st.lists(st.integers(-6, 6), min_size=rs.rank, max_size=rs.rank)))


@settings(deadline=None, max_examples=600)
@given(weights())
def test_walks_agree_with_the_reference(drawn):
    rs, fc = drawn
    assert rs.walk(fc) == reference_walk(rs, fc)
    assert rs.dominant_conjugate(fc) == reference_walk(rs, fc)[1]
    assert rs.dot_walk(fc) == reference_dot_walk(rs, fc)


@pytest.mark.parametrize("family, rank", TYPES)
def test_a_wall_reached_inside_the_walk(family, rank):
    # rho with its first coordinate zeroed is on the wall of the first simple
    # root; reflected by s_1, then s_2, ..., s_rank, it has no zero left
    # (outside rank 1 and D2, whose nodes are not linked), so the
    # rho-shifted walk meets the zero only after reflecting, and both walks
    # send it to None
    rs = build_root_system(family, rank)
    shifted = (0,) + (1,) * (rank - 1)
    for i in range(rank):
        shifted = tuple(x - shifted[i] * a for x, a in zip(shifted, rs.cartan[i]))
    assert (0 in shifted) == (rank == 1 or family == "D" and rank == 2)
    fc = tuple(c - 1 for c in shifted)
    assert rs.dot_walk(fc) is None and reference_dot_walk(rs, fc) is None
    steps, top = rs.walk(shifted)
    assert (steps, top) == reference_walk(rs, shifted) and 0 in top
