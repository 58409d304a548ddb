"""Property tests of the horizontal-strip recursion `schur_fill`, the weight
fill of the test oracles."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from littlewood.partitions import dim_schur
from oracles import schur_fill


@st.composite
def partitions(draw, max_size=8):
    parts, left = [], max_size
    while left and draw(st.booleans()):
        part = draw(st.integers(1, min(left, parts[-1] if parts else left)))
        parts.append(part)
        left -= part
    return tuple(parts)


@st.composite
def shape_and_width(draw):
    lam = draw(partitions())
    inner = tuple(draw(st.integers(0, p)) for p in lam)
    inner = tuple(sorted(inner, reverse=True))  # sorting keeps inner[i] <= lam[i], lam being decreasing
    return lam, inner, draw(st.integers(1, 5))


def units(m):
    return [tuple(int(i == j) for j in range(m)) for i in range(m)]


@settings(deadline=None)
@given(partitions(), st.integers(1, 5))
def test_counts_sum_to_hook_content_dimension(lam, m):
    assert sum(schur_fill(lam, units(m), (0,) * m).values()) == dim_schur(lam, m)


@settings(deadline=None)
@given(shape_and_width(), st.data())
def test_skew_schur_polynomial_is_symmetric(case, data):
    lam, inner, m = case
    perm = data.draw(st.permutations(range(m)))
    poly = schur_fill(lam, units(m), (0,) * m, inner)
    assert {tuple(vec[i] for i in perm): c for vec, c in poly.items()} == poly

