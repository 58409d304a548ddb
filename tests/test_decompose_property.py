"""Property test: decomposing a sum of irreducible characters gives back the
highest weights and multiplicities it was built from."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from littlewood.characters import Character, build_root_system, char_of_irrep, decompose_character

RANK2 = ("A", "B", "C", "G")


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from(RANK2),
    st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(1, 3), min_size=1, max_size=3),
)
def test_decompose_inverts_char(family, mults):
    rs = build_root_system(family, 2)
    total = Character(rs)
    for fc, m in mults.items():
        total = total + char_of_irrep(rs, fc).scale(m)
    dec = decompose_character(rs, total)
    assert {w.fund_coords(): m for w, m in dec.entries.items()} == mults
