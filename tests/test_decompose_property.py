"""Property tests of `decompose_character`: it inverts sums of irreducible
characters, agrees with the subtraction peel it replaced, and refuses what is
not a character; and of `schur_character`, against the weight fill it
replaced, decomposed."""

import itertools
import os
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from littlewood import characters as characters_module
from littlewood.characters import (
    DIM_BOUND_ENV,
    Character,
    build_root_system,
    char_of_irrep,
    decompose_character,
    dim_irrep,
    schur_character,
    weyl_orbit,
)
from littlewood.partitions import partitions_of
from littlewood.errors import InconsistencyError, NotCharacterError
from littlewood.partitions import Decomposition
from oracles import fill_character

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


# The decomposition before Weyl's formula: peel off the irreducible character
# of the highest dominant weight (integer height, then lex) until nothing is
# left.  Kept here as the reference the formula must agree with, errors and
# their order included.
def _peel(rs, char):
    h = rs.height_vector
    work, out = Decomposition(char.entries), Decomposition()
    while work:
        dominant = [fc for fc in work.entries if min(fc) >= 0]
        if not dominant:
            raise NotCharacterError("leftover non-dominant support")
        best = max(dominant, key=lambda fc: (sum(a * b for a, b in zip(fc, h)), fc))
        m = work[best]
        if m < 0:
            raise NotCharacterError(f"negative multiplicity {m} at {best} in {rs}")
        out.add(rs.weight(best), m)
        for fc, c in char_of_irrep(rs, best).entries.items():
            work.add(fc, -m * c)
    return out


TYPES = [("A", r) for r in range(1, 5)] + [(f, r) for f in "BC" for r in range(2, 5)] + [("D", 3), ("D", 4), ("G", 2)]


def _small_weights(rs):
    """0/1 highest weights of dimension at most 30."""
    weights = itertools.product((0, 1), repeat=rs.rank)
    return [fc for fc in weights if dim_irrep(rs, fc) <= 30]


@st.composite
def characters(draw):
    """A product of two small irreducibles, or a Schur functor of one, sometimes
    minus another irreducible (a virtual character)."""
    rs = build_root_system(*draw(st.sampled_from(TYPES)))
    weight = st.sampled_from(_small_weights(rs))
    base = char_of_irrep(rs, draw(weight))
    if draw(st.booleans()):
        char = base * char_of_irrep(rs, draw(weight))
    else:
        char = fill_character(rs, base, draw(st.sampled_from([(1, 1), (2,), (2, 1), (1, 1, 1), (3,)])))
    if draw(st.booleans()):
        char = char - char_of_irrep(rs, draw(weight))
    return rs, char


def _outcome(fn):
    try:
        return fn()
    except NotCharacterError as exc:
        return type(exc), str(exc)


@settings(deadline=None, max_examples=80)
@given(characters(), st.sampled_from([None, 20, 200]))
def test_weyl_formula_matches_the_peel(case, bound):
    # the bound limits weight expansion only, and Weyl's formula expands no
    # constituent, so under every bound it answers as the unbounded peel does
    rs, char = case
    with mock.patch.dict(os.environ, {} if bound is None else {DIM_BOUND_ENV: str(bound)}):
        got = _outcome(lambda: decompose_character(rs, char))
    with mock.patch.dict(os.environ):
        os.environ.pop(DIM_BOUND_ENV, None)
        want = _outcome(lambda: _peel(rs, char))
    assert got == want
    if isinstance(got, Decomposition):
        assert list(got.entries) == list(want.entries)  # highest constituent first


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(TYPES), st.data())
def test_perturbed_orbit_weight_is_not_a_character(family_rank, data):
    rs = build_root_system(*family_rank)
    top = data.draw(st.sampled_from(_small_weights(rs)[1:]))
    orbit = list(weyl_orbit(rs, top))
    bent = Character(rs, char_of_irrep(rs, top).entries)
    bent.add(data.draw(st.sampled_from(orbit)), data.draw(st.sampled_from([-1, 1])))
    with pytest.raises(NotCharacterError, match=r"but its reflection s_\d .* not Weyl-invariant"):
        decompose_character(rs, bent)
    assert bent.weyl_defect() is not None


def test_constituent_dimensions_must_sum_to_the_character(monkeypatch):
    g2 = build_root_system("G", 2)
    wedge = fill_character(g2, char_of_irrep(g2, (1, 0)), (1, 1))
    monkeypatch.setattr(characters_module, "dim_irrep", lambda rs, fc: 1)
    with pytest.raises(InconsistencyError, match="constituent dimensions sum to 2, the character to 21"):
        decompose_character(g2, wedge)


SHAPES = [lam.parts for size in range(5) for lam in partitions_of(size)]


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(TYPES), st.data())
def test_adams_kernel_matches_the_weight_fill(family_rank, data):
    # S_lam(V) by Newton's identity over Adams operations, against the Schur
    # polynomial filled over the weights of V and decomposed by Weyl's formula
    rs = build_root_system(*family_rank)
    top = data.draw(st.sampled_from(_small_weights(rs)))
    lam = data.draw(st.sampled_from(SHAPES))
    want = decompose_character(rs, fill_character(rs, char_of_irrep(rs, top), lam))
    got = schur_character(rs, top, lam)
    assert got == want and list(got.entries) == list(want.entries)
