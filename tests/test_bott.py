import itertools
import random

import pytest

from littlewood.bott import (
    BottOutcome,
    SpinLabel,
    _on_wall,
    bott,
    spin_cohomology,
    spin_label,
    spin_weight,
)
from littlewood.characters import Weight, build_root_system
from littlewood.errors import ScaleError
from littlewood.partitions import partitions_of


def boxed(n):
    """The partitions in the n-by-n box, by size."""
    return [lam for size in range(n * n + 1) for lam in partitions_of(size, max_length=n, max_part=n)]


def shifted_reflection(rs, i, fc):
    """The rho-shifted action s_i(fc + rho) - rho of the i-th simple
    reflection (i is 1-based) on fundamental coordinates."""
    return tuple(c - 1 for c in rs.reflect(i - 1, tuple(c + 1 for c in fc)))


def _eps_halves(rs, fc):
    return tuple(t // 2 for t in rs.weight(fc).to_epsilon().twice)


def test_shifted_reflection_a1():
    a1 = build_root_system("A", 1)
    assert shifted_reflection(a1, 1, (0,)) == (-2,)


def test_shifted_reflection_d_epsilon_rules():
    d4 = build_root_system("D", 4)
    fc = Weight.epsilon("D", 4, (5, 3, 2, 1)).fund_coords()
    # inner reflection swaps with a shift
    assert _eps_halves(d4, shifted_reflection(d4, 2, fc)) == (5, 1, 4, 1)
    # the last node negates and swaps the final pair, shifted
    assert _eps_halves(d4, shifted_reflection(d4, 4, fc)) == (5, 3, -2, -3)


def test_shifted_reflection_is_involution():
    rng = random.Random(1)
    for family, rank in (("B", 3), ("C", 2), ("D", 4), ("G", 2), ("F", 4)):
        rs = build_root_system(family, rank)
        for _ in range(10):
            fc = tuple(rng.randint(-4, 4) for _ in range(rank))
            for i in range(1, rank + 1):
                assert shifted_reflection(rs, i, shifted_reflection(rs, i, fc)) == fc


def test_bott_dominant_is_degree_zero():
    for family, rank in (("A", 3), ("C", 2), ("E", 6)):
        rs = build_root_system(family, rank)
        fc = tuple(1 if i % 2 else 2 for i in range(rank))
        out = bott(rs, Weight.fundamental(family, rank, fc))
        assert out == BottOutcome(False, 0, Weight.fundamental(family, rank, fc))


def _length(rs, word):
    """Inversion count of the product of the simple reflections in word."""
    positive = {root.fund_coords for root in rs._roots}
    neg = 0
    for fc in positive:
        for i in reversed(word):
            fc = rs.reflect(i - 1, fc)
        negated = tuple(-c for c in fc)
        assert (fc in positive) != (negated in positive)
        neg += negated in positive
    return neg


def test_bott_recovers_word_length_up_to_4():
    for family, rank in (("A", 3), ("B", 2), ("C", 3), ("D", 4), ("G", 2)):
        rs = build_root_system(family, rank)
        lam = (1,) * rank
        for length in range(1, 5):
            for word in itertools.product(range(1, rank + 1), repeat=length):
                twisted = lam
                for i in reversed(word):
                    twisted = shifted_reflection(rs, i, twisted)
                out = bott(rs, rs.weight(twisted))
                wl = _length(rs, list(word))
                if wl == length:  # reduced word
                    assert not out.vanishes
                    assert out.degree == length
                    assert out.weight.fund_coords() == lam


def test_bott_vanishing_on_walls():
    c2 = build_root_system("C", 2)
    # lambda + rho = (0, 1) in epsilon coordinates: on the long wall
    w = Weight.epsilon("C", 2, (-2, 0))
    assert bott(c2, w).vanishes
    assert bott(c2, w, epsilon_shortcut=False).vanishes


def test_epsilon_shortcut_agrees_with_generic_walk():
    rng = random.Random(3)
    for family, rank in (("B", 3), ("C", 2), ("D", 4)):
        rs = build_root_system(family, rank)
        for _ in range(200):
            fc = tuple(rng.randint(-5, 5) for _ in range(rank))
            w = Weight.fundamental(family, rank, fc)
            assert bott(rs, w) == bott(rs, w, epsilon_shortcut=False)


def test_epsilon_singular_zero_coordinate_type_c():
    # zero coordinate on a long-root wall, no up-to-sign collision; the
    # coordinates are doubled, (0, 1) written as (0, 2)
    assert _on_wall("C", (0, 2))
    assert not _on_wall("D", (0, 2))
    assert _on_wall("D", (1, -1)) and not _on_wall("A", (1, -1, 0))


def test_spin_cohomology_d_examples():
    out = spin_cohomology("Dplus", 3, (1,))
    assert (out.vanishes, out.degree, out.label) == (False, 0, SpinLabel.DELTA_MINUS)
    out = spin_cohomology("Dplus", 3, (2, 1))
    assert (out.vanishes, out.degree, out.label) == (False, 1, SpinLabel.DELTA_MINUS)
    assert spin_cohomology("Dplus", 2, (2,)).vanishes
    out = spin_cohomology("Dplus", 2, (2, 2))
    assert (out.degree, out.label) == (1, SpinLabel.DELTA_PLUS)
    out = spin_cohomology("Dminus", 2, (2, 2))
    assert (out.degree, out.label) == (1, SpinLabel.DELTA_MINUS)
    with pytest.raises(ValueError):
        spin_cohomology("Dplus", 2, (3,))


def test_spin_cohomology_b_examples():
    out = spin_cohomology("B", 2, (2,))
    assert (out.vanishes, out.degree, out.label) == (False, 1, SpinLabel.DELTA)
    assert spin_cohomology("B", 3, (1,)).vanishes
    out = spin_cohomology("B", 3, ())
    assert (out.degree, out.label) == (0, SpinLabel.DELTA)
    with pytest.raises(ValueError):
        spin_cohomology("B", 2, (3,))


def test_spin_label_parity_rule():
    # Delta for B and Dfull whatever the diagonal; a half-spin family keeps
    # its own label on an even diagonal and swaps it on an odd one
    labels = {family: [spin_label(family, diag).value for diag in range(4)] for family in ("B", "Dplus", "Dminus", "Dfull")}
    assert labels == {
        "B": ["Delta"] * 4,
        "Dplus": ["Delta+", "Delta-", "Delta+", "Delta-"],
        "Dminus": ["Delta-", "Delta+", "Delta-", "Delta+"],
        "Dfull": ["Delta"] * 4,
    }


@pytest.mark.parametrize("family", ["Dfull", "D", "plus", "C"])
def test_spin_cohomology_refuses_an_unknown_family(family):
    # Dfull labels a spinor complex, whose terms carry both half-spin labels;
    # no single line bundle has that cohomology
    with pytest.raises(ValueError, match=rf"^spin_cohomology: family '{family}' is not one of B, Dplus, Dminus$"):
        spin_cohomology(family, 2, ())


@pytest.mark.parametrize("n", [0, -2])
def test_spin_closed_forms_refuse_a_rank_below_one(n):
    # refused as spinor_complex refuses it; n = 0 used to answer "degree 0" for the empty shape
    with pytest.raises(ScaleError, match=rf"^spin_cohomology B \[\]: n {n} is below 1$"):
        spin_cohomology("B", n, ())
    with pytest.raises(ScaleError, match=rf"^spin_cohomology Dminus \[1\]: n {n} is below 1$"):
        spin_cohomology("Dminus", n, (1,))


def test_spin_closed_forms_match_bott_small():
    for n in (2, 3, 4):
        rs = build_root_system("D", n)
        for lam in boxed(n):
            for family in ("Dplus", "Dminus"):
                closed = spin_cohomology(family, n, lam)
                walked = bott(rs, spin_weight("D", n, [-lam[n - 1 - i] for i in range(n)], family == "Dminus"))
                assert closed.vanishes == walked.vanishes
                if not closed.vanishes:
                    assert walked.degree == closed.degree
    for n in (1, 2, 3):
        rs = build_root_system("B", n)
        for lam in boxed(n):
            closed = spin_cohomology("B", n, lam)
            walked = bott(rs, spin_weight("B", n, [-lam[n - 1 - i] for i in range(n)]))
            assert closed.vanishes == walked.vanishes
            if not closed.vanishes:
                assert walked.degree == closed.degree


def test_bott_degree_bounded_by_positive_roots():
    rng = random.Random(5)
    for family, rank in (("G", 2), ("F", 4), ("B", 4)):
        rs = build_root_system(family, rank)
        for _ in range(100):
            fc = tuple(rng.randint(-6, 6) for _ in range(rank))
            out = bott(rs, Weight.fundamental(family, rank, fc), epsilon_shortcut=False)
            if not out.vanishes:
                assert 0 <= out.degree <= len(rs._roots)


def test_outcome_json():
    a1 = build_root_system("A", 1)
    assert bott(a1, Weight.fundamental("A", 1, (-1,))).to_json() == {"vanishes": True}
    out = bott(a1, Weight.fundamental("A", 1, (-2,)))
    assert out.to_json() == {"degree": 1, "weight": {"system": "fundamental:A1", "coords": [0]}}
