import itertools
from math import comb

import pytest

from littlewood.characters import build_root_system, decompose_character, dim_irrep, weight_multiplicities
from littlewood.acceptance import G2_Y2_EXPECTED_TERMS
from littlewood.complexes import GradedTerm, GroupCase, bracket_weight, parse_case
from littlewood.errors import InconsistencyError
from littlewood.partitions import Decomposition, Partition, dim_schur
from littlewood import resolutions
from oracles import cauchy_euler, fold, restrict
from littlewood.resolutions import (
    AUDITS,
    BettiTable,
    E6_HILBERT_NUMERATOR,
    G2_Y2_BETTI_CHAR2,
    SLICE_BOUND,
    _g2_y1_slice,
    betti_of,
    cauchy_slice,
    euler_characteristics,
    g2_equivariant_resolution,
    hilbert_numerator,
    koszul_complex,
    koszul_terms,
    label_dimension,
    peel_resolution,
    quadric_space_dim,
    run_audit,
)

P = Partition


def test_koszul_examples():
    assert sorted(p.parts for p in koszul_terms("alternating", 3, 3).support()) == [(2, 2, 2)]
    assert sorted(p.parts for p in koszul_terms("alternating", 3, 2).support()) == [(2, 1, 1)]
    assert sorted(p.parts for p in koszul_terms("symmetric", 4, 1).support()) == [(2,)]
    with pytest.raises(ValueError):
        koszul_terms("alternating", 3, 4)


@pytest.mark.parametrize("form", ["alternating", "symmetric"])
def test_koszul_refuses_negative_m(form):
    with pytest.raises(ValueError, match=f"koszul {form}: m -2 is negative"):
        koszul_terms(form, -2, 1)
    with pytest.raises(ValueError, match=f"koszul {form}: m -3 is negative"):
        koszul_complex(form, -3)


def test_koszul_complete_intersection_hilbert():
    # the Koszul complex of N generic quadrics has K-polynomial (1 - T^2)^N
    for form in ("alternating", "symmetric"):
        for m in (2, 3, 4):
            n_quadrics = m * (m - 1) // 2 if form == "alternating" else m * (m + 1) // 2
            table = betti_of(koszul_complex(form, m), lambda lam: dim_schur(lam, m))
            expected = [0] * (2 * n_quadrics + 1)
            for k in range(n_quadrics + 1):
                expected[2 * k] = (-1) ** k * comb(n_quadrics, k)
            got = table.kpolynomial()
            got += [0] * (len(expected) - len(got))
            assert got == expected, (form, m)


def test_betti_render_golden_small():
    table = betti_of(koszul_complex("alternating", 2), lambda lam: dim_schur(lam, 2), ambient_dim=3)
    assert dict(table.entries) == {(0, 0): 1, (1, 2): 1}
    assert table.render() == "\n".join(
        [
            "       0 1",
            "total: 1 1",
            "    0: 1 .",
            "    1: . 1",
        ]
    )
    hd = hilbert_numerator(table, 1)
    assert hd.numerator == [1, 1] and hd.krull_dim == 2


def test_hilbert_rejects_inconsistent_codimension():
    table = betti_of(koszul_complex("alternating", 2), lambda lam: dim_schur(lam, 2), ambient_dim=3)
    with pytest.raises(InconsistencyError):
        hilbert_numerator(table, 2)


def test_hilbert_refuses_a_table_shorter_than_its_codimension():
    # Koszul on the one alternating quadric of a 2-space: length 1
    table = betti_of(koszul_complex("alternating", 2), lambda lam: dim_schur(lam, 2), ambient_dim=3)
    assert hilbert_numerator(table, 1).numerator == [1, 1]
    with pytest.raises(InconsistencyError, match="homological length 1, below the codimension 2"):
        hilbert_numerator(table, 2)
    # within its length, a table that does not divide still names the remainder
    with pytest.raises(InconsistencyError, match="remainder 1 at division step 0"):
        hilbert_numerator(BettiTable({(0, 0): 1, (1, 1): 1, (2, 2): 1}, ambient_dim=3), 1)


def test_hilbert_refuses_a_cut_table_or_one_with_no_ambient_dimension_before_dividing():
    # neither table divides by (1-T): the refusal comes first, not the remainder
    table = BettiTable({(0, 0): 1, (1, 2): 2}, ambient_dim=5, cut=2)
    with pytest.raises(InconsistencyError, match="cut at internal degree 2"):
        hilbert_numerator(table, 1)
    with pytest.raises(ValueError, match="needs ambient_dim"):
        hilbert_numerator(BettiTable(table.entries), 1)
    assert run_audit("e8-start").betti.cut == 3 and run_audit("e6-cone").betti.cut is None


def test_hilbert_refuses_a_negative_codimension():
    # dividing by (1-T)^-1 would run no step and blame the numerator instead
    table = betti_of(koszul_complex("alternating", 2), lambda lam: dim_schur(lam, 2), ambient_dim=3)
    with pytest.raises(ValueError, match="hilbert: codim -1 is below 0"):
        hilbert_numerator(table, -1)


def test_cauchy_slice_degree_one_is_matrix_space():
    for name in ("SpC(2)", "SOB(2)", "OD(3)", "G2", "F4_6", "F4_3", "E6_5", "E6_3", "E7_6", "E8_7"):
        case = parse_case(name)
        assert cauchy_slice(case, 1).total(label_dimension(case)) == case.dim_e * case.dim_v, name


def test_cauchy_slice_quadric_counts():
    assert quadric_space_dim(parse_case("E6_3")) == 162
    assert quadric_space_dim(parse_case("F4_3")) == 318
    e6_3 = parse_case("E6_3")
    assert cauchy_slice(e6_3, 2).total(label_dimension(e6_3)) == 6 * 351 + 3 * 351


def test_cauchy_slice_f4_six_copies_has_multiplicities():
    case = parse_case("F4_6")
    dec = cauchy_slice(case, 2)
    as_plain = {(lam.parts, w.fund_coords()): m for (lam, w), m in dec.entries.items()}
    assert as_plain == {
        ((2,), (0, 0, 0, 2)): 1,
        ((1, 1), (0, 0, 1, 0)): 1,
        ((1, 1), (1, 0, 0, 0)): 1,
    }
    assert dec.total(label_dimension(case)) == 21 * 324 + 15 * (273 + 52)


# Slice dimensions at degrees 0-4, as they stood when an even orthogonal
# shape with n rows carried one label (its bracket weight) and a dimension
# that counted both mirrors; labelling the mirrors apart leaves them equal.
SLICE_DIMENSIONS = {
    "SpC(2)": [1, 8, 35, 112, 294],
    "SpC(3)": [1, 18, 168, 1086, 5475],
    "SOB(2)": [1, 10, 52, 190, 553],
    "SOB(3)": [1, 21, 225, 1645, 9255],
    "OD(2)": [1, 8, 33, 96, 225],
    "OD(3)": [1, 18, 165, 1032, 4974],
    "OD(4)": [1, 32, 518, 5664, 47125],
    "G2": [1, 14, 95, 436, 1554],
    "F4_6": [1, 156, 11679, 555482, 18850467],
    "F4_3": [1, 78, 2763, 60562, 940287],
    "E6_5": [1, 135, 8775, 367315, 11173545],
    "E6_3": [1, 81, 3159, 79547, 1462698],
    "E7_6": [1, 336, 53808, 5490240, 402567060],
    "E8_7": [1, 1736, 1393980, 692612900, 240328960200],
}


@pytest.mark.parametrize("name", sorted(SLICE_DIMENSIONS))
def test_cauchy_slice_dimension_golden(name):
    case = parse_case(name)
    assert [cauchy_slice(case, d).total(label_dimension(case)) for d in range(5)] == SLICE_DIMENSIONS[name]


def test_g2_resolution_matches_stated_terms():
    got = {}
    for term in g2_equivariant_resolution():
        got[(term.index, term.degree)] = {
            (lam.parts, w.fund_coords()): m for (lam, w), m in term.content.entries.items()
        }
    assert got == G2_Y2_EXPECTED_TERMS


def test_g2_resolution_betti_and_hilbert():
    table = run_audit("g2-y2").betti
    assert table.totals() == [1, 10, 16, 16, 10, 1] and table.ambient_dim == 14
    hd = hilbert_numerator(table, 5)
    assert hd.numerator == [1, 5, 5, 1]
    assert hd.krull_dim == 9
    # degree of the variety

    assert sum(hd.numerator) == 12


def test_g2_coordinate_ring_hilbert_series_consistency():
    # dim K[Y2]_d must match the numerator over (1-T)^9
    num = [1, 5, 5, 1]
    case = GroupCase("G2")
    for d in range(0, 7):
        from_slice = cauchy_slice(case, d).total(label_dimension(case))
        from_series = sum(num[k] * comb(d - k + 8, 8) for k in range(len(num)) if d - k >= 0)
        assert from_slice == from_series, d


# The rank-1 resolution as the peel gives it, (i, degree, E-shape, weight
# fund coords): multiplicity.  Frozen from the table this package used to
# state; the source text of its middle terms was internally inconsistent,
# and this is the one list compatible with the coordinate ring and the
# stated Betti totals.
G2_Y1_TERMS = {
    (0, 0, (), (0, 0)): 1,
    (1, 2, (2,), (0, 0)): 1,
    (1, 2, (1, 1), (1, 0)): 1,
    (1, 2, (1, 1), (0, 1)): 1,
    (2, 3, (2, 1), (0, 0)): 1,
    (2, 3, (2, 1), (1, 0)): 2,
    (2, 3, (2, 1), (2, 0)): 1,
    (3, 4, (3, 1), (0, 0)): 1,
    (3, 4, (2, 2), (1, 0)): 1,
    (3, 4, (3, 1), (1, 0)): 1,
    (3, 4, (3, 1), (2, 0)): 1,
    (3, 4, (2, 2), (0, 1)): 1,
    (4, 5, (4, 1), (1, 0)): 1,
    (4, 5, (4, 1), (0, 1)): 1,
    (4, 6, (3, 3), (0, 0)): 1,
    (4, 6, (3, 3), (1, 0)): 1,
    (4, 6, (3, 3), (2, 0)): 1,
    (5, 6, (5, 1), (1, 0)): 1,
    (5, 7, (4, 3), (1, 0)): 1,
    (5, 7, (4, 3), (0, 1)): 1,
    (6, 7, (6, 1), (0, 0)): 1,
    (6, 8, (5, 3), (1, 0)): 1,
    (7, 9, (6, 3), (0, 0)): 1,
}

# The resolution of the cone over the minimal orbit of the 26-dimensional
# representation, (i, degree, weight fund coords): multiplicity.  It holds the
# 273-dimensional (0,0,1,0) summand in homological degrees 4 and 6, which the
# source text of the middle terms dropped.
F4_CONE_TERMS = {
    (0, 0, (0, 0, 0, 0)): 1,
    (1, 2, (0, 0, 0, 0)): 1,
    (1, 2, (0, 0, 0, 1)): 1,
    (2, 3, (1, 0, 0, 0)): 1,
    (2, 3, (0, 0, 0, 1)): 1,
    (3, 5, (0, 0, 0, 1)): 1,
    (3, 5, (0, 0, 1, 0)): 1,
    (3, 5, (1, 0, 0, 0)): 1,
    (4, 6, (0, 0, 0, 0)): 1,
    (4, 6, (0, 0, 0, 1)): 2,
    (4, 6, (0, 0, 0, 2)): 1,
    (4, 6, (0, 0, 1, 0)): 1,
    (5, 7, (0, 0, 0, 0)): 1,
    (5, 7, (0, 0, 0, 1)): 1,
    (5, 7, (0, 0, 0, 2)): 1,
    (5, 8, (0, 0, 0, 0)): 1,
    (5, 8, (0, 0, 0, 1)): 1,
    (5, 8, (0, 0, 0, 2)): 1,
    (6, 9, (0, 0, 0, 0)): 1,
    (6, 9, (0, 0, 0, 1)): 2,
    (6, 9, (0, 0, 0, 2)): 1,
    (6, 9, (0, 0, 1, 0)): 1,
    (7, 10, (0, 0, 0, 1)): 1,
    (7, 10, (0, 0, 1, 0)): 1,
    (7, 10, (1, 0, 0, 0)): 1,
    (8, 12, (1, 0, 0, 0)): 1,
    (8, 12, (0, 0, 0, 1)): 1,
    (9, 13, (0, 0, 0, 0)): 1,
    (9, 13, (0, 0, 0, 1)): 1,
    (10, 15, (0, 0, 0, 0)): 1,
}


def _plain(terms):
    """{(i, degree, E-shape parts, weight fund coords): multiplicity}."""
    return {
        (t.index, t.degree, lam.parts, w.fund_coords()): m
        for t in terms
        for (lam, w), m in t.content.entries.items()
    }


def _rank_one_slice(j):
    """The rank-1 variety's coordinate ring, built directly: Sym^j E (x) V_(j,0)
    in degree j."""
    return Decomposition({(P((j,) if j else ()), build_root_system("G", 2).weight((j, 0))): 1})


def test_g2_y1_terms_rederived_by_euler_characteristics():
    """The audit peels the rank-1 resolution (codimension 7) from the one-row
    part of the rank-2 slices; that part is Sym^j E (x) V_(j,0), and the peel
    gives the frozen 23 terms."""
    for j in range(SLICE_BOUND + 1):
        assert _g2_y1_slice(j) == _rank_one_slice(j), j
    assert _plain(AUDITS["g2-y1"].terms()) == G2_Y1_TERMS and len(G2_Y1_TERMS) == 23
    assert _plain(peel_resolution(GroupCase("G2"), _rank_one_slice, 7)) == G2_Y1_TERMS


def test_peel_resolution_walks_to_the_top_degree_of_its_h_vector():
    # At codimension 6 the rank-1 h-vector is (1 + 7T + 4T^2)(1 - T) =
    # 1 + 6T - 3T^2 - 4T^3, not palindromic, so the walk runs unmirrored to
    # s = 6 + 3 = 9, where it meets the term F_7.
    with pytest.raises(InconsistencyError, match="internal degree 9 needs homological degree 7, past the codimension 6"):
        peel_resolution(GroupCase("G2"), _rank_one_slice, 6)


@pytest.mark.parametrize(
    "name,form,codim",
    [
        ("SpC(2)", "alternating", 1),
        ("SpC(3)", "alternating", 3),
        ("SOB(2)", "symmetric", 3),
        ("SOB(3)", "symmetric", 6),
        ("OD(2)", "symmetric", 3),
        ("OD(3)", "symmetric", 6),
    ],
)
def test_peel_resolution_recovers_the_koszul_complex(name, form, codim):
    """In the stable range the variety is a complete intersection of quadrics:
    peeled from its coordinate ring, the resolution is the Koszul complex, and
    every term is a Schur functor of E tensored with the trivial
    representation (Littlewood's identity read off the resolution)."""
    case = parse_case(name)
    got = peel_resolution(case, lambda j: cauchy_slice(case, j), codim)
    assert [(t.index, t.degree, t.content) for t in got] == [
        (t.index, t.degree, t.content) for t in _koszul_with_weights(case, form)
    ]


def _koszul_with_weights(case, form):
    """The Koszul complex of the case's quadrics, every Schur functor of E
    tagged with the trivial weight, as `peel_resolution` labels it."""
    trivial = case.root_system().weight((0,) * case.n)
    return [
        GradedTerm(t.index, t.degree, t.content.map_labels(lambda lam: (lam, trivial)))
        for t in koszul_complex(form, case.n)
    ]


def test_peel_resolution_guards_the_codimension():
    case = GroupCase("G2")

    def slice_fn(j):
        return cauchy_slice(case, j)

    with pytest.raises(InconsistencyError, match="G2: internal degree .* past the codimension 4"):
        peel_resolution(case, slice_fn, 4)
    # h = (1 + 5T + 5T^2 + T^3)/(1 - T) at codimension 6 never ends
    with pytest.raises(InconsistencyError, match="^peel G2: the h-vector at codimension 6 does not end before SLICE_BOUND 12$"):
        peel_resolution(case, slice_fn, 6)


@pytest.mark.parametrize(
    "name,peeled,sliced",
    [
        ("g2-y2", 5, 13),  # h = 1 + 5T + 5T^2 + T^3, s = 8: degrees 5-8 mirrored
        ("e6-cone", 8, 13),  # h = 1 + 10T + 28T^2 + 28T^3 + 10T^4 + T^5, s = 15
        ("g2-y1", 10, 13),  # h = 1 + 7T + 4T^2 is not palindromic: peeled to 9
        ("e8-start", 4, 4),  # cut after degree 3: no h-vector, no slice past 3
    ],
)
def test_a_peel_mirrors_exactly_when_its_h_vector_is_palindromic(monkeypatch, name, peeled, sliced):
    """The number of degrees drawn from `euler_characteristics`, and the
    slices computed, each once: through SLICE_BOUND for the h-vector of an
    uncut peel, only through the cut for a cut one."""
    drawn, calls = [], {}
    real_euler, real_slice = resolutions.euler_characteristics, resolutions.cauchy_slice

    def counted_euler(case, slice_fn):
        for j, euler in enumerate(real_euler(case, slice_fn)):
            drawn.append(j)
            yield euler

    def counted_slice(case, d):
        calls[d] = calls.get(d, 0) + 1
        return real_slice(case, d)

    monkeypatch.setattr(resolutions, "euler_characteristics", counted_euler)
    monkeypatch.setattr(resolutions, "cauchy_slice", counted_slice)
    AUDITS[name].terms()
    assert drawn == list(range(peeled)) and calls == dict.fromkeys(range(sliced), 1)


def test_peel_refuses_a_drawn_degree_whose_dimension_is_not_that_of_k(monkeypatch):
    # one more S_(2)E in degree 2 is refused there, where it is drawn, not at
    # its mirror -S_(4,2)E in degree 6: K = h(T)(1-T)^5 has -10 at T^2
    real = resolutions.euler_characteristics

    def one_more(case, slice_fn):
        for j, euler in enumerate(real(case, slice_fn)):
            yield euler + Decomposition({((2,), (0, 0)): 1}) if j == 2 else euler

    monkeypatch.setattr(resolutions, "euler_characteristics", one_more)
    with pytest.raises(InconsistencyError, match=r"^peel G2: internal degree 2 has dimension -7, h\(T\)\(1-T\)\^5 gives -10$"):
        g2_equivariant_resolution()


def test_peel_refuses_an_unmirrored_top_degree_past_the_slice_bound(monkeypatch):
    """Slices R_j = S_(j)E + 2 S_(j-1)E with dim E = 2 have Hilbert series
    (1 + 2T)/(1 - T)^2, so at codimension 12 of the 14 variables h = 1 + 2T:
    not palindromic, so unmirrored, and s = 13 is past every slice.  The peel
    refuses before it draws a degree."""
    case = GroupCase("G2")
    trivial = case.root_system().weight((0, 0))

    def slices(j):
        ring = Decomposition({(P((j,)), trivial): 1})
        if j:
            ring.add((P((j - 1,)), trivial), 2)
        return ring

    def no_walk(case, slice_fn):
        raise AssertionError("the walk started")

    monkeypatch.setattr(resolutions, "euler_characteristics", no_walk)
    with pytest.raises(InconsistencyError, match="^peel G2: h is not palindromic, and its top degree s = 13 is past SLICE_BOUND 12$"):
        peel_resolution(case, slices, 12)


@pytest.mark.parametrize("name", ["g2-y2", "e6-cone", "SOB(3)"])
def test_the_mirror_keeps_every_label_dimension(name):
    """S_lam E^* = S_(a - lam_n, ..., a - lam_1)E (x) det^-a and dim V_{-w0 w}
    = dim V_w, so each peeled cell F_{i,j} and its mirror F_{c-i,s-j} have the
    same label dimensions.  With a palindromic h, K_j = (-1)^c K_{s-j}, so the
    check of each peeled degree against K covers the mirrored ones too."""
    if name in AUDITS:
        case, terms = AUDITS[name].case, AUDITS[name].terms()
    else:
        case = parse_case(name)
        terms = peel_resolution(case, lambda j: cauchy_slice(case, j), 6)
    dim_of = label_dimension(case)
    cells = {(t.index, t.degree): sorted((dim_of(label), m) for label, m in t.content.entries.items()) for t in terms}
    codim, s = max(cells)  # F_c sits alone in the top degree s
    peeled = [(i, j) for i, j in cells if 2 * j <= s]
    assert len(peeled) > 2 and all(cells[(i, j)] == cells[(codim - i, s - j)] for i, j in peeled)


def test_mirror_refuses_a_middle_degree_that_is_not_its_own_dual():
    """A degree-4 slice that trades S_(2,2)E (x) (7 + 14) for S_(3,1)E (x) 7
    keeps every dimension, so h still mirrors at s = 8, but the middle
    degree 4 is no longer (-1)^5 times its own dual, which is 0."""
    case, g2 = GroupCase("G2"), build_root_system("G", 2)
    traded = Decomposition({(P((3, 1)), g2.weight((1, 0))): 1, (P((2, 2)), g2.weight((1, 0))): -1, (P((2, 2)), g2.weight((0, 1))): -1})
    assert traded.total(label_dimension(case)) == 0

    def slices(j):
        return cauchy_slice(case, j) + traded if j == 4 else cauchy_slice(case, j)

    with pytest.raises(InconsistencyError, match=r"peel G2: internal degree 4 = s/2 is not \(-1\)\^5 times its own dual"):
        peel_resolution(case, slices, 5)


def test_mirror_refuses_a_shape_outside_the_box_of_the_top_term():
    """SOB(3) mirrors at s = 12 with F_6 = S_(4,4,4)E; a degree-6 slice that
    trades S_(4,2)E + S_(3,2,1)E for S_(5,1)E keeps every dimension, but
    (5,1) is wider than the box."""
    case = parse_case("SOB(3)")
    trivial = case.root_system().weight((0, 0, 0))
    traded = Decomposition({(P((5, 1)), trivial): 1, (P((4, 2)), trivial): -1, (P((3, 2, 1)), trivial): -1})
    assert traded.total(label_dimension(case)) == 0

    def slices(j):
        return cauchy_slice(case, j) + traded if j == 6 else cauchy_slice(case, j)

    with pytest.raises(InconsistencyError, match=r"peel SOB\(3\): internal degree 6 mirrors shape \(5, 1\), outside F_c = S_\(4\^3\)E"):
        peel_resolution(case, slices, 6)


def test_mirror_refuses_a_top_degree_that_dim_e_does_not_divide():
    """Slices with a shape one box short of their degree, which no coordinate
    ring has: R_j = S_(j)E + S_(j-1)E with dim E = 2 has Hilbert series
    (1 + T)/(1 - T)^2, so at codimension 12 of the 14 variables h = 1 + T,
    palindromic, and s = 13 is odd."""
    case = GroupCase("G2")
    trivial = case.root_system().weight((0, 0))

    def slices(j):
        ring = Decomposition({(P((j,)), trivial): 1})
        if j:
            ring.add((P((j - 1,)), trivial), 1)
        return ring

    with pytest.raises(InconsistencyError, match="peel G2: the mirror's top degree s = 13 is not a multiple of dim E = 2"):
        peel_resolution(case, slices, 12)


@pytest.mark.parametrize("name,s", [("g2-y2", 8), ("e6-cone", 15)])
def test_the_gorenstein_mirror_equals_a_direct_peel(name, s):
    """Cut at its top degree s, a peel draws every degree from the slices,
    with no h-vector and no mirror, so it checks the mirror's duals and -w0
    from outside.  The cone's ring is the Cartan powers S_(d)E (x) V_{d w1},
    which go on past SLICE_BOUND."""
    case, mirrored = AUDITS[name].case, AUDITS[name].terms()

    def slices(d):
        if case.dim_e > 1:
            return cauchy_slice(case, d)
        return Decomposition({(P((d,)), bracket_weight(case, (d,))): 1})

    if case.dim_e == 1:
        assert all(slices(d) == cauchy_slice(case, d) for d in range(SLICE_BOUND + 1))
    assert peel_resolution(case, slices, max(t.index for t in mirrored), stop=s) == mirrored


def test_euler_characteristic_vanishes_past_the_g2_resolution():
    # The rank-2 resolution ends at internal degree 8; the closed form must
    # give nothing in every later degree the slices reach.
    case = GroupCase("G2")
    eulers = euler_characteristics(case, lambda j: cauchy_slice(case, j))
    for j, euler in enumerate(itertools.islice(eulers, SLICE_BOUND + 1)):
        assert j <= 8 or not euler, j


def _fund_slices(case, slice_fn, top):
    """slice_fn(0..top) labelled (shape parts, fundamental coordinates)."""
    rs = case.root_system()
    return [slice_fn(d).map_labels(lambda lab: (lab[0].parts, rs.fund_tuple(lab[1]))) for d in range(top + 1)]


@pytest.mark.parametrize(
    "case,slice_fn,top",
    [
        (GroupCase("G2"), None, 9),
        (GroupCase("G2"), _g2_y1_slice, 9),
        (parse_case("SpC(2)"), None, 6),
        (parse_case("SOB(2)"), None, 6),
        (parse_case("OD(2)"), None, 6),
        (GroupCase("E6_3", dim_e=1), None, 7),
        (GroupCase("F4_3", dim_e=1), None, 7),
    ],
    ids=["g2-y2", "g2-y1", "SpC(2)", "SOB(2)", "OD(2)", "e6-cone", "f4-cone"],
)
def test_euler_characteristics_match_the_dual_cauchy_oracle(case, slice_fn, top):
    """Newton's identity over Adams operations against the formula it
    replaced: dual Cauchy, wedge^k(E (x) V) = sum S_sigma E (x) S_sigma' V, with
    LR coefficients on the E side and S_sigma' V filled weight by weight."""
    slice_fn = slice_fn or (lambda j: cauchy_slice(case, j))
    slices = _fund_slices(case, slice_fn, top)
    for j, euler in enumerate(itertools.islice(euler_characteristics(case, slice_fn), top + 1)):
        assert euler == cauchy_euler(case, slices[: j + 1], j), (case.name, j)


@pytest.mark.parametrize("name,codim", [("G2", 5), ("SpC(3)", 3)])
def test_peeled_betti_numbers_match_the_hilbert_series(name, codim):
    """sum_i (-1)^i dim F_{i,j} is the T^j coefficient of the Hilbert series
    of the coordinate ring times (1-T)^N, N = dim E * dim V: a dimension
    count that does not go through Cauchy, Brauer-Klimyk or the LR rule."""
    case = parse_case(name)
    n_vars = case.dim_e * case.dim_v
    ring = [cauchy_slice(case, d).total(label_dimension(case)) for d in range(SLICE_BOUND + 1)]
    terms = peel_resolution(case, lambda j: cauchy_slice(case, j), codim)
    kpoly = betti_of(terms, label_dimension(case)).kpolynomial()
    kpoly += [0] * (SLICE_BOUND + 1 - len(kpoly))
    for j in range(SLICE_BOUND + 1):
        assert kpoly[j] == sum((-1) ** k * comb(n_vars, k) * ring[j - k] for k in range(j + 1)), j


@pytest.mark.parametrize("name,codim", [("G2", 5), ("SpC(3)", 3), ("SOB(3)", 6)])
def test_peeled_resolution_is_gorenstein_self_dual(name, codim):
    """F_{c-i} = F_i^* (x) F_c.  F_c is S_(a^n)E of a single internal degree
    D, so S_lam E in degree j pairs with S_(a - lam_n, ..., a - lam_1)E in
    degree D - j; the weights pair with themselves, as -w0 = 1 for G2, B_n
    and C_n."""
    case = parse_case(name)
    n = case.dim_e
    terms = peel_resolution(case, lambda j: cauchy_slice(case, j), codim)
    cells = {(t.index, t.degree): t.content for t in terms}
    c = max(i for i, _ in cells)
    [(top_degree, top)] = [(j, content) for (i, j), content in cells.items() if i == c]
    [((box, weight), mult)] = top.entries.items()
    assert mult == 1 and not any(weight.fund_coords()) and box == P((box[0],) * n)

    def dual(label):
        lam, w = label
        return P(tuple(box[0] - lam[n - 1 - k] for k in range(n))), w

    assert {(c - i, top_degree - j): content.map_labels(dual) for (i, j), content in cells.items()} == cells
    if name == "G2":
        assert cells[(1, 2)][(P((2,)), weight)] == cells[(4, 6)][(P((4, 2)), weight)] == 1


def test_g2_y1_audit():
    report = run_audit("g2-y1")
    assert report.passed
    assert [r.computed for r in report.rows] == [1, 24, 84, 126, 119, 77, 27, 4]
    # row structure of the stated table
    assert report.betti.entries[(4, 5)] == 84 and report.betti.entries[(4, 6)] == 35
    assert report.betti.entries[(5, 6)] == 35 and report.betti.entries[(5, 7)] == 42
    assert report.betti.entries[(6, 7)] == 6 and report.betti.entries[(6, 8)] == 21


def test_g2_y1_hilbert_series_consistency():
    report = run_audit("g2-y1")
    hd = hilbert_numerator(report.betti, 7)
    g2 = build_root_system("G", 2)
    for d in range(0, 7):
        from_ring = (d + 1) * dim_irrep(g2, (d, 0))
        from_series = sum(hd.numerator[k] * comb(d - k + 6, 6) for k in range(len(hd.numerator)) if d - k >= 0)
        assert from_ring == from_series, d


def test_e6_cone_audit_and_hilbert():
    report = run_audit("e6-cone")
    assert report.passed
    hd = hilbert_numerator(report.betti, 10)
    assert hd.numerator == E6_HILBERT_NUMERATOR
    assert hd.krull_dim == 17
    e6 = build_root_system("E", 6)
    # the whole minimal-orbit coordinate ring against the Hilbert series
    for d in range(0, 6):
        fc = (d, 0, 0, 0, 0, 0)
        from_series = sum(hd.numerator[k] * comb(d - k + 16, 16) for k in range(len(hd.numerator)) if d - k >= 0)
        assert dim_irrep(e6, fc) == from_series, d


def test_f4_cone_audit_and_hilbert():
    report = run_audit("f4-cone")
    assert report.passed
    hd = hilbert_numerator(report.betti, 10)
    assert hd.numerator == E6_HILBERT_NUMERATOR
    assert hd.krull_dim == 16
    f4 = build_root_system("F", 4)
    for d in range(0, 6):
        fc = (0, 0, 0, d)
        from_series = sum(hd.numerator[k] * comb(d - k + 15, 15) for k in range(len(hd.numerator)) if d - k >= 0)
        assert dim_irrep(f4, fc) == from_series, d


# The resolution of the cone over the minimal orbit of the 27-dimensional
# representation, as stated: (homological index, internal degree, fundamental
# coordinates, multiplicity).  The stated weights are the duals, through -w0,
# of the bracket convention the peel labels by.
E6_CONE_TERMS = [
    (0, 0, (0, 0, 0, 0, 0, 0), 1),
    (1, 2, (1, 0, 0, 0, 0, 0), 1),
    (2, 3, (0, 1, 0, 0, 0, 0), 1),
    (3, 5, (0, 0, 0, 0, 1, 0), 1),
    (4, 6, (1, 0, 0, 0, 0, 1), 1),
    (5, 7, (2, 0, 0, 0, 0, 0), 1),
    (5, 8, (0, 0, 0, 0, 0, 2), 1),
    (6, 9, (1, 0, 0, 0, 0, 1), 1),
    (7, 10, (0, 0, 1, 0, 0, 0), 1),
    (8, 12, (0, 1, 0, 0, 0, 0), 1),
    (9, 13, (0, 0, 0, 0, 0, 1), 1),
    (10, 15, (0, 0, 0, 0, 0, 0), 1),
]


def test_e6_cone_is_the_stated_table_through_minus_w0():
    """Peeled through internal degree 7 and mirrored to 15, the cone's
    resolution is the stated one term for term, every weight through -w0
    (which swaps w1, w6 and w3, w5)."""

    def minus_w0(a):
        return (a[5], a[1], a[4], a[3], a[2], a[0])

    got = _plain(AUDITS["e6-cone"].terms())
    assert got == {(i, j, (j,) if j else (), minus_w0(fc)): m for i, j, fc, m in E6_CONE_TERMS}


def test_f4_cone_terms_match_e6_branching():
    """The 26-variable cone is a hyperplane section of the 27-variable one, so
    each resolution term is the branching of the corresponding term through
    the folding embedding of the rank-4 group: the 27 restricts to 26 + 1.
    The peeled f4-cone is the stated E6 table restricted to F4 (-w0 = 1 on
    F4, so the weight convention does not matter)."""
    e6 = build_root_system("E", 6)
    f4 = build_root_system("F", 4)

    def branch(fc):
        return decompose_character(f4, restrict(weight_multiplicities(e6, fc), f4, fold))

    assert {w.fund_coords(): m for w, m in branch((1, 0, 0, 0, 0, 0)).entries.items()} == {(0, 0, 0, 1): 1, (0, 0, 0, 0): 1}
    restricted = Decomposition()
    for i, j, fc, m in E6_CONE_TERMS:
        for w, k in branch(fc).entries.items():
            restricted.add((i, j, (j,) if j else (), w.fund_coords()), m * k)
    got = _plain(AUDITS["f4-cone"].terms())
    assert got == restricted.entries and len(got) == 30
    assert got == {(i, j, P((j,)).parts, fc): m for (i, j, fc), m in F4_CONE_TERMS.items()}
    for i, j in ((4, 6), (6, 9)):
        assert got[(i, j, (j,), (0, 0, 1, 0))] == 1 and dim_irrep(f4, (0, 0, 1, 0)) == 273


@pytest.mark.parametrize(
    "name,dual",
    [
        ("f4-cone", lambda a: a),  # -w0 = 1
        ("e6-cone", lambda a: (a[5], a[1], a[4], a[3], a[2], a[0])),  # -w0 swaps w1, w6 and w3, w5
    ],
)
def test_cone_resolution_is_gorenstein_self_dual(name, dual):
    """F_{c-i} = F_i^* (x) F_c with c = 10 and F_c the trivial representation
    in degree 15: V_a in degree j pairs with V_{-w0 a} in degree 15 - j."""
    cells = {(i, j, fc): m for (i, j, _, fc), m in _plain(AUDITS[name].terms()).items()}
    [(top, m)] = [((j, fc), m) for (i, j, fc), m in cells.items() if i == 10]
    assert top == (15, (0,) * AUDITS[name].case.root_system().rank) and m == 1 and max(i for i, _, _ in cells) == 10
    assert {(10 - i, 15 - j, dual(fc)): m for (i, j, fc), m in cells.items()} == cells


def test_e8_start_audit_and_weyl_euler_identities():
    report = run_audit("e8-start")
    assert report.passed
    e8 = build_root_system("E", 8)
    sym2 = comb(249, 2)
    sym3 = comb(250, 3)
    f1 = report.rows[1].computed
    f2 = report.rows[2].computed
    assert dim_irrep(e8, (0,) * 7 + (2,)) == sym2 - f1
    assert dim_irrep(e8, (0,) * 7 + (3,)) == sym3 - 248 * f1 + f2


def test_audit_compares_a_column_stated_on_one_side_only_with_zero(monkeypatch):
    monkeypatch.setitem(AUDITS, "e8-start", AUDITS["e8-start"]._replace(expected_totals=[1, 3876]))
    report = run_audit("e8-start")
    assert not report.passed and (report.rows[2].computed, report.rows[2].expected) == (151373, 0)


def test_audit_json_shape():
    data = run_audit("e8-start").to_json()
    assert data["pass"] is True
    assert data["rows"][1]["computed"] == 3876
    assert data["betti"]["entries"]["1,2"] == 3876


def test_audit_ambient_dimension_is_dim_e_times_dim_v():
    ambient = {name: run_audit(name).betti.ambient_dim for name in AUDITS}
    assert ambient == {"g2-y2": 14, "g2-y1": 14, "f4-cone": 26, "e6-cone": 27, "e8-start": 248}


@pytest.mark.parametrize("name", sorted(AUDITS))
def test_audit_terms_live_in_their_case(name):
    """Every label is (E-shape, weight): the shape has at most dim E rows and
    the term's internal degree as its size, and the weight belongs to the
    case's root system."""
    case = AUDITS[name].case
    rs = case.root_system()
    for t in AUDITS[name].terms():
        for lam, w in t.content.support():
            assert len(lam) <= case.dim_e and lam.size == t.degree, (name, t.index, lam)
            assert (w.system.family, w.system.rank) == (rs.family, rs.rank), (name, t.index, w)


# The first steps for the cone over the adjoint minimal orbit of E8, as
# stated: (homological index, internal degree, fundamental coordinates,
# multiplicity).
E8_START_TERMS = [
    (0, 0, (0, 0, 0, 0, 0, 0, 0, 0), 1),
    (1, 2, (0, 0, 0, 0, 0, 0, 0, 0), 1),
    (1, 2, (1, 0, 0, 0, 0, 0, 0, 0), 1),
    (2, 3, (0, 0, 0, 0, 0, 0, 0, 1), 1),
    (2, 3, (0, 1, 0, 0, 0, 0, 0, 0), 1),
    (2, 3, (1, 0, 0, 0, 0, 0, 0, 0), 1),
]


def test_e8_start_is_the_stated_cut_peel():
    got = _plain(AUDITS["e8-start"].terms())
    assert got == {(i, j, (j,) if j else (), fc): m for i, j, fc, m in E8_START_TERMS}
    assert AUDITS["e8-start"].cut == max(j for _, j, _, _ in E8_START_TERMS) == 3


def _stated_cells(name):
    """{(i, j, fundamental coordinates): multiplicity} of the cone's stated
    terms, read from the goldens above: the registry's terms are the peel
    itself."""
    if name == "f4-cone":
        return F4_CONE_TERMS
    return {(i, j, fc): m for i, j, fc, m in {"e6-cone": E6_CONE_TERMS, "e8-start": E8_START_TERMS}[name]}


@pytest.mark.parametrize(
    "name,kind,dual",
    [
        ("f4-cone", "F4_3", lambda a: a),  # -w0 = 1
        ("e6-cone", "E6_3", lambda a: (a[5], a[1], a[4], a[3], a[2], a[0])),  # -w0 swaps w1, w6 and w3, w5
        ("e8-start", "E8_7", lambda a: a),  # -w0 = 1
    ],
)
def test_cone_is_its_case_with_a_one_dimensional_e(name, kind, dual):
    """Through internal degree 7 (3 for e8-start, stated that far), sum_i
    (-1)^i F_{i,j} of the cone's stated terms is the Euler characteristic of
    its case with dim E = 1, computed from that case's coordinate ring, R_d =
    S_(d)E (x) V_{bracket((d))}.  For E6_3 the bracket map gives V_{d w1}, the
    dual of the convention of the stated terms, so their weights go through
    -w0 first."""
    case = GroupCase(kind, dim_e=1)
    assert AUDITS[name].case == case
    cells = _stated_cells(name)
    top = AUDITS[name].cut or 7
    eulers = euler_characteristics(case, lambda j: cauchy_slice(case, j))
    for j, euler in enumerate(itertools.islice(eulers, top + 1)):
        stated = Decomposition()
        for (i, jj, fc), m in cells.items():
            if jj == j:
                stated.add(((j,) if j else (), dual(fc)), (-1) ** i * m)
        assert euler == stated, j


def test_betti_json_round_trip():
    table = BettiTable({(0, 0): 1, (1, 2): 10}, ambient_dim=14)
    assert table.to_json() == {"ambient": 14, "entries": {"0,0": 1, "1,2": 10}}


G2_Y2_BETTI_CHAR2_TEXT = """\
       0  1  2  3  4 5
total: 1 10 17 17 10 1
    0: 1  .  .  .  . .
    1: . 10 16  1  . .
    2: .  .  1 16 10 .
    3: .  .  .  .  . 1"""


def test_char2_reference_table_renders_identically():
    assert G2_Y2_BETTI_CHAR2.render() == G2_Y2_BETTI_CHAR2_TEXT
    # the extra pair cancels: the K-polynomial is that of characteristic 0
    assert G2_Y2_BETTI_CHAR2.kpolynomial() == run_audit("g2-y2").betti.kpolynomial()


@pytest.mark.parametrize("name", ["g2-y2", "e6-cone"])
def test_every_single_cell_change_changes_the_layout(name):
    """render() prints beta_{i,j} at row j - i, column i, so comparing the
    layout text compares every cell: raising any cell of the grid by one,
    or clearing a nonzero one, gives another text."""
    table = run_audit(name).betti
    layout = table.render()
    rows = max(j - i for i, j in table.entries) + 1
    for i in range(table.max_index + 1):
        for j in range(i, i + rows):
            v = table.entries.get((i, j), 0)
            for changed in {v + 1, 0} - {v}:
                entries = dict(table.entries)
                entries[(i, j)] = changed
                assert BettiTable(entries, table.ambient_dim).render() != layout, (name, i, j, changed)
