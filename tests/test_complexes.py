import pytest

from littlewood.bott import SpinLabel, spin_mirrors, spin_weight
from littlewood.characters import Character, Weight, build_root_system, dim_irrep, weight_multiplicities
import littlewood.complexes as complexes_module
from littlewood.complexes import (
    CASE_KINDS,
    GroupCase,
    _littlewood_rule,
    _littlewood_terms,
    _spin_dim,
    bracket_labels,
    bracket_weight,
    branch_gl_to_iso,
    littlewood_complex,
    parse_case,
    spinor_complex,
    verify_littlewood_identity,
    verify_spinor_identity,
)
from littlewood.errors import ScaleError, StableRangeError, check_bound
from littlewood.partitions import Decomposition, Partition, dim_schur, partitions_of, skew_schur_expand
from oracles import fill_character

P = Partition

ALL_CASES = [
    parse_case(s)
    for s in ("SpC(3)", "SOB(2)", "OD(3)", "G2", "F4_6", "F4_3", "E6_5", "E6_3", "E7_6", "E8_7")
]


def test_case_tables():
    dims = {c.kind: (c.dim_e, c.dim_v) for c in ALL_CASES}
    assert dims["G2"] == (2, 7)
    assert dims["F4_3"] == (3, 26)
    assert dims["E6_3"] == (3, 27)
    assert dims["E7_6"] == (6, 56)
    assert dims["E8_7"] == (7, 248)
    assert dims["SpC"] == (3, 6)
    assert dims["SOB"] == (2, 5)
    assert dims["OD"] == (3, 6)
    with pytest.raises(ValueError):
        parse_case("G3")
    with pytest.raises(ValueError):
        GroupCase("G2", 2)
    assert CASE_KINDS == ("SpC", "SOB", "OD", "G2", "F4_6", "F4_3", "E6_5", "E6_3", "E7_6", "E8_7")


def test_case_dim_e_override():
    cone = GroupCase("F4_3", dim_e=1)
    assert (cone.dim_e, cone.dim_v, cone.bracket_rows, cone.name) == (1, 26, 3, "F4_3")
    assert GroupCase("G2", dim_e=2) == parse_case("G2") and GroupCase("SpC", 3, dim_e=2).dim_e == 2
    with pytest.raises(ValueError, match="case E6_3: dim E 0 is below 1"):
        GroupCase("E6_3", dim_e=0)


def test_a_parsed_case_finds_the_case_it_names():
    memo = {GroupCase("G2"): "g2", GroupCase("SpC", 3): "spc3", GroupCase("F4_3", dim_e=1): "cone"}
    assert memo[parse_case("G2")] == "g2" and memo[parse_case("SpC(3)")] == "spc3"
    assert parse_case("F4_3") not in memo and GroupCase("SpC", 3, dim_e=2) not in memo
    assert hash(parse_case("G2")) == hash(GroupCase("G2", dim_e=2))
    assert repr(parse_case("SpC(3)")) == "GroupCase(kind='SpC', n=3, dim_e=3)"


def test_bracket_examples():
    g2 = parse_case("G2")
    assert bracket_weight(g2, (3, 1)).fund_coords() == (2, 1)
    e7 = parse_case("E7_6")
    assert bracket_weight(e7, (1,)).fund_coords() == (0, 0, 0, 0, 0, 0, 1)
    for case in ALL_CASES:
        assert all(c == 0 for c in bracket_weight(case, ()).fund_coords())


# bracket_weight(case, 1^k) for k = 1 .. bracket_rows.  The bracket map is
# additive (test_bracket_additivity), so these columns fix it.
BRACKET_COLUMNS = {
    "SpC(3)": ["eps:C3:1,0,0", "eps:C3:1,1,0", "eps:C3:1,1,1"],
    "SOB(2)": ["eps:B2:1,0", "eps:B2:1,1"],
    "OD(3)": ["eps:D3:1,0,0", "eps:D3:1,1,0", "eps:D3:1,1,1"],
    "G2": ["fund:G2:1,0", "fund:G2:0,1"],
    "F4_6": ["fund:F4:0,0,0,1", "fund:F4:0,0,1,0", "fund:F4:0,1,0,0"],
    "F4_3": ["fund:F4:0,0,0,1", "fund:F4:0,0,1,0", "fund:F4:0,1,0,0"],
    "E6_5": ["fund:E6:1,0,0,0,0,0", "fund:E6:0,0,1,0,0,0", "fund:E6:0,0,0,1,0,0", "fund:E6:0,1,0,0,1,0", "fund:E6:0,0,0,0,2,0"],
    "E6_3": ["fund:E6:1,0,0,0,0,0", "fund:E6:0,0,1,0,0,0", "fund:E6:0,0,0,1,0,0"],
    "E7_6": [
        "fund:E7:0,0,0,0,0,0,1", "fund:E7:0,0,0,0,0,1,0", "fund:E7:0,0,0,0,1,0,0",
        "fund:E7:0,0,0,1,0,0,0", "fund:E7:0,1,1,0,0,0,0", "fund:E7:0,0,2,0,0,0,0",
    ],
    "E8_7": [
        "fund:E8:0,0,0,0,0,0,0,1", "fund:E8:0,0,0,0,0,0,1,0", "fund:E8:0,0,0,0,0,1,0,0", "fund:E8:0,0,0,0,1,0,0,0",
        "fund:E8:0,0,0,1,0,0,0,0", "fund:E8:0,1,1,0,0,0,0,0", "fund:E8:0,0,2,0,0,0,0,0",
    ],
}


@pytest.mark.parametrize("name", BRACKET_COLUMNS)
def test_bracket_columns(name):
    case = parse_case(name)
    assert [str(bracket_weight(case, (1,) * k)) for k in range(1, case.bracket_rows + 1)] == BRACKET_COLUMNS[name]


def test_bracket_first_column_dimensions():
    # degree-one slice must be a copy of the small representation
    for case in ALL_CASES:
        rs = case.root_system()
        assert sum(dim_irrep(rs, w) for w in bracket_labels(case, (1,))) == case.dim_v


def test_bracket_additivity():
    for case in ALL_CASES:
        rows = case.bracket_rows
        shapes = [p for p in partitions_of(3, max_length=rows)] + [
            p for p in partitions_of(2, max_length=rows)
        ]
        for lam in shapes:
            for mu in shapes:
                both = P(tuple(lam[i] + mu[i] for i in range(max(len(lam), len(mu)))))  # row-wise sum
                if len(both) > rows:
                    continue
                left = bracket_weight(case, lam).fund_coords()
                right = bracket_weight(case, mu).fund_coords()
                total = bracket_weight(case, both).fund_coords()
                assert tuple(a + b for a, b in zip(left, right)) == total, (case.name, lam, mu)


def test_bracket_length_guard():
    with pytest.raises(ValueError):
        bracket_weight(parse_case("G2"), (1, 1, 1))
    # the six-copy case is only spherical on shapes with at most three rows
    with pytest.raises(ValueError):
        bracket_weight(parse_case("F4_6"), (1, 1, 1, 1))


def test_littlewood_complex_examples():
    terms = littlewood_complex("C", (1, 1))
    assert [(t.index, t.degree) for t in terms] == [(0, 0), (1, 2)]
    assert terms[0].content == Decomposition({P((1, 1)): 1})
    assert terms[1].content == Decomposition({P(()): 1})

    terms = littlewood_complex("C", (2, 2))
    assert terms[0].content == Decomposition({P((2, 2)): 1})
    assert terms[1].content == Decomposition({P((1, 1)): 1})
    assert terms[2].content == Decomposition()

    terms = littlewood_complex("B", (2,))
    assert terms[0].content == Decomposition({P((2,)): 1})
    assert terms[1].content == Decomposition({P(()): 1})


def test_littlewood_complex_invariants():
    for family in ("B", "C", "D"):
        for size in range(0, 7):
            for lam in partitions_of(size):
                terms = littlewood_complex(family, lam)
                assert terms[0].content == Decomposition({lam: 1})
                assert all(t.degree == 2 * t.index for t in terms)
                assert all(2 * t.index <= lam.size for t in terms)


def test_branch_examples():
    assert branch_gl_to_iso((1,), ("Sp", 4)) == Decomposition({P((1,)): 1})
    expected = Decomposition({P((1, 1)): 1, P(()): 1})
    assert branch_gl_to_iso((1, 1), ("Sp", 4)) == expected
    assert branch_gl_to_iso((1, 1), ("Sp", 4), oracle=True) == expected
    expected = Decomposition({P((2,)): 1, P(()): 1})
    assert branch_gl_to_iso((2,), ("O", 5)) == expected
    assert branch_gl_to_iso((2,), ("O", 5), oracle=True) == expected
    assert branch_gl_to_iso((2,), "o:5") == expected


def test_branch_rule_matches_oracle():
    targets = [("Sp", 4), ("Sp", 6), ("O", 5), ("O", 7), ("O", 6)]
    for target in targets:
        n = target[1] // 2
        for size in range(0, 5):
            for lam in partitions_of(size, max_length=n):
                rule = branch_gl_to_iso(lam, target)
                oracle = branch_gl_to_iso(lam, target, oracle=True)
                assert rule == oracle, (target, lam, rule, oracle)


def test_branch_stable_range_error():
    with pytest.raises(StableRangeError):
        branch_gl_to_iso((1, 1, 1), ("Sp", 4))
    with pytest.raises(StableRangeError):
        branch_gl_to_iso((1, 1, 1), ("O", 5))


@pytest.mark.parametrize(
    "lam,m,expected",
    [((1, 1, 1), 5, {(1, 1, 1): 1}), ((1, 1), 3, {(1, 1): 1}), ((2, 1, 1), 5, {(1, 1): 1, (2, 1, 1): 1})],
)
def test_odd_orthogonal_oracle_outside_the_stable_range(lam, m, expected):
    dec = branch_gl_to_iso(lam, ("O", m), oracle=True)
    assert {mu.parts: c for mu, c in dec.entries.items()} == expected


def test_odd_orthogonal_oracle_keeps_exterior_powers_irreducible():
    # Lambda^k V is the O(m) irreducible [1^k] for every k <= m.
    for m in (3, 5, 7):
        for k in range(m + 1):
            assert branch_gl_to_iso((1,) * k, ("O", m), oracle=True) == Decomposition({P((1,) * k): 1}), (m, k)


def test_even_orthogonal_oracle_refuses_outside_the_stable_range():
    with pytest.raises(StableRangeError, match="oracle needs at most 2 rows for O\\(4\\)"):
        branch_gl_to_iso((1, 1, 1), ("O", 4), oracle=True)


def test_littlewood_rule_memo_is_read_only():
    table = _littlewood_rule(Partition((2, 1)), "Sp")
    assert dict(table) == {Partition((2, 1)): 1, Partition((1,)): 1}
    with pytest.raises(TypeError):
        table[Partition((3,))] = 5


def test_littlewood_complexes_share_read_only_terms_per_variant():
    # B and D read the plus Q-set, so one memoised table serves both; each
    # call returns its own list of the shared terms, equal to a fresh
    # computation, and a shared content cannot be changed
    lam = Partition((4, 2, 1))
    b, d = littlewood_complex("B", lam), littlewood_complex("D", (4, 2, 1))
    assert b is not d and b == d
    assert all(tb is td for tb, td in zip(b, d, strict=True))
    assert b == list(_littlewood_terms.__wrapped__("plus", lam))
    assert littlewood_complex("C", lam) == list(_littlewood_terms.__wrapped__("minus", lam)) != b
    b.pop()
    assert len(littlewood_complex("B", lam)) == len(d)
    with pytest.raises(TypeError):
        d[1].content.add(Partition((9,)), 1)
    with pytest.raises(TypeError):
        d[0].content += Decomposition({lam: 1})
    assert littlewood_complex("D", lam) == list(_littlewood_terms.__wrapped__("plus", lam))


def test_branching_refuses_before_touching_the_rule_memo():
    _littlewood_rule.cache_clear()
    for target in ("Sp:4", "O:5", "O:4"):
        with pytest.raises(StableRangeError):
            branch_gl_to_iso((1, 1, 1), target)
    assert _littlewood_rule.cache_info().currsize == 0


def test_the_rule_and_the_identity_refuse_past_their_size_bounds(monkeypatch):
    # refused before any table is walked: the 11-row staircase, size 66,
    # ran past 60 s in the rule; a one-row shape at the bound still answers
    _littlewood_rule.cache_clear()
    _littlewood_terms.cache_clear()
    stair = tuple(range(11, 0, -1))
    with pytest.raises(ScaleError, match=r"^branch_gl_to_iso \[11,10,9,8,7,6,5,4,3,2,1\]: size 66 is past RULE_SIZE_BOUND 55$"):
        branch_gl_to_iso(stair, "o:44")
    with pytest.raises(ScaleError, match=r"^verify_littlewood_identity C \[9,8,7,6,5,4,3,2,1\]: size 45 is past IDENTITY_SIZE_BOUND 36$"):
        verify_littlewood_identity("C", stair[2:], 9)
    assert _littlewood_rule.cache_info().currsize == _littlewood_terms.cache_info().currsize == 0
    assert branch_gl_to_iso((55,), "o:3") == Decomposition({Partition((p,)): 1 for p in range(55, 0, -2)})
    with pytest.raises(ScaleError, match="size 56 is past RULE_SIZE_BOUND 55"):
        branch_gl_to_iso((56,), "o:3")
    # the bounds are read at each call, at the shape's size itself
    monkeypatch.setattr(complexes_module, "IDENTITY_SIZE_BOUND", 4)
    assert verify_littlewood_identity("D", (2, 2), 2).passed
    with pytest.raises(ScaleError, match=r"^verify_littlewood_identity D \[3,2\]: size 5 is past IDENTITY_SIZE_BOUND 4$"):
        verify_littlewood_identity("D", (3, 2), 2)
    monkeypatch.setattr(complexes_module, "RULE_SIZE_BOUND", 3)
    with pytest.raises(ScaleError, match="size 4 is past RULE_SIZE_BOUND 3"):
        verify_littlewood_identity("D", (2, 2), 2)


def test_branching_answers_are_fresh_and_keyed_by_the_group():
    # a returned Decomposition is the caller's own; and one shape goes to
    # both groups, each first on a cleared memo, so a table keyed without
    # the group would answer for the other one
    _littlewood_rule.cache_clear()
    first = branch_gl_to_iso((2, 1), "Sp:6")
    first.add(Partition((9,)), 1)
    first += first
    assert branch_gl_to_iso((2, 1), "Sp:6") == Decomposition({Partition((2, 1)): 1, Partition((1,)): 1})
    shapes = [lam for size in range(1, 5) for lam in partitions_of(size, max_length=2)]
    for order in (("Sp:4", "O:5", "O:4"), ("O:4", "O:5", "Sp:4")):
        _littlewood_rule.cache_clear()
        for lam in shapes:
            for target in order:
                assert branch_gl_to_iso(lam, target) == branch_gl_to_iso(lam, target, oracle=True), (lam, target)


def test_branch_total_dimension():
    # restriction preserves dimension; group side measured through the
    # irreducibles each O(m) or Sp(2n) label tags
    for kind, n, case in (("Sp", 2, "SpC(2)"), ("Sp", 3, "SpC(3)"), ("O", 2, "SOB(2)"), ("O", 3, "OD(3)")):
        case = parse_case(case)
        rs, m = case.root_system(), case.dim_v
        for size in range(0, 5):
            for lam in partitions_of(size, max_length=n):
                dec = branch_gl_to_iso(lam, (kind, m))
                total = sum(mult * dim_irrep(rs, w) for mu, mult in dec.entries.items() for w in bracket_labels(case, mu))
                assert total == dim_schur(lam, m), (kind, m, lam)


def test_verify_littlewood_examples():
    assert verify_littlewood_identity("C", (2, 2), 2).passed
    assert verify_littlewood_identity("C", (1,), 1).passed
    assert verify_littlewood_identity("B", (2,), 2).passed
    assert verify_littlewood_identity("D", (2, 1), 3, oracle=True).passed
    with pytest.raises(StableRangeError):
        verify_littlewood_identity("C", (1, 1), 1)


def test_verify_littlewood_report_json():
    rep = verify_littlewood_identity("C", (2, 2), 2)
    data = rep.to_json()
    assert data["pass"] is True
    assert data["rhs"] == {"[2,2]": 1}


def _selfconj_counts_by_index(n):
    """Independent count of the spinor complex cells: self-conjugate shapes in
    the n-box correspond to sets of distinct odd hook lengths at most 2n-1."""
    import itertools

    counts = {}
    odds = list(range(1, 2 * n, 2))
    for r in range(0, n + 1):
        for hooks in itertools.combinations(odds, r):
            i = (sum(hooks) + r) // 2
            counts[i] = counts.get(i, 0) + 1
    return counts


def test_spinor_complex_term_counts_match_hook_enumeration():
    for family in ("B", "Dfull", "Dplus"):
        for n in (2, 3, 4):
            terms = spinor_complex(family, n)
            by_i = {}
            for t in terms:
                by_i[t.index] = by_i.get(t.index, 0) + t.content.total()
            assert by_i == _selfconj_counts_by_index(n)


def test_spinor_complex_layout():
    terms = spinor_complex("Dfull", 2)
    flat = [(t.index, t.degree, [(str(k[0]), k[1].value) for k in t.content.entries]) for t in terms]
    assert flat == [
        (0, 0, [("[]", "Delta")]),
        (1, 1, [("[1]", "Delta")]),
        (2, 3, [("[2,1]", "Delta")]),
        (3, 4, [("[2,2]", "Delta")]),
    ]
    labels = {
        k[1] for t in spinor_complex("Dplus", 3) for k in t.content.entries
    }
    assert labels == {SpinLabel.DELTA_PLUS, SpinLabel.DELTA_MINUS}


def test_spinor_complex_degree_zero_is_trivial_shape():
    for family in ("B", "Dfull", "Dplus", "Dminus"):
        for n in (2, 3):
            first = spinor_complex(family, n)[0]
            assert first.index == 0 and first.degree == 0
            ((lam, _),) = first.content.entries
            assert lam == P(())


def test_verify_spinor_examples():
    rep = verify_spinor_identity("B", 1, ())
    assert rep.passed and rep.lhs == 2 and rep.rhs == 2
    assert verify_spinor_identity("Dfull", 2, (1, 1)).passed
    assert verify_spinor_identity("B", 2, (2, 1)).passed
    assert verify_spinor_identity("Dplus", 3, (2, 2, 1)).passed
    assert verify_spinor_identity("Dminus", 3, (3, 1)).passed


def test_check_bound_formats_its_subject_only_when_it_raises():
    class Unprintable:
        def __str__(self):
            raise AssertionError("the subject was formatted")

        __repr__ = __format__ = __str__

    for subject in (Unprintable(), ("B", Unprintable())):
        check_bound("op", subject, "n", 3, 8, lower=1)  # passes: nothing is formatted
    with pytest.raises(ScaleError, match=r"^spin_cohomology B \[2,1\]: n 0 is below 1$"):
        check_bound("spin_cohomology", ("B", P((2, 1))), "n", 0, None, lower=1)


def test_verify_spinor_sweep():
    for family in ("B", "Dfull"):
        for n in (1, 2, 3):
            if family == "Dfull" and n < 2:
                continue
            for size in range(0, 5):
                for lam in partitions_of(size, max_length=n):
                    assert verify_spinor_identity(family, n, lam).passed


def test_full_spinor_identity_is_the_sum_of_the_half_spin_ones():
    for n in (2, 3, 4):
        for size in range(0, 6):
            for lam in partitions_of(size, max_length=n):
                plus, minus, full = (verify_spinor_identity(f, n, lam) for f in ("Dplus", "Dminus", "Dfull"))
                assert full.lhs == plus.lhs + minus.lhs and full.rhs == plus.rhs + minus.rhs, (n, lam)


# The mirrors of spin_weight(lam) each family's Euler characteristic equals,
# written out so the test checks the library's label rule, not reads it.
SPIN_MIRRORS = {"B": (False,), "Dplus": (False,), "Dminus": (True,), "Dfull": (False, True)}


def _spin_character(rs, parts, mirrors):
    return sum((weight_multiplicities(rs, spin_weight(rs.family, rs.rank, parts, m)) for m in mirrors), Character(rs))


def _spinor_identity_failures(family, n, max_size):
    """The shapes lam with at most n rows and |lam| <= max_size whose spinor
    identity fails on characters: sum_i (-1)^i sum_mu c^lam_{mu nu}
    chi(S_nu V) chi(label), each label's character built by the library's
    label rule, against the sum of chi(V_{lam+delta}) over the family's
    mirrors in SPIN_MIRRORS.  Mirror irreducibles have equal dimensions, so
    only characters tell Delta+ from Delta-."""
    fam = family[0]
    rs = build_root_system(fam, n)
    vector = weight_multiplicities(rs, Weight.epsilon(fam, n, (1,) + (0,) * (n - 1)))
    terms = spinor_complex(family, n)
    labels = {label: _spin_character(rs, (0,) * n, spin_mirrors(fam, label)) for t in terms for _, label in t.content.entries}
    failures = []
    for size in range(max_size + 1):
        for lam in partitions_of(size, max_length=n):
            lhs = Character(rs)
            for term in terms:
                for (mu, label), mult in term.content.entries.items():
                    for nu, c in skew_schur_expand(lam, mu).entries.items():
                        piece = fill_character(rs, vector, nu) * labels[label]
                        lhs = lhs + piece.scale((-1) ** term.index * mult * c)
            if lhs != _spin_character(rs, lam, SPIN_MIRRORS[family]):
                failures.append(lam)
    return failures


@pytest.mark.parametrize("family", ["B", "Dplus", "Dminus", "Dfull"])
def test_spinor_identity_holds_on_characters(family):
    for n in (1, 2, 3) if family == "B" else (2, 3):
        ((_, label),) = spinor_complex(family, n)[0].content.entries  # the family's own label, the right-hand side's
        assert spin_mirrors(family[0], label) == SPIN_MIRRORS[family], (family, n)
        assert _spinor_identity_failures(family, n, 4) == [], (family, n)


def test_spin_label_dimensions_match_the_closed_forms():
    # dim Delta+ = dim Delta- = 2^(n-1), and dim Delta = 2^n
    for n in range(1, 9):
        assert _spin_dim(build_root_system("B", n), SpinLabel.DELTA, (0,) * n) == 2**n
    for n in range(2, 9):
        rs = build_root_system("D", n)
        dims = {label: _spin_dim(rs, label, (0,) * n) for label in SpinLabel}
        assert dims == {SpinLabel.DELTA: 2**n, SpinLabel.DELTA_PLUS: 2 ** (n - 1), SpinLabel.DELTA_MINUS: 2 ** (n - 1)}, n


def test_od_full_length_bracket_is_a_pair():
    # an even orthogonal shape with n rows tags a mirror pair of SO(2n)
    # irreducibles, the last epsilon coordinate negated; every other shape,
    # of every case, tags one irreducible, its bracket weight
    case = parse_case("OD(2)")
    assert [str(w) for w in bracket_labels(case, (2, 1))] == ["eps:D2:2,1", "eps:D2:2,-1"]
    for case in ALL_CASES + [parse_case("OD(2)"), parse_case("OD(4)")]:
        for size in range(5):
            for lam in partitions_of(size, max_length=case.bracket_rows):
                labels = bracket_labels(case, lam)
                assert labels[0] == bracket_weight(case, lam)
                pair = case.kind == "OD" and len(lam) == case.n
                assert len(labels) == (2 if pair else 1), (case, lam)
                if pair:
                    w, mirror = labels
                    assert mirror.twice == w.twice[:-1] + (-w.twice[-1],) and w.twice[-1] > 0
