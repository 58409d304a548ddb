import itertools
import json
import random
from fractions import Fraction

import pytest

from littlewood import characters as characters_module
from littlewood.characters import (
    _RANK_RANGES,
    Character,
    CoordSystem,
    RootSystem,
    Weight,
    _dominant_mults,
    build_root_system,
    char_of_irrep,
    decompose_character,
    dim_irrep,
    schur_character,
    weight_multiplicities,
    weyl_orbit,
)
from littlewood.errors import InconsistencyError, NotCharacterError, ScaleError
from littlewood.partitions import Decomposition
from oracles import fill_character, letters

EXPECTED_POSITIVE_ROOTS = [
    ("A", 1, 1),
    ("A", 4, 10),
    ("B", 2, 4),
    ("B", 6, 36),
    ("C", 3, 9),
    ("D", 2, 2),
    ("D", 4, 12),
    ("G", 2, 6),
    ("F", 4, 24),
    ("E", 6, 36),
    ("E", 7, 63),
    ("E", 8, 120),
]


@pytest.mark.parametrize("family,rank,count", EXPECTED_POSITIVE_ROOTS)
def test_positive_root_counts(family, rank, count):
    rs = build_root_system(family, rank)
    assert len(rs._roots) == count


def test_rho_is_sum_of_fundamental_weights():
    # Half the sum of the positive roots is (1, ..., 1) in fundamental
    # coordinates, the shift `RootSystem.dot_walk` adds.
    for family, rank, _ in EXPECTED_POSITIVE_ROOTS:
        rs = build_root_system(family, rank)
        twice_rho = tuple(map(sum, zip(*(r.fund_coords for r in rs._roots))))
        assert twice_rho == (2,) * rank
        assert rs.dot_walk((0,) * rank) == (0, (0,) * rank)
        assert rs.dot_walk((-1,) + (0,) * (rank - 1)) is None


SUPPORTED_TYPES = [(f, r) for f, (lo, hi) in _RANK_RANGES.items() for r in range(lo, hi + 1)]


@pytest.mark.parametrize("family,rank", SUPPORTED_TYPES)
def test_integer_height_matches_fraction_height(family, rank):
    # height_vector is 2 rho^vee: every simple root has height 1 and every
    # positive root the sum of its simple-root coordinates, which pins the
    # linear map `height` on the root lattice without an inverse Cartan matrix.
    rs = build_root_system(family, rank)
    assert all(h > 0 for h in rs.height_vector)
    assert all(rs.height(alpha) == 1 for alpha in rs.cartan)  # row i: the simple root alpha_i
    assert all(rs.height(root.fund_coords) == sum(root.simple_coords) for root in rs._roots)
    units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    for fc in units + [r.fund_coords for r in rs._roots]:
        assert sum(a * b for a, b in zip(fc, rs.height_vector)) == 2 * rs.height(fc)


def test_invalid_type():
    with pytest.raises(ValueError):
        build_root_system("E", 5)
    with pytest.raises(ValueError):
        build_root_system("H", 3)


def _eps(family, rank, twice):
    """An epsilon-coordinate weight from its doubled coordinates."""
    return Weight(CoordSystem("epsilon", family, rank), twice)


def test_weight_lookup_ignores_how_the_weight_was_built():
    weights = {Weight.epsilon("C", 2, (2, 1)): 5, build_root_system("G", 2).weight((1, 0)): 7}
    assert weights[_eps("C", 2, (4, 2))] == 5
    assert weights[Weight.fundamental("G", 2, (1, 0))] == 7
    assert Weight.fundamental("C", 2, (1, 1)) not in weights  # the same weight, another system
    assert hash(_eps("C", 2, (4, 2))) == hash(Weight.epsilon("C", 2, (2, 1)))


def test_weight_conversions_round_trip():
    cases = [
        ("B", 3, (3, 1, 1)),
        ("C", 2, (4, 2)),
        ("D", 4, (1, 1, 1, -1)),
        ("A", 2, (4, 2, 0)),
    ]
    for family, rank, twice in cases:
        w = _eps(family, rank, twice)
        back = build_root_system(family, rank).weight(w.fund_coords()).to_epsilon()
        assert back.twice == w.twice
        assert all(isinstance(m, int) for m in w.fund_coords())


def test_weight_off_lattice_rejected():
    w = _eps("C", 2, (1, 0))
    with pytest.raises(ValueError, match="eps:C2:1/2,0 is not on the weight lattice"):
        w.fund_coords()
    # D needs all-integer or all-half-integer coordinates
    w = _eps("D", 2, (1, 2))
    with pytest.raises(ValueError):
        w.fund_coords()


def test_weight_json_and_str():
    w = _eps("B", 2, (3, 1))
    assert w.to_json() == {"system": "epsilon:B2", "coords": ["3/2", "1/2"]}
    assert str(w) == "eps:B2:3/2,1/2"
    assert json.loads(json.dumps(w.to_json())) == w.to_json()
    w = _eps("B", 2, (-4, -3))
    assert w.to_json() == {"system": "epsilon:B2", "coords": [-2, "-3/2"]}
    assert str(w) == "eps:B2:-2,-3/2" and repr(w) == "Weight(eps:B2:-2,-3/2)"


def test_weight_coordinates_must_be_ints():
    for bad in ((3.0, 1), (Fraction(3), 1), ("3", 1)):
        with pytest.raises(TypeError):
            _eps("B", 2, bad)
    with pytest.raises(TypeError):
        Weight.epsilon("B", 2, (1.5, 0.5))
    with pytest.raises(ValueError, match="epsilon:B2 weights have 2 coordinates, got 1"):
        _eps("B", 2, (3,))


def test_weight_and_coordinate_system_check_their_input():
    with pytest.raises(TypeError, match=r"doubled weight coordinates must be ints, got \(3.0, 1\)"):
        _eps("B", 2, [3.0, 1])
    with pytest.raises(ValueError, match="fundamental:A2 weights have 2 coordinates, got 3"):
        Weight.fundamental("A", 2, (1, 0, 0))
    with pytest.raises(ValueError, match="unknown coordinate kind polar"):
        CoordSystem("polar", "B", 2)
    assert _eps("B", 2, [3, 1]).twice == (3, 1)  # a list is stored as a tuple


def test_dim_irrep_basics():
    g2 = build_root_system("G", 2)
    assert dim_irrep(g2, (0, 0)) == 1
    assert dim_irrep(g2, (1, 0)) == 7
    assert dim_irrep(g2, (0, 1)) == 14
    with pytest.raises(ValueError):
        dim_irrep(g2, (-1, 0))
    c2 = build_root_system("C", 2)
    assert dim_irrep(c2, Weight.epsilon("C", 2, (2, 2))) == 14


def test_weight_multiplicities_a1():
    a1 = build_root_system("A", 1)
    char = weight_multiplicities(a1, (2,))
    assert char.entries == {(2,): 1, (0,): 1, (-2,): 1}


def test_weight_multiplicities_g2():
    g2 = build_root_system("G", 2)
    seven = weight_multiplicities(g2, (1, 0))
    assert seven[(0, 0)] == 1
    assert seven.dimension() == 7
    assert sum(1 for fc, m in seven.entries.items() if fc != (0, 0)) == 6
    adjoint = weight_multiplicities(g2, (0, 1))
    assert adjoint[(0, 0)] == 2
    assert adjoint.dimension() == 14


def test_weight_multiplicities_bound():
    e6 = build_root_system("E", 6)
    with pytest.raises(ScaleError, match="^weight_multiplicities fund:E6:1,0,0,0,0,0: dim 27 is past the bound 10$"):
        weight_multiplicities(e6, (1, 0, 0, 0, 0, 0), bound=10)


def test_characters_weyl_invariant_exhaustive_small():
    for family, rank in (("G", 2), ("B", 2), ("C", 2), ("A", 2)):
        rs = build_root_system(family, rank)
        for a in range(3):
            for b in range(3):
                char = weight_multiplicities(rs, (a, b))
                assert char.weyl_defect() is None


def test_decompose_character_examples():
    g2 = build_root_system("G", 2)
    seven = char_of_irrep(g2, (1, 0))
    assert decompose_character(g2, seven).to_json() == {"fund:G2:1,0": 1}

    wedge = fill_character(g2, seven, (1, 1))
    assert wedge.dimension() == 21
    assert decompose_character(g2, wedge).to_json() == {"fund:G2:0,1": 1, "fund:G2:1,0": 1}
    assert schur_character(g2, (1, 0), (1, 1)) == decompose_character(g2, wedge)

    sym = fill_character(g2, seven, (2,))
    assert sym.dimension() == 28
    assert decompose_character(g2, sym).to_json() == {"fund:G2:0,0": 1, "fund:G2:2,0": 1}
    assert schur_character(g2, (1, 0), (2,)) == decompose_character(g2, sym)


def test_decompose_rejects_non_characters():
    g2 = build_root_system("G", 2)
    bogus = Character(g2, {(1, 0): 1})  # a bare extreme weight, no orbit
    with pytest.raises(NotCharacterError):
        decompose_character(g2, bogus)
    minus = Character(g2, {(0, 0): -1})  # minus the trivial character
    with pytest.raises(NotCharacterError):
        decompose_character(g2, minus)


def test_decompose_picks_dominance_maximal_not_lex():
    # In A2 the 6-dimensional symmetric square of the dual vector rep has
    # highest weight (0,2) but also contains the lex-larger dominant (1,0).
    a2 = build_root_system("A", 2)
    char = char_of_irrep(a2, (0, 2))
    assert decompose_character(a2, char).to_json() == {"fund:A2:0,2": 1}


def test_decompose_round_trip_fuzz():
    rng = random.Random(7)
    systems = [("G", 2), ("C", 2), ("B", 3), ("A", 2)]
    for _ in range(12):
        family, rank = rng.choice(systems)
        rs = build_root_system(family, rank)
        target = Decomposition()
        total = Character(rs)
        for _ in range(rng.randint(1, 3)):
            fc = tuple(rng.randint(0, 2) for _ in range(rank))
            if dim_irrep(rs, fc) > 400:
                continue
            mult = rng.randint(1, 3)
            target.add(rs.weight(fc), mult)
            total = total + char_of_irrep(rs, fc).scale(mult)
        assert decompose_character(rs, total) == target


def _power(rs, weights, k, choose):
    """The character of a k-th power summed over the k-subsets or k-multisets
    of the weight letters, by brute force."""
    return Character(rs, ((tuple(map(sum, zip(*pick))), 1) for pick in choose(weights, k)))


def test_schur_character_matches_powers():
    # the constituents of wedge^k and Sym^k, against brute-force powers of
    # the weight letters decomposed by Weyl's formula
    g2 = build_root_system("G", 2)
    base = char_of_irrep(g2, (1, 0))
    for k in (1, 2, 3):
        wedge = _power(g2, letters(base), k, itertools.combinations)
        sym = _power(g2, letters(base), k, itertools.combinations_with_replacement)
        assert schur_character(g2, (1, 0), (1,) * k) == decompose_character(g2, wedge)
        assert schur_character(g2, (1, 0), (k,)) == decompose_character(g2, sym)
        assert fill_character(g2, base, (1,) * k) == wedge and fill_character(g2, base, (k,)) == sym
    assert schur_character(g2, (1, 0), (1,)).to_json() == {"fund:G2:1,0": 1}
    assert schur_character(g2, Weight.fundamental("G", 2, (1, 0)), ()).to_json() == {"fund:G2:0,0": 1}


def test_schur_character_sp4_example():
    c2 = build_root_system("C", 2)
    dec = schur_character(c2, Weight.epsilon("C", 2, (1, 0)), (2, 2))
    assert dec.total(lambda w: dim_irrep(c2, w)) == 20
    labels = {w.to_epsilon().twice: m for w, m in dec.entries.items()}
    assert labels == {(4, 4): 1, (2, 2): 1, (0, 0): 1}


def test_schur_character_bounds(monkeypatch):
    # |lambda| is capped at SCHUR_SIZE_BOUND, before V's character is built;
    # the base dimension is not: the symmetric and exterior squares of the
    # 248-dimensional E8 adjoint answer
    g2 = build_root_system("G", 2)
    with pytest.raises(ScaleError, match=r"^schur_character \[9\] of fund:G2:1,0: size 9 is past SCHUR_SIZE_BOUND 8$"):
        schur_character(g2, (1, 0), (9,))
    e8 = build_root_system("E", 8)
    adjoint = (0,) * 7 + (1,)
    with monkeypatch.context() as m:
        m.setattr(characters_module, "char_of_irrep", None)  # building V's character would raise TypeError
        with pytest.raises(ScaleError, match="size 9 is past SCHUR_SIZE_BOUND 8"):
            schur_character(e8, adjoint, (3, 3, 3))
    sym2 = {w.fund_coords(): m for w, m in schur_character(e8, adjoint, (2,)).entries.items()}
    assert sym2 == {(0,) * 7 + (2,): 1, (1,) + (0,) * 7: 1, (0,) * 8: 1}
    wedge2 = {w.fund_coords(): m for w, m in schur_character(e8, adjoint, (1, 1)).entries.items()}
    assert wedge2 == {adjoint: 1, (0,) * 6 + (1, 0): 1}
    assert [dim_irrep(e8, fc) for fc in sym2] == [27000, 3875, 1]


def test_schur_character_checks_its_own_arithmetic(monkeypatch):
    # a corrupted Brauer-Klimyk table breaks Newton's division by k, a
    # negated one gives a negative multiplicity, and a wrong dimension fails
    # the mass check; each is an InconsistencyError, not a wrong answer
    g2 = build_root_system("G", 2)
    real = characters_module._adams_tensor.__wrapped__

    def bumped(family, rank, v, i, kappa):
        return real(family, rank, v, i, kappa) + (((0, 0), 1),)

    def flipped(family, rank, v, i, kappa):
        return tuple((fc, -m) for fc, m in real(family, rank, v, i, kappa))

    for fake, lam, message in ((bumped, (2,), "step 2 is not divisible by 2"), (flipped, (1,), "negative multiplicity -1 at")):
        monkeypatch.setattr(characters_module, "_adams_tensor", fake)
        with pytest.raises(InconsistencyError, match=message):
            schur_character(g2, (1, 0), lam)
    monkeypatch.setattr(characters_module, "_adams_tensor", real)
    monkeypatch.setattr(characters_module, "dim_schur", lambda lam, m: 27)
    with pytest.raises(InconsistencyError, match=r"schur_character \[2\] of fund:G2:1,0: constituent dimensions sum to 28, the character to 27"):
        schur_character(g2, (1, 0), (2,))


def test_character_tensor_and_json():
    g2 = build_root_system("G", 2)
    seven = char_of_irrep(g2, (1, 0))
    sq = seven * seven
    assert sq.dimension() == 49
    assert sq == fill_character(g2, seven, (1, 1)) + fill_character(g2, seven, (2,))
    assert decompose_character(g2, sq) == schur_character(g2, (1, 0), (1, 1)) + schur_character(g2, (1, 0), (2,))
    data = seven.to_json()
    assert data["fund:G2:1,0"] == 1 and len(data) == 7


def test_dim_bound_env_var(monkeypatch):
    from littlewood.characters import dim_bound

    monkeypatch.setenv("LITTLEWOOD_DIM_BOUND", "50")
    assert dim_bound() == 50
    g2 = build_root_system("G", 2)
    with pytest.raises(ScaleError, match="^weight_multiplicities fund:G2:2,1: dim 189 is past LITTLEWOOD_DIM_BOUND 50$"):
        weight_multiplicities(g2, (2, 1))
    monkeypatch.delenv("LITTLEWOOD_DIM_BOUND")
    assert weight_multiplicities(g2, (2, 1)).dimension() == 189
    monkeypatch.setenv("LITTLEWOOD_DIM_BOUND", "1e6")
    with pytest.raises(ValueError, match="^dim_bound: LITTLEWOOD_DIM_BOUND '1e6' is not an integer$"):
        dim_bound()


def test_memoised_character_still_refused_under_a_lowered_bound(monkeypatch):
    # the bound is checked before the memo lookup, not folded into its key,
    # and each entry point checks its own, with its own message
    g2 = build_root_system("G", 2)
    monkeypatch.delenv("LITTLEWOOD_DIM_BOUND", raising=False)
    diagram = weight_multiplicities(g2, (2, 1))
    assert char_of_irrep(g2, (2, 1)) is diagram and diagram.dimension() == 189
    with pytest.raises(ScaleError, match="^weight_multiplicities fund:G2:2,1: dim 189 is past the bound 100$"):
        weight_multiplicities(g2, (2, 1), bound=100)
    monkeypatch.setenv("LITTLEWOOD_DIM_BOUND", "100")
    for name, entry in (("weight_multiplicities", weight_multiplicities), ("char_of_irrep", char_of_irrep)):
        with pytest.raises(ScaleError, match=f"^{name} fund:G2:2,1: dim 189 is past LITTLEWOOD_DIM_BOUND 100$"):
            entry(g2, (2, 1))
    assert char_of_irrep(g2, (1, 0)).dimension() == 7
    # a bound= above the environment's memoises a diagram that
    # char_of_irrep, which reads only the environment, still refuses
    characters_module._irrep_character.cache_clear()
    assert weight_multiplicities(g2, (2, 1), bound=200) is not diagram
    with pytest.raises(ScaleError, match="^char_of_irrep fund:G2:2,1: dim 189 is past LITTLEWOOD_DIM_BOUND 100$"):
        char_of_irrep(g2, (2, 1))


def test_memoised_character_is_read_only():
    # mults and the character builders read one diagram per irreducible
    g2 = build_root_system("G", 2)
    seven = char_of_irrep(g2, (1, 0))
    assert seven is weight_multiplicities(g2, (1, 0)) is weight_multiplicities(g2, Weight.fundamental("G", 2, (1, 0)), bound=7)
    with pytest.raises(TypeError):
        seven.add((0, 0), 5)
    assert char_of_irrep(g2, (1, 0)).dimension() == 7 and seven[(0, 0)] == 1


def test_character_sums_in_place_keep_their_checks():
    g2, a2 = build_root_system("G", 2), build_root_system("A", 2)
    total = Character(g2)
    alias = total
    total += char_of_irrep(g2, (1, 0))
    total += char_of_irrep(g2, (1, 0))
    assert total is alias and total == char_of_irrep(g2, (1, 0)).scale(2)
    with pytest.raises(ValueError, match="different root systems"):
        total += Character(a2, {(0, 0): 1})
    memoised = char_of_irrep(g2, (1, 0))
    with pytest.raises(TypeError):
        memoised += total
    assert char_of_irrep(g2, (1, 0)).dimension() == 7


@pytest.mark.parametrize("family, rank, v, kappas", [
    ("G", 2, (1, 0), [(0, 0), (1, 0), (0, 1), (1, 1)]),
    ("B", 3, (1, 0, 0), [(0, 0, 0), (1, 0, 0), (0, 0, 1), (0, 1, 0)]),
    ("F", 4, (0, 0, 0, 1), [(0, 0, 0, 0), (0, 0, 0, 1), (1, 0, 0, 0)]),
])
def test_adams_tensor_against_convolution(family, rank, v, kappas):
    # psi^i(V) (x) V_kappa, Brauer-Klimyk from the top kappa over the memoised
    # weights of psi^i(V), against the convolution of V's weights times i
    # with V_kappa's character, decomposed from the top zero.  psi^i(V) is
    # virtual, so its negative constituents are added to the convolution and
    # decompose_character sees a genuine character
    rs = build_root_system(family, rank)
    for i in (1, 2, 3):
        scaled = Character(rs, {tuple(i * c for c in fc): m for fc, m in char_of_irrep(rs, v).entries.items()})
        for kappa in kappas:
            tensor = dict(characters_module._adams_tensor(family, rank, v, i, kappa))
            product = scaled * char_of_irrep(rs, kappa)
            for fc, m in tensor.items():
                if m < 0:
                    product += char_of_irrep(rs, fc).scale(-m)
            assert decompose_character(rs, product).entries == {rs.weight(fc): m for fc, m in tensor.items() if m > 0}


def _closure_orbit(rs, fc):
    """The orbit as a seen-set closed under all simple reflections."""
    orbit = {fc}
    queue = [fc]
    while queue:
        v = queue.pop()
        for i in range(rs.rank):
            w = rs.reflect(i, v)
            if w not in orbit:
                orbit.add(w)
                queue.append(w)
    return orbit


@pytest.mark.parametrize("family,rank", SUPPORTED_TYPES)
def test_weyl_orbit_walk_visits_each_weight_once(family, rank):
    rs = build_root_system(family, rank)
    unit = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    tops = [(0,) * rank, unit[0], unit[-1], tuple(map(sum, zip(unit[0], unit[-1])))]
    if rank <= 4:
        tops.append((1,) * rank)
    for top in tops:
        walk = list(weyl_orbit(rs, top))
        assert len(walk) == len(set(walk))
        assert [w for w in walk if min(w) >= 0] == [top]
        assert set(walk) == _closure_orbit(rs, top)
        # Any element of the orbit starts the same walk.
        assert set(weyl_orbit(rs, walk[-1])) == set(walk)


def test_e8_weight_diagram_known_answer():
    e8 = build_root_system("E", 8)
    char = weight_multiplicities(e8, (1, 0, 0, 0, 0, 0, 0, 1))
    assert len(char.entries) == 56_881
    assert char.dimension() == 779_247


def test_weight_diagram_mass_must_match_weyl_dimension(monkeypatch):
    import littlewood.characters as characters

    g2 = build_root_system("G", 2)
    characters._irrep_character.cache_clear()  # a memoised diagram would never reach the mass check
    monkeypatch.setattr(characters, "weyl_orbit", lambda rs, fc: [fc])
    with pytest.raises(InconsistencyError, match="mass 2 != Weyl dimension 7"):
        weight_multiplicities(g2, (1, 0))


def test_freudenthal_refuses_a_weight_reached_with_two_root_expansions(monkeypatch):
    # From (2, 2) the search reaches (1, 1) by theta and by alpha_1 + alpha_2;
    # with theta's simple-root coordinates corrupted the two disagree.
    a2 = build_root_system("A", 2)
    theta = a2._roots[-1]
    assert theta.simple_coords == (1, 1)
    corrupt = theta._replace(simple_coords=(1, 2))
    monkeypatch.setattr(a2, "_roots", a2._roots[:-1] + (corrupt,))
    with pytest.raises(InconsistencyError, match=r"\(2, 2\) - \(1, 1\) has two root expansions \(1, [12]\) and \(1, [12]\)"):
        _dominant_mults.__wrapped__("A", 2, (2, 2))


def test_root_system_refuses_coroots_whose_sum_is_not_twice_rho_vee(monkeypatch):
    close = RootSystem._close_roots

    def corrupted(self):
        roots = close(self)
        return (roots[0]._replace(coroot_coords=(2, 0)),) + roots[1:]

    monkeypatch.setattr(RootSystem, "_close_roots", corrupted)
    with pytest.raises(InconsistencyError, match=r"A2: the sum of the positive coroots \(4, 1\) does not pair to 2 with every simple root"):
        RootSystem("A", 2)


def test_dominant_conjugate_caps_its_walk():
    a3 = build_root_system("A", 3)
    assert a3.dominant_conjugate((0, 0, -1)) == (1, 0, 0)
    broken = RootSystem("A", 3)
    broken._roots = broken._roots[:1]
    with pytest.raises(InconsistencyError, match=r"\(0, 0, -1\) in RootSystem\(A3\): more than 1 reflections"):
        broken.dominant_conjugate((0, 0, -1))
