import tracemalloc

import pytest

from littlewood import partitions
from littlewood.characters import build_root_system, dim_irrep, weight_multiplicities
from littlewood.errors import InconsistencyError, ScaleError
from littlewood.partitions import (
    Decomposition,
    _lr,
    Partition,
    dim_schur,
    enumerate_q,
    in_q,
    lr_coefficient,
    partitions_of,
    plethysm_wedge_power,
    skew_schur_expand,
)
from oracles import count_skew_ssyt, schur_fill

P = Partition


def test_partition_normalization_and_validation():
    assert P((3, 1, 0, 0)).parts == (3, 1)
    assert P([0, 0]).parts == () and P((2, 2, 0)) == P((2, 2))
    assert P(()).parts == ()
    assert P((2, 2)).size == 4 and len(P((2, 2))) == 2
    lam = P((3, 1))
    assert P(lam) is lam
    with pytest.raises(ValueError, match=r"^parts not weakly decreasing: \(1, 2\)$"):
        P((1, 2))
    with pytest.raises(ValueError, match=r"^negative part in \(2, -1\)$"):
        P((2, -1))


def test_transpose_examples():
    assert P((2, 1, 1)).transpose().parts == (3, 1)
    assert P(()).transpose().parts == ()
    assert P((4, 4)).transpose().parts == (2, 2, 2, 2)


def test_transpose_is_involution_up_to_size_12():
    for n in range(13):
        for lam in partitions_of(n):
            assert lam.transpose().transpose() == lam


def test_partitions_of_is_ascending_under_every_bound():
    counts = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]  # p(n)
    for n in range(0, 13):
        every = partitions_of(n)
        assert [p.parts for p in every] == sorted(p.parts for p in every) and len(set(every)) == len(every) == counts[n]
        for max_length in [None] + list(range(0, n + 2)):
            for max_part in [None] + list(range(0, n + 2)):
                got = partitions_of(n, max_length, max_part)
                want = [p for p in every if (max_length is None or len(p) <= max_length) and (max_part is None or p[0] <= max_part)]
                assert got == want, (n, max_length, max_part)
                # built unchecked: each must be what the checked constructor makes of its parts
                assert all(p.size == n and P(list(p.parts)).parts == p.parts for p in got), (n, max_length, max_part)
                # where keeps, in walk order, exactly what it accepts
                for where in (lambda p: in_q(p, "minus"), lambda p: len(p) % 2 == 0):
                    assert partitions_of(n, max_length, max_part, where=where) == [p for p in got if where(p)], (n, max_length, max_part)


def test_rank_examples():
    assert P((2, 2)).rank == 2
    assert P((3, 1)).rank == 1
    assert P(()).rank == 0


def test_in_q_examples():
    assert in_q((), "minus")
    assert in_q((2, 1, 1), "minus")
    assert not in_q((3, 1), "minus")
    assert in_q((3, 1), "plus")
    with pytest.raises(ValueError):
        in_q((1,), "both")


def test_enumerate_q_examples_and_error():
    assert [p.parts for p in enumerate_q("minus", 0)] == [()]
    assert [p.parts for p in enumerate_q("minus", 2)] == [(1, 1)]
    assert [p.parts for p in enumerate_q("minus", 4)] == [(2, 1, 1)]
    assert [p.parts for p in enumerate_q("plus", 2)] == [(2,)]
    with pytest.raises(ValueError):
        enumerate_q("minus", 3)


def test_q_sets_are_transposes_of_each_other():
    for d in range(0, 13, 2):
        minus = {p.transpose() for p in enumerate_q("minus", d)}
        assert minus == set(enumerate_q("plus", d))
    # plus is built from the minus members; the filter by its own rule must agree, order included
    for d in range(0, 31, 2):
        for variant in ("minus", "plus"):
            assert enumerate_q(variant, d) == [p for p in partitions_of(d) if in_q(p, variant)], (variant, d)


def test_enumerate_q_holds_only_the_members():
    # p(36) = 17,977 partitions for 46 members: the list of them all took
    # 3.19-3.26 MB of traced peak, testing each as it is made 0.15 MB.
    for variant in ("minus", "plus"):
        tracemalloc.start()
        try:
            enumerate_q(variant, 36)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, (variant, peak)


def test_lr_examples():
    assert lr_coefficient((2, 1), (1,), (1, 1)) == 1
    assert lr_coefficient((2, 2), (1, 1), (2,)) == 0
    for lam in partitions_of(5):
        assert lr_coefficient(lam, (), lam) == 1


def test_lr_symmetry_small():
    for n in range(0, 9):
        for lam in partitions_of(n):
            for k in range(n + 1):
                for mu in partitions_of(k):
                    if not lam.contains(mu):
                        continue
                    for nu in partitions_of(n - k):
                        assert lr_coefficient(lam, mu, nu) == lr_coefficient(lam, nu, mu)


def test_skew_schur_examples():
    assert skew_schur_expand((2, 2), (1, 1)) == Decomposition({P((1, 1)): 1})
    lam = P((3, 1))
    assert skew_schur_expand(lam, ()) == Decomposition({lam: 1})
    assert skew_schur_expand((1, 1), (2,)) == Decomposition()
    assert skew_schur_expand((), (1,)) == Decomposition()
    assert skew_schur_expand((2,), (2,)) == Decomposition({P(()): 1})


def test_skew_tables_of_staircases():
    dec = skew_schur_expand((8, 7, 6, 5, 4, 3, 2, 1), (4, 3, 2, 1))
    assert len(dec.entries) == 338 and dec.total() == 9133
    assert skew_schur_expand((9, 8, 7, 6, 5, 4, 3, 2, 1), (4, 3, 2, 1)).total() == 36302


def test_lr_memo_is_read_only():
    table = _lr((3, 2, 1), (2, 1))
    assert table[P((2, 1))] == 2
    with pytest.raises(TypeError):
        table[P((3,))] = 5


def test_lr_coefficient_refuses_before_touching_the_memo():
    _lr.cache_clear()
    assert lr_coefficient((3, 2), (2,), (2,)) == 0  # sizes do not add up
    assert lr_coefficient((2, 2), (3,), (1,)) == 0  # lam does not contain mu
    assert lr_coefficient((2, 2), (1,), (3,)) == 0  # lam does not contain nu
    assert _lr.cache_info().currsize == 0


def test_skew_dimension_against_direct_tableau_count():
    for n in range(0, 9):
        for lam in partitions_of(n):
            for k in range(n + 1):
                for mu in partitions_of(k):
                    if not lam.contains(mu):
                        continue
                    for m in range(1, 5):
                        via_lr = sum(
                            c * dim_schur(nu, m)
                            for nu, c in skew_schur_expand(lam, mu).entries.items()
                        )
                        assert via_lr == count_skew_ssyt(lam, mu, m)


def test_decomposition_algebra():
    a = Decomposition({P((1,)): 2})
    b = Decomposition({P((1,)): 1, P((2,)): 3})
    assert (a + b) + b == a + (b + b)
    assert a + b == b + a
    assert (a - a) == Decomposition()
    assert not (a - a).entries  # no stored zeros
    assert a.scale(0) == Decomposition()
    assert (a + b)[P((1,))] == 3
    assert a.to_json() == {"[1]": 2}


def test_decomposition_is_not_iterable():
    # __getitem__ answers 0 for any label, so the sequence protocol would
    # never stop; iterating, listing or testing membership raises instead.
    dec = Decomposition({P((1,)): 2})
    for use in (iter, list, tuple, lambda d: P((1,)) in d):
        with pytest.raises(TypeError):
            use(dec)
    g2 = build_root_system("G", 2)
    with pytest.raises(TypeError):
        dim_irrep(g2, weight_multiplicities(g2, (1, 0)))  # a character passed where a weight belongs


def test_plethysm_examples():
    assert plethysm_wedge_power(2, "alternating", 4) == Decomposition({P((2, 1, 1)): 1})
    assert plethysm_wedge_power(1, "alternating", 2) == Decomposition({P((1, 1)): 1})
    assert plethysm_wedge_power(2, "symmetric", 4) == Decomposition({P((3, 1)): 1})
    assert in_q((3, 1), "plus")


def test_plethysm_scale_errors():
    with pytest.raises(ScaleError, match="^plethysm_wedge_power alternating: k 7 is past the bound 6$"):
        plethysm_wedge_power(7, "alternating", 4)
    with pytest.raises(ScaleError, match="^plethysm_wedge_power symmetric: dimE 9 is past the bound 8$"):
        plethysm_wedge_power(2, "symmetric", 9)
    with pytest.raises(ScaleError, match="^plethysm_wedge_power alternating: dimE 0 is below 1$"):
        plethysm_wedge_power(2, "alternating", 0)
    with pytest.raises(ValueError):
        plethysm_wedge_power(2, "skew", 4)


def _full_expansion_plethysm(k, form, dim_e):
    """The monomial route: expand the column (1^k) filled with the degree-2
    monomials, and peel the Schur polynomial of the lex-highest term."""
    basis = [tuple(int(c == i) + int(c == j) for c in range(dim_e))
             for i in range(dim_e) for j in range(i + (form == "alternating"), dim_e)]
    zero = (0,) * dim_e
    units = [tuple(int(i == j) for j in range(dim_e)) for i in range(dim_e)]
    poly = schur_fill((1,) * k, basis, zero)
    out = Decomposition()
    while poly:
        top = max(poly)
        coeff = poly[top]
        out.add(P(top), coeff)
        for expo, c in schur_fill(top, units, zero).items():
            poly[expo] = poly.get(expo, 0) - coeff * c
            if not poly[expo]:
                del poly[expo]
    return out


@pytest.mark.parametrize("k,dim_e", [(k, d) for k in range(5) for d in range(1, 7)] + [(6, 8)])
@pytest.mark.parametrize("form", ["alternating", "symmetric"])
def test_plethysm_matches_the_full_expansion(k, dim_e, form):
    assert plethysm_wedge_power(k, form, dim_e) == _full_expansion_plethysm(k, form, dim_e)


def test_plethysm_dimension_must_match(monkeypatch):
    monkeypatch.setattr(partitions, "dim_schur", lambda lam, m: 1)
    with pytest.raises(InconsistencyError, match=r"k 2, alternating, dimE 4: dimension 1, not C\(6, 2\) = 15"):
        plethysm_wedge_power(2, "alternating", 4)


@pytest.mark.parametrize(
    "fake,k,message",
    [
        # p_r = max(r, 2): psi^1 = 1 and psi^2 = 0, so 2 X_2 = 1
        (lambda parts, r, rows: ((parts, max(r, 2)),), 2, "step 2 is not divisible by 2"),
        # p_r = r: p_1^2 - p_2 = -1
        (lambda parts, r, rows: ((parts, r),), 1, r"psi\^1 has the odd coefficient -1 at \[\] before halving"),
        # p_r = 0 for odd r and 2 for even r: psi^1 = (0 - 2) / 2
        (lambda parts, r, rows: ((parts, 2),) if r % 2 == 0 else (), 1, r"negative multiplicity -1 at \[\]"),
    ],
    ids=["newton-step", "odd-numerator", "negative-multiplicity"],
)
def test_plethysm_checks_its_own_arithmetic(monkeypatch, fake, k, message):
    monkeypatch.setattr(partitions, "border_strips", fake)
    with pytest.raises(InconsistencyError, match=f"plethysm_wedge_power: k {k}, alternating, dimE 4: {message}"):
        plethysm_wedge_power(k, "alternating", 4)


def test_q_sets_match_plethysm_at_dim_8():
    # multiplicity-one support agreement over every input the oracle accepts:
    # the Q-set members with at most dim E rows
    for variant, form in (("minus", "alternating"), ("plus", "symmetric")):
        for k in range(7):
            members = enumerate_q(variant, 2 * k)
            for dim_e in range(1, 9):
                dec = plethysm_wedge_power(k, form, dim_e)
                assert sorted(dec.support(), key=lambda p: p.parts) == [p for p in members if len(p) <= dim_e]
                assert all(m == 1 for m in dec.entries.values())


def test_dim_schur_hook_content():
    assert dim_schur((2, 1), 5) == 40
    assert dim_schur((1, 1, 1), 2) == 0
    assert dim_schur((), 3) == 1
    assert dim_schur((2, 2), 4) == 20
