"""Property tests of the Littlewood-Richardson layer: the skew tables of
`_lr` against symmetry, the semistandard tableau count, and the character
oracle of the branching rule; and of the partitions the layer builds
itself, against the checked `Partition` constructor."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from littlewood.complexes import branch_gl_to_iso
from littlewood.partitions import Partition, _lr, dim_schur, lr_coefficient, partitions_of, skew_schur_expand
from oracles import count_skew_ssyt


@st.composite
def partitions(draw, max_size=8, max_length=None):
    parts, left = [], max_size
    while left and (max_length is None or len(parts) < max_length) and draw(st.booleans()):
        part = draw(st.integers(1, min(left, parts[-1] if parts else left)))
        parts.append(part)
        left -= part
    return tuple(parts)


@st.composite
def skew_shapes(draw, max_size=8):
    lam = draw(partitions(max_size))
    inner = tuple(sorted((draw(st.integers(0, p)) for p in lam), reverse=True))
    return lam, inner


@settings(deadline=None, max_examples=60)
@given(skew_shapes(max_size=12))
def test_lr_coefficient_is_symmetric(shape):
    lam, mu = shape
    for nu in partitions_of(sum(lam) - sum(mu)):
        assert lr_coefficient(lam, mu, nu) == lr_coefficient(lam, nu, mu), (lam, mu, nu)


@settings(deadline=None, max_examples=60)
@given(skew_shapes(max_size=10), st.integers(1, 5))
def test_skew_table_dimension_is_the_tableau_count(shape, m):
    lam, mu = shape
    via_lr = sum(c * dim_schur(nu, m) for nu, c in skew_schur_expand(lam, mu).entries.items())
    assert via_lr == count_skew_ssyt(lam, mu, m)


@settings(deadline=None, max_examples=40)
@given(partitions(max_size=6, max_length=3), st.integers(0, 2), st.sampled_from(("Sp", "O")))
def test_branch_rule_matches_oracle_in_the_stable_range(lam, extra, kind):
    n = max(len(lam), 1) + extra
    target = (kind, 2 * n) if kind == "Sp" else (kind, 2 * n + 1)
    assert branch_gl_to_iso(lam, target) == branch_gl_to_iso(lam, target, oracle=True)


@settings(deadline=None, max_examples=60)
@given(skew_shapes(max_size=12), st.integers(0, 4), st.integers(0, 4))
def test_built_partitions_pass_the_checked_constructor(shape, rows, cols):
    # transpose, remove_first_hook and boxed partitions_of skip the checks;
    # each result must be what the checked constructor makes of its parts.
    lam, mu = Partition(shape[0]), Partition(shape[1])
    boxed = [p for size in range(rows * cols + 1) for p in partitions_of(size, max_length=rows, max_part=cols)]
    built = [lam.transpose(), lam.remove_first_hook(), *boxed, *_lr(lam.parts, mu.parts)]
    for p in built:
        assert type(p) is Partition and all(type(x) is int for x in p.parts), p
        assert Partition(list(p.parts)).parts == p.parts, p
