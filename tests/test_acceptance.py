"""One test per acceptance criterion; each prints its pass/fail line.

All comparisons inside the criteria are exact integer equalities; the stated
wall-clock limits are enforced where the criterion carries one.
"""

from math import comb

import pytest

from littlewood import acceptance
from littlewood.acceptance import criterion_ids, run_criterion


@pytest.mark.parametrize("cid", criterion_ids())
def test_acceptance_criterion(cid):
    result = run_criterion(cid)
    print(result.line())
    if result.limit_seconds is not None:
        assert result.seconds < result.limit_seconds, f"{cid} exceeded {result.limit_seconds}s"
    assert result.passed, result.to_json()


def test_spin_bott_walks_the_whole_box_for_both_families():
    # every shape in the n x n box, C(2n, n) of them: D for 2 <= n <= 6 on
    # both components, B for 1 <= n <= 6
    d = 2 * sum(comb(2 * n, n) for n in range(2, 7))
    b = sum(comb(2 * n, n) for n in range(1, 7))
    assert run_criterion("spin-bott").computed["checked"] == d + b == 3818


def test_quadrics_fails_when_a_named_generator_is_not_the_degree_2_euler_characteristic(monkeypatch):
    # Sym^2 E (x) 27 with the other 27 (w1, not w6) has the same dimension 162,
    # so only the label-by-label comparison catches it
    monkeypatch.setitem(acceptance.QUADRIC_GENERATORS, "E6_3", {((2,), (1, 0, 0, 0, 0, 0)): 1})
    result = run_criterion("quadrics")
    assert not result.passed and result.computed == result.expected == {"E6_3": 162, "F4_3": 318}
