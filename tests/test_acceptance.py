"""One test per acceptance criterion; each prints its pass/fail line.

All comparisons inside the criteria are exact integer equalities; the stated
wall-clock limits are enforced where the criterion carries one.
"""

from math import comb

import pytest

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
