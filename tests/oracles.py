"""Reference oracles shared by the test modules."""

from littlewood.partitions import schur_fill


def count_skew_ssyt(outer, inner, m: int) -> int:
    """Number of semistandard fillings of outer/inner with entries <= m.

    Counted by the horizontal-strip recursion of `schur_fill`, independently
    of the lattice-word walk of the LR route it checks.
    """
    return sum(schur_fill(outer, [(1,)] * m, (0,), inner).values())
