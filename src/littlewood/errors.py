"""Exception types shared across the package, and the one bound guard."""


class LittlewoodError(Exception):
    """Base class for all domain errors."""


class ScaleError(LittlewoodError):
    """An input exceeds the configured desk-scale bounds."""


def check_bound(operation: str, subject, quantity: str, value: int, bound: int, name: str = "the bound", lower=None) -> None:
    """The package's one ScaleError, raised before the work it bounds: `<operation> <subject>: <quantity> N is past <name> M` or `... is below <lower>`."""
    if value > bound or lower is not None and value < lower:
        side = f"past {name} {bound}" if value > bound else f"below {lower}"
        raise ScaleError(f"{operation} {subject}: {quantity} {value} is {side}")


class StableRangeError(LittlewoodError):
    """A branching rule was requested outside its range of validity."""


class NotCharacterError(LittlewoodError):
    """A weight multiset is not a nonnegative combination of irreducible characters."""


class InconsistencyError(LittlewoodError):
    """An internal exactness check failed; results would be unreliable."""
