"""Exception types shared across the package, and the one bound guard."""


class LittlewoodError(Exception):
    """Base class for all domain errors."""


class ScaleError(LittlewoodError):
    """An input exceeds the configured desk-scale bounds."""


def check_bound(operation: str, subject, quantity: str, value: int, bound: int | None, name: str = "the bound", lower=None) -> None:
    """The package's one ScaleError, raised before the work it bounds: `<operation> <subject>: <quantity> N is past <name> M` or `... is below <lower>`; a bound of None sets no upper limit.  The subject is formatted only when it raises, a tuple as its items joined by spaces."""
    below = lower is not None and value < lower
    if below or bound is not None and value > bound:
        side = f"below {lower}" if below else f"past {name} {bound}"
        subject = " ".join(map(str, subject)) if isinstance(subject, tuple) else subject
        raise ScaleError(f"{operation} {subject}: {quantity} {value} is {side}")


class StableRangeError(LittlewoodError):
    """A branching rule was requested outside its range of validity."""


class NotCharacterError(LittlewoodError):
    """A weight multiset is not a nonnegative combination of irreducible characters."""


class InconsistencyError(LittlewoodError):
    """An internal exactness check failed; results would be unreliable."""
