"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: malformed input exits 1, domain errors
exit 2, numerical failures exit 3.
"""


class CurvelogError(Exception):
    """Base class for errors raised by this package."""


class InputError(CurvelogError, ValueError):
    """Malformed user input: unparsable literals, bad JSON payloads, flags."""


class DomainError(CurvelogError, ValueError):
    """A mathematical precondition was violated."""


class BudgetError(DomainError):
    """Work refused before it starts: it would pass one of the caps."""


class AlphabetError(DomainError):
    """Tensors over different alphabets were combined."""


class PathError(DomainError):
    """A path is malformed or runs too close to a puncture."""


class NumericError(CurvelogError, RuntimeError):
    """Numerical integration or matching failed to meet its targets."""
