"""Exception taxonomy and default settings shared across the package.

The CLI maps these onto exit codes: malformed input exits 1, domain errors
exit 2, numerical failures exit 3.  The defaults live here, beside them,
so that the CLI reads its flag defaults without loading the numeric layer.
"""

# the weight of a series, the order of a local expansion, the integrator's
# tolerances, and the seed of the acceptance checks, when none is given
DEFAULT_WEIGHT = 6
DEFAULT_ORDER = 24
DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
DEFAULT_SEED = 1729


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
