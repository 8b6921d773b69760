"""Exception hierarchy shared by all qres modules, and the argument checks
that raise its :class:`DomainError`.

Public functions never raise bare ``ValueError``/``TypeError``/
``ArithmeticError``; they raise one of the semantic classes below so callers
(and the CLI exit-code mapping) can distinguish bad inputs from
numerical-accuracy failures.  Every public function raises
:class:`DomainError` for a bad argument, and that includes ``None``, strings,
bools or fractions where a count is needed, and NaN or infinity where a real
is needed.  :func:`require_int`, :func:`require_finite` and
:func:`require_positive` hold that rule in one place; a rule that belongs to
one domain (even alpha, odd grid sizes, ``lo < hi``) is built on them where it
is used.
"""

import math

import numpy as np


class QresError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(QresError, ValueError):
    """An input violates a documented precondition (domain, shape, range)."""


class AccuracyError(QresError, ArithmeticError):
    """A numerical routine could not reach the requested accuracy.

    Carries the best available estimate so callers can decide whether the
    partial result is still usable.
    """

    def __init__(self, message, best_estimate=None, error_estimate=None):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate


class ResolutionError(QresError):
    """A discretized result is too coarse to be meaningful (e.g. a posterior
    grid whose mass collapses into a single cell)."""


class UnboundedInformationError(DomainError):
    """The Fisher information diverges at the requested parameter point."""


def require_int(name: str, value, minimum: int | None = None) -> int:
    """``value`` as an ``int`` if it is an integer (``int`` or ``np.integer``,
    not ``bool``) of at least ``minimum``; :class:`DomainError` otherwise.
    Non-integers are rejected, never truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise DomainError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def require_finite(name: str, value) -> float:
    """``float(value)`` if that succeeds and is finite; :class:`DomainError`
    otherwise (``None``, strings, NaN, infinities)."""
    try:
        result = float(value)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{name} must be a finite real, got {value!r}") from None
    if not math.isfinite(result):
        raise DomainError(f"{name} must be a finite real, got {value!r}")
    return result


def require_positive(name: str, value) -> float:
    """:func:`require_finite`, then ``> 0``."""
    result = require_finite(name, value)
    if not result > 0.0:
        raise DomainError(f"{name} must be positive and finite, got {value!r}")
    return result
