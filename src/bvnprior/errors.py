"""Exception hierarchy shared by all bvnprior modules.

The command-line interface maps these onto exit codes: usage problems are
handled by argparse itself, :class:`DomainError` and
:class:`DegenerateDataError` exit with code 3, :class:`NumericalError`
and :class:`BracketError` with code 4.
"""

from __future__ import annotations


class BvnPriorError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(BvnPriorError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DegenerateDataError(BvnPriorError, ValueError):
    """A dataset carries no information about some parameter.

    Raised when the centered sums of squares collapse (S11 = 0 or
    S22.1 = 0), which happens with probability zero under the model but
    must still be rejected cleanly.
    """


class BracketError(BvnPriorError, ValueError):
    """A root-finding bracket does not enclose a sign change."""


class NumericalError(BvnPriorError, ArithmeticError):
    """An iterative routine failed to converge to the requested accuracy.

    Carries the best available estimate in :attr:`best_estimate` when one
    exists, so callers can decide whether to retry with looser settings.
    """

    def __init__(self, message, best_estimate=None):
        super().__init__(message)
        self.best_estimate = best_estimate
