"""Exception hierarchy shared by the whole package.

A check's sampling loop treats :class:`DegenerateParameters`,
:class:`BalanceViolation`, :class:`SingularToWorkingPrecision` and
:class:`NonzeroRequired` raised by a draw as a rejected draw, and redraws.
A check that runs out of redraws is not an exception: it is a failed record
with an ``error``, and the run goes on.
"""


class EllipticError(Exception):
    """Base class for all errors raised by this package."""


class NonzeroRequired(EllipticError):
    """An argument that must be nonzero was zero."""


class NomeOutOfRange(EllipticError):
    """The elliptic nome must satisfy |p| < 1."""


class TruncationLimit(EllipticError):
    """E cannot be computed without a hidden truncation or past its range.

    Both precisions raise it for a |p| too close to 1, past the largest
    nome of the kernel, and for an argument whose modulus is outside the
    binary64 range.  Raised instead of truncating early, which would return
    a wrong value without any sign of it.
    """


class DegenerateParameters(EllipticError):
    """A draw that a check cannot use.

    The kernel raises it for a denominator factor too close to a zero of E:
    identity checks must tell poles from bugs, so near-zero reciprocal
    factors raise instead of silently producing huge values.  The checks
    raise it for a non-finite value, a cancellation-dominated sum, an
    ill-conditioned matrix, or a q whose powers come too close to p's.
    """


class BalanceViolation(EllipticError):
    """The very-well-poised balancing constraint is violated beyond tolerance."""


class WorkerError(EllipticError):
    """A forked worker died before all of its units reported, or a unit's
    result or error could not be pickled across the pipe."""


class SingularToWorkingPrecision(EllipticError):
    """A matrix had a zero pivot, or a non-finite determinant or condition
    number, at working precision."""

