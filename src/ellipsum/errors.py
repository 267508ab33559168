"""Exception hierarchy shared by the whole package."""


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
    """A denominator factor came too close to a zero of the elliptic kernel.

    Identity checks must distinguish poles from bugs, so near-zero reciprocal
    factors raise instead of silently producing huge values.
    """


class BalanceViolation(EllipticError):
    """The very-well-poised balancing constraint is violated beyond tolerance."""


class SamplingExhausted(EllipticError):
    """Could not draw an admissible parameter point within the resample budget.

    :func:`ellipsum.catalog.sample_point` and
    :func:`ellipsum.catalog.cross_check_transform_pairs` raise it.  Checks do
    not: an exhausted identity or suite check is a failed record with this
    message as its ``error``, and the run goes on.
    """


class WorkerError(EllipticError):
    """A forked worker died before all of its units reported, or a unit's
    result or error could not be pickled across the pipe."""


class SingularToWorkingPrecision(EllipticError):
    """A matrix was numerically singular at working precision."""


class IndexOutOfTriangle(EllipticError):
    """A lower-triangular matrix entry above the diagonal was requested."""
