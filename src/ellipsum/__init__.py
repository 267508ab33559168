"""Elliptic hypergeometric series: kernel, series, inverse pairs, determinants,
multivariable sums, and a random-sampling identity verification harness."""

from .errors import (
    BalanceViolation,
    DegenerateParameters,
    EllipticError,
    NomeOutOfRange,
    NonzeroRequired,
    SingularToWorkingPrecision,
    TruncationLimit,
    WorkerError,
)
from .kernel import (
    DELTA_DEGEN,
    Nome,
    eval_E,
    pochhammer_e,
    pochhammer_partition,
    theta1,
)

__version__ = "0.1.0"

__all__ = [
    "BalanceViolation",
    "DELTA_DEGEN",
    "DegenerateParameters",
    "EllipticError",
    "Nome",
    "NomeOutOfRange",
    "NonzeroRequired",
    "SingularToWorkingPrecision",
    "TruncationLimit",
    "WorkerError",
    "eval_E",
    "pochhammer_e",
    "pochhammer_partition",
    "theta1",
    "__version__",
]
