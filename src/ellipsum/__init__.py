"""Elliptic hypergeometric series: kernel, series, inverse pairs, determinants,
multivariable sums, and a random-sampling identity verification harness."""

from .errors import (
    BalanceViolation,
    DegenerateParameters,
    EllipticError,
    IndexOutOfTriangle,
    NomeOutOfRange,
    NonzeroRequired,
    SamplingExhausted,
    SingularToWorkingPrecision,
    TruncationLimit,
)
from .kernel import (
    DEFAULT_POLICY,
    DELTA_DEGEN,
    Nome,
    TruncationPolicy,
    eval_E,
    pochhammer_e,
    pochhammer_multi,
    pochhammer_partition,
    theta1,
)
from .series import OmegaSpec, balance_residual, eval_omega

__version__ = "0.1.0"

__all__ = [
    "BalanceViolation",
    "DEFAULT_POLICY",
    "DELTA_DEGEN",
    "DegenerateParameters",
    "EllipticError",
    "IndexOutOfTriangle",
    "Nome",
    "NomeOutOfRange",
    "NonzeroRequired",
    "OmegaSpec",
    "SamplingExhausted",
    "SingularToWorkingPrecision",
    "TruncationLimit",
    "TruncationPolicy",
    "balance_residual",
    "eval_E",
    "eval_omega",
    "pochhammer_e",
    "pochhammer_multi",
    "pochhammer_partition",
    "theta1",
    "__version__",
]
