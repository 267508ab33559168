"""Named property suites behind the CLI: kernel, inversion, determinants,
cn, conjecture.

Each suite is a table of :class:`Check` records: a named relation with
``draw(rng, region)``, which returns the arguments of one trial, and
``evaluate(*args)``, which returns their relative error.  One runner,
:func:`run_checks`, executes a table.  A check's trials go through the
sampling loop and record builder that identities use
(:func:`~ellipsum.sampling._record`), so its record is an identity's, named
by its ``identity_id``, and its points are its draw arguments
(:func:`~ellipsum.report.args_dump`), which replay from the JSON alone.
Each check draws every trial from its own seeded stream
``_rng_for(tag, seed, 0)``, a :class:`~ellipsum.stream.PhiloxStream`
(``rng.pair()`` for two uniforms, ``rng.integers(lo, hi)``), so its result
does not depend on which other checks ran, or in which process; a rejected
draw (near a pole, ill-conditioned, overflowing or with a non-finite error)
shifts the draws after it.  Each draw is evaluated in a kernel memo of its
own: a check computes its relations inline, so the draw is its smallest
unit, and the memo holds only E values keyed on exact arguments.  A check
passes when no error exceeds its tolerance.  Every suite runner takes the
same keywords; ``sizes`` only matters to cn and conjecture.

This module holds the kernel suite's table and loads no catalog.  The other
suites' draws and tables live in the modules they check (``inversion``,
``determinants``, ``multivar``); each runner imports its module before
:func:`run_checks` forks, so the workers inherit it.
"""

from __future__ import annotations

import cmath
import math
from functools import partial
from typing import Callable, NamedTuple

from .errors import DegenerateParameters
from .kernel import EMemo, Nome, binom2, eval_E, pochhammer_e, theta1
from .report import VerificationReport, args_dump
from .sampling import (
    DEFAULT_REGION,
    SamplingRegion,
    _draw_complex,
    _map_units,
    _record,
    _rel_diff,
    _rng_for,
    _trials,
    _uniform_pair,
)


class Check(NamedTuple):
    """One row of a suite table.

    ``tag`` names the check's random stream.  ``trials`` fixes the trial
    count of checks that do not follow the run's ``--trials``.
    """

    name: str
    tag: str
    draw: Callable
    evaluate: Callable
    tol: float
    trials: int | None = None


def _finite(err: float) -> float:
    """err itself; a NaN or infinite error rejects the draw instead."""
    if not math.isfinite(err):
        raise DegenerateParameters(f"non-finite relative error {err}")
    return err


def _rel(a, b) -> float:
    return _finite(_rel_diff(a, b))


def _sides_rel(sides, *args) -> float:
    return _rel(*sides(*args))


def _run_check(check: Check, trials: int, seed: int,
               region: SamplingRegion) -> VerificationReport:
    rng = _rng_for(check.tag, seed, 0)

    def evaluate(args):
        with EMemo():
            return args, _finite(check.evaluate(*args)), 0.0

    return _record(check.name, check.tol, seed,
                   partial(_trials, check.name, check.trials or trials,
                           lambda trial: rng,       # one stream for all
                           lambda rng: check.draw(rng, region), evaluate),
                   args_dump)


def run_checks(checks, trials: int, seed: int = 1,
               region: SamplingRegion = DEFAULT_REGION, only=None) -> list:
    """Run a check table; ``only`` restricts it to the checks so named.

    Checks run in parallel on forked workers fed through pipes when more than
    one CPU is in the affinity mask (see :func:`~ellipsum.sampling._map_units`;
    ``taskset -c 0`` gives a serial run); records come back in table order,
    and a worker that dies raises :class:`~ellipsum.errors.WorkerError`.
    A check that runs out of admissible draws returns a failed record with an
    ``error`` instead of raising, and the other checks still run.  A check
    run for fewer than one trial, and a name in ``only`` that the table
    lacks, raise :class:`ValueError`.
    """
    if only is not None:
        names = {check.name for check in checks}
        if unknown := [name for name in only if name not in names]:
            raise ValueError(f"no such checks: {', '.join(map(repr, unknown))}")
    return _map_units([partial(_run_check, check, trials, seed, region)
                       for check in checks if only is None or check.name in only])


# --------------------------------------------------------------------------
# kernel
# --------------------------------------------------------------------------

def _draw_kernel(int_ranges, rng, region):
    # Every kernel check draws q, p, x, a, used or not, then its integers.
    return (_draw_complex(rng, region.q_mod), _draw_complex(rng, region.p_mod),
            _draw_complex(rng, region.param_mod), _draw_complex(rng, region.param_mod),
            *(rng.integers(lo, hi) for lo, hi in int_ranges))


_draw_qpxa = partial(_draw_kernel, ())


def _reflection(q, p, x, a):
    err = _rel(eval_E(x, p), -x * eval_E(1 / x, p))
    return max(err, _rel(eval_E(x, p), eval_E(p / x, p)))


def _quasi_periodicity(q, p, x, a):
    err = 0.0
    for k in (-2, -1, 1, 2):
        rhs = (-x) ** k * p ** binom2(k) * eval_E(x * p ** k, p)
        err = max(err, _rel(eval_E(x, p), rhs))
    return err


def _factorial_quasi_periodicity(q, p, x, a):
    nome = Nome(q, p)
    err = 0.0
    for k in (1, 2):
        for n in (1, 2, 3, 4):
            lhs = pochhammer_e(a, nome, n)
            rhs = (-a) ** (n * k) * p ** (n * binom2(k)) * \
                q ** (k * binom2(n)) * pochhammer_e(a * p ** k, nome, n)
            err = max(err, _rel(lhs, rhs))
    return err


def _factorial_relations(q, p, x, a, n, k, kk):
    nome = Nome(q, p)
    # (a q^{-n})_n against the reversed product
    lhs = pochhammer_e(a * q ** (-n), nome, n)
    rhs = pochhammer_e(q / a, nome, n) * (-a / q) ** n * q ** (-binom2(n))
    err = _rel(lhs, rhs)
    # (a q^{-n})_k shifted down
    lhs = pochhammer_e(a * q ** (-n), nome, k)
    rhs = pochhammer_e(q / a, nome, n) * pochhammer_e(a, nome, k) * \
        q ** (-n * k) / pochhammer_e(q ** (1 - k) / a, nome, n)
    err = max(err, _rel(lhs, rhs))
    # (a q^n)_k shifted up, both printed forms
    lhs = pochhammer_e(a * q ** n, nome, k)
    rhs = pochhammer_e(a * q ** k, nome, n) * pochhammer_e(a, nome, k) / \
        pochhammer_e(a, nome, n)
    err = max(err, _rel(lhs, rhs))
    rhs = pochhammer_e(a, nome, n + k) / pochhammer_e(a, nome, n)
    err = max(err, _rel(lhs, rhs))
    # (a)_{n-k} via the reciprocal tail
    lhs = pochhammer_e(a, nome, n - k)
    rhs = pochhammer_e(a, nome, n) * (-q ** (1 - n) / a) ** k * \
        q ** binom2(k) / pochhammer_e(q ** (1 - n) / a, nome, k)
    err = max(err, _rel(lhs, rhs))
    # base splitting (a)_{kn} over residue classes
    lhs = pochhammer_e(a, nome, kk * n)
    nk = nome.with_base(q ** kk)
    rhs = 1.0
    for i in range(kk):
        rhs = rhs * pochhammer_e(a * q ** i, nk, n)
    return max(err, _rel(lhs, rhs))


def _classical_reduction(q, p, x, a):
    nome = Nome(q, 0.0)
    err = 0.0
    for n in (-3, -1, 0, 2, 4):
        lhs = pochhammer_e(a, nome, n)
        rhs = 1.0
        if n >= 0:
            for j in range(n):
                rhs *= 1 - a * q ** j
        else:
            for j in range(-n):
                rhs /= 1 - a * q ** (n + j)
        err = max(err, _rel(lhs, rhs))
    return err


def _nome_doubling(q, p, x, a, k):
    err = _rel(eval_E(x, p) * eval_E(-x, p), eval_E(x * x, p * p))
    # the very-well-poised prefactor as a half-nome factorial ratio
    root_a = a ** 0.5
    root_p = p ** 0.5
    half = Nome(q, root_p)
    num = pochhammer_e(q * root_a, half, k) * pochhammer_e(-q * root_a, half, k)
    den = pochhammer_e(root_a, half, k) * pochhammer_e(-root_a, half, k)
    return max(err, _rel(eval_E(a * q ** (2 * k), p) / eval_E(a, p), num / den))


def _draw_theta(rng, region):
    p = _draw_complex(rng, (0.05, 0.5))
    return complex(*_uniform_pair(rng, 0.1, 3.0, -0.4, 0.4)), p


def _theta_product_vs_series(z, p):
    series = 0.0j
    logp = complex(math.log(abs(p)), cmath.phase(p))
    for m in range(31):
        series += (-1) ** m * cmath.exp(logp * ((2 * m + 1) ** 2 / 4.0)) * \
            cmath.sin((2 * m + 1) * z)
    series *= 2
    theta = theta1(z, p)
    err = _rel(theta, series)
    return max(err, _rel(theta1(-z, p), -theta))


KERNEL_CHECKS = [
    Check("reflection", "suite.kernel.reflection", _draw_qpxa, _reflection, 1e-10),
    Check("quasi_periodicity", "suite.kernel.shift_base", _draw_qpxa,
          _quasi_periodicity, 1e-10),
    Check("factorial_quasi_periodicity", "suite.kernel.shift_factorial", _draw_qpxa,
          _factorial_quasi_periodicity, 1e-10),
    Check("factorial_relations", "suite.kernel.relations",
          partial(_draw_kernel, ((0, 4), (0, 4), (1, 4))), _factorial_relations, 1e-10),
    Check("classical_reduction", "suite.kernel.p_zero", _draw_qpxa,
          _classical_reduction, 1e-12),
    Check("nome_doubling", "suite.kernel.doubling", partial(_draw_kernel, ((1, 5),)),
          _nome_doubling, 1e-10),
    Check("theta_product_vs_series", "suite.kernel.theta", _draw_theta,
          _theta_product_vs_series, 1e-10),
]


def run_kernel_suite(trials: int = 100, seed: int = 1,
                     region: SamplingRegion = DEFAULT_REGION,
                     sizes=None, only=None) -> list:
    return run_checks(KERNEL_CHECKS, trials, seed, region, only)


# --------------------------------------------------------------------------
# inversion, determinants, cn and conjecture
# --------------------------------------------------------------------------

def run_inversion_suite(trials: int = 20, seed: int = 1,
                        region: SamplingRegion = DEFAULT_REGION,
                        sizes=None, only=None) -> list:
    from .inversion import INVERSION_CHECKS

    return run_checks(INVERSION_CHECKS, trials, seed, region, only)


def run_determinants_suite(trials: int = 20, seed: int = 1,
                           region: SamplingRegion = DEFAULT_REGION,
                           sizes=None, only=None) -> list:
    from .determinants import DETERMINANTS_CHECKS

    return run_checks(DETERMINANTS_CHECKS, trials, seed, region, only)


def run_cn_suite(trials: int = 20, seed: int = 1,
                 region: SamplingRegion = DEFAULT_REGION,
                 sizes: tuple = ((1, 4), (2, 3), (3, 2)), only=None) -> list:
    """``sizes`` lists the (n, N cap) pairs of the n-fold Jackson checks."""
    from .multivar import cn_checks

    return run_checks(cn_checks(sizes), trials, seed, region, only)


def run_conjecture_suite(trials: int = 20, seed: int = 1,
                         region: SamplingRegion = DEFAULT_REGION,
                         sizes: tuple = ((2, 2),), only=None) -> list:
    """``sizes`` lists the (n, N cap) pairs; each gets both checks."""
    from .multivar import conjecture_checks

    return run_checks(conjecture_checks(sizes), trials, seed, region, only)


SUITES = {
    "kernel": run_kernel_suite,
    "inversion": run_inversion_suite,
    "determinants": run_determinants_suite,
    "cn": run_cn_suite,
    "conjecture": run_conjecture_suite,
}
