"""Named property suites behind the CLI: kernel, inversion, determinants,
cn, conjecture.

Each suite is a table of :class:`Check` records: a named relation with
``draw(rng, region)``, which returns the arguments of one trial, and
``evaluate(*args)``, which returns their relative error.  One runner,
:func:`run_checks`, executes a table.  Each check draws from its own seeded
stream ``_rng_for(tag, seed, 0)``, so its result does not depend on which
other checks ran, or in which process, and each trial goes through the
catalog's sampling loop, which redraws rejected points (near poles,
ill-conditioned, overflowing or with a non-finite error).  Each draw is
evaluated in a kernel memo of its own: a check computes its relations
inline, so the draw is its smallest unit, and the memo holds only E values
keyed on exact arguments.  A check passes when its worst error stays within
its tolerance.  Every suite runner takes the same keywords; ``sizes`` only
matters to cn and conjecture.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .catalog import (
    DEFAULT_REGION,
    MAX_RESAMPLES,
    TINY,
    SamplingRegion,
    _draw_complex,
    _map_units,
    _rel_diff,
    _resample,
    _rng_for,
    _uniform_pair,
)
from .determinants import (
    COND_LIMIT,
    andrews_stanton_lu,
    andrews_stanton_matrix,
    andrews_stanton_product,
    corollary_determ_matrix,
    corollary_determ_product,
    det_lemma_matrix,
    det_lemma_product,
    det_numeric,
    shifted_product_family,
    theta_det_sides,
)
from .errors import DegenerateParameters, SamplingExhausted
from .inversion import (
    KrattenthalerPair,
    RawRPair,
    RStepPair,
    check_orthogonality,
    cubic_replay_sides,
    esum_sides,
    macdonald_sides,
    quadratic_replay_sides,
)
from .kernel import EMemo, Nome, binom2, eval_E, pochhammer_e, theta1
from .multivar import CnPoint, cn_jackson_sides, conjecture_sides, omega87_sides

# Largest n of the inverse-pair orthogonality checks.
ORTHOGONALITY_N_MAX = 8


@dataclass
class CheckResult:
    """A check's record; ``error`` says why it stopped short of its trials."""

    name: str
    trials: int
    tol: float
    max_rel_err: float
    resamples: int = 0
    error: str | None = None

    @property
    def passed(self) -> bool:
        return self.error is None and self.max_rel_err <= self.tol

    def to_dict(self) -> dict:
        record = {
            "name": self.name,
            "trials": self.trials,
            "tol": self.tol,
            "max_rel_err": self.max_rel_err,
            "resamples": self.resamples,
            "passed": self.passed,
        }
        if self.error is not None:
            record["error"] = self.error
        return record


@dataclass(frozen=True)
class Check:
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
               region: SamplingRegion) -> CheckResult:
    rng = _rng_for(check.tag, seed, 0)
    trials = check.trials or trials
    worst = 0.0
    resamples = 0

    def evaluate(*args):
        with EMemo():
            return _finite(check.evaluate(*args))

    for trial in range(trials):
        try:
            _, err, rejected = _resample(lambda: check.draw(rng, region), evaluate,
                                         check.name)
        except SamplingExhausted as exc:
            # the completed trials, and every draw of the exhausted one rejected
            return CheckResult(check.name, trial, check.tol, worst,
                               resamples + MAX_RESAMPLES + 1, str(exc))
        resamples += rejected
        worst = max(worst, err)
    return CheckResult(check.name, trials, check.tol, worst, resamples)


def run_checks(checks, trials: int, seed: int = 1,
               region: SamplingRegion = DEFAULT_REGION, only=None) -> list:
    """Run a check table; ``only`` restricts it to the checks so named.

    Checks run in parallel on forked workers fed through pipes when more than
    one CPU is in the affinity mask (see :func:`~ellipsum.catalog._map_units`;
    ``taskset -c 0`` gives a serial run); records come back in table order,
    and a worker that dies raises :class:`~ellipsum.errors.WorkerError`.
    A check that runs out of admissible draws returns a failed record with an
    ``error`` instead of raising, and the other checks still run.
    """
    return _map_units([partial(_run_check, check, trials, seed, region)
                       for check in checks if only is None or check.name in only])


# --------------------------------------------------------------------------
# kernel
# --------------------------------------------------------------------------

def _draw_kernel(int_ranges, rng, region):
    # Every kernel check draws q, p, x, a, used or not, then its integers.
    return (_draw_complex(rng, region.q_mod), _draw_complex(rng, region.p_mod),
            _draw_complex(rng, region.param_mod), _draw_complex(rng, region.param_mod),
            *(int(rng.integers(lo, hi)) for lo, hi in int_ranges))


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
    logp = complex(np.log(abs(p)), np.angle(p))
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
# inversion
# --------------------------------------------------------------------------

def _draw_esum(rng, region):
    p = _draw_complex(rng, region.p_mod)
    return tuple(_draw_complex(rng, region.param_mod) for _ in range(4)) + (p,)


def _draw_macdonald(rng, region):
    p = _draw_complex(rng, region.p_mod)
    n = int(rng.integers(0, 7))
    seqs = [[_draw_complex(rng, region.param_mod) for _ in range(n + 1)]
            for _ in range(4)]
    return (*seqs, p)


def _draw_pair(pair_type, r, rng, region):
    # r=None: a free second base, drawn between the nome and a, b
    q, p = _draw_complex(rng, region.q_mod), _draw_complex(rng, region.p_mod)
    if r is None:
        r = _draw_complex(rng, region.q_mod)
    a = _draw_complex(rng, region.param_mod)
    b = _draw_complex(rng, region.param_mod)
    return (pair_type(a, b, r, Nome(q, p)),)


def _draw_krattenthaler(rng, region):
    q, p = _draw_complex(rng, region.q_mod), _draw_complex(rng, region.p_mod)
    a = _draw_complex(rng, region.param_mod)
    bs = [_draw_complex(rng, region.param_mod) for _ in range(ORTHOGONALITY_N_MAX + 2)]
    cs = [_draw_complex(rng, region.param_mod) for _ in range(ORTHOGONALITY_N_MAX + 2)]
    return (KrattenthalerPair(a, bs.__getitem__, cs.__getitem__, Nome(q, p)),)


def _orthogonality(pair):
    return check_orthogonality(pair, ORTHOGONALITY_N_MAX)


def _draw_replay(nparams, rng, region):
    # Fixed bounds: individual terms overflow binary64 at small |q|.
    q = _draw_complex(rng, (0.55, 0.8))
    p = _draw_complex(rng, (0.05, 0.25))
    params = [_draw_complex(rng, (0.7, 1.4)) for _ in range(nparams)]
    return (*params, Nome(q, p))


def _replay(sides, *args):
    # Cancellation can dominate; redraw on spread like the determinant
    # condition guard.
    err = 0.0
    for n in range(6):
        applied, closed, scale = sides(*args, n)
        if not (scale < 1e6 * abs(closed)):
            raise DegenerateParameters("cancellation-dominated")
        err = max(err, _rel(applied, closed))
    return err


INVERSION_CHECKS = [
    Check("addition_formula", "suite.inversion.esum", _draw_esum,
          partial(_sides_rel, esum_sides), 1e-10, trials=100),
    Check("telescoped_addition_lemma", "suite.inversion.macdonald", _draw_macdonald,
          partial(_sides_rel, macdonald_sides), 1e-10, trials=50),
    *(Check(f"orthogonality_step{r}", f"suite.inversion.rstep{r}",
            partial(_draw_pair, RStepPair, r), _orthogonality, 1e-8) for r in (1, 2, 3, 4)),
    Check("orthogonality_free_base", "suite.inversion.rawr",
          partial(_draw_pair, RawRPair, None), _orthogonality, 1e-8),
    Check("orthogonality_sequence_pair", "suite.inversion.kratt", _draw_krattenthaler,
          _orthogonality, 1e-8),
    Check("replay_quadratic", "suite.inversion.replay_quadratic",
          partial(_draw_replay, 4), partial(_replay, quadratic_replay_sides), 1e-8),
    Check("replay_cubic", "suite.inversion.replay_cubic",
          partial(_draw_replay, 3), partial(_replay, cubic_replay_sides), 1e-8),
]


def run_inversion_suite(trials: int = 20, seed: int = 1,
                        region: SamplingRegion = DEFAULT_REGION,
                        sizes=None, only=None) -> list:
    return run_checks(INVERSION_CHECKS, trials, seed, region, only)


# --------------------------------------------------------------------------
# determinants
# --------------------------------------------------------------------------

def _conditioned_det(matrix):
    # Ill-conditioned matrices are resampled rather than failed.
    det, cond = det_numeric(matrix)
    if cond > COND_LIMIT:
        raise DegenerateParameters(f"cond {cond:.2e}")
    return det


def _det_rel(matrix, product, *args):
    # each side is built once: the guarded determinant against the product
    return _rel(_conditioned_det(matrix(*args)), product(*args))


def _draw_andrews_stanton(rng, region):
    q, p = _draw_complex(rng, region.q_mod), _draw_complex(rng, region.p_mod)
    x = _draw_complex(rng, (0.7, 1.4))
    y = _draw_complex(rng, (0.7, 1.4))
    n = int(rng.integers(1, 6))
    return x, y, Nome(q, p), n


def _lu_factorization(x, y, nome, n):
    M = np.array(andrews_stanton_matrix(x, y, nome, n))
    det = _conditioned_det(M)
    U, l_diag = andrews_stanton_lu(x, y, nome, n)
    L = M @ np.array(U)
    err = 0.0
    for i in range(n):
        rowscale = max(abs(L[i, i]), TINY)
        for j in range(i + 1, n):
            err = max(err, float(abs(L[i, j]) / rowscale))
        err = max(err, _rel(L[i, i], l_diag[i]))
    return max(err, _rel(det, math.prod(l_diag, start=1.0)))


def _draw_factorial_ratio(rng, region):
    q, p = _draw_complex(rng, region.q_mod), _draw_complex(rng, region.p_mod)
    n = int(rng.integers(1, 6))
    xs = [_draw_complex(rng, region.param_mod) for _ in range(n)]
    a, b, c = (_draw_complex(rng, region.param_mod) for _ in range(3))
    return xs, a, b, c, Nome(q, p)


def _draw_periodic_family(rng, region):
    q, p = _draw_complex(rng, region.q_mod), _draw_complex(rng, region.p_mod)
    n = int(rng.integers(1, 6))
    nome = Nome(q, p)
    xs = [_draw_complex(rng, region.param_mod) for _ in range(n)]
    avs = [_draw_complex(rng, region.param_mod) for _ in range(n)]
    b, c = (_draw_complex(rng, region.param_mod) for _ in range(2))
    fam = shifted_product_family(b, c, nome, n)
    return xs, avs, c, nome, fam


def _draw_theta_det(rng, region):
    p = _draw_complex(rng, (0.05, 0.45))
    xs = [complex(*_uniform_pair(rng, 0.3, 2.8, -0.3, 0.3)) for _ in range(2)]
    a, b, c = (complex(*_uniform_pair(rng, 0.0, 2.0, -0.3, 0.3)) for _ in range(3))
    return xs, a, b, c, p


DETERMINANT_CHECKS = [
    Check("quadratic_base_determinant", "suite.det.quadratic_base",
          _draw_andrews_stanton,
          partial(_det_rel, andrews_stanton_matrix, andrews_stanton_product), 1e-8),
    Check("lu_factorization", "suite.det.lu", _draw_andrews_stanton,
          _lu_factorization, 1e-9),
    Check("factorial_ratio_determinant", "suite.det.ratio", _draw_factorial_ratio,
          partial(_det_rel, corollary_determ_matrix, corollary_determ_product), 1e-8),
    Check("periodic_family_determinant", "suite.det.lemma", _draw_periodic_family,
          partial(_det_rel, det_lemma_matrix, det_lemma_product), 1e-8),
    Check("theta_determinant_2x2", "suite.det.theta", _draw_theta_det,
          partial(_sides_rel, theta_det_sides), 1e-8),
]


def run_determinants_suite(trials: int = 20, seed: int = 1,
                           region: SamplingRegion = DEFAULT_REGION,
                           sizes=None, only=None) -> list:
    return run_checks(DETERMINANT_CHECKS, trials, seed, region, only)


# --------------------------------------------------------------------------
# cn and conjecture
# --------------------------------------------------------------------------

def _draw_cn(n, n_cap, rng, region):
    q, p = _draw_complex(rng, region.q_mod), _draw_complex(rng, region.p_mod)
    N = int(rng.integers(0, n_cap + 1))
    a, b, c, d = (_draw_complex(rng, region.param_mod) for _ in range(4))
    e = a * a * q ** (N - n + 2) / (b * c * d)
    xs = tuple(_draw_complex(rng, (0.8, 1.25)) for _ in range(n))
    return (CnPoint(Nome(q, p), n, N, xs, a=a, b=b, c=c, d=d, e=e),)


def _cn_reduction(pt):
    # the one-variable sum against the closed Jackson evaluation
    lhs, _ = cn_jackson_sides(pt)
    a, b, c, d, q, (x,) = pt.a, pt.b, pt.c, pt.d, pt.nome.q, pt.x
    num = [a * x * x * q, a * q / (b * c), a * q / (b * d), a * q / (c * d)]
    den = [a * q / (b * c * d * x), a * q * x / b, a * q * x / c, a * q * x / d]
    closed = 1.0
    for u in num:
        closed *= pochhammer_e(u, pt.nome, pt.N)
    for u in den:
        closed /= pochhammer_e(u, pt.nome, pt.N)
    return _rel(lhs, closed)


def run_cn_suite(trials: int = 20, seed: int = 1,
                 region: SamplingRegion = DEFAULT_REGION,
                 sizes: tuple = ((1, 4), (2, 3), (3, 2)), only=None) -> list:
    """``sizes`` lists the (n, N cap) pairs of the n-fold Jackson checks."""
    checks = [Check(f"cn_jackson_n{n}", f"suite.cn.{n}", partial(_draw_cn, n, n_cap),
                    partial(_sides_rel, cn_jackson_sides), 1e-8)
              for n, n_cap in sizes]
    checks.append(Check("cn_jackson_reduces_to_one_variable", "suite.cn.reduction",
                        partial(_draw_cn, 1, 3), _cn_reduction, 1e-8))
    return run_checks(checks, trials, seed, region, only)


def _solve_conjecture(q, N, x, n, a, b, c, d, e, f):
    return a ** 3 * q ** (N + 2) / (b * c * d * e * f * x ** (n - 1))


def _solve_rectangle(q, N, x, n, a, b, c, d):
    return a * a * q ** (N + 1) / (b * c * d * x ** (n - 1))


def _draw_partition_point(free, solve, n, n_cap, rng, region):
    # ``free`` letters a, b, ... are drawn; ``solve`` gives the constrained next one
    q, p = _draw_complex(rng, region.q_mod), _draw_complex(rng, region.p_mod)
    N = int(rng.integers(0, n_cap + 1))
    x = _draw_complex(rng, (0.75, 0.95))
    letters = [_draw_complex(rng, region.param_mod) for _ in range(free)]
    letters.append(solve(q, N, x, n, *letters))
    return (CnPoint(Nome(q, p), n, N, x, **dict(zip("abcdefg", letters))),)


def run_conjecture_suite(trials: int = 20, seed: int = 1,
                         region: SamplingRegion = DEFAULT_REGION,
                         sizes: tuple = ((2, 2),), only=None) -> list:
    """``sizes`` lists the (n, N cap) pairs; each gets both checks."""
    checks = []
    for n, n_cap in sizes:
        checks += [
            Check(f"conjecture_n{n}", "suite.conjecture.main",
                  partial(_draw_partition_point, 6, _solve_conjecture, n, n_cap),
                  partial(_sides_rel, conjecture_sides), 1e-7),
            Check(f"rectangle_evaluation_n{n}", "suite.conjecture.rect",
                  partial(_draw_partition_point, 4, _solve_rectangle, n, n_cap),
                  partial(_sides_rel, omega87_sides), 1e-7),
        ]
    return run_checks(checks, trials, seed, region, only)


SUITES = {
    "kernel": run_kernel_suite,
    "inversion": run_inversion_suite,
    "determinants": run_determinants_suite,
    "cn": run_cn_suite,
    "conjecture": run_conjecture_suite,
}
