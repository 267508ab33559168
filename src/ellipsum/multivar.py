"""Multivariable sums attached to the C_n root system.

Two objects live here: the n-fold Jackson-type sum over integer vectors in
[0, N]^n, and the partition-indexed series Omega whose transformation is
tested numerically (the one-variable case reduces to the proven ten-term
transformation).  The cn and conjecture suites' draws and check tables
(:func:`cn_checks`, :func:`conjecture_checks`) close the module.
"""

from __future__ import annotations

import itertools
import math
from functools import partial
from typing import Iterator, NamedTuple, Sequence

from .errors import BalanceViolation, DegenerateParameters
from .kernel import (
    BALANCE_TOL,
    DELTA_DEGEN,
    Nome,
    _check_degen,
    _residual,
    eval_E,
    pochhammer_e,
    pochhammer_partition,
)
from .sampling import PARAM_MOD, _draw_complex
from .series import _summed
from .suites import Check, _rel, _sides_rel

# Hard cap on brute-force n-fold sums: (N+1)^n terms.
MAX_BRUTE_TERMS = 100_000


class _PartitionFields(NamedTuple):
    parts: tuple


class Partition(_PartitionFields):
    """Weakly decreasing nonnegative integers with trailing zeros explicit."""

    __slots__ = ()

    def __new__(cls, parts):
        parts = tuple(int(x) for x in parts)
        if any(x < 0 for x in parts):
            raise ValueError("partition entries must be nonnegative")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("partition entries must be weakly decreasing")
        return super().__new__(cls, parts)

    @property
    def weight(self) -> int:
        """|lambda|, the sum of the parts."""
        return sum(self.parts)

    @property
    def n_weight(self) -> int:
        """n(lambda) = sum_i (i - 1) lambda_i."""
        return sum(i * x for i, x in enumerate(self.parts))


def enumerate_partitions(nparts: int, cap: int) -> Iterator[Partition]:
    """All weakly decreasing sequences with nparts entries in [0, cap].

    Yields each exactly once; the count is C(cap + nparts, nparts).
    """
    if nparts > 6 or cap > 8:
        raise ValueError("enumeration limited to nparts <= 6, cap <= 8")

    def rec(prefix: tuple, remaining: int, ceiling: int):
        if remaining == 0:
            yield Partition(prefix)
            return
        for v in range(ceiling, -1, -1):
            yield from rec(prefix + (v,), remaining - 1, v)

    yield from rec((), nparts, cap)


class CnPoint(NamedTuple):
    """Parameter point for the multivariable sums.

    ``x`` is the vector (x_1..x_n) for the n-fold Jackson sum, or the single
    deformation parameter of the partition series.  Unused letters stay None.
    """

    nome: Nome
    n: int
    N: int
    x: tuple | complex
    a: complex = None
    b: complex = None
    c: complex = None
    d: complex = None
    e: complex = None
    f: complex = None
    g: complex = None


def _check_constraint(lhs, rhs, what: str) -> None:
    res = _residual(lhs, rhs)
    if res > BALANCE_TOL:
        raise BalanceViolation(f"{what}: relative residual {res:.3e}")


def cn_jackson_sides(pt: CnPoint):
    """(brute-force n-fold sum, closed-form product) of the C_n Jackson sum.

    Requires a^2 q^{N - n + 2} = b c d e.  The left side iterates over all
    (k_1..k_n) in [0, N]^n, so (N+1)^n is capped.
    """
    n, N = pt.n, pt.N
    xs = pt.x if isinstance(pt.x, (tuple, list)) else (pt.x,)
    if len(xs) != n:
        raise ValueError("x must have length n")
    a, b, c, d, e = pt.a, pt.b, pt.c, pt.d, pt.e
    q, p = pt.nome.q, pt.nome.p
    nome = pt.nome
    _check_constraint(a * a * q ** (N - n + 2), b * c * d * e, "a^2 q^{N-n+2} = bcde")
    if (N + 1) ** n > MAX_BRUTE_TERMS:
        raise ValueError(f"brute-force sum would exceed {MAX_BRUTE_TERMS} terms")

    E = lambda z: eval_E(z, p)

    def summand(ks):
        # Ratios whose two arguments coincide are skipped outright: complex
        # division z/z carries ~1e-17 noise, and the termination cases
        # (all k_i = 0, or k_i + k_j = N) must come out exact.
        val = 1.0
        for i in range(n):
            for j in range(i + 1, n):
                if ks[i] != ks[j]:
                    den1 = _check_degen(E(xs[i] / xs[j]), "E(x_%d/x_%d)", i + 1, j + 1)
                    val *= E(q ** (ks[i] - ks[j]) * xs[i] / xs[j]) / den1
                if ks[i] + ks[j] != N:
                    den2 = _check_degen(E(a * xs[i] * xs[j] * q ** N),
                                        "E(a x_%d x_%d q^N)", i + 1, j + 1)
                    val *= E(a * xs[i] * xs[j] * q ** (ks[i] + ks[j])) / den2
        for i in range(n):
            xi = xs[i]
            ki = ks[i]
            if ki == 0:
                continue
            den0 = _check_degen(E(a * xi * xi), "E(a x_%d^2)", i + 1)
            val *= E(a * xi * xi * q ** (2 * ki)) / den0
            for u in (a * xi * xi, b * xi, c * xi, d * xi, e * xi, q ** (-N)):
                val *= pochhammer_e(u, nome, ki)
            for u in (q, a * q * xi / b, a * q * xi / c, a * q * xi / d,
                      a * q * xi / e, a * xi * xi * q ** (N + 1)):
                val /= pochhammer_e(u, nome, ki, min_factor=DELTA_DEGEN)
            val *= q ** ((i + 1) * ki)
        return val

    lhs, _ = _summed(map(summand, itertools.product(range(N + 1), repeat=n)))

    rhs = 1.0
    for i in range(1, n + 1):
        xi = xs[i - 1]
        rhs *= pochhammer_e(a * q * xi * xi, nome, N)
        rhs *= pochhammer_e(a * q ** (2 - i) / (b * c), nome, N)
        rhs *= pochhammer_e(a * q ** (2 - i) / (b * d), nome, N)
        rhs *= pochhammer_e(a * q ** (2 - i) / (c * d), nome, N)
        rhs /= pochhammer_e(a * q ** (2 - n) / (b * c * d * xi), nome, N)
        rhs /= pochhammer_e(a * q * xi / b, nome, N)
        rhs /= pochhammer_e(a * q * xi / c, nome, N)
        rhs /= pochhammer_e(a * q * xi / d, nome, N)
    return lhs, rhs


def _omega_summand(a1, uppers, nome: Nome, x, nparts: int, parts: tuple):
    q, p = nome.q, nome.p
    E = lambda z: eval_E(z, p)
    val = 1.0
    for i in range(1, nparts + 1):
        if parts[i - 1] == 0:
            continue
        base = a1 * x ** (2 * (1 - i))
        den = _check_degen(E(base), "E(a1 x^%d)", 2 * (1 - i))
        val *= E(base * q ** (2 * parts[i - 1])) / den
    lam = Partition(parts)
    val *= pochhammer_partition(a1 * x ** (1 - nparts), nome, x, parts)
    for u in uppers:
        val *= pochhammer_partition(u, nome, x, parts)
    val *= q ** lam.weight * x ** (2 * lam.n_weight)
    den = pochhammer_partition(q * x ** (nparts - 1), nome, x, parts)
    for u in uppers:
        den *= pochhammer_partition(a1 * q / u, nome, x, parts)
    if abs(den) < 1e-250:
        raise DegenerateParameters("partition denominator underflow")
    val /= den
    for i in range(1, nparts + 1):
        for j in range(i + 1, nparts + 1):
            li, lj = parts[i - 1], parts[j - 1]
            if li != lj:
                d1 = _check_degen(E(x ** (j - i)), "E(x^%d)", j - i)
                val *= E(x ** (j - i) * q ** (li - lj)) / d1
            if li + lj != 0:
                d2 = _check_degen(E(a1 * x ** (2 - i - j)), "E(a1 x^%d)", 2 - i - j)
                val *= E(a1 * x ** (2 - i - j) * q ** (li + lj)) / d2
            val *= pochhammer_e(a1 * x ** (3 - i - j), nome, li + lj)
            val *= pochhammer_e(x ** (j - i + 1), nome, li - lj)
            val /= pochhammer_e(a1 * q * x ** (1 - i - j), nome, li + lj,
                                min_factor=DELTA_DEGEN)
            val /= pochhammer_e(q * x ** (j - i - 1), nome, li - lj,
                                min_factor=DELTA_DEGEN)
    return val


def eval_Omega(a1, upper: Sequence, nome: Nome, x, nparts: int, N: int):
    """Partition sum over all lambda with nparts parts, lambda_1 <= N.

    ``upper`` excludes the terminating parameter q^{-N}, which is inserted
    here.  Balancing holds with the extra x^{2-2n} factor.
    """
    q = nome.q
    uppers_full = tuple(upper) + (q ** (-N),)
    r = len(uppers_full) + 2
    prod = math.prod(uppers_full, start=1.0)
    _check_constraint(prod * prod, a1 ** (r - 3) * q ** (r - 5) * x ** (2 - 2 * nparts),
                      "(a4...a_{r+1})^2 = a1^{r-3} q^{r-5} x^{2-2n}")
    value, _ = _summed(_omega_summand(a1, uppers_full, nome, x, nparts, lam.parts)
                       for lam in enumerate_partitions(nparts, N))
    return value


def _rectangle_ratio(nums, dens, pt: CnPoint):
    """Ratio of the shifted factorials indexed by the rectangle (N, ..., N)."""
    rect = (pt.N,) * pt.n
    val = 1.0
    for u in nums:
        val *= pochhammer_partition(u, pt.nome, pt.x, rect)
    for u in dens:
        val /= pochhammer_partition(u, pt.nome, pt.x, rect)
    return val


def conjecture_sides(pt: CnPoint):
    """Both sides of the conjectured C_n ten-term transformation.

    Constraint: b c d e f g x^{n-1} = a^3 q^{N+2}; the shift parameter is
    lam = a^2 q / (b c d).  Rectangle-indexed shifted factorials use the
    partition (N, ..., N).
    """
    a, b, c, d, e, f, g = pt.a, pt.b, pt.c, pt.d, pt.e, pt.f, pt.g
    q = pt.nome.q
    x = pt.x
    n, N = pt.n, pt.N
    _check_constraint(b * c * d * e * f * g * x ** (n - 1), a ** 3 * q ** (N + 2),
                      "bcdefg x^{n-1} = a^3 q^{N+2}")
    bailey_lambda = a * a * q / (b * c * d)
    lhs = eval_Omega(a, (b, c, d, e, f, g), pt.nome, x, n, N)
    pref = _rectangle_ratio(
        (a * q, a * q / (e * f), bailey_lambda * q / e, bailey_lambda * q / f),
        (a * q / e, a * q / f, bailey_lambda * q / (e * f), bailey_lambda * q),
        pt)
    rhs_series = eval_Omega(bailey_lambda,
                            (bailey_lambda * b / a, bailey_lambda * c / a,
                             bailey_lambda * d / a, e, f, g),
                            pt.nome, x, n, N)
    return lhs, pref * rhs_series


def omega87_sides(pt: CnPoint):
    """Both sides of the rectangle-product evaluation of the 8-term series.

    Constraint: b c d e x^{n-1} = a^2 q^{N+1} (the cd = aq specialization of
    the conjecture constraint, with parameters relabeled).
    """
    a, b, c, d, e = pt.a, pt.b, pt.c, pt.d, pt.e
    q = pt.nome.q
    x = pt.x
    n, N = pt.n, pt.N
    _check_constraint(b * c * d * e * x ** (n - 1), a * a * q ** (N + 1),
                      "bcde x^{n-1} = a^2 q^{N+1}")
    lhs = eval_Omega(a, (b, c, d, e), pt.nome, x, n, N)
    return lhs, _rectangle_ratio(
        (a * q, a * q / (b * c), a * q / (b * d), a * q / (c * d)),
        (a * q / b, a * q / c, a * q / d, a * q / (b * c * d)), pt)


# --------------------------------------------------------------------------
# The cn and conjecture suites' checks (ellipsum.suites.run_cn_suite and
# run_conjecture_suite)
# --------------------------------------------------------------------------

def _draw_cn(n, n_cap, rng, region):
    q, p = _draw_complex(rng, region.q_mod), _draw_complex(rng, region.p_mod)
    N = rng.integers(0, n_cap + 1)
    a, b, c, d = (_draw_complex(rng, PARAM_MOD) for _ in range(4))
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


def cn_checks(sizes) -> list:
    """The n-fold Jackson check of each (n, N cap) in ``sizes``, then its
    one-variable reduction."""
    checks = [Check(f"cn_jackson_n{n}", f"suite.cn.{n}", partial(_draw_cn, n, n_cap),
                    partial(_sides_rel, cn_jackson_sides), 1e-8)
              for n, n_cap in sizes]
    checks.append(Check("cn_jackson_reduces_to_one_variable", "suite.cn.reduction",
                        partial(_draw_cn, 1, 3), _cn_reduction, 1e-8))
    return checks


def _solve_conjecture(q, N, x, n, a, b, c, d, e, f):
    return a ** 3 * q ** (N + 2) / (b * c * d * e * f * x ** (n - 1))


def _solve_rectangle(q, N, x, n, a, b, c, d):
    return a * a * q ** (N + 1) / (b * c * d * x ** (n - 1))


def _draw_partition_point(free, solve, n, n_cap, rng, region):
    # ``free`` letters a, b, ... are drawn; ``solve`` gives the constrained next one
    q, p = _draw_complex(rng, region.q_mod), _draw_complex(rng, region.p_mod)
    N = rng.integers(0, n_cap + 1)
    x = _draw_complex(rng, (0.75, 0.95))
    letters = [_draw_complex(rng, PARAM_MOD) for _ in range(free)]
    letters.append(solve(q, N, x, n, *letters))
    return (CnPoint(Nome(q, p), n, N, x, **dict(zip("abcdefg", letters))),)


def conjecture_checks(sizes) -> list:
    """The conjecture and rectangle checks of each (n, N cap) in ``sizes``."""
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
    return checks
