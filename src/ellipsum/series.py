"""Terminating very-well-poised balanced elliptic series by direct summation.

The central sum has summand

    E(a1 q^{2k}) / E(a1) * (a1, a4, ..., a_{r+1}; q, p)_k q^k
                         / (q, a1 q/a4, ..., a1 q/a_{r+1}; q, p)_k,

with one designated upper parameter equal to q^{-n} so that the series
terminates.  Termination is always an input (the integer ``n_term``), never
detected from floating parameter values.

One engine, :func:`vwp_terms`, sums this series and the catalog's quadratic,
cubic and quartic ones alike: each is a prefactor, a geometric weight and
shifted factorials given as (params, base, step) groups, whose products the
kernel forms term by term (:func:`ellipsum.kernel.running_products`).
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import BalanceViolation
from .kernel import (
    BALANCE_TOL,
    DELTA_DEGEN,
    Nome,
    _check_degen,
    _residual,
    eval_E,
    running_products,
)


class _OmegaFields(NamedTuple):
    a1: complex
    upper: tuple
    nome: Nome
    n_term: int


class OmegaSpec(_OmegaFields):
    """A terminating very-well-poised balanced series.

    ``upper`` holds the upper parameters *except* the terminating one; the
    evaluator inserts q^{-n_term} itself.  With m = len(upper) the series has
    r = m + 3, i.e. a ``(r+1) omega r``.
    """

    __slots__ = ()

    def __new__(cls, a1, upper=(), nome=None, n_term=0):
        upper = tuple(upper)
        if n_term < 0:
            raise ValueError("n_term must be a nonnegative integer")
        return super().__new__(cls, a1, upper, nome, n_term)

    @property
    def r(self) -> int:
        return len(self.upper) + 3

    def full_upper(self) -> tuple:
        return self.upper + (self.nome.q ** (-self.n_term),)


def balance_residual(spec: OmegaSpec) -> float:
    """Relative size of (a4...a_{r+1})^2 - a1^{r-3} q^{r-5}, scale-normalized."""
    prod = 1.0
    for a in spec.full_upper():
        prod = prod * a
    return _residual(prod * prod, spec.a1 ** (spec.r - 3) * spec.nome.q ** (spec.r - 5))


def _eprefactor(a1, gap: int, q, p):
    """The prefactor k -> E(a1 q^{gap k}) / E(a1) of a very-well-poised series."""
    e_a1 = _check_degen(eval_E(a1, p), "E(a1)")

    def pref(k: int):
        if k == 0:
            return a1 * 0 + 1.0  # t_0 is exactly 1, in the type of the parameters
        return eval_E(a1 * q ** (gap * k), p) / e_a1

    return pref


def vwp_terms(prefactor, num_groups: Sequence, den_groups: Sequence, weight,
              kmax: int, p) -> list:
    """Summands t_0..t_kmax of a mixed-base very-well-poised series.

    Groups are (params, base, step) triples contributing the shifted
    factorials (a; base, p)_{step*k} to the numerator or denominator of the
    k-th summand; ``prefactor(k)`` supplies the leading E-ratio and
    ``weight``^k the geometric part.  The numerator and denominator are the
    running products of :func:`running_products`, taken k by k in turn;
    denominator factors below the degeneracy threshold raise.
    """
    nums = running_products(num_groups, kmax, p)
    dens = running_products(den_groups, kmax, p, DELTA_DEGEN,
                            lambda k, a, t, magnitude:
                            f"denominator factor at k={k}: |E| = {magnitude:.3e}")
    terms = []
    w = 1.0
    for k, num, den in zip(range(kmax + 1), nums, dens):
        if k > 0:
            w = w * weight
        terms.append(prefactor(k) * num * w / den)
    return terms


def _summed(terms) -> tuple:
    """Compensated left-to-right sum and the largest summand magnitude.

    The package's one summation routine: Neumaier's update (Higham,
    *Accuracy and Stability of Numerical Algorithms*, ch. 4) on the real and
    imaginary parts, each a running sum s and its correction c.  Wider
    scalar types pass through unchanged; their corrections are tiny and
    harmless.  The magnitude is the summand scale zero-sided identity checks
    use to normalize what "numerically zero" means.
    """
    sr = cr = si = ci = 0.0
    scale = 0.0
    for z in terms:
        x, y = z.real, z.imag
        t = sr + x
        if abs(sr) >= abs(x):
            cr += (sr - t) + x
        else:
            cr += (x - t) + sr
        sr = t
        t = si + y
        if abs(si) >= abs(y):
            ci += (si - t) + y
        else:
            ci += (y - t) + si
        si = t
        scale = max(scale, float(abs(z)))
    return (sr + cr) + 1j * (si + ci), scale


def vwp_sum(prefactor, num_groups: Sequence, den_groups: Sequence, weight,
            kmax: int, p) -> tuple:
    """(value, scale) of the series of :func:`vwp_terms`."""
    return _summed(vwp_terms(prefactor, num_groups, den_groups, weight, kmax, p))


def omega_terms(a1, uppers: Sequence, nome: Nome, kmax: int) -> list:
    """Summands t_0..t_kmax of the very-well-poised series with the given
    (complete) upper parameter list: :func:`vwp_terms` with base q throughout.
    """
    q, p = nome.q, nome.p
    prefactor = _eprefactor(a1, 2, q, p)
    lowers = (q, *(a1 * q / a for a in uppers))
    return vwp_terms(prefactor, (((a1, *uppers), q, 1),), ((lowers, q, 1),), q, kmax, p)


def omega_sum(a1, uppers: Sequence, nome: Nome, kmax: int):
    """(value, scale) of the series of :func:`omega_terms`, by the compensated
    sum :func:`vwp_sum` uses."""
    return _summed(omega_terms(a1, uppers, nome, kmax))


def eval_omega(spec: OmegaSpec):
    """Value of the terminating series described by ``spec``.

    The balancing constraint is checked first; a violation raises.
    """
    res = balance_residual(spec)
    if res > BALANCE_TOL:
        raise BalanceViolation(
            f"balancing residual {res:.3e} exceeds {BALANCE_TOL:.1e}")
    value, _ = omega_sum(spec.a1, spec.full_upper(), spec.nome, spec.n_term)
    return value
