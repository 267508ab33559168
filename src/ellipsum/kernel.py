"""Elliptic building blocks: the kernel function E, shifted factorials, theta.

Everything here is a pure function of its arguments.  The basic object is

    E(x; p) = (x; p)_inf * (p/x; p)_inf,        |p| < 1,

with E(x; 0) = 1 - x recovering the classical q-case.  Shifted factorials
(a; q, p)_n are finite products of E values, extended to negative n through
the reciprocal convention, and to partition indices row by row.

All arithmetic is generic over complex-like scalars: binary64 ``complex`` by
default, ``mpmath.mpc`` when the extended precision mode is active.  Only
``+ - * /`` and integer powers are used on parameters, so both types flow
through unchanged.  The one exception is the product loop of
:func:`_qinf_mpc`, which runs ``mpmath.mpc`` arguments on fixed-point
Gaussian integers.  An :class:`EMemo` scope changes how often E is computed,
never its value.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Sequence

from .errors import (
    DegenerateParameters,
    NomeOutOfRange,
    NonzeroRequired,
    TruncationLimit,
)

# Denominator factors with |E| below this are treated as poles, not values.
DELTA_DEGEN = 1e-8

# Balancing constraints are considered satisfied below this relative residual.
BALANCE_TOL = 1e-8


@dataclass(frozen=True)
class TruncationPolicy:
    """Truncation control for the infinite products behind E and theta.

    ``tail_bound`` is the target size of the neglected product tail; the
    number of retained factors K is chosen so that |p|^K * C < tail_bound,
    where C = max(1, |x|, |p/x|) is the prefix scale of the product.
    ``max_terms`` is a hard cap: a K above it raises :class:`TruncationLimit`
    rather than silently truncating the product.
    """

    max_terms: int = 5000
    tail_bound: float = 1e-18
    _log_tail: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_log_tail", math.log(self.tail_bound))

    def num_factors(self, p_abs: float, scale: float, log_p: float | None = None) -> int:
        """K for |p| = p_abs and prefix scale ``scale``; ``log_p`` is log(p_abs)."""
        if p_abs == 0.0:
            return 1
        if log_p is None:
            log_p = math.log(p_abs)
        log_target = self._log_tail if scale <= 1.0 else math.log(self.tail_bound / scale)
        k = int(math.ceil(log_target / log_p)) + 10
        if k > self.max_terms:
            raise TruncationLimit(
                f"|p| = {p_abs:.6g} needs {k} product factors for a tail below "
                f"{self.tail_bound:g}, more than the cap of {self.max_terms}")
        return max(30, k)


DEFAULT_POLICY = TruncationPolicy()

# Extended-mode policy: smaller tail for use with 50-digit arithmetic.
EXTENDED_POLICY = TruncationPolicy(max_terms=20000, tail_bound=1e-40)


@dataclass(frozen=True)
class Nome:
    """The pair of bases (q, p) with q != 0 and |p| < 1.

    |q| < 1 is deliberately not required: every series in this package
    terminates, so q only has to be nonzero.  p = 0 is the classical case.
    """

    q: complex
    p: complex

    def __post_init__(self) -> None:
        if self.q == 0:
            raise NonzeroRequired("base q must be nonzero")
        if abs(self.p) >= 1:
            raise NomeOutOfRange(f"|p| must be < 1, got |p| = {abs(self.p)}")

    def with_base(self, q) -> "Nome":
        return Nome(q, self.p)


# Guard bits of the fixed-point mpc product loop, for both the points x p^k
# and the mantissas of the running product.
GUARD_BITS = 40


def _qinf(x, p, n: int):
    """The first n factors of (x; p)_inf = prod_{k>=0} (1 - x p^k)."""
    result = 1.0
    y = x
    for _ in range(n):
        result = result * (1.0 - y)
        y = y * p
    return result


def _qinf_mpc(x, p, n: int):
    """The first n factors of (x; p)_inf for an ``mpmath.mpc`` x.

    The points y = x p^k are fixed-point Gaussian integers with ``wp`` =
    working precision plus GUARD_BITS fractional bits; p is a Gaussian
    integer scaled so that its larger part has ``wp`` bits.  The running
    product is block floating point, (re + i im) 2^e with a shared exponent,
    cut back to ``wp`` bits after each factor.  Only the result is rounded
    to the working precision.
    """
    from mpmath.libmp import from_man_exp, fzero, to_fixed

    ctx = x.context
    prec, rounding = ctx._prec_rounding
    wp = prec + GUARD_BITS
    p = ctx.convert(p)
    p_parts = getattr(p, "_mpc_", None) or (p._mpf_, fzero)
    # A raw mpf is (sign, man, exp, bc), and |part| < 2^(exp + bc).
    p_mag = max((exp + bc for _, man, exp, bc in p_parts if man), default=0)
    p_bits = wp - p_mag
    pr, pi = (to_fixed(part, p_bits) for part in p_parts)
    yr, yi = (to_fixed(part, wp) for part in x._mpc_)
    one = 1 << wp
    re, im, e = 1, 0, -n * wp
    for _ in range(n):
        fr = one - yr
        re, im = re * fr + im * yi, im * fr - re * yi
        shift = (abs(re) | abs(im)).bit_length() - wp
        if shift > 0:
            re >>= shift
            im >>= shift
            e += shift
        yr, yi = (yr * pr - yi * pi) >> p_bits, (yr * pi + yi * pr) >> p_bits
    return ctx.make_mpc((from_man_exp(re, e, prec, rounding),
                         from_man_exp(im, e, prec, rounding)))


def _product_loop(x):
    """The factor loop for x: :func:`_qinf_mpc` for an ``mpmath.mpc``, else :func:`_qinf`."""
    if x.__class__ is not complex and hasattr(x, "_mpc_"):
        return _qinf_mpc
    return _qinf


# The open eval_E memo (see EMemo), or None outside every scope.
_memo = None


class EMemo:
    """A ``with`` scope in which :func:`eval_E` computes each value once.

    Inside the scope, eval_E keys its results on the types and exact values
    of x and p and on the policy, in a table that starts empty; on exit the
    memo open before is restored, also when the block raises.  A hit returns
    the value a recomputation would give, bit for bit, since E is a pure
    function of its arguments at a fixed mpmath precision (a scope must not
    span a precision change).  ``hits`` counts the calls the table answered.
    """

    __slots__ = ("table", "hits", "_outer")

    def __enter__(self) -> "EMemo":
        global _memo
        self.table = {}
        self.hits = 0
        self._outer, _memo = _memo, self
        return self

    def __exit__(self, *exc) -> None:
        global _memo
        _memo = self._outer


def eval_E(x, p, policy: TruncationPolicy = DEFAULT_POLICY):
    """The elliptic kernel E(x; p) = (x; p)_inf (p/x; p)_inf.

    Exactly 1 - x when p = 0.  Zeros sit at x = p^k, k in Z.  Inside an
    :class:`EMemo` scope a repeated argument is looked up, not recomputed.
    """
    memo = _memo
    if memo is not None:
        key = (x.__class__, p.__class__, x, p, policy)
        value = memo.table.get(key)
        if value is not None:
            memo.hits += 1
            return value
    if x == 0:
        raise NonzeroRequired("E(x; p) requires x != 0")
    p_abs = abs(p)
    if p_abs >= 1:
        raise NomeOutOfRange(f"|p| must be < 1, got |p| = {p_abs}")
    if p == 0:
        return 1.0 - x
    p_abs = float(p_abs)
    log_p = math.log(p_abs)
    qinf = _product_loop(x)
    value = qinf(x, p, policy.num_factors(p_abs, float(abs(x)), log_p))
    y = p / x
    value = value * qinf(y, p, policy.num_factors(p_abs, float(abs(y)), log_p))
    if memo is not None:
        memo.table[key] = value
    return value


def pochhammer_e(a, nome: Nome, n: int, policy: TruncationPolicy = DEFAULT_POLICY,
                 min_factor: float | None = None):
    """Elliptic shifted factorial (a; q, p)_n for any integer n.

    n > 0: prod_{k=0}^{n-1} E(a q^k); n = 0: 1; n < 0 via the reciprocal
    convention 1 / (a q^n; q, p)_{-n}.  Reciprocal factors (and, when
    ``min_factor`` is given, direct factors too) must stay clear of zero.
    """
    q, p = nome.q, nome.p
    if n == 0:
        return 1.0
    if n > 0:
        result = 1.0
        y = a
        for k in range(n):
            f = eval_E(y, p, policy)
            if min_factor is not None and abs(f) < min_factor:
                raise DegenerateParameters(
                    f"factor E(a*q^{k}) with a={a!r} has magnitude {abs(f):.3e}")
            result = result * f
            y = y * q
        return result
    # n < 0: reciprocal of the product over E(a q^{n+k}), k = 0..-n-1
    result = 1.0
    y = a * q ** n
    threshold = DELTA_DEGEN if min_factor is None else max(min_factor, DELTA_DEGEN)
    for k in range(-n):
        f = eval_E(y, p, policy)
        if abs(f) < threshold:
            raise DegenerateParameters(
                f"reciprocal factor E(a*q^{n + k}) with a={a!r} has magnitude {abs(f):.3e}")
        result = result * f
        y = y * q
    return 1.0 / result


def pochhammer_frac(a, nome: Nome, n: int, policy: TruncationPolicy = DEFAULT_POLICY):
    """(a; q, p)_n as an unreduced fraction (numerator, denominator).

    Unlike :func:`pochhammer_e` this never divides and never raises on zero
    factors, which lets callers assemble ratios whose structural zeros and
    poles cancel exactly (negative-index semantics in determinant entries).
    """
    q, p = nome.q, nome.p
    if n == 0:
        return 1.0, 1.0
    if n > 0:
        num = 1.0
        y = a
        for _ in range(n):
            num = num * eval_E(y, p, policy)
            y = y * q
        return num, 1.0
    den = 1.0
    y = a * q ** n
    for _ in range(-n):
        den = den * eval_E(y, p, policy)
        y = y * q
    return 1.0, den


def pochhammer_multi(values: Sequence, nome: Nome, n: int,
                     policy: TruncationPolicy = DEFAULT_POLICY,
                     min_factor: float | None = None):
    """Condensed notation (a_1, ..., a_m; q, p)_n, the product over the list."""
    if not values:
        raise ValueError("pochhammer_multi requires a nonempty parameter list")
    result = 1.0
    for a in values:
        result = result * pochhammer_e(a, nome, n, policy, min_factor=min_factor)
    return result


def pochhammer_partition(a, nome: Nome, x, parts: Sequence[int],
                         policy: TruncationPolicy = DEFAULT_POLICY):
    """Partition-indexed shifted factorial prod_i (a x^{1-i}; q, p)_{lam_i}.

    ``parts`` is weakly decreasing with one entry per row; row i (1-based)
    contributes (a x^{1-i}; q, p)_{parts[i-1]}.
    """
    if x == 0:
        raise NonzeroRequired("partition-indexed factorial requires x != 0")
    result = 1.0
    for i, lam_i in enumerate(parts, start=1):
        if lam_i < 0:
            raise ValueError("partition entries must be nonnegative")
        result = result * pochhammer_e(a * x ** (1 - i), nome, lam_i, policy)
    return result


def _cexp(z):
    if isinstance(z, (int, float, complex)):
        return cmath.exp(z)
    import mpmath

    return mpmath.exp(z)


def theta1(z, p, policy: TruncationPolicy = DEFAULT_POLICY):
    """Odd Jacobi theta function via its product form.

    theta_1(z) = i p^{1/4} e^{-iz} (p^2; p^2)_inf E(e^{2iz}; p^2), with the
    principal branch of p^{1/4}.  The branch choice drops out of identities
    in this package because theta_1 factors only appear in balanced ratios.
    """
    if abs(p) >= 1:
        raise NomeOutOfRange(f"|p| must be < 1, got |p| = {abs(p)}")
    if p == 0:
        return 0.0 * z
    w = _cexp(2j * z)
    root = p ** 0.25
    p2 = p * p
    y = p2 * 1.0
    n = policy.num_factors(float(abs(p2)), float(abs(y)))
    return 1j * root * _cexp(-1j * z) * _product_loop(y)(y, p2, n) * eval_E(w, p2, policy)


def binom2(n: int) -> int:
    """Binomial coefficient C(n, 2) = n(n-1)/2, valid for negative n too."""
    return n * (n - 1) // 2


class CompensatedSum:
    """Neumaier-compensated accumulator, per real/imaginary component.

    Works on binary64 complex exactly; with wider scalar types the
    compensation terms are simply tiny and harmless.
    """

    __slots__ = ("_sr", "_cr", "_si", "_ci")

    def __init__(self) -> None:
        self._sr = 0.0
        self._cr = 0.0
        self._si = 0.0
        self._ci = 0.0

    def add(self, z) -> None:
        x, y = z.real, z.imag
        t = self._sr + x
        if abs(self._sr) >= abs(x):
            self._cr += (self._sr - t) + x
        else:
            self._cr += (x - t) + self._sr
        self._sr = t
        t = self._si + y
        if abs(self._si) >= abs(y):
            self._ci += (self._si - t) + y
        else:
            self._ci += (y - t) + self._si
        self._si = t

    def value(self):
        return (self._sr + self._cr) + 1j * (self._si + self._ci)
