"""Elliptic building blocks: the kernel function E, shifted factorials, theta.

Everything here is a pure function of its arguments.  The basic object is

    E(x; p) = (x; p)_inf * (p/x; p)_inf,        |p| < 1,

with E(x; 0) = 1 - x recovering the classical q-case.  Shifted factorials
(a; q, p)_n are finite products of E values, extended to negative n through
the reciprocal convention, and to partition indices row by row.

All arithmetic is generic over complex-like scalars: binary64 ``complex`` by
default, ``mpmath.mpc`` when the extended precision mode is active.  Only
``+ - * /`` and integer powers are used on parameters, so both types flow
through unchanged.  The exception is E itself, which both types compute
by Jacobi's triple product series over tables of the nome.  Binary64 sums
it by :func:`_theta_float` over :func:`_float_tables`, and near its zeros
multiplies the factor loops of :func:`_qinf`, which stop at a 1e-18 tail
(:func:`_num_factors`).  ``mpmath.mpc`` sums it on fixed-point Gaussian
integers by :func:`_series_fixed` over :class:`_NomeTables`: the infinite
product to working precision, with no truncation.  Where a sum cancels,
near a zero of E or as |p| nears 1, the precision rises by the bits it
lost, and an exact zero gives exactly 0 (:func:`_rerun`).  mpc shifted
factorials (:func:`running_products`) keep their points a q^t and products
on those integers too.  An :class:`EMemo` scope changes how often E is
computed, never its value.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
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


def _residual(lhs, rhs) -> float:
    """Relative residual of a constraint lhs = rhs, held when <= BALANCE_TOL."""
    return float(abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))


# The factor loops of binary64 E keep the least count K with a tail
# |p|^K max(1, |x|, |p/x|) below _TAIL_BOUND, plus MARGIN factors, at least
# 30 in all; a K above _MAX_FACTORS raises TruncationLimit rather than
# silently truncating the product.  _qinf skips the margin once its factors
# provably change no bit.
_TAIL_BOUND = 1e-18
_LOG_TAIL = math.log(_TAIL_BOUND)
_MAX_FACTORS = 5000
MARGIN = 10


def _num_factors(p_abs: float, scale: float, log_p: float | None = None) -> int:
    """K for |p| = p_abs and prefix scale ``scale``; ``log_p`` is log(p_abs).

    A scale outside the binary64 range raises TruncationLimit, as a K above
    the cap does.
    """
    if p_abs == 0.0:
        return 1
    if p_abs >= 1.0:  # a |p| < 1 can round to 1.0, where log |p| = 0
        raise TruncationLimit(f"|p| = {p_abs!r} in binary64 gives no factor count")
    if log_p is None:
        log_p = math.log(p_abs)
    if scale <= 1.0:
        log_target = _LOG_TAIL
    else:
        target = _TAIL_BOUND / scale
        if not target > 0.0:  # an infinite or NaN scale, or a quotient that underflows
            raise TruncationLimit(
                f"modulus |x| or |p/x| = {scale!r} is outside the binary64 range "
                f"of the factor count for a tail below {_TAIL_BOUND:g}")
        log_target = math.log(target)
    k = int(math.ceil(log_target / log_p)) + MARGIN
    if k > _MAX_FACTORS:
        raise TruncationLimit(
            f"|p| = {p_abs!r} needs {k} product factors for a tail below "
            f"{_TAIL_BOUND:g}, more than the cap of {_MAX_FACTORS}")
    return max(30, k)


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
        if not abs(self.p) < 1:
            raise NomeOutOfRange(f"|p| must be < 1, got |p| = {abs(self.p)}")

    def with_base(self, q) -> "Nome":
        return Nome(q, self.p)


# Guard bits of the fixed-point mpc arithmetic (the triple product series
# and the running products): fractional bits kept beyond the working
# precision.
GUARD_BITS = 40


# The early exit of _qinf: a running product r = a + ib is final when
# min(|a|, |b|) > _EXIT_FLOOR and
# (|Re y| + |Im y| + _EXIT_SLACK) max(|a|, |b|) < _EXIT_RATIO min(|a|, |b|).
_EXIT_RATIO = 2.0 ** -56
_EXIT_FLOOR = 2.0 ** -900
_EXIT_SLACK = 2.0 ** -1000


def _qinf(x, p, n: int):
    """The first n factors of (x; p)_inf = prod_{k>=0} (1 - x p^k), in binary64.

    The loop stops before the last MARGIN factors when they provably change
    no bit of the product, so the result equals that of all n factors, bit
    for bit.  The argument is the rounding model of Higham, *Accuracy and
    Stability of Numerical Algorithms*, ch. 2-3, with u = 2^-53.  After
    n - MARGIN factors, let r = a + ib be the product and y the next point,
    and suppose the test above holds; write m = min(|a|, |b|) > 2^-900 and
    L = max(|a|, |b|).

    * The test is computed in floating point.  Its right side is exact as
      m > 2^-900, its left side is off by at most three roundings, an
      underflow there only hides a value below the right side, and an
      overflow or a NaN part fails the test.  So
      (|Re y| + |Im y| + 2^-1000) L < 2^-56 m (1 + 4u).
    * Later points stay small.  With |p| < 1, y' = fl(y p) has
      |y'| <= |y| (1 + sqrt(5) u) plus at most sqrt(2) 2^-1074 from an
      underflow, and |y| <= |Re y| + |Im y|.  Over MARGIN steps the
      underflows add less than 2^-1070, which _EXIT_SLACK covers, and the
      growth factor (1 + sqrt(5) u)^10 is covered by the factor of 2
      between 2^-56 and 2^-55.  So every later point has |y_k| L < 2^-55 m.
    * Hence |Re y_k| < 2^-55 and fl(1 - Re y_k) = 1.0.  The factor is
      1 + id with |d| = |Im y_k|, and r (1 - y_k) rounds a - b d and
      b + a d.  Each cross term, rounded, is below 2^-55 m (an underflow
      of 2^-1075 fits in, as m > 2^-900), which is under half the spacing
      of the floats next to a (and next to b), even where a is a power of
      2.  So both parts round back to a and b, with or without a fused
      multiply-add.
    * Zero parts fail the test: a part b = 0 would take the nonzero
      imaginary part a d.  A real product never exits early and costs one
      test more than the full loop.
    """
    result = 1.0
    y = x
    for _ in range(n - MARGIN):
        result = result * (1.0 - y)
        y = y * p
    lo, hi = abs(result.real), abs(result.imag)
    if hi < lo:
        lo, hi = hi, lo
    if lo > _EXIT_FLOOR and (abs(y.real) + abs(y.imag) + _EXIT_SLACK) * hi < _EXIT_RATIO * lo:
        return result
    for _ in range(min(n, MARGIN)):
        result = result * (1.0 - y)
        y = y * p
    return result


def _qinf_pair(x, p, p_abs: float):
    """(x; p)_n1 (p/x; p)_n2 in binary64, with the counts of :func:`_num_factors`."""
    log_p = math.log(p_abs)
    n1 = _num_factors(p_abs, float(abs(x)), log_p)
    y = p / x
    n2 = _num_factors(p_abs, float(abs(y)), log_p)
    return _qinf(x, p, n1) * _qinf(y, p, n2)


# Binary64 theta sums whose modulus falls below this, a loss of more than
# four bits to cancellation, give way to the factor loops.
LOSS_FLOOR = 1 / 16


def _float_tables(p, p_abs: float, memo):
    """The binary64 series tables of p: ``(coeffs, (p; p)_inf)``.

    ``coeffs`` holds (-1)^n p^C(n,2) from the last n with modulus 2^-60 or
    more down to n = 0, in Horner's order, and (p; p)_inf has the factor count
    of :func:`_num_factors` at scale 1, which raises TruncationLimit near |p| = 1.
    The tables are kept in ``memo`` under (type of p, p) when a memo is open.
    """
    key = (p.__class__, p)
    tables = memo.nomes.get(key) if memo is not None else None
    if tables is None:
        pp_inf = _qinf(p, p, _num_factors(p_abs, 1.0))
        coeffs, c, power = [], 1.0, 1.0
        while abs(c) >= 2.0 ** -60:
            # c = (-1)^n p^C(n,2) and power = p^n
            coeffs.append(c)
            c, power = -c * power, power * p
        tables = coeffs[::-1], pp_inf
        if memo is not None:
            memo.nomes[key] = tables
    return tables


def _theta_float(x, p, coeffs):
    """theta(x) = sum_n (-1)^n p^C(n,2) x^n in binary64, or None near its zeros.

    By Jacobi's triple product, theta(x) = (p; p)_inf E(x; p).  theta(x) =
    theta(p/x); of x and p/x, z is the larger, and k steps of
    theta(z) = -z theta(z p) bring it to |z| <= 1.  There theta(z) =
    A(z) + A(p/z) - 1 with A(w) = sum_{n>=0} (-1)^n p^C(n,2) w^n, both by
    Horner's rule over ``coeffs`` from :func:`_float_tables`.  Every term is
    at most 1 in modulus, so where the sum falls below LOSS_FLOOR, or is not
    finite, the caller runs the factor loops instead; that keeps the zeros of
    E, x = p^k, exact.
    """
    y = p / x
    if abs(x) >= abs(y):
        z = x
    else:
        z, y = y, x
    step = 1.0
    # past _MAX_FACTORS steps the factor loops need more factors than their cap
    for k in range(_MAX_FACTORS):
        if not abs(z) > 1.0:
            break
        step, z = -step * z, z * p
    else:
        return None
    if k:
        y = p / z
    a = b = 0.0
    for c in coeffs:
        a = a * z + c
        b = b * y + c
    s = a + b - 1.0
    if not abs(s) >= LOSS_FLOOR:
        return None
    theta = step * s
    return theta if cmath.isfinite(theta) else None


@functools.cache
def _libmp():
    """``mpmath.libmp``, imported at the first mpc call so binary64 runs need not load it."""
    from mpmath import libmp
    return libmp


def _scaled(parts, wp: int):
    """Raw mpf parts (re, im) as (zr, zi, bits), z = (zr + i zi) 2^-bits.

    The larger part gets ``wp`` significant bits.
    """
    to_fixed = _libmp().to_fixed
    # A raw mpf is (sign, man, exp, bc), and |part| < 2^(exp + bc).
    mag = max((exp + bc for _, man, exp, bc in parts if man), default=0)
    bits = wp - mag
    return to_fixed(parts[0], bits), to_fixed(parts[1], bits), bits


def _exact(parts):
    """Raw mpf parts (re, im) as (zr, zi, bits), z = (zr + i zi) 2^-bits exactly."""
    to_fixed = _libmp().to_fixed
    bits = -min((exp for _, man, exp, _ in parts if man), default=0)
    return to_fixed(parts[0], bits), to_fixed(parts[1], bits), bits


def _log2_abs(re: int, im: int, bits: int) -> float:
    """log2 |z| of z = (re + i im) 2^-bits at any exponent, -inf for z = 0."""
    shift = max((abs(re) | abs(im)).bit_length() - 60, 0)
    mag = math.hypot(re >> shift, im >> shift)
    return math.log2(mag) + (shift - bits) if mag else -math.inf


def _raw_parts(ctx, z):
    """The raw mpf parts (re, im) of z, converted to the context ``ctx``."""
    z = ctx.convert(z)
    return getattr(z, "_mpc_", None) or (z._mpf_, _libmp().fzero)


def _mpc_setup(x, p):
    """The context of x, its precision and rounding, wp and the raw parts of p."""
    ctx = x.context
    prec, rounding = ctx._prec_rounding
    return ctx, prec, rounding, prec + GUARD_BITS, _raw_parts(ctx, p)


def _to_mpc(setup, re: int, im: int, bits: int):
    """(re + i im) 2^-bits as an mpc at the context, precision and rounding of ``setup``."""
    ctx, prec, rounding = setup[:3]
    from_man_exp = _libmp().from_man_exp
    return ctx.make_mpc((from_man_exp(re, -bits, prec, rounding),
                         from_man_exp(im, -bits, prec, rounding)))


def _nome_abs(p) -> float:
    """|p| in binary64, after checking that p lies in the unit disk.

    For an ``mpmath.mpc`` it is the modulus of its parts rounded to floats,
    and a |p| that rounds to 1.0 is checked against 1 exactly.
    """
    parts = getattr(p, "_mpc_", None)
    if parts is None:
        p_abs = float(abs(p))
    else:
        libmp = _libmp()
        p_abs = math.hypot(*(libmp.to_float(part, False, libmp.round_nearest) for part in parts))
    if not p_abs < 1.0 and not abs(p) < 1:
        raise NomeOutOfRange(f"|p| must be < 1, got |p| = {abs(p)}")
    return p_abs


def _trim(re, im, bits: int, wp: int):
    """(re + i im) 2^-bits with the larger part cut back to ``wp`` bits."""
    shift = (abs(re) | abs(im)).bit_length() - wp
    if shift > 0:
        return re >> shift, im >> shift, bits - shift
    return re, im, bits


def _fixed(z, wp: int):
    """(re, im, bits) as from :func:`_scaled`, as parts with ``wp`` fractional bits."""
    re, im, bits = z
    if bits >= wp:
        return re >> (bits - wp), im >> (bits - wp)
    return re << (wp - bits), im << (wp - bits)


def _quotient(nr, ni, dr, di, shift: int):
    """(n / d) 2^shift for Gaussian integers n and d != 0, each part floored."""
    up, den = max(shift, 0), (dr * dr + di * di) << max(-shift, 0)
    return ((nr * dr + ni * di) << up) // den, ((ni * dr - nr * di) << up) // den


def _run_length(log_z: float, log_q: float, wp: int) -> int:
    """The last n at which sum_n (-1)^n q^C(n,2) z^n has a term of 2^-wp or more.

    log_z = log2|z| and log_q = log2|q| < 0.  Term n has log2 modulus
    n log_z + C(n, 2) log_q, which is concave in n; the terms past its last
    crossing of -wp sum to about one unit of 2^-wp.
    """
    b = log_q / 2
    a = log_z - b
    return int((a + math.sqrt(a * a - 4 * b * wp)) / (-2 * b))


def _theta_terms(zr, zi, nome, wp: int, count: int):
    """Terms 0..count of sum_n (-1)^n q^C(n,2) z^n, and z q^count.

    z and the terms have ``wp`` fractional bits; q = ``nome`` is as from
    :func:`_scaled`.  Term n is term n-1 times -z q^(n-1).
    """
    qr, qi, q_bits = nome
    tr, ti = 1 << wp, 0
    terms = [(tr, ti)]
    for _ in range(count):
        tr, ti = (ti * zi - tr * zr) >> wp, -(tr * zi + ti * zr) >> wp
        terms.append((tr, ti))
        zr, zi = (zr * qr - zi * qi) >> q_bits, (zr * qi + zi * qr) >> q_bits
    return terms, zr, zi


def _horner(zr, zi, coeffs, count: int, wp: int):
    """sum_{n=0}^{count} coeffs[n] z^n by Horner's rule, for |z| <= 1.

    z, the coefficients and the sum have ``wp`` fractional bits.  Each step
    adds at most a unit of error, and |z| <= 1 keeps the earlier ones from
    growing.
    """
    sr, si = coeffs[count]
    for n in range(count - 1, -1, -1):
        cr, ci = coeffs[n]
        sr, si = ((sr * zr - si * zi) >> wp) + cr, ((sr * zi + si * zr) >> wp) + ci
    return sr, si


# log2 of the largest |p| of the mpc series, 0.99540...: the nome at which a
# product with a 1e-40 tail needs 20,000 factors.  Nearer 1 a real p loses
# more than 500 bits to cancellation in (p; p)_inf, and a nome there raises
# TruncationLimit.
_LOG2_P_MAX = math.log2(1e-40) / 19990


class _NomeTables:
    """The constants of the mpc series for one nome p, at working precision ``wp``.

    ``log2`` is log2|p| from the scaled parts; :meth:`power` caches p^n as
    from :func:`_scaled`.  ``theta[n]`` = (-1)^n p^C(n,2) are the
    coefficients of the theta sum, up to the last index at which a point of
    modulus 1 still has a term of 2^-wp.  ``pp_inf`` is (p; p)_inf as
    (re, im, wp), by Euler's pentagonal series, sum_k (-1)^k p^(k(3k-1)/2)
    over all integers k (DLMF 27.14.3): as k(3k-1)/2 = 3 C(k,2) + k, that is
    the theta sum of nome p^3 at p, whose runs start at p and at p^2.
    ``recip`` is 1 / (p; p)_inf as (re, im, bits).

    Every series sum, the pentagonal one and each theta sum of
    :func:`_series_fixed`, must keep ``need`` bits: the working precision
    asked for, less GUARD_BITS - 9.  Where the pentagonal sum cancels below
    that (|p| near 1), the tables are built again with the shortfall added
    to ``wp``, which then exceeds the one asked for; :meth:`raised` gives
    them at more bits still, for the same ``need``.  p must be nonzero, and
    a log2|p| above _LOG2_P_MAX raises TruncationLimit.
    """

    __slots__ = ("log2", "need", "wp", "theta", "pp_inf", "recip", "_nome", "_powers")

    def __init__(self, p, p_parts, wp: int, need: int | None = None):
        p_abs = _nome_abs(p)
        self._nome = p, p_parts
        self.need = need = wp - GUARD_BITS + 9 if need is None else need
        self.log2 = log2_p = _log2_abs(*_scaled(p_parts, wp))
        if log2_p > _LOG2_P_MAX:
            raise TruncationLimit(f"|p| = {p_abs!r} is too close to 1: the extended "
                                  f"kernel takes |p| up to {2 ** _LOG2_P_MAX:.5f}")
        while True:
            self.wp = wp
            self._powers = {1: _scaled(p_parts, wp)}
            dr, di = -(1 << wp), 0
            for n in (1, 2):
                terms = _theta_terms(*_fixed(self.power(n), wp), self.power(3), wp,
                                     _run_length(n * log2_p, 3 * log2_p, wp))[0]
                dr, di = dr + sum(t[0] for t in terms), di + sum(t[1] for t in terms)
            bits = (abs(dr) | abs(di)).bit_length()
            if bits >= need:
                break
            wp += need - bits
        self.pp_inf = dr, di, wp
        self.recip = (*_quotient(1, 0, dr, di, wp + bits), bits)
        self.theta = _theta_terms(1 << wp, 0, self.power(1), wp, _run_length(0.0, log2_p, wp))[0]

    def raised(self, bits: int) -> "_NomeTables":
        """The tables of the same p and ``need`` at ``bits`` more working precision."""
        return _NomeTables(*self._nome, self.wp + bits, self.need)

    def power(self, n: int):
        """p^n for n >= 1 from p^(n // 2) p^(n - n // 2), with parts of ``wp`` bits."""
        value = self._powers.get(n)
        if value is None:
            ar, ai, a_bits = self.power(n // 2)
            br, bi, b_bits = self.power(n - n // 2)
            value = self._powers[n] = _trim(ar * br - ai * bi, ar * bi + ai * br,
                                            a_bits + b_bits, self.wp)
        return value


def _nome_tables(p, p_parts, wp: int, memo) -> _NomeTables:
    """The tables of p, kept in ``memo`` under (raw parts of p, wp) when a memo is open."""
    if memo is None:
        return _NomeTables(p, p_parts, wp)
    key = (p_parts, wp)
    tables = memo.nomes.get(key)
    if tables is None:
        tables = memo.nomes[key] = _NomeTables(p, p_parts, wp)
    return tables


def _series_fixed(xr, xi, x_bits: int, tables: _NomeTables):
    """E(x; p) as (re, im, bits) for x = (xr + i xi) 2^-x_bits, with p from
    ``tables``; or, where the theta sum keeps fewer than ``tables.need``
    bits, that shortfall as an int.

    By Jacobi's triple product, E(x) = theta(x) / (p; p)_inf with theta(x) =
    sum_n (-1)^n p^C(n,2) x^n.  Every part runs on fixed-point Gaussian
    integers with wp = ``tables.wp`` fractional bits, at least the working
    precision plus GUARD_BITS; the terms that each run leaves out are below
    2^-wp, so nothing is truncated.  theta(x) = theta(p/x).  Of x and p/x,
    z is the larger; k steps of theta(z) = -z theta(z p) bring z' = z p^k
    into |p| < |z'| <= 1, and theta(z') is the sum of the runs n >= 0 from
    z' and from p/z', both by Horner's rule.  p/z' is one quotient of exact
    parts, p / (x p^k) or x / p^k, since near a zero of E the two runs
    cancel.  Every term of theta(z') is at most 1, so the bits that the sum
    falls short of 1 are lost to cancellation.  At the working precision
    plus GUARD_BITS, more than GUARD_BITS - 8 of them (near x = p^m) leave
    a shortfall, which :func:`_rerun` takes.  A |x| outside the binary64
    range raises TruncationLimit.
    """
    log2_x = _log2_abs(xr, xi, x_bits)
    if not -1075.0 < log2_x < 1024.0:
        raise TruncationLimit(
            f"modulus |x| = 2^{log2_x:.1f} is outside the binary64 range of the extended kernel")
    wp = tables.wp
    log2_p = tables.log2
    pr, pi, p_bits = tables.power(1)
    if 2 * log2_x >= log2_p:  # z = x and p/z' = p / (x p^k)
        log2_z = log2_x
        k = max(0, math.ceil(log2_z / -log2_p))
        zr, zi = _fixed((xr, xi, x_bits), wp)
        if k:
            qr, qi, q_bits = tables.power(k)
            xr, xi, x_bits = xr * qr - xi * qi, xr * qi + xi * qr, x_bits + q_bits
        yr, yi = _quotient(pr, pi, xr, xi, wp + x_bits - p_bits)
    else:  # z = p/x and p/z' = x / p^k
        log2_z = log2_p - log2_x
        k = max(0, math.ceil(log2_z / -log2_p))
        zr, zi = _quotient(pr, pi, xr, xi, wp + x_bits - p_bits)
        if k:
            qr, qi, q_bits = tables.power(k)
            yr, yi = _quotient(xr, xi, qr, qi, wp + q_bits - x_bits)
        else:
            yr, yi = _fixed((xr, xi, x_bits), wp)
    if k:
        terms, zr, zi = _theta_terms(zr, zi, tables.power(1), wp, k)
    log2_z += k * log2_p
    theta = tables.theta
    last = len(theta) - 1
    ar, ai = _horner(zr, zi, theta, min(last, _run_length(log2_z, log2_p, wp)), wp)
    br, bi = _horner(yr, yi, theta, min(last, _run_length(log2_p - log2_z, log2_p, wp)), wp)
    sr, si = ar + br - (1 << wp), ai + bi
    short = tables.need - (abs(sr) | abs(si)).bit_length()
    if short > 0:
        return short
    rr, ri, bits = tables.recip
    nr, ni, bits = sr * rr - si * ri, sr * ri + si * rr, bits + wp
    if k:
        tr, ti = terms[-1]
        nr, ni, bits = tr * nr - ti * ni, tr * ni + ti * nr, bits + wp
    return nr, ni, bits


def _rerun(x, tables: _NomeTables, short: int):
    """E(x; p) as (re, im, bits) for an x = (re, im, bits) whose theta sum on
    ``tables`` fell ``short`` bits short of ``tables.need``.

    A zero of E, x = p^m with m the integer nearest log2|x| / log2|p|, gives
    exactly 0: the test is exact, on Gaussian integers from the raw parts of
    p.  Anywhere else the series runs again on tables raised by the
    shortfall, until its sum keeps ``need`` bits.
    """
    m = round(_log2_abs(*x) / tables.log2)
    pr, pi, p_bits = _exact(tables._nome[1])
    ar, ai = 1, 0
    for bit in bin(abs(m))[2:]:  # (pr + i pi)^|m| by squaring
        ar, ai = ar * ar - ai * ai, 2 * ar * ai
        if bit == "1":
            ar, ai = ar * pr - ai * pi, ar * pi + ai * pr
    lhs, rhs = x, (ar, ai, p_bits * abs(m))
    if m < 0:  # x p^-m = 1
        (xr, xi, x_bits), rhs = x, (1, 0, 0)
        lhs = xr * ar - xi * ai, xr * ai + xi * ar, x_bits + p_bits * -m
    bits = max(lhs[2], rhs[2])
    if _fixed(lhs, bits) == _fixed(rhs, bits):
        return 0, 0, 0
    value = short
    while isinstance(value, int):
        tables = tables.raised(value)
        value = _series_fixed(*x, tables)
    return value


# The open eval_E memo (see EMemo), or None outside every scope.
_memo = None


class EMemo:
    """A ``with`` scope in which :func:`eval_E` computes each value once.

    Inside the scope, eval_E keys its results in a table that starts empty:
    an ``mpmath.mpc`` x on (x._mpc_, raw parts of p in its context), any
    other x on (type of x, type of p, x, p).
    On exit the memo open before is restored, also when the block raises.
    A hit returns the value a recomputation would give, bit for bit, since E
    is a pure function of its arguments at a fixed mpmath precision (a scope
    must not span a precision change).  ``hits`` counts the calls the table
    answered.
    ``nomes`` keeps the series tables of each nome apart from ``table`` and
    ``hits``: for the mpc series under (raw parts of p, working precision
    asked for), with log2|p| and (p; p)_inf, for the binary64 series under
    (type of p, p).  The raised tables of :func:`_rerun` are not kept.  mpc
    :func:`running_products` read only ``nomes``.  The tables depend on p
    alone, so scopes may share them: ``EMemo(nomes)`` keeps its tables in the
    dict given, which starts empty when none is.
    """

    __slots__ = ("table", "hits", "nomes", "_outer")

    def __init__(self, nomes: dict | None = None):
        self.nomes = {} if nomes is None else nomes

    def __enter__(self) -> "EMemo":
        global _memo
        self.table = {}
        self.hits = 0
        self._outer, _memo = _memo, self
        return self

    def __exit__(self, *exc) -> None:
        global _memo
        _memo = self._outer


def eval_E(x, p):
    """The elliptic kernel E(x; p) = (x; p)_inf (p/x; p)_inf.

    Exactly 1 - x when p = 0.  Zeros sit at x = p^k, k in Z.  The type of x
    picks the method: an ``mpmath.mpc`` x gets the infinite product to
    working precision, from :func:`_series_fixed` of x scaled, or near a
    zero from :func:`_rerun` of its exact parts, rounded once; any other x
    gets :func:`_theta_float`, or near its zeros the factor loops with the
    counts of :func:`_num_factors`.  Inside an :class:`EMemo` scope a
    repeated argument is looked up, not recomputed.
    """
    memo = _memo
    setup = None
    if x.__class__ is not complex and hasattr(x, "_mpc_"):
        setup = _mpc_setup(x, p)
        key = (x._mpc_, setup[4])
    elif memo is not None:
        key = (x.__class__, p.__class__, x, p)
    if memo is not None:
        value = memo.table.get(key)
        if value is not None:
            memo.hits += 1
            return value
    if not x:
        raise NonzeroRequired("E(x; p) requires x != 0")
    if setup is not None:
        if not p:
            return 1.0 - x
        tables = _nome_tables(p, setup[4], setup[3], memo)
        value = _series_fixed(*_scaled(x._mpc_, tables.wp), tables)
        if isinstance(value, int):
            value = _rerun(_exact(x._mpc_), tables, value)
        value = _to_mpc(setup, *value)
    else:
        p_abs = abs(p)
        if not p_abs < 1:
            raise NomeOutOfRange(f"|p| must be < 1, got |p| = {p_abs}")
        if not p:
            return 1.0 - x
        p_abs = float(p_abs)
        coeffs, pp_inf = _float_tables(p, p_abs, memo)
        theta = _theta_float(x, p, coeffs)
        value = _qinf_pair(x, p, p_abs) if theta is None else theta / pp_inf
    if memo is not None:
        memo.table[key] = value
    return value


def _check_degen(value, label: str, *args):
    """``value``, unless it is within DELTA_DEGEN of zero: then a pole, raised.

    The message names the factor by ``label % args``, formatted only on raise.
    """
    if abs(value) < DELTA_DEGEN:
        raise DegenerateParameters(f"{label % args}: |E| = {float(abs(value)):.3e}")
    return value


def running_products(groups: Sequence, kmax: int, p, floor: float | None = None,
                     message=None):
    """Generate P_0 = 1.0, ..., P_kmax, P_k = prod (a; base, p)_{step k} over
    the (params, base, step) ``groups`` and a in params.

    P_k is P_(k-1) times E(a base^t), t = step (k-1) .. step k - 1, group by
    group and parameter by parameter.  A factor below ``floor`` in magnitude
    raises DegenerateParameters(``message(k, a, t, magnitude)``).  For a
    nonzero ``mpmath.mpc`` p, a base^t steps by one Gaussian integer
    multiply, E is :func:`_series_fixed` at that point, or :func:`_rerun`
    near a zero, the floor test compares exponents, and P_k is block
    floating point, rounded once.  Every other p takes
    ``eval_E(a * base ** t, p)``.
    """
    yield 1.0
    if kmax < 1 or not hasattr(p, "_mpc_") or not p:
        result = 1.0
        for k in range(1, kmax + 1):
            for params, base, step in groups:
                for a in params:
                    for t in range(step * (k - 1), step * k):
                        f = eval_E(a * base ** t, p)
                        if floor is not None and abs(f) < floor:
                            raise DegenerateParameters(message(k, a, t, float(abs(f))))
                        result = result * f
            yield result
        return
    setup = _mpc_setup(p, p)
    ctx = setup[0]
    tables = _nome_tables(p, setup[4], setup[3], _memo)
    wp = tables.wp
    log2_floor = math.log2(floor) if floor is not None and floor > 0 else None
    points = [[a, _scaled(_raw_parts(ctx, base), wp), _scaled(_raw_parts(ctx, a), wp), step]
              for params, base, step in groups for a in params]
    re, im, bits = 1, 0, 0
    for k in range(1, kmax + 1):
        for point in points:
            a, (br, bi, b_bits), y, step = point
            for t in range(step * (k - 1), step * k):
                f = _series_fixed(*y, tables)
                if isinstance(f, int):
                    f = _rerun(y, tables, f)
                if log2_floor is not None and _log2_abs(*f) < log2_floor:
                    raise DegenerateParameters(message(k, a, t, 2.0 ** _log2_abs(*f)))
                fr, fi, f_bits = f
                re, im, bits = _trim(re * fr - im * fi, re * fi + im * fr, bits + f_bits, wp)
                yr, yi, y_bits = y
                y = _trim(yr * br - yi * bi, yr * bi + yi * br, y_bits + b_bits, wp)
            point[2] = y
        yield _to_mpc(setup, re, im, bits)


def _factors(a, y, nome: Nome, count: int, floor: float | None = None,
             label: str = "", offset: int = 0):
    """prod_{k<count} E(y q^k), y = a q^offset, the loop of every shifted
    factorial; a factor below ``floor`` in magnitude raises, as
    ``<label>E(a*q^<offset + k>)``.  An ``mpmath.mpc`` y takes
    :func:`running_products`."""
    q, p = nome.q, nome.p
    if y.__class__ is not complex and hasattr(y, "_mpc_"):
        *_, result = running_products(
            (((y,), q, count),), min(count, 1), p, floor,
            lambda k, y, t, magnitude: f"{label}E(a*q^{offset + t}) with a={a!r} "
                                       f"has magnitude {magnitude:.3e}")
        return result
    result = 1.0
    for k in range(count):
        f = eval_E(y, p)
        if floor is not None and abs(f) < floor:
            raise DegenerateParameters(
                f"{label}E(a*q^{offset + k}) with a={a!r} "
                f"has magnitude {float(abs(f)):.3e}")
        result = result * f
        y = y * q
    return result


def pochhammer_e(a, nome: Nome, n: int, min_factor: float | None = None):
    """Elliptic shifted factorial (a; q, p)_n for any integer n.

    n > 0: prod_{k=0}^{n-1} E(a q^k); n = 0: 1; n < 0 via the reciprocal
    convention 1 / (a q^n; q, p)_{-n}.  Reciprocal factors (and, when
    ``min_factor`` is given, direct factors too) must stay clear of zero.
    """
    if n >= 0:
        return _factors(a, a, nome, n, min_factor, "factor ")
    threshold = DELTA_DEGEN if min_factor is None else max(min_factor, DELTA_DEGEN)
    return 1.0 / _factors(a, a * nome.q ** n, nome, -n, threshold,
                          "reciprocal factor ", n)


def pochhammer_frac(a, nome: Nome, n: int):
    """(a; q, p)_n as an unreduced fraction (numerator, denominator).

    Unlike :func:`pochhammer_e` this never divides and never raises on zero
    factors, which lets callers assemble ratios whose structural zeros and
    poles cancel exactly (negative-index semantics in determinant entries).
    """
    if n >= 0:
        return _factors(a, a, nome, n), 1.0
    return 1.0, _factors(a, a * nome.q ** n, nome, -n)


def pochhammer_multi(values: Sequence, nome: Nome, n: int,
                     min_factor: float | None = None):
    """Condensed notation (a_1, ..., a_m; q, p)_n, the product over the list."""
    if not values:
        raise ValueError("pochhammer_multi requires a nonempty parameter list")
    result = 1.0
    for a in values:
        result = result * pochhammer_e(a, nome, n, min_factor=min_factor)
    return result


def pochhammer_partition(a, nome: Nome, x, parts: Sequence[int]):
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
        result = result * pochhammer_e(a * x ** (1 - i), nome, lam_i)
    return result


def _cexp(z):
    if isinstance(z, (int, float, complex)):
        return cmath.exp(z)
    import mpmath

    return mpmath.exp(z)


def theta1(z, p):
    """Odd Jacobi theta function via its product form.

    theta_1(z) = i p^{1/4} e^{-iz} (p^2; p^2)_inf E(e^{2iz}; p^2), with the
    principal branch of p^{1/4}.  The branch choice drops out of identities
    in this package because theta_1 factors only appear in balanced ratios.
    In binary64 the last two factors are theta(e^{2iz}; p^2) of
    :func:`_theta_float`, over the tables of p^2, or near its zeros (p^2;
    p^2)_inf from those tables times the factor loops of E.  For an
    ``mpmath.mpc`` p^2, (p^2; p^2)_inf is the pentagonal series of the mpc
    tables of p^2 (:class:`_NomeTables`), times :func:`eval_E`.
    """
    _nome_abs(p)
    if not p:
        return 0.0 * z
    w = _cexp(2j * z)
    p2 = p * p
    if hasattr(p2, "_mpc_"):
        setup = _mpc_setup(w, p2)
        pp_inf = _to_mpc(setup, *_nome_tables(p2, setup[4], setup[3], _memo).pp_inf)
        return 1j * p ** 0.25 * _cexp(-1j * z) * pp_inf * eval_E(w, p2)
    p2_abs = float(abs(p2))
    coeffs, pp_inf = _float_tables(p2, p2_abs, _memo)
    factor = 1j * p ** 0.25 * _cexp(-1j * z)
    if not w:
        raise NonzeroRequired("E(x; p) requires x != 0")
    theta = _theta_float(w, p2, coeffs)
    if theta is None:
        theta = pp_inf * _qinf_pair(w, p2, p2_abs)
    return factor * theta


def binom2(n: int) -> int:
    """Binomial coefficient C(n, 2) = n(n-1)/2, valid for negative n too."""
    return n * (n - 1) // 2
