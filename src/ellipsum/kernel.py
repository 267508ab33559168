"""Elliptic building blocks: the kernel function E, shifted factorials, theta.

Everything here is a pure function of its arguments.  The basic object is

    E(x; p) = (x; p)_inf * (p/x; p)_inf,        |p| < 1,

with E(x; 0) = 1 - x recovering the classical q-case.  Shifted factorials
(a; q, p)_n are finite products of E values, extended to negative n through
the reciprocal convention, and to partition indices row by row.

The arguments are binary64 (int, float or ``complex``, subclasses
included) or extended: numbers of :mod:`ellipsum.wide`, the one extended
type, read through its exact parts (:func:`_wide_of` picks the path; any
other type, an ``mpmath.mpc`` too, raises TypeError).  Only ``+ - * /`` and
integer powers are used on parameters, so both flow through unchanged.  The
exception is E itself, which both compute by Jacobi's triple product series
over tables of the nome, in one engine: :func:`_series_fixed` over
:class:`_NomeTables` sums it on fixed-point Gaussian integers, the infinite
product to working precision, with no truncation.  Quasi-periodicity,
theta(z) = (-z)^k p^C(k,2) theta(z p^k), brings x into |p| < |x| <= 1 at a
cost of O(log k), by powers (:func:`_power`).  Where a sum cancels,
near a zero of E or as |p| nears 1, the precision rises by the bits it
lost, and an exact zero gives exactly 0 (:func:`_rerun`).  Extended values
take it at the precision of ``wide.ctx``.  Binary64 values first sum in
floating point by :func:`_theta_float` over :func:`_float_tables`, with
(p; p)_inf from Euler's pentagonal series, and where a sum cancels take the
engine at 53 + GUARD_BITS bits on the exact binary parts of x and p,
rounded once (:func:`_series_binary64`).  Extended shifted factorials
(:func:`running_products`) keep their points a q^t and products on those
integers too.  An :class:`EMemo` scope changes how often E is computed,
never its value.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import NamedTuple, Sequence

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


# Records are NamedTuples.  A NamedTuple may not define __new__, so a record
# that checks its fields subclasses the private NamedTuple of those fields
# and checks them in its __new__ (``_replace`` does not call it).
class _NomeFields(NamedTuple):
    q: complex
    p: complex


class Nome(_NomeFields):
    """The pair of bases (q, p) with q != 0 and |p| < 1.

    |q| < 1 is deliberately not required: every series in this package
    terminates, so q only has to be nonzero.  p = 0 is the classical case.
    """

    __slots__ = ()

    def __new__(cls, q, p):
        if q == 0:
            raise NonzeroRequired("base q must be nonzero")
        if not abs(p) < 1:
            raise NomeOutOfRange(f"|p| must be < 1, got |p| = {abs(p)}")
        return super().__new__(cls, q, p)

    def with_base(self, q) -> "Nome":
        return Nome(q, self.p)


# Guard bits of the fixed-point arithmetic (the triple product series and
# the extended running products): fractional bits kept beyond the working
# precision.
GUARD_BITS = 40


# Binary64 theta sums whose modulus falls below this, a loss of more than
# four bits to cancellation, give way to the fixed-point series
# (:func:`_series_binary64`), and so does a pentagonal sum for (p; p)_inf.
LOSS_FLOOR = 1 / 16


def _pentagonal(p):
    """(p; p)_inf in binary64 by Euler's pentagonal series (DLMF 27.14.3),
    1 + sum_{k>=1} (-1)^k p^(k(3k-1)/2) (1 + p^k), down to a term below 2^-60."""
    total, k, term = 1.0, 1, -p
    while abs(term) >= 2.0 ** -60:
        total += term * (1.0 + p ** k)
        k += 1
        term *= -p ** (3 * k - 2)
    return total


def _float_tables(p, memo):
    """The binary64 series tables of p: ``[coeffs, (p; p)_inf, fixed]``.

    A |p| past the largest nome raises TruncationLimit first.  ``coeffs``
    holds (-1)^n p^C(n,2) from the last n with modulus 2^-60 or more down to
    n = 0, in Horner's order.  (p; p)_inf is :func:`_pentagonal`, or below
    LOSS_FLOOR that of ``fixed``, the tables of :func:`_fixed_tables` (None
    until built), rounded.  All are kept in ``memo`` under (type of p, p).
    """
    key = (p.__class__, p)
    tables = memo.nomes.get(key) if memo is not None else None
    if tables is None:
        _check_nome(math.log2(abs(p)))
        coeffs, c, power = [], 1.0, 1.0
        while abs(c) >= 2.0 ** -60:
            # c = (-1)^n p^C(n,2) and power = p^n
            coeffs.append(c)
            c, power = -c * power, power * p
        tables = [coeffs[::-1], _pentagonal(p), None]
        if not abs(tables[1]) >= LOSS_FLOOR:
            tables[1] = _to_binary64(*_fixed_tables(p, tables).pp_inf,
                                     not isinstance(p, complex))
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
    at most 1 in modulus, so where the sum falls below LOSS_FLOOR, or where
    z or the result is not finite, the caller takes the fixed-point series
    instead; that keeps the zeros of E, x = p^k, exact.
    """
    y = p / x
    if abs(x) >= abs(y):
        z = x
    else:
        z, y = y, x
    if not cmath.isfinite(z):
        return None
    step = 1.0
    if abs(z) > 1.0:
        while abs(z) > 1.0:
            step, z = -step * z, z * p
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
def _wide():
    """:mod:`ellipsum.wide`, imported at the first extended call so binary64
    runs need not load it."""
    from . import wide
    return wide


# The binary64 scalar types, most frequent first: isinstance tries them in turn.
_BINARY64 = (complex, float, int)


def _wide_of(*values):
    """The precision of a call on ``values``: :mod:`ellipsum.wide` where any
    of them is one of its numbers, None where all are binary64 (int, float or
    complex, subclasses included).  Any other type raises TypeError.  Hot
    callers test for all-``complex`` arguments first, a class test each."""
    wide = None
    for value in values:
        if not isinstance(value, _BINARY64):
            wide = _wide()
            if value.__class__ is not wide.mpc and value.__class__ is not wide.mpf:
                raise TypeError(f"{type(value).__name__} is not a scalar of the kernel: "
                                f"it takes int, float, complex or ellipsum.wide numbers")
    return wide


def _scaled(z, wp: int):
    """z = (re, im, bits) with its larger part floored or padded to ``wp`` significant bits."""
    re, im, bits = z
    shift = (abs(re) | abs(im)).bit_length() - wp
    if shift > 0:
        return re >> shift, im >> shift, bits - shift
    return re << -shift, im << -shift, bits - shift


def _log2_abs(re: int, im: int, bits: int) -> float:
    """log2 |z| of z = (re + i im) 2^-bits at any exponent, -inf for z = 0."""
    shift = max((abs(re) | abs(im)).bit_length() - 60, 0)
    mag = math.hypot(re >> shift, im >> shift)
    return math.log2(mag) + (shift - bits) if mag else -math.inf


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
    """Terms 0..count of sum_n (-1)^n q^C(n,2) z^n, the series of the tables
    of :class:`_NomeTables`.

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
    return terms


def _power(powers: dict, n: int, wp: int | None):
    """z^n for an n >= 0 as (re, im, bits), z = ``powers[1]``.

    The halving recursion z^n = z^(n // 2) z^(n - n // 2) takes O(log n)
    products.  Each is kept in ``powers``, which holds z^1 before the first
    call (and z^0 = (1, 0, 0) where n may be 0), and floored to ``wp``
    significant bits by :func:`_scaled`, or kept exact where ``wp`` is None.
    """
    value = powers.get(n)
    if value is None:
        ar, ai, a_bits = _power(powers, n // 2, wp)
        br, bi, b_bits = _power(powers, n - n // 2, wp)
        value = ar * br - ai * bi, ar * bi + ai * br, a_bits + b_bits
        powers[n] = value = value if wp is None else _scaled(value, wp)
    return value


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


# log2 of the largest |p| of the kernel, 0.99540...: the nome at which a
# product with a 1e-40 tail needs 20,000 factors.  Nearer 1 a real p loses
# more than 500 bits to cancellation in (p; p)_inf, and a nome there raises
# TruncationLimit (:func:`_check_nome`).
_LOG2_P_MAX = math.log2(1e-40) / 19990


def _check_nome(log2_p: float) -> None:
    """Raise TruncationLimit for a log2|p| above _LOG2_P_MAX."""
    if log2_p > _LOG2_P_MAX:
        raise TruncationLimit(f"|p| = {2.0 ** log2_p!r} is too close to 1: the kernel "
                              f"takes |p| up to {2 ** _LOG2_P_MAX:.5f}")


class _NomeTables:
    """The constants of the fixed-point series for one nome p, at precision ``wp``.

    ``p`` is the nome as exact parts (re, im, bits), (re + i im) 2^-bits.
    ``log2`` is log2|p| from the scaled parts; ``powers`` caches the p^n of
    :func:`_power` at ``wp`` bits.  ``theta[n]`` = (-1)^n p^C(n,2) are the
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
    them at more bits still, for the same ``need``.  p must lie in the unit
    disk and be nonzero; a log2|p| above _LOG2_P_MAX raises TruncationLimit.
    """

    __slots__ = ("p", "log2", "need", "wp", "theta", "pp_inf", "recip", "powers")

    def __init__(self, p, wp: int, need: int | None = None):
        self.p = p
        self.need = need = wp - GUARD_BITS + 9 if need is None else need
        self.log2 = log2_p = _log2_abs(*_scaled(p, wp))
        _check_nome(log2_p)
        while True:
            self.wp = wp
            self.powers = powers = {0: (1, 0, 0), 1: _scaled(p, wp)}
            dr, di = -(1 << wp), 0
            for n in (1, 2):
                terms = _theta_terms(*_fixed(_power(powers, n, wp), wp), _power(powers, 3, wp),
                                     wp, _run_length(n * log2_p, 3 * log2_p, wp))
                dr, di = dr + sum(t[0] for t in terms), di + sum(t[1] for t in terms)
            bits = (abs(dr) | abs(di)).bit_length()
            if bits >= need:
                break
            wp += need - bits
        self.pp_inf = dr, di, wp
        self.recip = (*_quotient(1, 0, dr, di, wp + bits), bits)
        self.theta = _theta_terms(1 << wp, 0, powers[1], wp, _run_length(0.0, log2_p, wp))

    def raised(self, bits: int) -> "_NomeTables":
        """The tables of the same p and ``need`` at ``bits`` more working precision."""
        return _NomeTables(self.p, self.wp + bits, self.need)


def _nome_tables(p, p_parts, wp: int, memo) -> _NomeTables:
    """The tables of an extended p of exact parts ``p_parts``, kept in
    ``memo`` under (p_parts, wp).  A p outside the unit disk raises
    NomeOutOfRange: |p| from its parts rounded to binary64, and where that
    rounds to 1.0, checked exactly."""
    key = (p_parts, wp)
    tables = memo.nomes.get(key) if memo is not None else None
    if tables is None:
        if not abs(complex(p)) < 1.0 and not abs(p) < 1:
            raise NomeOutOfRange(f"|p| must be < 1, got |p| = {abs(complex(p))}")
        tables = _NomeTables(p_parts, wp)
        if memo is not None:
            memo.nomes[key] = tables
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
    z is the larger; k steps of theta(z) = -z theta(z p) give theta(z) =
    (-z)^k p^C(k,2) theta(z') with z' = z p^k in |p| < |z'| <= 1.  The
    prefactor and p^k are powers by :func:`_power`, O(log k) products at wp
    significant bits, and theta(z') is the sum of the runs n >= 0 from z'
    and from p/z', both by Horner's rule.  p/z' is one quotient of exact
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
            f"modulus |x| = 2^{log2_x:.1f} is outside the binary64 range of the kernel")
    wp = tables.wp
    log2_p = tables.log2
    powers = tables.powers
    pr, pi, p_bits = powers[1]
    if 2 * log2_x >= log2_p:  # z = x, z' = x p^k and p/z' = p / (x p^k)
        log2_z = log2_x
        k = max(0, math.ceil(log2_z / -log2_p))
        if k:
            minus_z = -xr, -xi, x_bits
            qr, qi, q_bits = _power(powers, k, wp)
            xr, xi, x_bits = xr * qr - xi * qi, xr * qi + xi * qr, x_bits + q_bits
        zr, zi = _fixed((xr, xi, x_bits), wp)
        yr, yi = _quotient(pr, pi, xr, xi, wp + x_bits - p_bits)
    else:  # z = p/x, z' = z p^k and p/z' = x / p^k
        log2_z = log2_p - log2_x
        k = max(0, math.ceil(log2_z / -log2_p))
        zr, zi = _quotient(pr, pi, xr, xi, wp + x_bits - p_bits)
        if k:
            minus_z = -zr, -zi, wp
            qr, qi, q_bits = _power(powers, k, wp)
            zr, zi = (zr * qr - zi * qi) >> q_bits, (zr * qi + zi * qr) >> q_bits
            yr, yi = _quotient(xr, xi, qr, qi, wp + q_bits - x_bits)
        else:
            yr, yi = _fixed((xr, xi, x_bits), wp)
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
    if k:  # times (-z)^k p^C(k,2)
        fr, fi, f_bits = _power({1: minus_z}, k, wp)
        cr, ci, c_bits = _power(powers, binom2(k), wp)
        tr, ti, t_bits = _scaled((fr * cr - fi * ci, fr * ci + fi * cr, f_bits + c_bits), wp)
        nr, ni, bits = tr * nr - ti * ni, tr * ni + ti * nr, bits + t_bits
    return nr, ni, bits


def _rerun(x, tables: _NomeTables, short: int):
    """E(x; p) as (re, im, bits) for an x = (re, im, bits) whose theta sum on
    ``tables`` fell ``short`` bits short of ``tables.need``.

    A zero of E, x = p^m with m the integer nearest log2|x| / log2|p|, gives
    exactly 0: the test is exact, on Gaussian integers from the exact parts
    of p.  Anywhere else the series runs again on tables raised by the
    shortfall, until its sum keeps ``need`` bits.
    """
    m = round(_log2_abs(*x) / tables.log2)
    ar, ai, a_bits = rhs = _power({0: (1, 0, 0), 1: tables.p}, abs(m), None)
    lhs = x
    if m < 0:  # x p^-m = 1
        (xr, xi, x_bits), rhs = x, (1, 0, 0)
        lhs = xr * ar - xi * ai, xr * ai + xi * ar, x_bits + a_bits
    bits = max(lhs[2], rhs[2])
    if _fixed(lhs, bits) == _fixed(rhs, bits):
        return 0, 0, 0
    value = short
    while isinstance(value, int):
        tables = tables.raised(value)
        value = _series_fixed(*x, tables)
    return value


def _binary_parts(z):
    """A finite binary64 z (int, float or complex) as exact parts (re, im, bits)."""
    (rn, rd), (jn, jd) = float(z.real).as_integer_ratio(), float(z.imag).as_integer_ratio()
    d = max(rd, jd)
    return rn * (d // rd), jn * (d // jd), d.bit_length() - 1


def _to_binary64(re: int, im: int, bits: int, real: bool):
    """(re + i im) 2^-bits, for any int ``bits``, rounded once to binary64 by
    Python's correctly rounded int division or int conversion, a part past
    its range to an infinity and below it to a zero, of its sign; a float
    re 2^-bits where ``real``, which leaves ``im`` unread."""
    parts = []
    for n in (re,) if real else (re, im):
        try:
            parts.append(n / (1 << bits) if bits >= 0 else float(n << -bits))
        except OverflowError:
            parts.append(math.inf if n > 0 else -math.inf)
    return parts[0] if real else complex(*parts)


def _fixed_tables(p, tables) -> _NomeTables:
    """The tables of a binary64 p at 53 + GUARD_BITS bits, kept in its ``tables``."""
    if tables[2] is None:
        tables[2] = _NomeTables(_binary_parts(p), 53 + GUARD_BITS)
    return tables[2]


def _series_binary64(x, p, tables):
    """E(x; p) for a binary64 x and p by :func:`_series_fixed`, or near a zero
    :func:`_rerun`, on the exact parts of x and the tables of
    :func:`_fixed_tables`, rounded once.  A non-finite x raises TruncationLimit.
    """
    if not cmath.isfinite(x):
        raise TruncationLimit(f"x = {x!r} is not finite")
    fixed = _fixed_tables(p, tables)
    x_parts = _binary_parts(x)
    value = _series_fixed(*x_parts, fixed)
    if isinstance(value, int):
        value = _rerun(x_parts, fixed, value)
    return _to_binary64(*value, not (isinstance(x, complex) or isinstance(p, complex)))


# The open eval_E memo (see EMemo), or None outside every scope.
_memo = None


class EMemo:
    """A ``with`` scope in which :func:`eval_E` computes each value once.

    Inside the scope, eval_E keys its results in a table that starts empty:
    an extended call on the exact parts (re, im, bits) of x and of p, which
    equal numbers share whatever their type (an mpf p and an mpc p of equal
    value are one entry), a binary64 call on (type of x, type of p, x, p).
    On exit the memo open before is restored, also when the block raises.
    A hit returns the value a recomputation would give, bit for bit, since E
    is a pure function of its arguments at a fixed context precision (a scope
    must not span a precision change).  ``hits`` counts the calls the table
    answered.
    ``nomes`` keeps the series tables of each nome apart from ``table`` and
    ``hits``: for the extended series under (exact parts of p, working
    precision asked for), with log2|p| and (p; p)_inf, for the binary64
    series under (type of p, p), with the fixed-point tables of p once a
    binary64 value has needed them.  The raised tables of :func:`_rerun` are
    not kept.  Extended :func:`running_products` read only ``nomes``.  The
    tables depend on p alone, so scopes may share them: ``EMemo(nomes)``
    keeps its tables in the dict given, which starts empty when none is.
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

    Exactly 1 - x when p = 0.  Zeros sit at x = p^k, k in Z.  The types of
    x and p pick the precision, not the method (:func:`_wide_of`): where
    either is a wide number, E is the infinite product to the precision of
    ``wide.ctx``, from :func:`_series_fixed` of the exact parts of x scaled,
    or near a zero from :func:`_rerun` of them, rounded once to an mpc; a
    binary64 pair gets :func:`_theta_float` in binary64, or where that sum
    cancels or is not finite the same fixed-point engine on its exact binary
    parts, rounded once (:func:`_series_binary64`).  Inside an
    :class:`EMemo` scope a repeated argument is looked up, not recomputed.
    """
    memo = _memo
    wide = None if x.__class__ is complex and p.__class__ is complex else _wide_of(x, p)
    if wide is not None:
        key = wide.exact_parts(x), wide.exact_parts(p)
    elif memo is not None:
        key = (x.__class__, p.__class__, x, p)
    if memo is not None:
        value = memo.table.get(key)
        if value is not None:
            memo.hits += 1
            return value
    if not x:
        raise NonzeroRequired("E(x; p) requires x != 0")
    if wide is not None:
        if not p:
            return 1.0 - wide.ctx.convert(x)
        x_parts, p_parts = key
        tables = _nome_tables(p, p_parts, wide.ctx.prec + GUARD_BITS, memo)
        value = _series_fixed(*_scaled(x_parts, tables.wp), tables)
        if isinstance(value, int):
            value = _rerun(x_parts, tables, value)
        value = wide.from_parts(*value)
    else:
        p_abs = abs(p)
        if not p_abs < 1:
            raise NomeOutOfRange(f"|p| must be < 1, got |p| = {p_abs}")
        if not p:
            return 1.0 - x
        tables = _float_tables(p, memo)
        theta = _theta_float(x, p, tables[0])
        value = _series_binary64(x, p, tables) if theta is None else theta / tables[1]
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
    raises DegenerateParameters(``message(k, a, t, magnitude)``).  Where p,
    a parameter or a base is a wide number (:func:`_wide_of`) and p is
    nonzero, a base^t steps by one Gaussian integer multiply on exact parts,
    E is :func:`_series_fixed` at that point, or :func:`_rerun` near a zero,
    the floor test compares exponents, and P_k is block floating point,
    rounded once to an mpc.  Every other call takes
    ``eval_E(a * base ** t, p)``.
    """
    yield 1.0
    wide = _wide_of(p, *(value for params, base, _ in groups for value in (base, *params)))
    if kmax < 1 or wide is None or not p:
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
    parts = wide.exact_parts
    tables = _nome_tables(p, parts(p), wide.ctx.prec + GUARD_BITS, _memo)
    wp = tables.wp
    log2_floor = math.log2(floor) if floor is not None and floor > 0 else None
    points = [[a, _scaled(parts(base), wp), _scaled(parts(a), wp), step]
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
                re, im, bits = _scaled((re * fr - im * fi, re * fi + im * fr, bits + f_bits), wp)
                yr, yi, y_bits = y
                y = _scaled((yr * br - yi * bi, yr * bi + yi * br, y_bits + b_bits), wp)
            point[2] = y
        yield wide.from_parts(re, im, bits)


def _factors(a, nome: Nome, count: int, floor: float | None = None,
             label: str = "", offset: int = 0):
    """prod_{k<count} E(y q^k), y = a q^offset, the loop of every shifted
    factorial; a factor below ``floor`` in magnitude raises, as
    ``<label>E(a*q^<offset + k>)``.  Where a, q or p is a wide number
    (:func:`_wide_of`), q is one too, and y and its factors are
    :func:`running_products`."""
    q, p = nome.q, nome.p
    if a.__class__ is complex and q.__class__ is complex and p.__class__ is complex:
        wide = None
    else:
        wide = _wide_of(a, q, p)
    if wide is not None:
        q = wide.ctx.convert(q)
    y = a * q ** offset if offset else a
    if wide is not None:
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
        return _factors(a, nome, n, min_factor, "factor ")
    threshold = DELTA_DEGEN if min_factor is None else max(min_factor, DELTA_DEGEN)
    return 1.0 / _factors(a, nome, -n, threshold, "reciprocal factor ", n)


def pochhammer_frac(a, nome: Nome, n: int):
    """(a; q, p)_n as an unreduced fraction (numerator, denominator).

    Unlike :func:`pochhammer_e` this never divides and never raises on zero
    factors, which lets callers assemble ratios whose structural zeros and
    poles cancel exactly (negative-index semantics in determinant entries).
    """
    if n >= 0:
        return _factors(a, nome, n), 1.0
    return 1.0, _factors(a, nome, -n, offset=n)


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


def theta1(z, p):
    """Odd Jacobi theta function via its product form, in binary64.

    theta_1(z) = i p^{1/4} e^{-iz} (p^2; p^2)_inf E(e^{2iz}; p^2), with the
    principal branch of p^{1/4}.  The branch choice drops out of identities
    in this package because theta_1 factors only appear in balanced ratios.
    (p^2; p^2)_inf is the pentagonal series of the tables of p^2
    (:func:`_float_tables`), times :func:`eval_E`.  z and p are int, float
    or complex; any other type, a wide number too, raises TypeError.
    """
    if _wide_of(z, p) is not None:
        raise TypeError("theta1 is binary64 only: it takes int, float or complex")
    if not abs(p) < 1:
        raise NomeOutOfRange(f"|p| must be < 1, got |p| = {abs(p)}")
    if not p:
        return 0.0 * z
    p2 = p * p
    return (1j * p ** 0.25 * cmath.exp(-1j * z) * _float_tables(p2, _memo)[1]
            * eval_E(cmath.exp(2j * z), p2))


def binom2(n: int) -> int:
    """Binomial coefficient C(n, 2) = n(n-1)/2, valid for negative n too."""
    return n * (n - 1) // 2
