"""Extended-precision real and complex numbers, bit for bit mpmath 1.3.0's.

Extended runs carry their parameters and E values as :class:`mpc`, at the
precision of :data:`ctx`: 53 bits, or mpmath's precision for ``dps``
decimal digits inside a :class:`workdps` scope.  Every operation below gives
the parts mpmath's ``mpc`` and ``mpf`` give for the same operands at the
same precision, by the same algorithms, so a run needs no mpmath:

- mpc with mpc, complex, mpf, int or float: ``+ - * /``, reflected forms
  included, and ``==``/``!=``; ``mpc ** int``; ``abs``, ``bool``,
  ``complex()``, ``.real`` and ``.imag``;
- mpf with mpf, int or float: ``+ - * /``, reflected forms included, and
  ``== != < <= > >=``; with mpc or complex: ``+ - * /``, ``==`` and ``!=``;
  ``abs``, ``bool`` and ``float()``.

Both hash as Python hashes an equal int, float or complex, so equal numbers
of any of these types are one key of a set or dict.  Anything else raises
TypeError.  A number is a pair (man, exp), the value
man 2^exp, with man a signed int that is odd, or man = exp = 0.  Each part
of a result is rounded once, to nearest with ties to even.  Where mpmath
rounds an intermediate sum, so does this module, toward zero at mpmath's
extra bits: a quotient sums |w|^2 and its numerators at prec + 10 bits, a
modulus sums the squares at prec + 4 before the square root, and a power
n < -1 is the reciprocal of the power -n at prec + 4.  A sum whose terms lie
more than prec + 4 bits apart, with exponents more than 100 apart, rounds
the larger term nudged by one unit toward the smaller, as mpmath's
``mpf_add`` does.  One branch is not copied: for a power z^n of an mpc
whose parts lie 10000 / n bits apart or more, mpmath takes exp(n log z),
and this module the exact power rounded once, as it does for every other
mpc power; there mpmath's smaller part can be wrong, and the two differ.
The ``repr`` of a number shows its value in decimal.

This is the package's one extended type: the kernel reads a number by
:func:`exact_parts` and builds its results by :func:`from_parts`, on the
fixed-point integers of its series; an mpmath number raises TypeError
there, as in ``ctx.convert``.
"""

from __future__ import annotations

import math
import sys

_ZERO = (0, 0)
_ONE = (1, 0)


def dps_to_prec(dps: int) -> int:
    """Bits for ``dps`` decimal digits, as mpmath counts them (50 -> 169)."""
    return max(1, int(round((int(dps) + 1) * 3.3219280948873626)))


def _round(m: int, e: int, prec: int, down: bool = False):
    """m 2^e rounded to ``prec`` bits, to nearest with ties to even or, where
    ``down``, toward zero; as (man, exp) with man odd or zero."""
    n = m.bit_length() - prec
    if n > 0:
        a = -m if m < 0 else m
        if down:
            a >>= n
        else:
            t = a >> (n - 1)
            a = (t >> 1) + 1 if t & 1 and (t & 2 or a & ((1 << (n - 1)) - 1)) else t >> 1
        m = -a if m < 0 else a
        e += n
    if m & 1:
        return m, e
    if not m:
        return _ZERO
    z = (m & -m).bit_length() - 1
    return m >> z, e + z


def _from_int(n: int):
    return _round(n, 0, n.bit_length())    # exact: trailing zeros stripped


def _from_float(x: float):
    if not math.isfinite(x):
        raise ValueError(f"only finite numbers are supported, not {x!r}")
    n, d = x.as_integer_ratio()
    return _from_int(n) if d == 1 else (n, 1 - d.bit_length())


def _mul(x, y):
    """x y exactly."""
    m = x[0] * y[0]
    return (m, x[1] + y[1]) if m else _ZERO


def _add(x, y, prec: int, down: bool = False):
    """x + y rounded to ``prec`` bits: mpmath's ``mpf_add``."""
    sm, se = x
    tm, te = y
    if not (sm and tm):
        return _round(sm, se, prec, down) if sm else _round(tm, te, prec, down)
    offset = se - te
    if offset > 100 and sm.bit_length() - tm.bit_length() + offset > prec + 4:
        return _round((sm << prec + 4) + (1 if tm > 0 else -1), se - prec - 4, prec, down)
    if offset < -100 and tm.bit_length() - sm.bit_length() - offset > prec + 4:
        return _round((tm << prec + 4) + (1 if sm > 0 else -1), te - prec - 4, prec, down)
    if offset >= 0:
        return _round(tm + (sm << offset), te, prec, down)
    return _round(sm + (tm << -offset), se, prec, down)


def _sub(x, y, prec: int, down: bool = False):
    return _add(x, (-y[0], y[1]), prec, down)


def _div(x, y, prec: int, down: bool = False):
    """x / y rounded to ``prec`` bits: mpmath's ``mpf_div``, a quotient of at
    least prec + 5 bits with a sticky bit for any remainder."""
    sm, se = x
    tm, te = y
    if not tm:
        raise ZeroDivisionError
    if not sm:
        return _ZERO
    sa, ta = abs(sm), abs(tm)
    extra = max(prec - sa.bit_length() + ta.bit_length() + 5, 5)
    quot, rem = divmod(sa << extra, ta)
    if rem:
        quot = quot << 1 | 1
        extra += 1
    return _round(quot if (sm < 0) == (tm < 0) else -quot, se - te - extra, prec, down)


def _sqrt(x, prec: int):
    """sqrt(x) for x > 0, rounded to nearest: mpmath's ``mpf_sqrt``."""
    m, e = x
    if e & 1:
        m, e = m << 1, e - 1
    elif m == 1:
        return 1, e // 2
    shift = max(4, 2 * prec - m.bit_length() + 4)
    shift += shift & 1
    m <<= shift
    r = math.isqrt(m)
    if m - r * r:
        r = r << 1 | 1
        shift += 2
    return _round(r, (e - shift) // 2, prec)


def _hypot(a, b, prec: int):
    """|a + i b|: mpmath's ``mpf_hypot``, the squares summed at prec + 4 bits."""
    if not b[0]:
        return _round(abs(a[0]), a[1], prec)
    if not a[0]:
        return _round(abs(b[0]), b[1], prec)
    return _sqrt(_add(_mul(a, a), _mul(b, b), prec + 4, True), prec)


def _rpow(x, n: int, prec: int, down: bool = False):
    """x^n for an int n: mpmath's ``mpf_pow_int``.  An exact power where the
    mantissa has fewer than 1000 bits, else squarings truncated to
    prec + 4 bitcount(n) + 4 bits; n < -1 divides 1 by the power -n at
    prec + 5 bits, rounded to nearest (as rounding toward zero never asks)."""
    m, e = x
    if n == 0:
        return _ONE
    if n == 1:
        return _round(m, e, prec, down)
    if n == 2:
        return _round(m * m, 2 * e, prec, down) if m else _ZERO
    if n == -1:
        return _div(_ONE, x, prec, down)
    if n < 0:
        return _div(_ONE, _rpow(x, -n, prec + 5), prec, down)
    negative = m < 0 and n & 1
    a = abs(m)
    if a.bit_length() * n < 1000:
        p = a ** n
        return _round(-p if negative else p, e * n, prec, down)
    work = prec + 4 * n.bit_length() + 4
    pm, pe = 1, 0
    while True:
        if n & 1:
            pm, pe = pm * a, pe + e
            cut = pm.bit_length() - work
            if cut > 0:
                pm, pe = pm >> cut, pe + cut
            n -= 1
            if not n:
                break
        a, e = a * a, e + e
        cut = a.bit_length() - work
        if cut > 0:
            a, e = a >> cut, e + cut
        n //= 2
    return _round(-pm if negative else pm, pe, prec, down)


def _cmul(a, b, c, d, prec: int):
    """(a + i b)(c + i d): mpmath's ``mpc_mul``, from exact products."""
    return (_sub(_mul(a, c), _mul(b, d), prec),
            _add(_mul(a, d), _mul(b, c), prec))


def _cdiv(a, b, c, d, prec: int):
    """(a + i b) / (c + i d): mpmath's ``mpc_div``, numerators and |w|^2 at
    prec + 10 bits, rounded toward zero."""
    wp = prec + 10
    mag = _add(_mul(c, c), _mul(d, d), wp, True)
    return (_div(_add(_mul(a, c), _mul(b, d), wp, True), mag, prec),
            _div(_sub(_mul(b, c), _mul(a, d), wp, True), mag, prec))


def _real_cdiv(x, c, d, prec: int, down: bool = False):
    """x / (c + i d) for a real x: mpmath's ``mpc_mpf_div`` (``mpc_reciprocal``
    for x = 1, where c x and d x are exact)."""
    mag = _add(_mul(c, c), _mul(d, d), prec + 10, True)
    im = _div(_mul(d, x), mag, prec, down)
    return _div(_mul(c, x), mag, prec, down), (-im[0], im[1])


def _cpow(a, b, n: int, prec: int, down: bool = False):
    """(a + i b)^n for an int n: mpmath's ``mpc_pow_int``, but with the
    exact power rounded once also where mpmath takes exp(n log z)."""
    if not b[0]:
        return _rpow(a, n, prec, down), _ZERO
    if not a[0]:
        v = _rpow(b, n, prec, down)
        neg = (-v[0], v[1])
        return ((v, _ZERO), (_ZERO, v), (neg, _ZERO), (_ZERO, neg))[n % 4]
    if n == 0:
        return _ONE, _ZERO
    if n == 1:
        return _round(*a, prec, down), _round(*b, prec, down)
    if n == 2:
        im = _round(a[0] * b[0], a[1] + b[1], prec, down)
        return _sub(_mul(a, a), _mul(b, b), prec, down), (im[0], im[1] + 1)
    if n < 0:
        if n < -1:
            a, b = _cpow(a, b, -n, prec + 4, True)
        return _real_cdiv(_ONE, a, b, prec, down)
    (am, ae), (bm, be) = a, b
    gap = ae - be
    if gap > 0:
        am, ae = am << gap, be
    else:
        bm <<= -gap
    exp, re, im = n * ae, 1, 0
    while n:    # (am + i bm)^n, exactly
        if n & 1:
            re, im = re * am - im * bm, im * am + re * bm
            n -= 1
        am, bm = am * am - bm * bm, 2 * am * bm
        n //= 2
    return _round(re, exp, prec, down), _round(im, exp, prec, down)


def _decimal(x) -> str:
    """The number (man, exp) in decimal, rounded once, with at least the
    significant digits that tell it apart at its mantissa's bit length."""
    m, e = x
    if not m:
        return "0.0"
    a = abs(m)
    # 10^shift |x| has the int(bits log10 2) + 2 digits that tell x apart, or one or two more
    shift = int(a.bit_length() * 0.3010299956639812) + 2 - math.floor(
        math.log10(a) + e * 0.3010299956639812)
    num, den = (a << max(e, 0)) * 10 ** max(shift, 0), (1 << max(-e, 0)) * 10 ** max(-shift, 0)
    s = str((2 * num + den) // (2 * den))
    return f"{'-' if m < 0 else ''}{s[0]}.{s[1:].rstrip('0') or '0'}e{len(s) - 1 - shift}"


def _hash(x) -> int:
    """Python's hash of the number man 2^exp, that of an equal int or float."""
    m, e = x
    modulus = sys.hash_info.modulus     # a Mersenne prime, 2^61 - 1 on 64 bits
    h = abs(m) % modulus * pow(2, e, modulus) % modulus
    h = -h if m < 0 else h
    return -2 if h == -1 else h


def _complex_hash(a, b) -> int:
    """Python's hash of the complex number a + i b, from those of its parts."""
    width = sys.hash_info.width
    h = (_hash(a) + sys.hash_info.imag * _hash(b)) % (1 << width)
    h = h - (1 << width) if h >> (width - 1) else h
    return -2 if h == -1 else h


# The precision of ``ctx`` in bits, read by every operation.
_PREC = [53]


def _real_part(x):
    """An mpf, int or float as (man, exp); None for any other type."""
    if x.__class__ is mpf:
        return x._v
    if isinstance(x, int):
        return _from_int(x)
    if isinstance(x, float):
        return _from_float(x)
    return None


def _complex_parts(x):
    """An mpc or complex as its parts ((man, exp), (man, exp)); None otherwise."""
    if x.__class__ is mpc:
        return x._a, x._b
    if isinstance(x, complex):
        return _from_float(x.real), _from_float(x.imag)
    return None


def _as_complex(x):
    """:func:`_complex_parts` of x, or those of a real x with imaginary part 0."""
    z = _complex_parts(x)
    if z is None:
        y = _real_part(x)
        z = None if y is None else (y, _ZERO)
    return z


def _new_mpf(v) -> "mpf":
    x = object.__new__(mpf)
    x._v = v
    return x


def _new_mpc(a, b) -> "mpc":
    z = object.__new__(mpc)
    z._a, z._b = a, b
    return z


class mpf:
    """A real number (man, exp) of this module; see the module docstring."""

    __slots__ = ("_v",)

    def __add__(self, other):
        prec = _PREC[0]
        y = _real_part(other)
        if y is not None:
            return _new_mpf(_add(self._v, y, prec))
        z = _complex_parts(other)   # mpmath's mpc_add_mpf: the imaginary part as it is
        return NotImplemented if z is None else _new_mpc(_add(z[0], self._v, prec), z[1])

    __radd__ = __add__

    def __sub__(self, other):
        prec = _PREC[0]
        y = _real_part(other)
        if y is not None:
            return _new_mpf(_sub(self._v, y, prec))
        z = _complex_parts(other)
        return NotImplemented if z is None else _new_mpc(_sub(self._v, z[0], prec),
                                                         _sub(_ZERO, z[1], prec))

    def __rsub__(self, other):
        prec = _PREC[0]
        y = _real_part(other)
        if y is not None:
            return _new_mpf(_sub(y, self._v, prec))
        z = _complex_parts(other)   # mpmath's mpc_sub_mpf
        return NotImplemented if z is None else _new_mpc(_sub(z[0], self._v, prec), z[1])

    def __mul__(self, other):
        prec = _PREC[0]
        y = _real_part(other)
        v = self._v
        if y is not None:
            return _new_mpf(_round(v[0] * y[0], v[1] + y[1], prec))
        z = _complex_parts(other)
        if z is None:
            return NotImplemented
        (am, ae), (bm, be) = z
        return _new_mpc(_round(am * v[0], ae + v[1], prec), _round(bm * v[0], be + v[1], prec))

    __rmul__ = __mul__

    def __truediv__(self, other):
        prec = _PREC[0]
        y = _real_part(other)
        if y is not None:
            return _new_mpf(_div(self._v, y, prec))
        z = _complex_parts(other)
        return NotImplemented if z is None else _new_mpc(*_real_cdiv(self._v, *z, prec))

    def __rtruediv__(self, other):
        prec = _PREC[0]
        y = _real_part(other)
        if y is not None:
            return _new_mpf(_div(y, self._v, prec))
        z = _complex_parts(other)   # mpmath's mpc_div_mpf
        return NotImplemented if z is None else _new_mpc(_div(z[0], self._v, prec),
                                                         _div(z[1], self._v, prec))

    def __abs__(self):
        m, e = self._v
        return _new_mpf(_round(abs(m), e, _PREC[0]))

    def __repr__(self):
        return f"mpf('{_decimal(self._v)}')"

    def __bool__(self):
        return self._v[0] != 0

    def __hash__(self):
        return _hash(self._v)

    def __float__(self):
        return _to_float(*self._v)

    def _compare(self, other):
        """The sign of self - other, or None for another type: that of the
        difference rounded to one bit, which rounding never changes."""
        y = _real_part(other)
        return None if y is None else _sub(self._v, y, 1)[0]

    def __eq__(self, other):
        z = _as_complex(other)
        return NotImplemented if z is None else (self._v, _ZERO) == z

    def __ne__(self, other):
        z = _as_complex(other)
        return NotImplemented if z is None else (self._v, _ZERO) != z

    def __lt__(self, other):
        c = self._compare(other)
        return NotImplemented if c is None else c < 0

    def __le__(self, other):
        c = self._compare(other)
        return NotImplemented if c is None else c <= 0

    def __gt__(self, other):
        c = self._compare(other)
        return NotImplemented if c is None else c > 0

    def __ge__(self, other):
        c = self._compare(other)
        return NotImplemented if c is None else c >= 0


class mpc:
    """A complex number of two parts (man, exp); see the module docstring."""

    __slots__ = ("_a", "_b")

    @property
    def real(self) -> mpf:
        return _new_mpf(self._a)

    @property
    def imag(self) -> mpf:
        return _new_mpf(self._b)

    def __add__(self, other):
        prec = _PREC[0]
        z = _complex_parts(other)
        if z is not None:
            return _new_mpc(_add(self._a, z[0], prec), _add(self._b, z[1], prec))
        y = _real_part(other)   # mpmath's mpc_add_mpf: the imaginary part as it is
        return NotImplemented if y is None else _new_mpc(_add(self._a, y, prec), self._b)

    __radd__ = __add__

    def __sub__(self, other):
        prec = _PREC[0]
        z = _complex_parts(other)
        if z is not None:
            return _new_mpc(_sub(self._a, z[0], prec), _sub(self._b, z[1], prec))
        y = _real_part(other)   # mpmath's mpc_sub_mpf
        return NotImplemented if y is None else _new_mpc(_sub(self._a, y, prec), self._b)

    def __rsub__(self, other):
        prec = _PREC[0]
        z = _as_complex(other)
        if z is None:
            return NotImplemented
        return _new_mpc(_sub(z[0], self._a, prec), _sub(z[1], self._b, prec))

    def __mul__(self, other):
        prec = _PREC[0]
        z = _complex_parts(other)
        if z is not None:
            return _new_mpc(*_cmul(self._a, self._b, *z, prec))
        y = _real_part(other)
        if y is None:
            return NotImplemented
        (am, ae), (bm, be) = self._a, self._b
        return _new_mpc(_round(am * y[0], ae + y[1], prec), _round(bm * y[0], be + y[1], prec))

    __rmul__ = __mul__

    def __truediv__(self, other):
        prec = _PREC[0]
        z = _complex_parts(other)
        if z is not None:
            return _new_mpc(*_cdiv(self._a, self._b, *z, prec))
        y = _real_part(other)
        return NotImplemented if y is None else _new_mpc(_div(self._a, y, prec),
                                                         _div(self._b, y, prec))

    def __rtruediv__(self, other):
        prec = _PREC[0]
        z = _complex_parts(other)
        if z is not None:
            return _new_mpc(*_cdiv(*z, self._a, self._b, prec))
        y = _real_part(other)
        return NotImplemented if y is None else _new_mpc(*_real_cdiv(y, self._a, self._b, prec))

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        return _new_mpc(*_cpow(self._a, self._b, n, _PREC[0]))

    def __abs__(self) -> mpf:
        return _new_mpf(_hypot(self._a, self._b, _PREC[0]))

    def __repr__(self):
        return f"mpc(real='{_decimal(self._a)}', imag='{_decimal(self._b)}')"

    def __bool__(self):
        return bool(self._a[0] or self._b[0])

    def __hash__(self):
        return _complex_hash(self._a, self._b)

    def __complex__(self):
        return complex(_to_float(*self._a), _to_float(*self._b))

    def __eq__(self, other):
        z = _as_complex(other)
        return NotImplemented if z is None else (self._a, self._b) == z

    def __ne__(self, other):
        z = _as_complex(other)
        return NotImplemented if z is None else (self._a, self._b) != z


class _Context:
    """The precision of this module's numbers, and conversion to them."""

    __slots__ = ()

    @property
    def prec(self) -> int:
        return _PREC[0]

    def convert(self, x):
        """x as an mpf or mpc: unchanged if it is one, else an int, a float or
        a complex, exactly."""
        if x.__class__ is mpf or x.__class__ is mpc:
            return x
        z = _complex_parts(x)
        if z is not None:
            return _new_mpc(*z)
        y = _real_part(x)
        if y is None:
            raise TypeError(f"cannot convert {type(x).__name__} to a wide number")
        return _new_mpf(y)


ctx = _Context()


class workdps:
    """``with workdps(dps):`` runs its block at ``dps_to_prec(dps)`` bits and
    restores the precision before it on exit, also when the block raises.
    One instance may be entered again once it has exited."""

    __slots__ = ("prec", "_outer")

    def __init__(self, dps: int):
        self.prec = dps_to_prec(dps)

    def __enter__(self):
        self._outer, _PREC[0] = _PREC[0], self.prec

    def __exit__(self, *exc):
        _PREC[0] = self._outer


def exact_parts(x):
    """x, a number of this module or an int, float or complex, as exact
    parts (re, im, bits): x = (re + i im) 2^-bits with the least ``bits``
    that makes both parts integers, so equal numbers give equal parts.  Any
    other type raises TypeError, and a float part that is not finite
    ValueError."""
    z = _as_complex(x)
    if z is None:
        raise TypeError(f"cannot convert {type(x).__name__} to a wide number")
    (am, ae), (bm, be) = z
    if not bm:
        return am, 0, -ae
    if not am:
        return 0, bm, -be
    if ae <= be:
        return am, bm << (be - ae), -ae
    return am << (ae - be), bm, -be


def from_parts(re: int, im: int, bits: int) -> mpc:
    """The mpc (re + i im) 2^-bits, each part rounded once to the precision
    of :data:`ctx`, to nearest with ties to even."""
    prec = _PREC[0]
    return _new_mpc(_round(re, -bits, prec), _round(im, -bits, prec))


def _to_float(m: int, e: int) -> float:
    """m 2^e rounded to 53 bits, to nearest, then by ``math.ldexp``: past the
    float range an infinity, and below it 0.0 (mpmath's ``to_float``)."""
    if m.bit_length() > 53:
        m, e = _round(m, e, 53)
    try:
        return math.ldexp(m, e)
    except OverflowError:
        if e + m.bit_length() > 0:
            return math.inf if m > 0 else -math.inf
        return 0.0
