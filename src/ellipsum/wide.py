"""Extended-precision real and complex numbers, each operation rounded once.

Extended runs carry their parameters and E values as :class:`mpc`, at the
precision of :data:`ctx`: 53 bits, or ``dps_to_prec(dps)`` bits for
``dps`` decimal digits inside a :class:`workdps` scope (169 bits at 50).
The operations are:

- mpc with mpc, complex, mpf, int or float: ``+ - * /``, reflected forms
  included, and ``==``/``!=``; ``mpc ** int``; ``abs``, ``bool``,
  ``complex()``, ``.real`` and ``.imag``;
- mpf with mpf, int or float: ``+ - * /``, reflected forms included, and
  ``== != < <= > >=``; with mpc or complex: ``+ - * /``, ``==`` and ``!=``;
  ``abs``, ``bool`` and ``float()``.

Both hash as Python hashes an equal int, float or complex, so equal numbers
of any of these types are one key of a set or dict.  Anything else raises
TypeError.  A number is a pair (man, exp), the value man 2^exp, with man a
signed int that is odd, or man = exp = 0.

One rule holds for every operation: each part of the result is that part
of the exact result rounded once, to nearest with ties to even, so it is
within half a unit in its last place (correct rounding, as in Muller et
al., *Handbook of Floating-Point Arithmetic*).  A quotient is the exact
numerators over the exact |w|^2, a modulus the integer square root of the
exact sum of squares, a power z^n the exact power and, for n < 0, its
exact reciprocal; ``float()`` and ``complex()`` round to binary64 by the
kernel's ``_to_binary64``, past its range to an infinity and below it to a
zero, of the part's sign.  No
intermediate result is rounded.  Where a term lies far below another, the
work does not grow with the distance: a sticky bit stands in for it
(:func:`_sum`), and a power whose parts lie far apart rounds its leading
binomial terms with sticky bits for the rest (:func:`_far_power`).  The
``repr`` of a number shows its value in decimal.

This is the package's one extended type: the kernel reads a number by
:func:`exact_parts` and builds its results by :func:`from_parts`, on the
fixed-point integers of its series; an mpmath number raises TypeError
there, as in ``ctx.convert``.
"""

from __future__ import annotations

import math
import sys

from .kernel import _to_binary64

_ZERO = (0, 0)
_ONE = (1, 0)


def dps_to_prec(dps: int) -> int:
    """Bits for ``dps`` decimal digits, as mpmath counts them (50 -> 169)."""
    return max(1, int(round((int(dps) + 1) * 3.3219280948873626)))


def _round(m: int, e: int, prec: int):
    """m 2^e rounded to ``prec`` bits, to nearest with ties to even; as
    (man, exp) with man odd or zero."""
    n = m.bit_length() - prec
    if n > 0:
        a = -m if m < 0 else m
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


def _common(x, y):
    """x and y as ints at one exponent, the lesser of a nonzero one's:
    (xm, ym, exp)."""
    (xm, xe), (ym, ye) = x, y
    if not xm:
        return 0, ym, ye
    if not ym:
        return xm, 0, xe
    if xe <= ye:
        return xm, ym << (ye - xe), xe
    return xm << (xe - ye), ym, ye


def _sum(x, y, prec: int):
    """x + y as an unrounded (man, exp) that rounds to ``prec`` bits as the
    exact sum does: the exact sum, unless one term lies wholly below a unit
    u, the other term's last bit or prec + 2 bits under its leading bit,
    whichever is lower.  Then a sticky bit stands in for it: the other term
    plus half a unit u of its sign, between the same two multiples of u as
    the exact sum, where no rounding boundary falls."""
    sm, se = x
    tm, te = y
    if not tm:
        return x
    if not sm:
        return y
    if se < te:
        sm, se, tm, te = tm, te, sm, se
    offset = se - te
    if offset > prec:   # else the exact sum is at most prec bits longer
        u = min(se, se + sm.bit_length() - prec - 2)
        if te + tm.bit_length() <= u:
            return (sm << (se - u + 1)) + (1 if tm > 0 else -1), u - 1
    return (sm << offset) + tm, te


def _add(x, y, prec: int):
    return _round(*_sum(x, y, prec), prec)


def _sub(x, y, prec: int):
    return _add(x, (-y[0], y[1]), prec)


def _quotient(n: int, d: int, e: int, prec: int, tiny=None):
    """(n / d) 2^e for ints n and d > 0, rounded once from a quotient of at
    least prec + 2 bits and a sticky bit for its remainder.  With ``tiny``,
    the value is that times 1 - eps for some 0 < eps < 2^-tiny, which the
    sticky bit also stands for where eps n is below the quotient's last
    bit; elsewhere it gives None."""
    a = -n if n < 0 else n
    shift = max(prec + 2 + d.bit_length() - a.bit_length(), 0)
    q, r = divmod(a << shift, d)
    if tiny is not None:
        if tiny < a.bit_length() + shift:
            return None
        if not r:
            q -= 1      # q (1 - eps) lies between q - 1 and q
        r = 1
    q = q << 1 | (r != 0)
    return _round(-q if n < 0 else q, e - shift - 1, prec)


def _div(x, y, prec: int):
    (sm, se), (tm, te) = x, y
    if not tm:
        raise ZeroDivisionError
    return _quotient(sm if tm > 0 else -sm, abs(tm), se - te, prec)


def _cmul(a, b, c, d, prec: int):
    """(a + i b)(c + i d), from exact products."""
    return _sub(_mul(a, c), _mul(b, d), prec), _add(_mul(a, d), _mul(b, c), prec)


def _cdiv(a, b, c, d, prec: int):
    """(a + i b) / (c + i d): the exact numerators a c + b d and b c - a d
    over the exact c^2 + d^2."""
    cm, dm, f = _common(c, d)
    mag = cm * cm + dm * dm
    if not mag:
        raise ZeroDivisionError
    am, bm, g = _common(a, b)
    return (_quotient(am * cm + bm * dm, mag, g - f, prec),
            _quotient(bm * cm - am * dm, mag, g - f, prec))


def _hypot(a, b, prec: int):
    """|a + i b|: the integer square root of a^2 + b^2 read to 2 prec + 4
    bits, a root of prec + 2 bits as :func:`_quotient` takes, with a sticky
    bit for the rest (floor(sqrt(floor(x))) is floor(sqrt(x)))."""
    m, e = _sum(_mul(a, a), _mul(b, b), 2 * prec + 4)
    if not m:
        return _ZERO
    k = (e + m.bit_length() - 2 * prec - 4) >> 1
    if 2 * k >= e:
        n = m >> (2 * k - e)
        rest = n << (2 * k - e) != m
    else:
        n, rest = m << (e - 2 * k), False
    r = math.isqrt(n)
    return _round(2 * r + (rest or r * r != n), k - 1, prec)


def _rotate(z, n: int):
    """i^n z for parts z = (re, im)."""
    (re, im) = z
    return (z, ((-im[0], im[1]), re), ((-re[0], re[1]), (-im[0], im[1])),
            (im, (-re[0], re[1])))[n % 4]


def _far_power(a, b, n: int, prec: int):
    """(a + i b)^n for a part b that lies far below a, from the leading
    binomial terms: with t = b / a, (1 + i t)^n = (1 - eps) + i n t (1 - eps')
    for alternating series with 0 <= eps, eps' < n^2 t^2, which
    :func:`_quotient` takes as sticky bits.  None where the parts lie too
    close for that, or one is zero; b far above a turns by i^n."""
    (am, ae), (bm, be) = a, b
    if not (am and bm):
        return None
    gap = ae + am.bit_length() - be - bm.bit_length()
    if gap < 0:     # a + i b = i (b - i a)
        z = _far_power(b, (-am, ae), n, prec)
        return None if z is None else _rotate(z, n)
    if gap <= prec:     # the exact power is at most about n prec bits longer
        return None
    tiny = 2 * gap - 2 * abs(n).bit_length() - 2      # |t| < 2^(1 - gap)
    if n > 0:
        num, den = (am ** n, n * bm * am ** (n - 1)), 1
    else:
        den = am ** (1 - n)     # a^n = a / a^(1 - n)
        num = (am, n * bm) if den > 0 else (-am, -n * bm)
        den = abs(den)
    re = _quotient(num[0], den, ae * n, prec, None if n == 1 else tiny)
    im = _quotient(num[1], den, be + ae * (n - 1), prec, None if n in (1, 2) else tiny)
    return None if re is None or im is None else (re, im)


def _cpow(a, b, n: int, prec: int):
    """(a + i b)^n for an int n: the exact power, for n < 0 its exact
    reciprocal, or :func:`_far_power`."""
    if n == 0:
        return _ONE, _ZERO
    z = _far_power(a, b, n, prec)
    if z is not None:
        return z
    am, bm, e = _common(a, b)
    re, im, k = 1, 0, abs(n)
    while True:     # (am + i bm)^|n|, exactly
        if k & 1:
            re, im = re * am - im * bm, im * am + re * bm
        k >>= 1
        if not k:
            break
        am, bm = am * am - bm * bm, 2 * am * bm
    e *= abs(n)
    if n > 0:
        return _round(re, e, prec), _round(im, e, prec)
    return _cdiv(_ONE, _ZERO, (re, e), (im, e), prec)


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
        z = _complex_parts(other)
        return NotImplemented if z is None else _new_mpc(_add(z[0], self._v, prec),
                                                         _round(*z[1], prec))

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
        z = _complex_parts(other)
        return NotImplemented if z is None else _new_mpc(_sub(z[0], self._v, prec),
                                                         _round(*z[1], prec))

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
        return NotImplemented if z is None else _new_mpc(*_cdiv(self._v, _ZERO, *z, prec))

    def __rtruediv__(self, other):
        prec = _PREC[0]
        y = _real_part(other)
        if y is not None:
            return _new_mpf(_div(y, self._v, prec))
        z = _complex_parts(other)
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
        return _to_binary64(self._v[0], 0, -self._v[1], True)

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
        y = _real_part(other)
        return NotImplemented if y is None else _new_mpc(_add(self._a, y, prec),
                                                         _round(*self._b, prec))

    __radd__ = __add__

    def __sub__(self, other):
        prec = _PREC[0]
        z = _complex_parts(other)
        if z is not None:
            return _new_mpc(_sub(self._a, z[0], prec), _sub(self._b, z[1], prec))
        y = _real_part(other)
        return NotImplemented if y is None else _new_mpc(_sub(self._a, y, prec),
                                                         _round(*self._b, prec))

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
        return NotImplemented if y is None else _new_mpc(*_cdiv(y, _ZERO, self._a, self._b, prec))

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
        (ma, ea), (mb, eb) = self._a, self._b
        return complex(_to_binary64(ma, 0, -ea, True), _to_binary64(mb, 0, -eb, True))

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
    re, im, e = _common(*z)
    return re, im, -e


def from_parts(re: int, im: int, bits: int) -> mpc:
    """The mpc (re + i im) 2^-bits, each part rounded once to the precision
    of :data:`ctx`, to nearest with ties to even."""
    prec = _PREC[0]
    return _new_mpc(_round(re, -bits, prec), _round(im, -bits, prec))
