"""Terminating elliptic series by direct summation, and the one evaluator of
the catalog's sides.

The central sum has summand

    E(a1 q^{2k}) / E(a1) * (a1, a4, ..., a_{r+1}; q, p)_k q^k
                         / (q, a1 q/a4, ..., a1 q/a_{r+1}; q, p)_k,

with one designated upper parameter equal to q^{-n} so that the series
terminates.  Termination is always an input (the integer ``kmax``), never
detected from floating parameter values.

One engine, :func:`vwp_terms`, sums this series and the catalog's quadratic,
cubic and quartic ones alike: each is a prefactor, a geometric weight and
shifted factorials given as (params, base, step) groups, whose products the
kernel forms term by term (:func:`ellipsum.kernel.running_products`).

Each side of a catalog identity is data, a :class:`Side`: a sum of
:class:`Term` values, each a product of :class:`Product` ratios of shifted
factorials times an optional :class:`Series` or very-well-poised
:class:`Omega` (Gasper & Rahman, *Basic Hypergeometric Series*, section
11.2).  Every parameter of a side is a monomial, written as text over the
letters of the row's point, q, and exponents affine in n: ``"a^2 q/b c d"``
is a^2 q/(b c d), ``"q^(1-n)"`` is q^(1-n) and ``"1/b"`` is 1/b.  Calling a
side at a point evaluates it; nothing of the text is parsed at import.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Sequence

from .kernel import DELTA_DEGEN, Nome, _check_degen, eval_E, running_products


def _eprefactor(entries: Sequence, p):
    """The prefactor k -> prod E(x w^{g k}) / E(x) over the (x, w, g)
    ``entries`` of a very-well-poised series: one entry E(a1 q^{gk}) / E(a1)
    for a series in one base, two for the two-base sums."""
    e_x = None
    for x, _, _ in entries:
        e = _check_degen(eval_E(x, p), "E(%r)", x)
        e_x = e if e_x is None else e_x * e

    def pref(k: int):
        if k == 0:
            return entries[0][0] * 0 + 1.0  # t_0 is exactly 1, in the type of the parameters
        value = None
        for x, w, g in entries:
            e = eval_E(x * w ** (g * k), p)
            value = e if value is None else value * e
        return value / e_x

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
    prefactor = _eprefactor(((a1, q, 2),), p)
    lowers = (q, *(a1 * q / a for a in uppers))
    return vwp_terms(prefactor, (((a1, *uppers), q, 1),), ((lowers, q, 1),), q, kmax, p)


def omega_sum(a1, uppers: Sequence, nome: Nome, kmax: int):
    """(value, scale) of the series of :func:`omega_terms`, by the compensated
    sum :func:`vwp_sum` uses."""
    return _summed(omega_terms(a1, uppers, nome, kmax))


class Product(NamedTuple):
    """(u_1, u_2, ...; B, p)_m / (v_1, v_2, ...; B, p)_m: ``num`` and ``den``
    hold the monomials u and v, ``base`` the monomial B and ``length`` the
    text of m, ``"n"``, ``"n+1"``, ``"1"``, ``"4n"``, ``"n//3"`` or
    ``"(n+2)//3"``."""

    num: tuple
    den: tuple
    base: str
    length: str


class Series(NamedTuple):
    """The series of :func:`vwp_sum`: ``pref`` holds the (x, w, g) entries of
    its prefactor prod E(x w^{g k}) / E(x) with x, w monomials, ``num`` and
    ``den`` its (monomials, base, step) groups, ``weight`` a monomial and
    ``kmax`` the text of its last index, as :class:`Product` lengths."""

    pref: tuple
    num: tuple
    den: tuple
    weight: str = "q"
    kmax: str = "n"


class Omega(NamedTuple):
    """The very-well-poised series of :func:`omega_sum` with base point
    ``point`` and the monomials ``uppers`` in the base ``base``, to the
    index ``kmax``; its lower parameters point base / u are formed on
    exponents, not in arithmetic."""

    point: str
    uppers: tuple
    base: str
    kmax: str


class Term(NamedTuple):
    """``sign`` times the product of ``products`` times ``series``, if any,
    where n % when[0] is one of when[1:]; elsewhere the term is absent."""

    products: tuple = ()
    series: Series | Omega | None = None
    sign: int = 1
    when: tuple = (1, 0)


def _affine(text: str) -> tuple:
    """(c, l) of the exponent c + l n written as ``text``: "3", "-n", "2n+1"."""
    c = l = 0
    for part in text.replace("-", "+-").split("+"):
        if part.endswith("n"):
            l += {"": 1, "-": -1}.get(part[:-1]) or int(part[:-1])
        elif part:
            c += int(part)
    return c, l


def _times(*factors) -> tuple:
    """The exponent vector of the product of (vector, power) ``factors``."""
    exponents = {}
    for vector, power in factors:
        for letter, c, l in vector:
            c0, l0 = exponents.get(letter, (0, 0))
            exponents[letter] = c0 + power * c, l0 + power * l
    return tuple(sorted((letter, c, l) for letter, (c, l) in exponents.items() if c or l))


@functools.cache
def _monomial(text: str) -> tuple:
    """The exponent vector ((letter, c, l), ...) of a monomial written as
    ``text``, the exponent of each letter c + l n, sorted by letter."""
    factors = []
    for sign, part in zip((1, -1), text.split("/")):
        for factor in part.split():
            letter, _, power = factor.partition("^")
            if letter != "1":
                c, l = _affine(power.strip("()")) if power else (1, 0)
                factors.append((((letter, c, l),), sign))
    return _times(*factors)


@functools.cache
def _length(text: str) -> tuple:
    """(c, l, d) of the count (c + l n) // d written as ``text``."""
    head, _, divisor = text.partition("//")
    return (*_affine(head.strip("()")), int(divisor or 1))


@functools.cache
def _as_series(series) -> Series:
    """A :class:`Series` as it is, an :class:`Omega` as the series it stands
    for, its lower parameters point base / u as exponent vectors."""
    if not isinstance(series, Omega):
        return series
    point, base = series.point, series.base
    lowers = tuple(_times((_monomial(point), 1), (_monomial(base), 1), (_monomial(u), -1))
                   for u in series.uppers)
    return Series(((point, base, 2),), (((point, *series.uppers), base, 1),),
                  (((base, *lowers), base, 1),), base, series.kmax)


def _pole(k, a, t, magnitude) -> str:
    return f"denominator factor E(u B^{t}) with u={a!r}: |E| = {magnitude:.3e}"


class Side(tuple):
    """One side of an identity, the sum of its :class:`Term` values: called
    at a point ``pt`` (``values``, ``n``, ``nome``), it gives (value, scale).

    The scale is |value| for a product, the largest summand for a series,
    |product| times that for a product times a series, and the largest of
    those over the terms of a sum; where no term applies both are 0.  Each
    call evaluates each distinct monomial once, in the scalar type of the
    point, and keeps nothing for the next: the two sides of an identity
    share no value.  Each :class:`Product` takes two calls of
    :func:`running_products`, one for its numerators and one for its
    denominators, whose factors below DELTA_DEGEN raise; a series is
    :func:`vwp_sum`.
    """

    __slots__ = ()

    def __new__(cls, *terms):
        return super().__new__(cls, terms)

    def __call__(self, pt):
        n, q, p = pt.n, pt.nome.q, pt.nome.p
        # the letters' powers and the monomials, each computed once
        powers = {(letter, 1): x for letter, x in dict(pt.values, q=q).items()}
        cache, one = {}, q ** 0

        def value(monomial):
            """The value of a monomial, given as text or as an exponent vector."""
            result = cache.get(monomial)
            if result is None:
                num = den = None
                for letter, c, l in _monomial(monomial) if monomial.__class__ is str else monomial:
                    e = c + l * n
                    if e:
                        x = powers.get((letter, abs(e)))
                        if x is None:
                            x = powers[letter, abs(e)] = powers[letter, 1] ** abs(e)
                        if e > 0:
                            num = x if num is None else num * x
                        else:
                            den = x if den is None else den * x
                result = one if num is None else num
                if den is not None:
                    result = result / den
                cache[monomial] = result
            return result

        def count(text):
            c, l, d = _length(text)
            return (c + l * n) // d

        def groups(spec):
            return [(tuple(map(value, ms)), value(base), step) for ms, base, step in spec]

        total = scale = None
        for term in self:
            modulus, *residues = term.when
            if n % modulus not in residues:
                continue
            val = None
            for prod in term.products:
                base, m = value(prod.base), count(prod.length)
                *_, num = running_products([(tuple(map(value, prod.num)), base, m)], 1, p)
                *_, den = running_products([(tuple(map(value, prod.den)), base, m)], 1, p,
                                           DELTA_DEGEN, _pole)
                val = num / den if val is None else val * num / den
            if val is not None:
                size = abs(val)
            if term.series is not None:
                series = _as_series(term.series)
                pref = _eprefactor([(value(x), value(w), g) for x, w, g in series.pref], p)
                s_val, s_scale = vwp_sum(pref, groups(series.num), groups(series.den),
                                         value(series.weight), count(series.kmax), p)
                val, size = (s_val, s_scale) if val is None else (val * s_val, size * s_scale)
            if term.sign != 1:
                val = val * term.sign
            total, scale = (val, size) if total is None else (total + val, max(scale, size))
        return (0.0, 0.0) if total is None else (total, scale)
