"""ellipsum.wide against exact rational arithmetic rounded once.

Each part of every result must be the part of the exact result, computed
with :class:`fractions.Fraction`, rounded once to the precision of
``wide.ctx``, to nearest with ties to even; ``float()`` and ``complex()``
that value rounded once to binary64.  The operands include zero, exact
cancellation, exact ties, parts whose exponents lie hundreds of bits apart
and mantissas longer than the working precision, at 53 bits and at the 169
bits of 50 digits.  The reference is the definition of the rounding, so
no mpmath is needed here.
"""

from __future__ import annotations

import math
import operator
import random
import time
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipsum import wide

# Decimal digits of the two precisions, 53 and 169 bits.
DPS = (15, 50)
ARITH = (operator.add, operator.sub, operator.mul, operator.truediv)
ORDER = (operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne)
EXAMPLES = settings(max_examples=300, deadline=None)
HALF = Fraction(1, 2)


def dyadic(m: int, e: int) -> Fraction:
    """m 2^e."""
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


def bits_of(m: int, e: int) -> tuple:
    """The number m 2^e as (man, exp) with man odd, or (0, 0)."""
    if not m:
        return 0, 0
    z = (m & -m).bit_length() - 1
    return m >> z, e + z


def exactly(x: Fraction) -> tuple:
    """A dyadic rational as (man, exp) with man odd, or (0, 0)."""
    return bits_of(x.numerator, 1 - x.denominator.bit_length())


def rounded(x: Fraction, prec: int) -> tuple:
    """x rounded to ``prec`` significant bits, to nearest with ties to even,
    as (man, exp) with man odd, or (0, 0)."""
    if not x:
        return 0, 0
    n, d = abs(x.numerator), x.denominator
    e = n.bit_length() - d.bit_length() - prec    # 2^(prec-1) < |x| / 2^e < 2^(prec+1)
    num, den = (n, d << e) if e >= 0 else (n << -e, d)
    if num >= den << prec:
        e, den = e + 1, den << 1
    m, r = divmod(num, den)
    m += 2 * r > den or 2 * r == den and m & 1
    return bits_of(m if x > 0 else -m, e)


def rounded_sqrt(x: Fraction, prec: int) -> tuple:
    """The square root of x >= 0 rounded to ``prec`` bits, to nearest with
    ties to even, by exact comparison with the squares of the midpoints; as
    :func:`rounded`."""
    if not x:
        return 0, 0
    e = (x.numerator.bit_length() - x.denominator.bit_length()) // 2 - prec
    while x >= Fraction(4) ** e * 4 ** prec:
        e += 1
    while x < Fraction(4) ** e * 4 ** (prec - 1):
        e -= 1
    scaled = x / Fraction(4) ** e       # in [4^(prec-1), 4^prec)
    m = math.isqrt(math.floor(scaled))  # the floor of its square root
    mid = (m + HALF) ** 2
    m += mid < scaled or mid == scaled and m & 1
    return bits_of(m, e)


def binary64(x: Fraction) -> str:
    """The repr of x rounded once to binary64: 53 bits, at 2^-1074 steps
    below 2^-1022, an infinity from 2^1024, zeros of x's sign."""
    if abs(x) < Fraction(2) ** -1022:
        r = round(x * 2 ** 1074) * Fraction(2) ** -1074
    else:
        r = dyadic(*rounded(x, 53))
    sign = -1.0 if x < 0 else 1.0
    return repr(sign * math.inf if abs(r) >= 2 ** 1024 else math.copysign(float(r), sign))


class Operand(NamedTuple):
    """A number as passed to an operation, with its exact value."""
    obj: object
    re: Fraction
    im: Fraction
    complex: bool


def make(re: Fraction, im: Fraction | None = None):
    """The wide mpc re + i im of dyadic rationals, exactly, or where im is
    None the mpf re."""
    parts = (re, im or Fraction(0))
    bits = max(p.denominator.bit_length() - 1 for p in parts)
    ints = [int(p * 2 ** bits) for p in parts]
    with wide.workdps(max(abs(i).bit_length() for i in (*ints, 1))):
        z = wide.from_parts(*ints, bits)
    return z.real if im is None else z


def value(x) -> tuple:
    """The parts of a wide number, each as (man, exp) with man odd or (0, 0)."""
    re, im, bits = wide.exact_parts(x)
    return bits_of(re, -bits), bits_of(im, -bits)


def wide_operand(re: Fraction, im: Fraction | None = None) -> Operand:
    return Operand(make(re, im), re, im or Fraction(0), im is not None)


def python_operand(x) -> Operand:
    if isinstance(x, complex):
        return Operand(x, Fraction(x.real), Fraction(x.imag), True)
    return Operand(x, Fraction(x), Fraction(0), False)


def exact(fn, x: Operand, y: Operand) -> tuple:
    """fn(x, y) for one of ARITH, exactly; raises ZeroDivisionError."""
    a, b, c, d = x.re, x.im, y.re, y.im
    if fn is operator.add:
        return a + c, b + d
    if fn is operator.sub:
        return a - c, b - d
    if fn is operator.mul:
        return a * c - b * d, a * d + b * c
    mag = c * c + d * d
    if not mag:
        raise ZeroDivisionError
    return (a * c + b * d) / mag, (b * c - a * d) / mag


def exact_power(re: Fraction, im: Fraction, n: int) -> tuple:
    """(re + i im)^n exactly, from the Gaussian integer that re + i im is
    over a power of two, multiplied |n| times; raises ZeroDivisionError."""
    scale = max(re.denominator, im.denominator)
    a, b = int(re * scale), int(im * scale)
    x, y = 1, 0
    for _ in range(abs(n)):
        x, y = x * a - y * b, x * b + y * a
    den = scale ** abs(n)
    if n >= 0:
        return Fraction(x, den), Fraction(y, den)
    mag = x * x + y * y
    if not mag:
        raise ZeroDivisionError
    return Fraction(den * x, mag), Fraction(-den * y, mag)


def outcome(fn, *args):
    """What ``fn(*args)`` gives: the kind and exact parts of a wide number,
    the type and repr of any other value, or the type of the exception."""
    try:
        v = fn(*args)
    except Exception as exc:
        return type(exc)
    if isinstance(v, wide.mpc):
        return ("mpc", *value(v))
    if isinstance(v, wide.mpf):
        return "mpf", value(v)[0]
    return type(v), repr(v)


def rounded_result(parts: tuple, is_complex: bool, prec: int):
    re, im = (rounded(p, prec) for p in parts)
    return ("mpc", re, im) if is_complex else ("mpf", re)


def expected(fn, x: Operand, y: Operand, prec: int):
    """The outcome of fn(x, y) by the one rule."""
    is_complex = x.complex or y.complex
    if fn in (operator.eq, operator.ne):
        return bool, repr(fn((x.re, x.im), (y.re, y.im)))
    if fn in ORDER:
        return TypeError if is_complex else (bool, repr(fn(x.re, y.re)))
    try:
        parts = exact(fn, x, y)
    except ZeroDivisionError:
        return ZeroDivisionError
    return rounded_result(parts, is_complex, prec)


def expected_power(z: Operand, n: int, prec: int):
    try:
        return rounded_result(exact_power(z.re, z.im, n), True, prec)
    except ZeroDivisionError:
        return ZeroDivisionError


def or_none(fn, *args):
    """fn(*args), or None where it raises ZeroDivisionError."""
    try:
        return fn(*args)
    except ZeroDivisionError:
        return None


def agree(fns, x: Operand, y: Operand):
    """Each of ``fns`` on x and y, and on y and x, gives the exact result
    rounded once, at both precisions."""
    for dps in DPS:
        with wide.workdps(dps):
            prec = wide.ctx.prec
            for a, b in ((x, y), (y, x)):
                for fn in fns:
                    assert outcome(fn, a.obj, b.obj) == expected(fn, a, b, prec), (fn, prec)


def agree_unary(z: Operand):
    """abs, bool, float()/complex(), .real and .imag of z at both precisions."""
    for dps in DPS:
        with wide.workdps(dps):
            prec = wide.ctx.prec
            mag = rounded_sqrt(z.re ** 2 + z.im ** 2, prec)
            assert outcome(abs, z.obj) == ("mpf", mag)
            assert outcome(bool, z.obj) == (bool, repr(bool(z.re or z.im)))
            if z.complex:
                assert outcome(complex, z.obj) == \
                    (complex, repr(complex(float(binary64(z.re)), float(binary64(z.im)))))
                assert outcome(lambda v: v.real, z.obj) == ("mpf", exactly(z.re))
                assert outcome(lambda v: v.imag, z.obj) == ("mpf", exactly(z.im))
            else:
                assert outcome(float, z.obj) == (float, binary64(z.re))


@st.composite
def dyadics(draw, max_exp: int = 400):
    """Zero, or a mantissa of up to 200 bits, of either sign, at an
    exponent within ``max_exp``."""
    if draw(st.integers(0, 9)) == 0:
        return Fraction(0)
    bits = draw(st.integers(1, 200))
    man = draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
    return dyadic(draw(st.sampled_from((man, -man))), draw(st.integers(-max_exp, max_exp)))


def _related(draw, part: Fraction) -> Fraction:
    """A part equal to ``part``, its negation, or free."""
    how = draw(st.sampled_from(("free", "same", "negated")))
    if how == "free":
        return draw(dyadics())
    return part if how == "same" else -part


@st.composite
def reals(draw):
    return wide_operand(draw(dyadics()))


@st.composite
def complexes(draw):
    return wide_operand(draw(dyadics()), draw(dyadics()))


@st.composite
def real_pairs(draw):
    """Two mpf operands; the second may cancel the first exactly."""
    x = draw(dyadics())
    return wide_operand(x), wide_operand(_related(draw, x))


@st.composite
def complex_pairs(draw):
    """Two mpc operands; either part of the second may cancel the first's."""
    re, im = draw(dyadics()), draw(dyadics())
    return wide_operand(re, im), wide_operand(_related(draw, re), _related(draw, im))


ints = st.integers(-(1 << 80), 1 << 80).map(python_operand)
floats = st.floats(allow_nan=False, allow_infinity=False).map(python_operand)
pycomplexes = st.complex_numbers(allow_nan=False, allow_infinity=False).map(python_operand)


class TestCensus:
    """Every operation of the module docstring, in both operand orders where
    Python may dispatch either way."""

    @given(complex_pairs())
    @EXAMPLES
    def test_mpc_with_mpc(self, pair):
        agree((*ARITH, operator.eq, operator.ne), *pair)

    @given(complexes(), st.one_of(ints, floats, reals()))
    @EXAMPLES
    def test_mpc_with_real(self, z, x):
        agree((*ARITH, operator.eq, operator.ne), z, x)

    @given(complexes(), pycomplexes)
    @EXAMPLES
    def test_mpc_with_complex(self, z, c):
        agree(ARITH, z, c)

    @given(st.one_of(real_pairs(), st.tuples(reals(), st.one_of(ints, floats))))
    @EXAMPLES
    def test_mpf_with_real(self, pair):
        agree((*ARITH, *ORDER), *pair)

    @given(reals(), st.one_of(complexes(), pycomplexes))
    @EXAMPLES
    def test_mpf_with_complex(self, x, z):
        agree((*ARITH, operator.eq, operator.ne), x, z)

    @given(complexes(), st.integers(-20, 20))
    @EXAMPLES
    def test_integer_powers(self, z, n):
        for dps in DPS:
            with wide.workdps(dps):
                assert outcome(operator.pow, z.obj, n) == expected_power(z, n, wide.ctx.prec)

    def test_powers_with_parts_far_apart(self):
        # parts 100 to 3,000 bits apart: where the sticky bits of the leading
        # binomial terms stand for the rest, and where the parts lie too
        # close for that and the power is exact
        state = random.Random(20261021)
        far = 0
        for _ in range(120):
            n = state.choice((-1, 1)) * state.randint(2, 12)
            exp = state.randint(-400, 400)
            big, small = (dyadic(state.choice((m, -m)), e) for m, e in (
                (state.getrandbits(60) | 1, exp),
                (state.getrandbits(60) | 1, exp - state.randint(100, 3000))))
            z = wide_operand(*((big, small) if state.random() < 0.5 else (small, big)))
            for dps in DPS:
                with wide.workdps(dps):
                    prec = wide.ctx.prec
                    assert outcome(operator.pow, z.obj, n) == expected_power(z, n, prec)
                    far += wide._far_power(z.obj._a, z.obj._b, n, prec) is not None
        assert 0 < far < 240

    def test_power_with_parts_100000_bits_apart(self):
        # (1 + 3 2^-100000 i)^n = sum_k C(n, k) (3 i 2^-100000)^k, n = +-100:
        # each part is an alternating series whose terms fall by 2^-199980
        # or more, so its sum lies between its first term and its first two,
        # which round alike; the exact power has 10^7-bit parts
        t = Fraction(3, 2 ** 100000)
        parts = ((1, 1 - math.comb(100, 2) * t ** 2), (100 * t, 100 * t - math.comb(100, 3) * t ** 3))
        z = make(Fraction(1), t)
        with wide.workdps(50):
            want = [rounded(lo, 169) for lo, _ in parts]
            assert want == [rounded(hi, 169) for _, hi in parts]
            started = time.perf_counter()
            got = z ** 100
            assert time.perf_counter() - started < 0.5
            assert list(value(got)) == want == [(1, 0), (75, -99998)]
            parts = ((1, 1 - math.comb(101, 2) * t ** 2),
                     (-100 * t, -100 * t + math.comb(102, 3) * t ** 3))
            want = [rounded(lo, 169) for lo, _ in parts]
            assert want == [rounded(hi, 169) for _, hi in parts]
            assert list(value(z ** -100)) == want

    def test_sums_with_terms_far_apart(self):
        # a mantissa of up to 400 bits, longer than the precision, and a term
        # of 200 bits whose exponent lies 100 to 3,000 lower, so from 200
        # down wholly below it: the sticky bit rounds as that term does
        state = random.Random(20261022)
        for _ in range(300):
            bits, exp = state.randint(1, 400), state.randint(-400, 400)
            x = dyadic(state.getrandbits(bits) | 1 << (bits - 1) | 1, exp)
            low = state.getrandbits(200) | 1
            y = dyadic(state.choice((low, -low)), exp - state.randint(100, 3000))
            agree((operator.add, operator.sub), wide_operand(x, y), wide_operand(y, x))
            agree((operator.add, operator.sub), wide_operand(x), wide_operand(y))
            agree_unary(wide_operand(x, y))

    @given(complexes(), reals())
    @EXAMPLES
    def test_unary(self, z, x):
        agree_unary(z)
        agree_unary(x)

    @given(st.complex_numbers(allow_nan=False, allow_infinity=False))
    @EXAMPLES
    def test_complex_converts_exactly(self, c):
        for dps in DPS:
            with wide.workdps(dps):
                want = exactly(Fraction(c.real)), exactly(Fraction(c.imag))
                assert value(wide.ctx.convert(c)) == want
                assert value(wide.ctx.convert(c.real)) == (want[0], (0, 0))

    @given(dyadics(), st.complex_numbers(allow_nan=False, allow_infinity=False))
    @EXAMPLES
    def test_hash_is_that_of_an_equal_python_number(self, s, c):
        x = make(s, Fraction(0))
        assert hash(x.real) == hash(s)
        assert hash(wide.ctx.convert(c)) == hash(c)
        assert hash(wide.ctx.convert(c.real)) == hash(c.real)
        assert hash(x) == hash(x.real) and x == x.real
        assert len({wide.ctx.convert(3), wide.ctx.convert(3.0 + 0j), 3, 3.0}) == 1

    def test_other_operations_raise_type_error(self):
        z, x = wide.ctx.convert(1j), wide.ctx.convert(2.0)
        for fn in (operator.neg, lambda z: z ** 0.5, lambda z: z < 1, lambda z: z % 2):
            with pytest.raises(TypeError):
                fn(z)
        for fn in (operator.neg, lambda x: x ** 2):
            with pytest.raises(TypeError):
                fn(x)
        with pytest.raises(TypeError):
            wide.ctx.convert("1")


class TestKernelHelpers:
    """The part helpers the kernel takes from the module."""

    @given(dyadics(max_exp=1200), dyadics(max_exp=1200))
    @EXAMPLES
    def test_to_fixed(self, re, im):
        # exact_parts gives both parts as ints at the least bits that keeps
        # them exact; an mpf, a real mpc and Python numbers of equal value
        # give equal parts
        z = make(re, im)
        zr, zi, bits = wide.exact_parts(z)
        assert (zr * Fraction(2) ** -bits, zi * Fraction(2) ** -bits) == (re, im)
        assert (zr | zi) & 1 or zr == zi == bits == 0
        real = wide.exact_parts(make(re))
        assert real == wide.exact_parts(z.real) == wide.exact_parts(make(re, Fraction(0)))
        c = complex(z)
        if math.isfinite(c.real) and math.isfinite(c.imag):
            assert wide.exact_parts(c) == wide.exact_parts(wide.ctx.convert(c))
            assert wide.exact_parts(c.real) == wide.exact_parts(wide.ctx.convert(c.real))
        assert wide.exact_parts(6) == (3, 0, -1) and wide.exact_parts(-0.75j) == (0, -3, 2)

    @given(st.integers(-(1 << 260), 1 << 260), st.integers(-(1 << 260), 1 << 260),
           st.integers(-400, 400))
    @EXAMPLES
    def test_from_man_exp(self, re, im, bits):
        # from_parts rounds each part once, to nearest, at the precision of ctx
        for dps in DPS:
            with wide.workdps(dps):
                prec = wide.ctx.prec
                got = value(wide.from_parts(re, im, bits))
            assert got == tuple(rounded(dyadic(m, -bits), prec)
                                for m in (re, im)), prec

    @given(dyadics(max_exp=1200), dyadics(max_exp=1200))
    @EXAMPLES
    def test_to_float(self, re, im):
        # past the float range: infinities and zeros of the part's sign
        z = make(re, im)
        assert repr(float(z.real)) == binary64(re)
        assert repr(complex(z)) == repr(complex(float(binary64(re)), float(binary64(im))))

    def test_to_float_rounds_once_below_the_normal_range(self):
        # rounding to 53 bits and then to the subnormal step rounds twice
        m, e = 1173927890085576702348, -1093
        assert repr(float(make(dyadic(m, e)))) == binary64(dyadic(m, e)) == \
            "1.106257326481213e-308"
        state = random.Random(20261023)
        for _ in range(2000):
            m = state.getrandbits(70) | 1 << 69
            x = dyadic(state.choice((m, -m)), state.randint(-1154, -1082))
            assert repr(float(make(x))) == binary64(x)
        # ties to zero and at the top, and a carry to infinity
        for x in (dyadic(1, -1075), dyadic(3, -1076), dyadic((1 << 53) + 1, 970),
                  dyadic((1 << 53) + 1, 971), dyadic((1 << 54) - 1, 970),
                  dyadic(3 ** 700, 0), dyadic(3 ** 700, -3000)):   # mantissas past floats
            for part in (x, -x):
                assert repr(float(make(part))) == binary64(part)
        assert [float(make(dyadic(s, -1075))) for s in (1, -1)] == [0.0, -0.0]
        assert float(make(dyadic((1 << 54) - 1, 970))) == math.inf

    def test_constants(self):
        assert [wide.dps_to_prec(d) for d in (1, 15, 50)] == [7, 53, 169]
        assert [wide.dps_to_prec(d) for d in range(1, 120)] == \
            [round((d + 1) * math.log2(10)) for d in range(1, 120)]


def _seeded_part(state: random.Random) -> Fraction:
    """Zero one time in ten, else up to 200 bits at an exponent within 400."""
    if state.random() < 0.1:
        return Fraction(0)
    bits = state.randint(1, 200)
    man = state.getrandbits(bits) | 1 << (bits - 1)
    return dyadic(state.choice((man, -man)), state.randint(-400, 400))


def _ties(state: random.Random, prec: int):
    """Operand sets whose exact result lies halfway between two numbers of
    ``prec`` bits: (operation, operands...)."""
    lo, hi = math.isqrt(1 << prec) + 1, math.isqrt((1 << (prec + 1)) - 1)
    for _ in range(50):
        odd = state.getrandbits(prec) | 1 << prec | 1      # prec + 1 bits, odd
        tie = dyadic(odd, state.randint(-300, 300))
        y = dyadic(1, state.randint(-300, 300))
        yield operator.add, wide_operand(tie - y), wide_operand(y)
        yield operator.sub, wide_operand(tie + y, y), wide_operand(y, -y)
        f = state.getrandbits(prec // 2) | 1 << (prec // 2) | 1     # f g: prec + 1 bits, odd
        g = state.randint(-(-(1 << prec) // f), ((1 << (prec + 1)) - 1) // f) | 1
        if (f * g).bit_length() == prec + 1:
            yield operator.mul, wide_operand(dyadic(f, state.randint(-300, 300)), Fraction(0)), \
                wide_operand(dyadic(g, state.randint(-300, 300)))
        yield operator.truediv, wide_operand(tie * y, y * 5), wide_operand(y)
        # an odd square of prec + 1 bits
        root = state.randint(lo, hi) | 1
        yield operator.pow, wide_operand(dyadic(root, state.randint(-100, 100)), Fraction(0)), 2
        # a modulus halfway: (u^2 - v^2)^2 + (2 u v)^2 = (u^2 + v^2)^2, odd
        u, v = state.randint(lo, hi) & -2, state.getrandbits(prec // 3) | 1
        if (u * u + v * v).bit_length() == prec + 1:
            yield abs, wide_operand(Fraction(u * u - v * v), Fraction(2 * u * v)), None


def test_seeded_batch():
    """10,000 fixed random operand sets through every operation at 53 and
    169 bits, and sets whose exact result is a tie, so that a change to any
    rounding step shows on every run, not only on the examples hypothesis
    draws."""
    state = random.Random(20261020)
    for _ in range(10_000):
        z, w = (wide_operand(_seeded_part(state), _seeded_part(state)) for _ in range(2))
        x = wide_operand(_seeded_part(state))
        n = state.randint(-20, 20)
        exacts = [(fn, or_none(exact, fn, z, w)) for fn in ARITH]
        power = or_none(exact_power, z.re, z.im, n)
        square = z.re ** 2 + z.im ** 2
        for dps in DPS:
            with wide.workdps(dps):
                prec = wide.ctx.prec
                for fn, parts in exacts:
                    want = ZeroDivisionError if parts is None else \
                        rounded_result(parts, True, prec)
                    assert outcome(fn, z.obj, w.obj) == want, (fn, prec)
                want = ZeroDivisionError if power is None else rounded_result(power, True, prec)
                assert outcome(operator.pow, z.obj, n) == want, (n, prec)
                assert outcome(abs, z.obj) == ("mpf", rounded_sqrt(square, prec))
                assert outcome(float, x.obj) == (float, binary64(x.re))
    ties = 0
    for dps in DPS:
        with wide.workdps(dps):
            prec = wide.ctx.prec
            for fn, x, y in _ties(random.Random(prec), prec):
                if fn is abs:
                    want = ("mpf", rounded_sqrt(x.re ** 2 + x.im ** 2, prec))
                    got = outcome(abs, x.obj)
                elif fn is operator.pow:
                    want, got = expected_power(x, y, prec), outcome(fn, x.obj, y)
                else:
                    want, got = expected(fn, x, y, prec), outcome(fn, x.obj, y.obj)
                assert got == want, (fn, prec)
                ties += 1
    assert ties == 600


@given(dyadics(max_exp=3000), dyadics(max_exp=3000))
@EXAMPLES
def test_repr_shows_the_value(re, im):
    """A wide number's repr is its value in decimal, with the digits that
    give it back exactly when rounded at its mantissa's bit length."""
    texts = []
    for part in (re, im):
        text = repr(make(part))
        assert text.startswith("mpf('") and text.endswith("')")
        bits = max(abs(wide.exact_parts(make(part))[0]).bit_length(), 1)
        assert rounded(Fraction(text[5:-2]), bits) == exactly(part), text
        texts.append(text[4:-1])
    assert repr(make(re, im)) == f"mpc(real={texts[0]}, imag={texts[1]})"
