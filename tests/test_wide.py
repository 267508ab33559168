"""ellipsum.wide against mpmath 1.3.0, the arithmetic it copies.

Every operation that extended runs use must give mpmath's raw parts
(sign, man, exp, bc) bit for bit, at 53 bits and at the 169 bits of 50
digits, on operands that include zero, exact cancellation, parts whose
exponents lie hundreds of bits apart and mantissas longer than the working
precision; the two part helpers of the kernel must match libmp's.  The
one exception is an mpc power where mpmath takes exp(n log z): there
``wide`` gives the exact power rounded once (:func:`_mp_power`).  Numbers
cross between the two libraries exactly, by ``conftest.to_wide`` and
``conftest.to_mp``.
"""

from __future__ import annotations

import cmath
import operator
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import libmp

from ellipsum import wide

from conftest import signed_parts, to_mp, to_wide

# Decimal digits of the two precisions, 53 and 169 bits on both sides.
DPS = (15, 50)
ARITH = (operator.add, operator.sub, operator.mul, operator.truediv)
ORDER = (operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne)
EXAMPLES = settings(max_examples=300, deadline=None)


@st.composite
def raw_parts(draw, max_exp: int = 400):
    """mpmath's raw parts of a finite number: zero, or a mantissa of up to
    200 bits, of either sign, at an exponent within ``max_exp``."""
    if draw(st.integers(0, 9)) == 0:
        return libmp.fzero
    bits = draw(st.integers(1, 200))
    man = draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
    return libmp.from_man_exp(draw(st.sampled_from((man, -man))),
                              draw(st.integers(-max_exp, max_exp)))


def _related(draw, parts):
    """Parts equal to ``parts``, their negation, or free."""
    how = draw(st.sampled_from(("free", "same", "negated")))
    if how == "free":
        return draw(raw_parts())
    return parts if how == "same" else libmp.mpf_neg(parts)


def _mpf(parts):
    x = mpmath.mp.make_mpf(parts)
    return x, to_wide(x)


def _mpc(parts):
    z = mpmath.mp.make_mpc(parts)
    return z, to_wide(z)


@st.composite
def reals(draw):
    """An (mpmath, wide) mpf pair."""
    return _mpf(draw(raw_parts()))


@st.composite
def complexes(draw):
    """An (mpmath, wide) mpc pair."""
    return _mpc((draw(raw_parts()), draw(raw_parts())))


@st.composite
def real_pairs(draw):
    """Two mpf pairs; the second may cancel the first exactly."""
    x = draw(raw_parts())
    return _mpf(x), _mpf(_related(draw, x))


@st.composite
def complex_pairs(draw):
    """Two mpc pairs; either part of the second may cancel the first's."""
    re, im = draw(raw_parts()), draw(raw_parts())
    return _mpc((re, im)), _mpc((_related(draw, re), _related(draw, im)))


def _python(values):
    """Python numbers as (mpmath, wide) pairs of themselves."""
    return values.map(lambda v: (v, v))


ints = _python(st.integers(-(1 << 80), 1 << 80))
floats = _python(st.floats(allow_nan=False, allow_infinity=False))
pycomplexes = _python(st.complex_numbers(allow_nan=False, allow_infinity=False))


def _outcome(fn, *args):
    """What ``fn(*args)`` gives: the kind and raw parts of an mpf or mpc, the
    type and repr of any other value, or the type of the exception raised."""
    try:
        value = fn(*args)
    except Exception as exc:
        return type(exc)
    if isinstance(value, (wide.mpc, wide.mpf)):
        value = to_mp(value)
    for kind in ("_mpc_", "_mpf_"):
        if hasattr(value, kind):
            return kind, getattr(value, kind)
    return type(value), repr(value)


def _agree(fns, *operands):
    """Each of ``fns`` gives mpmath's outcome on the (mpmath, wide) operands,
    at both precisions."""
    for dps in DPS:
        with mpmath.workdps(dps), wide.workdps(dps):
            assert mpmath.mp.prec == wide.ctx.prec
            for fn in fns:
                want = _outcome(fn, *(m for m, _ in operands))
                got = _outcome(fn, *(w for _, w in operands))
                assert got == want, (fn, dps)


def _mp_power(z, n: int):
    """z ** n for an mpmath mpc z at the current precision: mpmath's value,
    except where mpmath takes exp(n log z), for parts 10000 / |n| bits apart
    or more.  There it is the exact power, a product of |n| factors at a
    precision that keeps it exact, with each part rounded once to nearest;
    for n < 0 the reciprocal of the power -n rounded toward zero at 4 more
    bits, as mpmath forms negative powers."""
    (_, am, ae, ab), (_, bm, be, bb) = z._mpc_
    size = abs(n) * (abs(ae - be) + max(ab, bb))
    if not (abs(n) > 2 and am and bm and size >= 10000):
        return z ** n
    prec = mpmath.mp.prec
    with mpmath.workprec(size + 10):
        exact = z
        for _ in range(abs(n) - 1):
            exact *= z
    if n > 0:
        return mpmath.mp.make_mpc(tuple(libmp.mpf_pos(part, prec, libmp.round_nearest)
                                        for part in exact._mpc_))
    down = tuple(libmp.mpf_pos(part, prec + 4, libmp.round_down) for part in exact._mpc_)
    return mpmath.mp.make_mpc(libmp.mpc_reciprocal(down, prec, libmp.round_nearest))


def _power(n: int):
    """z ** n on either side, with :func:`_mp_power` on the mpmath side."""
    return lambda z, *_: _mp_power(z, n) if isinstance(z, mpmath.mpc) else z ** n


def _both_ways(fns):
    return (*fns, *(lambda a, b, fn=fn: fn(b, a) for fn in fns))


class TestCensus:
    """Every operation of the module docstring, in both operand orders where
    Python may dispatch either way."""

    @given(complex_pairs())
    @EXAMPLES
    def test_mpc_with_mpc(self, pair):
        _agree((*ARITH, operator.eq, operator.ne), *pair)

    @given(complexes(), st.one_of(ints, floats, reals()))
    @EXAMPLES
    def test_mpc_with_real(self, z, x):
        _agree(_both_ways(ARITH), z, x)
        _agree((operator.eq, operator.ne), z, x)

    @given(complexes(), pycomplexes)
    @EXAMPLES
    def test_mpc_with_complex(self, z, c):
        _agree(_both_ways(ARITH), z, c)

    @given(st.one_of(real_pairs(), st.tuples(reals(), st.one_of(ints, floats))))
    @EXAMPLES
    def test_mpf_with_real(self, pair):
        _agree((*_both_ways(ARITH), *ORDER), *pair)

    @given(reals(), st.one_of(complexes(), pycomplexes))
    @EXAMPLES
    def test_mpf_with_complex(self, x, z):
        _agree((*_both_ways(ARITH), operator.eq, operator.ne), x, z)

    @given(complexes(), st.integers(-12, 12))
    @EXAMPLES
    def test_integer_powers(self, z, n):
        _agree((_power(n),), z)

    def test_powers_where_mpmath_takes_exp_log(self):
        # parts 3,400 to 20,000 bits apart, past mpmath's 10000 / |n|: the
        # exact power, rounded once, where mpmath's exp(n log z) can lose
        # the smaller part of the result
        state = random.Random(20261020)
        moved = 0
        for _ in range(100):
            n = state.choice((-1, 1)) * state.randint(3, 12)
            exp = state.randint(-400, 400)
            big, small = (libmp.from_man_exp(state.choice((m, -m)), e) for m, e in (
                (state.getrandbits(60) | 1, exp),
                (state.getrandbits(60) | 1, exp - state.randint(3400, 20000))))
            parts = (big, small) if state.random() < 0.5 else (small, big)
            z = _mpc(parts)
            _agree((_power(n),), z)
            with mpmath.workdps(50):
                moved += _mp_power(z[0], n) != z[0] ** n
        assert moved > 0

    @given(complexes(), reals())
    @EXAMPLES
    def test_unary(self, z, x):
        _agree((abs, bool, complex, lambda z: z.real, lambda z: z.imag), z)
        _agree((abs, bool, float), x)

    @given(st.complex_numbers(allow_nan=False, allow_infinity=False))
    @EXAMPLES
    def test_complex_converts_exactly(self, c):
        for dps in DPS:
            with mpmath.workdps(dps), wide.workdps(dps):
                assert to_mp(wide.ctx.convert(c))._mpc_ == mpmath.mpc(c)._mpc_ == \
                    mpmath.mp.convert(c)._mpc_

    @given(raw_parts(), st.complex_numbers(allow_nan=False, allow_infinity=False))
    @EXAMPLES
    def test_hash_is_that_of_an_equal_python_number(self, s, c):
        sign, man, exp, _ = s
        x = to_wide(mpmath.mp.make_mpc((s, libmp.fzero)))
        assert hash(x.real) == hash(Fraction((-man if sign else man) * Fraction(2) ** exp))
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
    """The part helpers the kernel takes from the module, against libmp's."""

    @given(raw_parts(max_exp=1200), raw_parts(max_exp=1200))
    @EXAMPLES
    def test_to_fixed(self, re, im):
        # exact_parts is libmp's to_fixed of both parts at the least bits
        # that keeps them exact; an mpf, a real mpc and Python numbers of
        # equal value give equal parts
        z = to_wide(mpmath.mp.make_mpc((re, im)))
        zr, zi, bits = wide.exact_parts(z)
        assert (zr, zi) == (libmp.to_fixed(re, bits), libmp.to_fixed(im, bits))
        assert (zr | zi) & 1 or zr == zi == bits == 0
        real = wide.exact_parts(to_wide(mpmath.mp.make_mpf(re)))
        assert real == wide.exact_parts(z.real) == \
            wide.exact_parts(to_wide(mpmath.mp.make_mpc((re, libmp.fzero))))
        c = complex(z)
        if cmath.isfinite(c):
            assert wide.exact_parts(c) == wide.exact_parts(wide.ctx.convert(c))
            assert wide.exact_parts(c.real) == wide.exact_parts(wide.ctx.convert(c.real))
        assert wide.exact_parts(6) == (3, 0, -1) and wide.exact_parts(-0.75j) == (0, -3, 2)
        with pytest.raises(TypeError):
            wide.exact_parts(mpmath.mp.make_mpc((re, im)))

    @given(st.integers(-(1 << 260), 1 << 260), st.integers(-(1 << 260), 1 << 260),
           st.integers(-400, 400))
    @EXAMPLES
    def test_from_man_exp(self, re, im, bits):
        # from_parts rounds each part once, to nearest, at the precision of ctx
        for dps in DPS:
            with wide.workdps(dps):
                got = to_mp(wide.from_parts(re, im, bits))._mpc_
                prec = wide.ctx.prec
            assert got == tuple(libmp.from_man_exp(m, -bits, prec, libmp.round_nearest)
                                for m in (re, im)), prec

    @given(raw_parts(max_exp=1200), raw_parts(max_exp=1200))
    @EXAMPLES
    def test_to_float(self, re, im):
        # past the float range: infinities and zeros, as libmp gives them
        z = to_wide(mpmath.mp.make_mpc((re, im)))
        want = [libmp.to_float(part, False, libmp.round_nearest) for part in (re, im)]
        assert repr(float(z.real)) == repr(want[0])
        assert repr(complex(z)) == repr(complex(*want))

    def test_constants(self):
        assert [wide.dps_to_prec(d) for d in range(1, 120)] == \
            [libmp.dps_to_prec(d) for d in range(1, 120)]


def test_seeded_batch():
    """2,000 fixed random pairs of mpc through every arithmetic operation, and
    mantissas rounded at an exact tie, so that a change to any rounding step
    shows on every run, not only on the examples hypothesis draws."""
    state = random.Random(20261020)

    def parts():
        bits = state.randint(1, 200)
        man = state.getrandbits(bits) | 1 << (bits - 1)
        return libmp.from_man_exp(state.choice((man, -man)), state.randint(-400, 400))

    for _ in range(2000):
        re, im = parts(), parts()
        z, w = _mpc((re, im)), _mpc((parts(), parts()))
        n = state.randint(-12, 12)
        _agree((*ARITH, lambda z, w: abs(z), _power(n)), z, w)
        _agree((_power(n),), _mpc((re, libmp.fzero)))
        _agree((_power(n),), _mpc((libmp.fzero, im)))
    for prec in (53, 169):
        for _ in range(200):
            # s ends in 40 bits just below half a unit at ``prec`` bits, t
            # lies 110 exponents and prec + 30 bits lower and would carry
            # into it, so mpmath's nudged sum and the exact one round apart
            man = (state.getrandbits(prec) | 1 << prec - 1) << 40 | (1 << 39) - 1
            tiny = state.getrandbits(120) | 1 << 119
            exp = state.randint(-400, 400)
            s, t = (_mpf(libmp.from_man_exp(m, e)) for m, e in
                    ((state.choice((man, -man)), exp), (state.choice((tiny, -tiny)), exp - 110)))
            with mpmath.workprec(prec), wide.workdps(15 if prec == 53 else 50):
                for fn in (operator.add, operator.sub):
                    for x, y in ((s, t), (t, s)):
                        assert to_mp(fn(x[1], y[1]))._mpf_ == fn(x[0], y[0])._mpf_
    for _ in range(200):
        # x 2^k + 2^(k-1), halfway between two neighbours of x.bit_length() bits
        x, k = state.getrandbits(state.randint(1, 200)) | 1, state.randint(1, 60)
        man = x << k | 1 << (k - 1)
        for down, rnd in ((False, libmp.round_nearest), (True, libmp.round_down)):
            for m in (man, -man, man << 1):
                assert wide._round(m, 3, x.bit_length(), down) == \
                    signed_parts(libmp.from_man_exp(m, 3, x.bit_length(), rnd))


@given(raw_parts(), raw_parts())
@EXAMPLES
def test_converters_round_trip(re, im):
    """conftest.to_wide and to_mp carry a number across exactly both ways,
    at 53 and 169 bits and for mantissas longer than either."""
    for dps in DPS:
        with mpmath.workdps(dps), wide.workdps(dps):
            z = mpmath.mp.make_mpc((re, im))
            w = to_wide(z)
            assert isinstance(w, wide.mpc) and to_mp(w)._mpc_ == z._mpc_
            assert wide.exact_parts(to_wide(to_mp(w))) == wide.exact_parts(w)
            x = to_wide(mpmath.mp.make_mpf(re))
            assert isinstance(x, wide.mpf) and to_mp(x)._mpf_ == re


@given(raw_parts(max_exp=3000), raw_parts(max_exp=3000))
@EXAMPLES
def test_repr_shows_the_value(re, im):
    """A wide number's repr is its value in decimal, with the digits that
    give it back exactly where mpmath parses it at its mantissa's bit length."""
    texts = []
    for part in (re, im):
        text = repr(to_wide(mpmath.mp.make_mpf(part)))
        with mpmath.workprec(max(part[3], 1)):
            assert eval(text, {"mpf": mpmath.mpf}) == mpmath.mp.make_mpf(part), text
        texts.append(text[4:-1])
    assert repr(to_wide(mpmath.mp.make_mpc((re, im)))) == f"mpc(real={texts[0]}, imag={texts[1]})"
