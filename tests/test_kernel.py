import cmath
import math
import random
import sys
import time

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipsum import (
    DegenerateParameters,
    Nome,
    NomeOutOfRange,
    NonzeroRequired,
    TruncationLimit,
    eval_E,
    pochhammer_e,
    pochhammer_partition,
    theta1,
)
from ellipsum import kernel, suites, wide
from ellipsum.catalog import ParamPoint
from ellipsum.series import Product, Side, Term, vwp_terms
from ellipsum.kernel import DELTA_DEGEN, binom2, pochhammer_frac

from conftest import bits, rel_err, to_mp, to_wide, workdps
from oracles import (
    infinite_product_E,
    theta_sine_series,
    truncated_product_E,
)

# Frozen from the independent 50-term product oracle.
E_HALF_AT_P01 = 0.3695093618569191
# Frozen from the 31-term sine series oracle.
THETA_03_AT_P02 = 0.3534305437476245 + 0.0j


def complex_in(lo, hi):
    return st.builds(
        lambda m, ph: m * cmath.exp(1j * ph),
        st.floats(lo, hi), st.floats(0.0, 2.0 * cmath.pi))


class TestEvalE:
    def test_classical_case_is_linear(self):
        assert eval_E(0.5, 0) == 0.5
        assert eval_E(2.0 + 1.0j, 0.0) == -1.0 - 1.0j

    def test_reflection_at_fixed_point(self):
        x, p = 0.7 + 0.2j, 0.1
        assert rel_err(eval_E(x, p), -x * eval_E(1 / x, p)) <= 1e-12

    def test_against_truncated_product_oracle(self):
        assert abs(eval_E(0.5, 0.1) - E_HALF_AT_P01) <= 1e-14
        assert abs(eval_E(0.5, 0.1) - truncated_product_E(0.5, 0.1)) <= 1e-14

    def test_rejects_zero_argument(self):
        with pytest.raises(NonzeroRequired):
            eval_E(0.0, 0.1)

    def test_rejects_nome_outside_disk(self):
        with pytest.raises(NomeOutOfRange):
            eval_E(0.5, 1.0)

    def test_zero_at_one_is_exact(self):
        assert eval_E(1.0, 0.37) == 0.0

    def test_truncation_adapts_to_large_arguments(self, monkeypatch):
        # |x| >> 1 takes k = ceil(log2|x| / -log2|p|) steps theta(z) =
        # -z theta(z p) into |p| < |z'| <= 1 before the sums: the terms the
        # series covers grow with |x|, and no tail is cut.  The prefactor
        # (-z)^k is one power by halving, O(log k) products.
        p = 0.3
        fixed = kernel._NomeTables(kernel._binary_parts(p), 53 + kernel.GUARD_BITS)
        steps = []
        power = kernel._power

        def counting(powers, n, wp):
            if powers is not fixed.powers:  # powers of z, not of the nome
                steps.append(n)
            return power(powers, n, wp)

        monkeypatch.setattr(kernel, "_power", counting)
        for x, k in ((2.0 + 0.0j, 1), (1e8 + 0.0j, 16)):
            steps.clear()
            value = kernel._series_fixed(*kernel._binary_parts(x), fixed)
            assert steps[0] == max(steps) == k
            assert len(steps) <= 2 * k.bit_length() + 1
            want = truncated_product_E(x, p, 200)
            assert rel_err(kernel._to_binary64(*value, False), want) <= 1e-12
            assert rel_err(eval_E(x, p), want) <= 1e-12
        monkeypatch.undo()
        # kind 0 of _sweep_points: complex x with |x| up to 1e6
        paths = [_check_binary64(x, p) for i, (x, p) in enumerate(_sweep_points(1200, 20261021))
                 if i % 3 == 0]
        assert paths.count("float") >= 350
        assert "overflow" in paths

    def test_truncation_beyond_cap_raises(self):
        # Past the largest nome, 0.99540, binary64 E raises before it builds
        # any table: at 1 - 1e-12 the coefficient loop alone would run
        # millions of terms.
        for p in (0.999, 1 - 1e-12):
            start = time.perf_counter()
            with pytest.raises(TruncationLimit, match=r"\|p\| = 0\.999\d* is too close to 1"):
                eval_E(0.3, p)
            assert time.perf_counter() - start < 1.0

    def test_prefactor_far_from_the_unit_circle(self):
        # At x = 1e20 + 0.3j and p = 0.99, theta(x) = -x theta(x p) takes
        # k = 4,583 steps, and the prefactor (-x)^k p^C(k,2) is about
        # 10^45700.  As powers by halving it costs milliseconds; a loop of
        # k steps on integers that grow with it took seconds.  By
        # quasi-periodicity, E(x) = (-x)^k p^C(k,2) E(x p^k) for every k,
        # here at the reduced point x p^k, which needs no prefactor.
        with workdps(50):
            x, p = mpmath.mpc(1e20, 0.3), mpmath.mpf(0.99)
            start = time.perf_counter()
            got = _wide_E(x, p)
            assert time.perf_counter() - start < 1.0
        with workdps(100):
            k = int(mpmath.ceil(mpmath.log(abs(x)) / -mpmath.log(p)))
            reduced = x * p ** k
            assert p < abs(reduced) <= 1 and k == 4583
            want = (-x) ** k * p ** binom2(k) * to_mp(_wide_E(reduced, p))
            assert abs(to_mp(got) - want) <= 1e-45 * abs(want)

    def test_nome_that_rounds_to_one_raises_truncation_limit(self):
        # |p| = 1 - 1e-30 is inside the disk, but log2 |p| from the top bits
        # of its parts is 0, past the nomes of the series.
        with workdps(50):
            p = 1 - mpmath.mpf("1e-30")
            for nome in (p, mpmath.mpc(p)):
                with pytest.raises(TruncationLimit, match=r"\|p\| = 1\.0 is too close to 1"):
                    eval_E(to_wide(mpmath.mpc("0.5", "0.25")), to_wide(nome))

    @given(complex_in(0.4, 2.2), complex_in(0.02, 0.4))
    @settings(max_examples=150, deadline=None)
    def test_reflection_property(self, x, p):
        ex = eval_E(x, p)
        assert abs(ex + x * eval_E(1 / x, p)) <= 1e-10 * max(1.0, abs(ex))
        assert abs(ex - eval_E(p / x, p)) <= 1e-10 * max(1.0, abs(ex))

    @given(complex_in(0.4, 2.2), complex_in(0.02, 0.4),
           st.integers(min_value=-2, max_value=2).filter(lambda k: k != 0))
    @settings(max_examples=150, deadline=None)
    def test_quasi_periodicity_property(self, x, p, k):
        # Scale-aware comparison: x may land exactly on a zero of E.
        lhs = eval_E(x, p)
        rhs = (-x) ** k * p ** binom2(k) * eval_E(x * p ** k, p)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))


def log_complex_in(lo, hi):
    """Complex numbers with log-uniform modulus in [lo, hi]."""
    return st.builds(
        lambda e, ph: 10.0 ** e * cmath.exp(1j * ph),
        st.floats(math.log10(lo), math.log10(hi)), st.floats(0.0, 2.0 * cmath.pi))


# Oracle factors: |p|^600 |x| < 1e-24 over every range below.
ORACLE_TERMS = 600


def _factor_scale(x, p, terms=ORACLE_TERMS):
    """prod_k (1 + |x p^k|)(1 + |p^{k+1} / x|), a bound on every partial product.

    Binary64 products of these factors carry an absolute rounding error of
    a few units in the last place per factor, relative to this scale, also
    where E itself nearly vanishes.
    """
    scale = 1.0
    for k in range(terms):
        scale *= (1 + abs(x * p ** k)) * (1 + abs((p / x) * p ** k))
    return scale


class TestEvalEEdges:
    """Binary64 E against the direct product oracle at the edges of the region."""

    def _check(self, x, p):
        got = eval_E(x, p)
        want = truncated_product_E(x, p, ORACLE_TERMS)
        assert abs(got - want) <= 1e-13 * _factor_scale(x, p)

    @given(complex_in(0.4, 2.2), log_complex_in(1e-6, 1e-3))
    @settings(max_examples=100, deadline=None)
    def test_vanishing_nome(self, x, p):
        self._check(x, p)

    @given(complex_in(0.4, 2.2), complex_in(0.6, 0.9))
    @settings(max_examples=60, deadline=None)
    def test_nome_near_the_truncation_cap(self, x, p):
        self._check(x, p)

    @given(log_complex_in(1e-3, 1e3), complex_in(0.02, 0.4))
    @settings(max_examples=100, deadline=None)
    def test_arguments_far_from_the_unit_circle(self, x, p):
        self._check(x, p)


def _sweep_points(count, seed):
    """(x, p) with |x| log-uniform in [1e-6, 1e6] and |p| in [1e-6, 0.99].

    A third each: complex; on the real axis, as floats or as complex with
    zero imaginary parts; and next to a zero of E, x = p^k (1 + 1e-12).
    """
    state = random.Random(seed)
    log_p_lo, log_p_hi = math.log(1e-6), math.log(0.99)
    for i in range(count):
        p_mod = math.exp(state.uniform(log_p_lo, log_p_hi))
        x_mod = 10.0 ** state.uniform(-6.0, 6.0)
        kind = i % 3
        if kind == 1:
            x, p = state.choice((-x_mod, x_mod)), state.choice((-p_mod, p_mod))
            yield (x, p) if i % 2 else (complex(x), complex(p))
            continue
        p = cmath.rect(p_mod, state.uniform(0.0, 2.0 * math.pi))
        if kind == 0:
            yield cmath.rect(x_mod, state.uniform(0.0, 2.0 * math.pi)), p
        else:
            top = int(math.log(1e-6) / math.log(p_mod))
            yield p ** state.randint(-top, top) * (1 + 1e-12), p


def _check_binary64(x, p):
    """eval_E(x, p) against the 60-digit oracle on the exact x and p, by path.

    Where :func:`kernel._theta_float` gives way, E is the fixed-point series
    rounded once, within 2^-52 relative (or half the least subnormal);
    elsewhere the float sum holds 1e-12.  An E past the binary64 range
    is infinite.  Returns "float", "fallback" or "overflow".
    """
    coeffs = kernel._float_tables(p, None)[0]
    path = "float" if kernel._theta_float(x, p, coeffs) is not None else "fallback"
    want = infinite_product_E(x, p, 60)
    with mpmath.workdps(60):
        if abs(want) > sys.float_info.max:
            assert abs(eval_E(x, p)) == math.inf, (x, p)
            return "overflow"
        tol = 1e-12 if path == "float" else 2.0 ** -52
        assert abs(eval_E(x, p) - want) <= max(tol * abs(want), mpmath.ldexp(1, -1075)), (x, p)
    return path


def test_oracle_takes_binary64_inputs_exactly():
    # Next to a zero of E, a p / x rounded to binary64 would move E by 5e-5.
    p = complex(-0.0109, 0.0685)
    x = p ** 2 * (1 + 1e-12)
    assert infinite_product_E(x, p, 60) == infinite_product_E(mpmath.mpc(x), mpmath.mpc(p), 60)


class TestBinary64ProductLoop:
    """The binary64 loop of the shifted factorials where every E falls back."""

    def test_matches_the_plain_loop_bitwise(self):
        # a = p^k (1 + 1e-12) and q = p put every factor E(a q^j) next to a
        # zero of E, on the fixed-point series.  Inside an EMemo scope the
        # nome's tables are built once and shared; no bit may move.
        cases = 0
        for i, (a, p) in enumerate(_sweep_points(600, 20261018)):
            if i % 3 != 2:
                continue
            nome = Nome(p, p)
            want = _reference_factors(a, a, nome, 4)
            with kernel.EMemo():
                got = pochhammer_e(a, nome, 4)
            assert bits(got) == bits(want), (a, p)
            cases += kernel._theta_float(a, p, kernel._float_tables(p, None)[0]) is None
        assert cases >= 150


class TestBinary64Fallback:
    """Where the float sum cancels, binary64 E is the fixed-point series."""

    def test_near_zeros_take_the_fixed_series(self):
        # Kind 2 of _sweep_points: x = p^k (1 + 1e-12), next to a zero of E.
        paths = [_check_binary64(x, p) for i, (x, p) in enumerate(_sweep_points(1200, 20261021))
                 if i % 3 == 2]
        assert paths.count("fallback") >= 350

    @pytest.mark.parametrize("x, p", [
        (0.7 + 0.2j, 0.1 - 0.15j), (0.7, 0.3), (0.7 + 0j, 0.3 + 0j),
        (1e-300 + 1e-300j, 0.5j), (1e300 + 1e300j, 0.9 - 0.1j), (1.0 + 1e-320j, 1e-6),
        (1e8 + 0j, 0.3), (0.3, 0.9),
    ])
    def test_edge_arguments(self, x, p):
        start = time.perf_counter()
        eval_E(x, p)
        assert time.perf_counter() - start < 1.0
        _check_binary64(x, p)

    def test_non_finite_argument_raises(self):
        with pytest.raises(TruncationLimit, match=r"^x = \(nan\+1j\) is not finite$"):
            eval_E(complex(math.nan, 1.0), 0.3j)

    @pytest.mark.parametrize("modulus", [0.05, 0.3, 0.6, 0.9, 0.95])
    def test_pentagonal_nome_factor(self, modulus):
        # (p; p)_inf by Euler's pentagonal series in binary64, or where that
        # sum falls below LOSS_FLOOR (real p = 0.9), from the fixed tables.
        state = random.Random(20261025)
        losses = 0
        for p in [modulus, -modulus] + [cmath.rect(modulus, state.uniform(0.0, 2.0 * math.pi))
                                        for _ in range(40)]:
            coeffs, pp_inf, fixed = kernel._float_tables(p, None)
            loss = abs(kernel._pentagonal(p)) < kernel.LOSS_FLOOR
            assert (fixed is not None) == loss
            losses += loss
            with mpmath.workdps(40):
                want = mpmath.qp(mpmath.mpc(p))
                assert abs(pp_inf - want) <= (2.0 ** -52 if loss else 1e-14) * abs(want), p
        assert (losses > 0) == (modulus >= 0.9)


# The regions of TestEvalEEdges: a modulus range of x and of p, each log-uniform or not.
SERIES_REGIONS = {
    "vanishing_nome": ((0.4, 2.2, False), (1e-6, 1e-3, True)),
    "nome_near_the_truncation_cap": ((0.4, 2.2, False), (0.6, 0.9, False)),
    "arguments_far_from_the_unit_circle": ((1e-3, 1e3, True), (0.02, 0.4, False)),
}


def _polar(state, lo, hi, log):
    modulus = 10.0 ** state.uniform(math.log10(lo), math.log10(hi)) if log else state.uniform(lo, hi)
    return cmath.rect(modulus, state.uniform(0.0, 2.0 * math.pi))


class TestBinary64Series:
    """Binary64 E by the triple product series in floating point."""

    @pytest.mark.parametrize("region", list(SERIES_REGIONS))
    def test_series_meets_the_product_bound(self, region):
        x_range, p_range = SERIES_REGIONS[region]
        state = random.Random(20261019)
        served = 0
        for _ in range(300):
            x, p = _polar(state, *x_range), _polar(state, *p_range)
            coeffs, pp_inf, _ = kernel._float_tables(p, None)
            theta = kernel._theta_float(x, p, coeffs)
            if theta is None:
                continue
            served += 1
            got = eval_E(x, p)
            assert got == theta / pp_inf
            want = truncated_product_E(x, p, ORACLE_TERMS)
            assert abs(got - want) <= 1e-13 * _factor_scale(x, p)
        assert served >= 270

    @pytest.mark.parametrize("one", [1, 1.0, 1 + 0j])
    @pytest.mark.parametrize("p", [0.3, -0.6, 0.2 - 0.5j, 1e-5j])
    def test_zero_at_one_stays_exact(self, one, p):
        assert eval_E(one, p) == 0

    def test_theta1_matches_the_suite_series(self):
        state = random.Random(20261022)
        for _ in range(2000):
            p = _polar(state, 0.05, 0.5, False)
            z = complex(state.uniform(0.1, 3.0), state.uniform(-0.4, 0.4))
            assert suites._theta_product_vs_series(z, p) <= 1e-14, (z, p)


class TestTruncationPolicy:
    """The limits past which E raises TruncationLimit instead of truncating."""

    @pytest.mark.parametrize("x, p", [
        pytest.param(("1e-400", "1e-400"), ("0.3", "0.1"), id="mpc-below-range"),
        pytest.param(("1e400", "0"), ("0.3", "0.1"), id="mpc-above-range"),
    ])
    def test_mpc_modulus_outside_binary64_range(self, x, p):
        # the extended shifted factorials raise as eval_E does
        with workdps(50):
            groups = [((to_wide(mpmath.mpc(*x)),), to_wide(mpmath.mpc("0.7", "0.1")), 1)]
            with pytest.raises(TruncationLimit, match="outside the binary64 range"):
                list(kernel.running_products(groups, 1, to_wide(mpmath.mpc(*p))))

    def test_counts_inside_the_range(self):
        # Inside |p| <= 0.99540 the theta coefficients of a binary64 nome run
        # to the last term of 2^-93; at real p = 0.995 (p; p)_inf cancels,
        # and the tables rise to 532 bits.
        for p, count, wp in ((0.5, 15, 93), (0.9, 36, 93), (0.995, 385, 532)):
            tables = kernel._NomeTables(kernel._binary_parts(p), 53 + kernel.GUARD_BITS)
            assert (len(tables.theta), tables.wp) == (count, wp)
        # the fixed-point series at x = 0.3, against 20,000 factors at 40
        # digits (mpmath.qp does not converge there)
        assert kernel._theta_float(0.3, 0.995, kernel._float_tables(0.995, None)[0]) is None
        with mpmath.workdps(40):
            want = truncated_product_E(mpmath.mpf(0.3), mpmath.mpf(0.995), 20000)
            assert abs(eval_E(0.3, 0.995) - want) <= 2.0 ** -52 * abs(want)

    def test_binary64_modulus_outside_range(self):
        # p / x overflows to an infinite modulus, and E itself, about
        # 2^339600, is far past the binary64 range: each part rounds to an
        # infinity of its sign, which the product oracle gives
        x, p = 1e-320 + 0j, 0.3 + 0.1j
        got = eval_E(x, p)
        assert repr(got) == repr(complex(-math.inf, -math.inf))
        want = infinite_product_E(x, p, 30)
        assert (want.real < 0, want.imag < 0) == (True, True)


def _mpc_polar(modulus, phase):
    return mpmath.mpc(mpmath.rect(modulus, phase))


def _wide_E(x, p):
    """eval_E on the wide numbers of mpmath x and p, at the precision of wide.ctx."""
    return eval_E(to_wide(x), to_wide(p))


def _mpc_rel_err(got, x, p, terms):
    """Relative error of a 50-digit wide E(x; p) against the 90-digit product oracle."""
    with mpmath.workdps(90):
        want = truncated_product_E(x, p, terms)
        return abs(to_mp(got) - want) / abs(want)


class TestEvalEExtended:
    """wide E against the 400-term product oracle."""

    def test_matches_oracle_over_moduli(self):
        # 400 oracle terms: at |x| = 1e6, |p| = 0.6 the factor x p^200 is still 4e-39.
        state = random.Random(20261018)
        with workdps(50):
            for log_x in (-3, -1.5, 0, 1.5, 3, 4.5, 6):
                for p_mod in (0.02, 0.1, 0.3, 0.45, 0.6):
                    x = _mpc_polar(10 ** log_x, state.uniform(0, 2 * cmath.pi))
                    p = _mpc_polar(p_mod, state.uniform(0, 2 * cmath.pi))
                    got = _wide_E(x, p)
                    assert isinstance(got, wide.mpc)
                    assert _mpc_rel_err(got, x, p, 400) <= 1e-40, (log_x, p_mod)

    def test_matches_oracle_near_zeros(self):
        with workdps(50):
            for p_mod in (0.02, 0.3, 0.6):
                p = _mpc_polar(p_mod, 1.1)
                for k in range(-3, 4):
                    x = p ** k * (1 + mpmath.mpf("1e-9"))
                    got = _wide_E(x, p)
                    assert _mpc_rel_err(got, x, p, 400) <= 1e-40, (p_mod, k)

    def test_classical_case_is_exact(self):
        with workdps(50):
            x = to_wide(mpmath.mpc("0.3", "-1.7"))
            assert eval_E(x, wide.ctx.convert(0j)) == 1 - x


def _pair_rel_err(got, x, p, dps=90):
    """Relative error of a 50-digit wide E(x; p) against the infinite product
    at ``dps`` digits."""
    with mpmath.workdps(dps):
        want = infinite_product_E(x, p, dps)
        return abs(to_mp(got) - want) / abs(want)


@pytest.fixture
def reruns(monkeypatch):
    """The shortfall of every precision rerun of the extended series, in order."""
    shortfalls = []
    rerun = kernel._rerun

    def counting(x, tables, short):
        shortfalls.append(short)
        return rerun(x, tables, short)

    monkeypatch.setattr(kernel, "_rerun", counting)
    return shortfalls


def _moduli_grid(seed):
    """(x, p) with |x| from 1e-6 to 1e6 and |p| from 0.02 to 0.6, random phases."""
    state = random.Random(seed)
    for log_x in (-6, -4.5, -3, -1.5, 0, 1.5, 3, 4.5, 6):
        for p_mod in (0.02, 0.1, 0.3, 0.45, 0.6):
            x = _mpc_polar(10 ** log_x, state.uniform(0, 2 * cmath.pi))
            yield x, _mpc_polar(p_mod, state.uniform(0, 2 * cmath.pi))


class TestEvalESeries:
    """wide E by the triple product series: the infinite product to working precision."""

    def test_matches_the_infinite_product(self, reruns):
        with workdps(50):
            for x, p in _moduli_grid(20261019):
                assert _pair_rel_err(_wide_E(x, p), x, p) <= 1e-48, (x, p)
        assert reruns == []

    def test_zeros_are_exact(self, reruns):
        # p^2 and 1/p are rounded, so E there is a tiny value, not a zero.
        with workdps(50):
            p = _mpc_polar(0.3, 2.3)
            assert _wide_E(mpmath.mpc(1), p) == 0
            assert _wide_E(p, p) == 0
            for x in (p ** 2, 1 / p):
                assert _pair_rel_err(_wide_E(x, p), x, p, 150) <= 1e-48
        assert len(reruns) == 4

    def test_near_degenerate_points_stay_on_the_series(self, reruns):
        # Near x = 1 and x = p, E(x) is about (1 - x) (p; p)_inf^2, so this
        # offset puts |E| at about DELTA_DEGEN, where the theta runs cancel
        # about 27 bits.
        with workdps(50):
            p = _mpc_polar(0.3, 2.3)
            offset = DELTA_DEGEN / abs(mpmath.qp(p)) ** 2 * mpmath.expjpi(0.3)
            for x in (1 + offset, 1 - offset, p * (1 + offset), p / (1 + offset)):
                got = _wide_E(x, p)
                assert DELTA_DEGEN / 2 < abs(got) < 2 * DELTA_DEGEN
                assert _pair_rel_err(got, x, p) <= 1e-45
        assert reruns == []

    def test_series_path_takes_no_mpc_modulus_or_division(self, monkeypatch, reruns):
        # |x| and |p| come from float-rounded parts, and p/x from the exact
        # parts inside the series.
        calls = []

        def counting(name, method):
            def wrapper(*args):
                calls.append(name)
                return method(*args)
            return wrapper

        with workdps(50):
            x, p = to_wide(_mpc_polar(1.7, 0.4)), to_wide(_mpc_polar(0.3, 2.3))
            for name in ("__abs__", "__truediv__", "__rtruediv__"):
                method = getattr(wide.mpc, name)
                monkeypatch.setattr(wide.mpc, name, counting(name, method))
            got = eval_E(x, p)
            assert calls == []
            abs(x), x / p  # the wrappers are live
        assert calls == ["__abs__", "__truediv__"]
        assert _pair_rel_err(got, to_mp(x), to_mp(p)) <= 1e-48
        assert reruns == []

    def test_point_near_a_zero_takes_a_rerun(self, reruns):
        # 1e-12 from x = 1 the theta runs cancel about 40 bits, past the
        # guard, so the series runs again with the shortfall added.
        with workdps(50):
            p = _mpc_polar(0.3, 2.3)
            x = 1 + mpmath.mpf("1e-12") * mpmath.expjpi(0.7)
            got = _wide_E(x, p)
            assert _pair_rel_err(got, x, p) <= 1e-48
        assert len(reruns) == 1 and reruns[0] > 0

    @pytest.mark.parametrize("delta", ["1e-12", "1e-20", "1e-30", "1e-45"])
    @pytest.mark.parametrize("power", [0, 2])
    def test_near_zeros_match_the_infinite_product(self, delta, power):
        # x = p^power (1 + delta e^(0.7 pi i)) at 50 digits: E is about delta
        # times a constant, and every digit of x counts.
        with workdps(50):
            p = _mpc_polar(0.3, 2.3)
            x = p ** power * (1 + mpmath.mpf(delta) * mpmath.expjpi(0.7))
            assert _pair_rel_err(_wide_E(x, p), x, p, 150) <= 1e-48

    @pytest.mark.parametrize("nome", ["0.97", "0.99", "-0.99"])
    def test_real_nome_near_one(self, nome):
        # (p; p)_inf cancels 55 to 231 bits here, which the tables of p add
        # to their working precision.
        with workdps(50):
            p, x = mpmath.mpc(nome), _mpc_polar(0.6, 1.1)
            got = to_mp(_wide_E(x, p))
            with mpmath.workdps(80):
                want = truncated_product_E(x, p, 20000)
                assert abs(got - want) / abs(want) <= 1e-45

    @pytest.mark.parametrize("nome", [("0.5", "0.5"), ("0.75", "0"), ("0.5", "0"),
                                      ("-0.375", "0.125")])
    def test_powers_of_the_nome(self, nome):
        # x = p^m is an exact zero where the 50-digit power is exact, and
        # its neighbours one unit in the last place away are not zeros.
        with workdps(50):
            p = mpmath.mpc(*nome)
            for m in range(-3, 5):
                x = p ** m
                with mpmath.workdps(200):
                    exact = p ** m == x
                if exact:
                    assert _wide_E(x, p) == 0, m
                else:
                    assert _pair_rel_err(_wide_E(x, p), x, p, 150) <= 1e-48, m
                ulp = mpmath.ldexp(1, mpmath.mag(x) - mpmath.mp.prec)
                for y in (x + ulp, x - ulp):
                    got = _wide_E(y, p)
                    assert got != 0 and _pair_rel_err(got, y, p, 150) <= 1e-48, m

    def test_nome_below_binary64_range_gives_one_factor_each(self):
        # |p| rounds to 0.0 in binary64, but log2 |p| comes from its parts,
        # so the series runs: one factor of each product is exact to far
        # beyond the working precision.
        with workdps(50):
            x, p = to_wide(mpmath.mpc("0.5", "0.25")), to_wide(mpmath.mpc("1e-400", "1e-400"))
            assert eval_E(x, p) == (1 - x) * (1 - p / x)

    @pytest.mark.parametrize("x", [
        pytest.param(("1e-400", "1e-400"), id="below-range"),
        pytest.param(("1e400", "0"), id="above-range"),
    ])
    def test_modulus_outside_binary64_range(self, x):
        with workdps(50):
            with pytest.raises(TruncationLimit, match="outside the binary64 range"):
                _wide_E(mpmath.mpc(*x), mpmath.mpc("0.3", "0.1"))


class TestPochhammer:
    def test_single_factor_classical(self):
        assert pochhammer_e(2.0, Nome(0.5, 0.0), 1) == -1.0

    def test_empty_product(self, rnd):
        assert pochhammer_e(rnd(), Nome(rnd(0.3, 0.8), rnd(0.05, 0.3)), 0) == 1.0

    def test_negative_index_matches_reciprocal(self):
        nome = Nome(0.5, 0.1)
        lhs = pochhammer_e(0.3, nome, -2)
        rhs = 1.0 / pochhammer_e(0.3 * 0.5 ** -2, nome, 2)
        assert rel_err(lhs, rhs) <= 1e-13

    def test_negative_index_pole_raises(self):
        # (q; q, p)_{-1} = 1 / E(1) is a pole.
        nome = Nome(0.5, 0.1)
        with pytest.raises(DegenerateParameters):
            pochhammer_e(nome.q, nome, -1)

    def test_min_factor_guard(self):
        nome = Nome(0.5, 0.1)
        with pytest.raises(DegenerateParameters):
            pochhammer_e(1.0, nome, 2, min_factor=1e-8)

    def test_extended_poles_raise(self):
        # |E| of an mpc is an mpf, which a :.3e format spec rejects with a
        # TypeError; the messages format it as a float.
        with workdps(50):
            q, p = to_wide(mpmath.mpc("0.5", "0.1")), to_wide(mpmath.mpc("0.1", "-0.05"))
            nome = Nome(q, p)
            near_one = 1 + to_wide(mpmath.mpc("1e-12", "1e-12"))
            value = eval_E(near_one, p)
            assert isinstance(value, wide.mpc) and abs(value) < DELTA_DEGEN
            with pytest.raises(DegenerateParameters, match=r"E\(a\): \|E\| = \d\.\d{3}e-"):
                kernel._check_degen(value, "E(%s)", "a")
            with pytest.raises(DegenerateParameters, match=r"^factor .* magnitude \d"):
                pochhammer_e(near_one, nome, 2, min_factor=DELTA_DEGEN)
            with pytest.raises(DegenerateParameters, match=r"^reciprocal .* magnitude \d"):
                pochhammer_e(near_one * q, nome, -1)

    def test_extended_messages_show_the_value(self):
        # a wide number in a message reads as its value, not its address
        with workdps(50):
            a = wide.ctx.convert(1 + 1e-12j)
            q, p = wide.ctx.convert(0.5 + 0.1j), wide.ctx.convert(0.1 - 0.05j)
            with pytest.raises(DegenerateParameters) as raised:
                pochhammer_e(a * q, Nome(q, p), -1)
        assert "object at" not in str(raised.value)
        assert "with a=mpc(real='4.9999999999989999" in str(raised.value)

    def test_fraction_form_never_divides(self):
        nome = Nome(0.5, 0.1)
        num, den = pochhammer_frac(nome.q, nome, -1)
        assert num == 1.0 and den == 0.0

    # (a_1, ..., a_m; q, p)_n as a product spec over the letters a_i
    @staticmethod
    def multi(values: dict, nome: Nome, n: int):
        side = Side(Term((Product(tuple(values), (), "q", "n"),)))
        return side(ParamPoint(nome, values, n))[0]

    def test_multi_singleton(self, rnd):
        nome = Nome(rnd(0.3, 0.8), rnd(0.05, 0.3))
        a = rnd()
        assert rel_err(self.multi({"a": a}, nome, 3), pochhammer_e(a, nome, 3)) <= 1e-15

    def test_multi_classical_pair(self):
        assert self.multi({"a": 2.0, "b": 3.0}, Nome(0.5, 0.0), 1) == 2.0

    def test_multi_matches_flat_product(self, rnd):
        q, p = rnd(0.3, 0.8), rnd(0.05, 0.3)
        a1, a2 = rnd(), rnd()
        expected = 1.0
        for a in (a1, a2):
            for k in range(3):
                expected *= truncated_product_E(a * q ** k, p)
        got = self.multi({"a": a1, "b": a2}, Nome(q, p), 3)
        assert rel_err(got, expected) <= 1e-12

    @given(st.integers(min_value=-4, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_classical_reduction_property(self, n):
        a, q = 0.37 + 0.61j, 0.55 - 0.1j
        got = pochhammer_e(a, Nome(q, 0.0), n)
        if n >= 0:
            want = 1.0
            for k in range(n):
                want *= 1 - a * q ** k
        else:
            want = 1.0
            for k in range(-n):
                want /= 1 - a * q ** (n + k)
        assert rel_err(got, want) <= 1e-12


def _random_groups(state):
    """Groups of step 1 and 2, |a| log-uniform in 1e-3..1e3 and |base| in 0.3..1.5."""
    def point(lo, hi):
        return _mpc_polar(10 ** state.uniform(lo, hi), state.uniform(0, 2 * cmath.pi))
    return [((point(-3, 3),), point(-0.52, 0.18), step) for step in (1, 2)]


def _wide_groups(groups):
    """Groups of mpmath numbers as groups of their wide numbers."""
    return [(tuple(map(to_wide, params)), to_wide(base), step) for params, base, step in groups]


def _product_of(factor, groups, kmax):
    """[P_0..P_kmax] of running_products, with each factor E(a base^t) from ``factor``."""
    products = [1.0]
    for k in range(1, kmax + 1):
        value = products[-1]
        for params, base, step in groups:
            for a in params:
                for t in range(step * (k - 1), step * k):
                    value = value * factor(a * base ** t)
        products.append(value)
    return products


def _degen_message(k, a, t, magnitude):
    return f"denominator factor at k={k}: |E| = {magnitude:.3e}"


class TestRunningProducts:
    """kernel.running_products: the shifted factorials of a series term by term."""

    def test_mpc_matches_the_infinite_product(self, reruns):
        state = random.Random(20261102)
        with workdps(50):
            for p_mod in (0.02, 0.1, 0.3, 0.45, 0.6):
                p = _mpc_polar(p_mod, state.uniform(0, 2 * cmath.pi))
                groups = _random_groups(state)
                kmax = state.randint(1, 10)
                got = list(kernel.running_products(_wide_groups(groups), kmax, to_wide(p)))
                with mpmath.workdps(90):
                    want = _product_of(lambda x: infinite_product_E(x, p), groups, kmax)
                    assert got[0] == 1.0
                    for k in range(1, kmax + 1):
                        assert abs(to_mp(got[k]) - want[k]) / abs(want[k]) <= 1e-45, (p_mod, k)
        assert reruns == []

    def test_exact_zero_factor_gives_zero(self):
        # E(p^k) = 0 exactly, by the exact test of a rerun.
        with workdps(50):
            p, q = _mpc_polar(0.3, 2.3), _mpc_polar(0.7, 0.4)
            for a in (mpmath.mpc(1), p):
                groups = _wide_groups([((mpmath.mpc("0.4", "0.2"), a), q, 1)])
                got = list(kernel.running_products(groups, 3, to_wide(p)))
                assert got[0] == 1.0 and all(value == 0 for value in got[1:])

    def test_factor_near_a_zero_takes_a_rerun(self, reruns):
        with workdps(50):
            p, q = _mpc_polar(0.3, 2.3), _mpc_polar(0.7, 0.4)
            a = 1 + mpmath.mpf("1e-12") * mpmath.expjpi(0.7)
            got = list(kernel.running_products(_wide_groups([((a,), q, 1)]), 1, to_wide(p)))
            assert len(reruns) == 1
            assert _pair_rel_err(got[1], a, p) <= 1e-45

    def test_classical_nome_gives_the_linear_factors(self):
        state = random.Random(20261103)
        with workdps(50):
            p = wide.ctx.convert(0j)
            groups = _wide_groups(_random_groups(state))
            got = list(kernel.running_products(groups, 4, p))
            assert got == _product_of(lambda x: 1.0 - x, groups, 4)

    def test_nome_near_one_raises_the_table_precision(self):
        # Real p = 0.97: (p; p)_inf cancels past the guard bits, so the
        # tables of p are built again with the lost bits added.
        with workdps(50):
            p, q = mpmath.mpc("0.97"), _mpc_polar(0.8, 0.3)
            p_wide = to_wide(p)
            wp = wide.ctx.prec + kernel.GUARD_BITS
            assert kernel._nome_tables(p_wide, wide.exact_parts(p_wide), wp, None).wp > wp
            groups = [((_mpc_polar(0.6, 1.1),), q, 1)]
            got = list(kernel.running_products(_wide_groups(groups), 2, p_wide))
            with mpmath.workdps(90):
                want = _product_of(lambda x: infinite_product_E(x, p), groups, 2)
                assert all(abs(to_mp(got[k]) - want[k]) / abs(want[k]) <= 1e-45 for k in (1, 2))


class TestDenominatorFloor:
    """The floor test of running_products works on exponents at any magnitude."""

    def test_factor_beyond_binary64_range_passes(self):
        # |E(1e30; 0.5)| is about 2^5000: no binary64 power of two holds it.
        with workdps(50):
            p, q = mpmath.mpc("0.5", "0.1"), _mpc_polar(0.7, 0.4)
            x = mpmath.mpc("1e30", "1e29")
            x_w, q_w, p_w = to_wide(x), to_wide(q), to_wide(p)
            den = list(kernel.running_products([((x_w,), q_w, 1)], 1, p_w, DELTA_DEGEN,
                                               _degen_message))
            assert abs(to_mp(den[1])) > mpmath.mpf(2) ** 4000
            assert _pair_rel_err(den[1], x, p) <= 1e-45
            terms = vwp_terms(lambda k: 1.0, [], [((x_w,), q_w, 1)], q_w, 1, p_w)
            assert terms[1] == q_w / den[1]

    @pytest.mark.parametrize("offset", [
        pytest.param("1e-12", id="rerun"),
        pytest.param(None, id="series"),
    ])
    def test_factor_below_the_floor_raises(self, offset, reruns):
        with workdps(50):
            p, q = _mpc_polar(0.3, 2.3), _mpc_polar(0.7, 0.4)
            # None: |E| about DELTA_DEGEN / 4, which the series still serves
            delta = mpmath.mpf(offset) if offset else DELTA_DEGEN / 4 / abs(mpmath.qp(p)) ** 2
            a, q, p = (to_wide(v) for v in (1 + delta * mpmath.expjpi(0.7), q, p))
            assert abs(eval_E(a, p)) < DELTA_DEGEN
            reruns.clear()
            with pytest.raises(DegenerateParameters,
                               match=r"^denominator factor at k=1: \|E\| = \d\.\d{3}e-"):
                vwp_terms(lambda k: 1.0, [], [((a,), q, 1)], q, 1, p)
            assert bool(reruns) == bool(offset)
            with pytest.raises(DegenerateParameters,
                               match=r"^reciprocal factor E\(a\*q\^-1\) with a=.* magnitude \d"):
                pochhammer_e(a * q, Nome(q, p), -1)


def _reference_factors(a, y, nome, count, floor=None, label="", offset=0):
    """The shifted-factorial loop of kernel._factors, one eval_E at a time."""
    result = 1.0
    for k in range(count):
        f = eval_E(y, nome.p)
        if floor is not None and abs(f) < floor:
            raise DegenerateParameters(
                f"{label}E(a*q^{offset + k}) with a={a!r} has magnitude {float(abs(f)):.3e}")
        result = result * f
        y = y * nome.q
    return result


def _reference_vwp_terms(prefactor, num_groups, den_groups, weight, kmax, p):
    """series.vwp_terms as a plain loop, one eval_E factor at a time."""
    terms = []
    num = den = w = 1.0
    for k in range(kmax + 1):
        if k > 0:
            for params, base, step in num_groups:
                for a in params:
                    for t in range(step * (k - 1), step * k):
                        num = num * eval_E(a * base ** t, p)
            for params, base, step in den_groups:
                for a in params:
                    for t in range(step * (k - 1), step * k):
                        den = den * kernel._check_degen(eval_E(a * base ** t, p),
                                                        "denominator factor at k=%d", k)
            w = w * weight
        terms.append(prefactor(k) * num * w / den)
    return terms


def _outcome(function, *args):
    """The bytes of a result, or the type and text of the error it raised."""
    try:
        value = function(*args)
    except DegenerateParameters as exc:
        return type(exc), str(exc)
    if isinstance(value, tuple):
        return tuple(bits(part) for part in value)
    return [bits(term) for term in value] if isinstance(value, list) else bits(value)


class TestBinary64Products:
    """Binary64 shifted factorials equal the plain loops bit for bit."""

    def test_equal_to_the_reference_loops(self):
        state = random.Random(20261104)

        def polar(lo, hi):
            return 10 ** state.uniform(lo, hi) * cmath.exp(1j * state.uniform(0, 2 * cmath.pi))

        for _ in range(200):
            p, q = polar(-1.3, -0.5), polar(-0.5, 0.1)
            nome = Nome(q, p)
            a, n, kmax = polar(-1, 1), state.randint(-4, 6), state.randint(0, 5)
            groups = [((polar(-1, 1), polar(-1, 1)), q, 1), ((polar(-1, 1),), q * q, 2)]
            lowers = [((polar(-1, 1), polar(-1, 1)), q, 1), ((polar(-1, 1),), q, 2)]
            prefactor = lambda k: eval_E(a * q ** (3 * k), p) / eval_E(a, p)
            assert _outcome(vwp_terms, prefactor, groups, lowers, q, kmax, p) == \
                _outcome(_reference_vwp_terms, prefactor, groups, lowers, q, kmax, p)
            if n >= 0:
                want_e = lambda: _reference_factors(a, a, nome, n, None, "factor ")
                want_frac = lambda: (_reference_factors(a, a, nome, n), 1.0)
            else:
                want_e = lambda: 1.0 / _reference_factors(
                    a, a * q ** n, nome, -n, DELTA_DEGEN, "reciprocal factor ", n)
                want_frac = lambda: (1.0, _reference_factors(a, a * q ** n, nome, -n))
            assert _outcome(pochhammer_e, a, nome, n) == _outcome(want_e)
            assert _outcome(pochhammer_frac, a, nome, n) == _outcome(want_frac)


class TestPartitionIndexed:
    def test_empty_partition(self, rnd):
        nome = Nome(rnd(0.3, 0.8), rnd(0.05, 0.3))
        assert pochhammer_partition(rnd(), nome, rnd(), (0, 0, 0)) == 1.0

    def test_single_row_reduces(self, rnd):
        nome = Nome(rnd(0.3, 0.8), rnd(0.05, 0.3))
        a = rnd()
        assert pochhammer_partition(a, nome, rnd(), (3,)) == \
            pochhammer_e(a, nome, 3)

    def test_two_rows_against_explicit_product(self):
        nome = Nome(0.5, 0.1)
        got = pochhammer_partition(0.4, nome, 0.9, (2, 1))
        want = pochhammer_e(0.4, nome, 2) * pochhammer_e(0.4 / 0.9, nome, 1)
        assert rel_err(got, want) <= 1e-13
        explicit = truncated_product_E(0.4, 0.1) * \
            truncated_product_E(0.4 * 0.5, 0.1) * \
            truncated_product_E(0.4 / 0.9, 0.1)
        assert rel_err(got, explicit) <= 1e-12

    def test_rejects_zero_deformation(self):
        with pytest.raises(NonzeroRequired):
            pochhammer_partition(0.4, Nome(0.5, 0.1), 0.0, (1,))


class TestTheta:
    def test_vanishes_at_origin(self):
        assert abs(theta1(0.0, 0.2)) == 0.0

    def test_odd(self, rnd):
        for _ in range(10):
            z = complex(rnd(0.1, 2.5).real, rnd(0.05, 0.3).imag)
            p = rnd(0.05, 0.45)
            assert rel_err(theta1(-z, p), -theta1(z, p)) <= 1e-12

    def test_product_matches_sine_series_at_fixed_point(self):
        got = theta1(0.3, 0.2)
        assert abs(got - THETA_03_AT_P02) <= 1e-13
        assert rel_err(got, theta_sine_series(0.3, 0.2)) <= 1e-13

    def test_product_matches_sine_series_random(self, rnd):
        for _ in range(25):
            p = rnd(0.05, 0.5)
            z = complex(rnd(0.1, 3.0).real, 0.3 * rnd(0.1, 1.0).real)
            assert rel_err(theta1(z, p), theta_sine_series(z, p)) <= 1e-10

    def test_rejects_nome_outside_disk(self):
        with pytest.raises(NomeOutOfRange):
            theta1(0.3, 1.2)

    def test_rejects_wide_and_mpmath_numbers(self):
        # theta1 is binary64 only (cmath.exp); an mpmath number is no scalar
        # of the kernel at all
        with workdps(50):
            for z, p in ((to_wide(mpmath.mpc("0.3")), 0.2), (0.3, to_wide(mpmath.mpc("0.2"))),
                         (mpmath.mpc("0.3"), 0.2)):
                with pytest.raises(TypeError):
                    theta1(z, p)


class TestNome:
    def test_rejects_zero_base(self):
        with pytest.raises(NonzeroRequired):
            Nome(0.0, 0.1)

    def test_rejects_unit_nome(self):
        with pytest.raises(NomeOutOfRange):
            Nome(0.5, 1.0 + 0.0j)

    def test_classical_nome_allowed(self):
        assert Nome(0.5, 0.0).p == 0.0


NAN = float("nan")


class TestNanNome:
    # A NaN nome fails every range test, so each one is written as
    # "not |p| < 1" and rejects it before any factor count is taken.
    def test_nome_rejects_nan(self):
        with pytest.raises(NomeOutOfRange):
            Nome(0.5, NAN)
        with pytest.raises(NomeOutOfRange):
            Nome(0.5, complex(0.1, NAN))

    def test_binary64_rejects_nan(self):
        with pytest.raises(NomeOutOfRange):
            eval_E(0.5, NAN)
        with pytest.raises(NomeOutOfRange):
            eval_E(0.5 + 0.1j, complex(NAN, 0.0))
        with pytest.raises(NomeOutOfRange):
            theta1(0.3, NAN)

    def test_mpc_rejects_nan(self):
        # A wide number is finite: a NaN nome in an extended call raises
        # ValueError where its parts are read, before any table is built.
        with workdps(50):
            x = to_wide(mpmath.mpc("0.5"))
            with pytest.raises(ValueError, match="finite"):
                eval_E(x, NAN)
            with pytest.raises(ValueError, match="finite"):
                eval_E(x, complex(0.1, NAN))
            with pytest.raises(ValueError, match="finite"):
                wide.ctx.convert(NAN)


def _parts(value):
    """The type and exact parts of a wide number, equal only bit for bit."""
    return type(value), wide.exact_parts(value)


class TestScalarDispatch:
    """One predicate on the scalars of a call picks its precision: a wide
    number anywhere makes it extended, binary64 ones alone keep it binary64,
    and any other type raises TypeError."""

    X, Q, P, A = 0.3 + 0.2j, 0.5 - 0.2j, 0.2 + 0.1j, 0.7 + 0.3j

    def test_mixed_pairs_equal_the_all_wide_values(self):
        conv = wide.ctx.convert
        with workdps(50):
            want = eval_E(conv(self.X), conv(self.P))
            assert _parts(eval_E(self.X, conv(self.P))) == _parts(want)
            assert _parts(eval_E(conv(self.X), self.P)) == _parts(want)
            all_wide, mixed = Nome(conv(self.Q), conv(self.P)), Nome(self.Q, conv(self.P))
            for n in (-3, -2, -1, 2):
                want = pochhammer_e(conv(self.A), all_wide, n)
                want_frac = pochhammer_frac(conv(self.A), all_wide, n)[n < 0]
                for a in (conv(self.A), self.A):
                    assert _parts(pochhammer_e(a, mixed, n)) == _parts(want), (a, n)
                    assert _parts(pochhammer_frac(a, mixed, n)[n < 0]) == _parts(want_frac)

    def test_mixed_pair_and_all_wide_share_a_memo_entry(self):
        conv = wide.ctx.convert
        with workdps(50):
            with kernel.EMemo() as memo:
                first = eval_E(self.X, conv(self.P))
                again = eval_E(conv(self.X), conv(self.P.real) + conv(self.P.imag * 1j))
        assert memo.hits == 1 and len(memo.table) == 1 and again is first

    def test_binary64_subclasses_stay_binary64(self):
        np = pytest.importorskip("numpy")
        want = eval_E(self.X, self.P)
        # numpy's complex arithmetic rounds apart from Python's in places
        got = eval_E(np.complex128(self.X), np.complex128(self.P))
        assert isinstance(got, complex) and rel_err(got, want) <= 1e-14
        assert type(eval_E(True, 0.2)) is float

    def test_other_types_raise(self):
        from fractions import Fraction

        nome = Nome(self.Q, self.P)
        with workdps(50):
            for x, p in ((mpmath.mpc(self.X), self.P), (self.X, mpmath.mpf("0.2")),
                         (Fraction(1, 3), self.P), (wide.ctx.convert(self.X), mpmath.mpc(self.P))):
                with pytest.raises(TypeError, match="not a scalar of the kernel"):
                    eval_E(x, p)
            with pytest.raises(TypeError, match="not a scalar of the kernel"):
                pochhammer_e(mpmath.mpc(self.A), nome, 2)
            with pytest.raises(TypeError, match="not a scalar of the kernel"):
                list(kernel.running_products([((mpmath.mpc(self.A),), self.Q, 1)], 2, self.P))


@st.composite
def _raw_parts(draw, max_exp: int = 400):
    """mpmath's raw parts of a finite number: zero, or a mantissa of up to
    200 bits, of either sign, at an exponent within ``max_exp``."""
    if draw(st.integers(0, 9)) == 0:
        return mpmath.libmp.fzero
    size = draw(st.integers(1, 200))
    man = draw(st.integers(1 << (size - 1), (1 << size) - 1))
    return mpmath.libmp.from_man_exp(draw(st.sampled_from((man, -man))),
                                     draw(st.integers(-max_exp, max_exp)))


@given(_raw_parts(), _raw_parts())
@settings(max_examples=300, deadline=None)
def test_converters_round_trip(re, im):
    """conftest.to_wide and to_mp, which these tests use to compare with
    mpmath, carry a number across exactly both ways, at 53 and 169 bits and
    for mantissas longer than either."""
    for dps in (15, 50):
        with workdps(dps):
            z = mpmath.mp.make_mpc((re, im))
            w = to_wide(z)
            assert isinstance(w, wide.mpc) and to_mp(w)._mpc_ == z._mpc_
            assert wide.exact_parts(to_wide(to_mp(w))) == wide.exact_parts(w)
            x = to_wide(mpmath.mp.make_mpf(re))
            assert isinstance(x, wide.mpf) and to_mp(x)._mpf_ == re
