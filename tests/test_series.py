import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipsum import BalanceViolation, DegenerateParameters, Nome, wide
from ellipsum.kernel import eval_E
from ellipsum.series import (
    OmegaSpec,
    _summed,
    balance_residual,
    eval_omega,
    omega_sum,
    omega_terms,
    vwp_sum,
    vwp_terms,
)

from conftest import rel_err, to_wide, workdps
from oracles import classical_pochhammer, classical_w_sum, truncated_product_E

# The balanced seven-term example: a1 = 0.2, uppers 0.3, 0.4 and the solved
# value below, terminating at n = 2 with q = 0.5, p = 0.1.
E_STAR = 0.1317615691736825


def jackson_spec(rnd, n=3):
    q, p = rnd(0.3, 0.8), rnd(0.05, 0.3)
    a, b, c, d = rnd(), rnd(), rnd(), rnd()
    e = a * a * q ** (n + 1) / (b * c * d)
    return OmegaSpec(a, (b, c, d, e), Nome(q, p), n)


class TestOmega:
    def test_zero_termination_is_one(self, rnd):
        spec = jackson_spec(rnd, n=0)
        assert eval_omega(spec) == 1.0

    def test_classical_jackson_sum(self, rnd):
        # p = 0 with the product constraint: closed form of the classical sum.
        q = rnd(0.3, 0.8)
        a, b, c, d = rnd(), rnd(), rnd(), rnd()
        n = 4
        e = a * a * q ** (n + 1) / (b * c * d)
        spec = OmegaSpec(a, (b, c, d, e), Nome(q, 0.0), n)
        got = eval_omega(spec)
        want = 1.0
        for u in (a * q, a * q / (b * c), a * q / (b * d), a * q / (c * d)):
            want *= classical_pochhammer(u, q, n)
        for u in (a * q / b, a * q / c, a * q / d, a * q / (b * c * d)):
            want /= classical_pochhammer(u, q, n)
        assert rel_err(got, want) <= 1e-12

    @pytest.mark.parametrize("root_sign", [1.0, -1.0])
    def test_three_term_sum_against_factorwise_oracle(self, root_sign):
        # Every factor of every summand recomputed with standalone products.
        # The balancing constraint is quadratic, so both solved values are
        # admissible; the positive root happens to sit near an accidental
        # zero of the sum, hence the summand-scale comparison.
        q, p, n = 0.5, 0.1, 2
        a1 = 0.2
        uppers = (0.3, 0.4, root_sign * E_STAR, q ** (-n))
        spec = OmegaSpec(a1, uppers[:-1], Nome(q, p), n)
        assert balance_residual(spec) <= 1e-12
        E = lambda z: truncated_product_E(z, p)
        want = 0.0
        scale = 0.0
        for k in range(n + 1):
            term = E(a1 * q ** (2 * k)) / E(a1) * q ** k
            for j in range(k):
                term *= E(a1 * q ** j)
                for u in uppers:
                    term *= E(u * q ** j)
                term /= E(q * q ** j)
                for u in uppers:
                    term /= E(a1 * q / u * q ** j)
            want += term
            scale = max(scale, abs(term))
        assert abs(eval_omega(spec) - want) <= 1e-13 * scale

    def test_p_to_zero_matches_classical_evaluator(self, rnd):
        for _ in range(100):
            q = rnd(0.3, 0.8)
            a, b, c, d = rnd(), rnd(), rnd(), rnd()
            n = 3
            e = a * a * q ** (n + 1) / (b * c * d)
            spec = OmegaSpec(a, (b, c, d, e), Nome(q, 0.0), n)
            want = classical_w_sum(a, (b, c, d, e, q ** (-n)), q, n)
            assert rel_err(eval_omega(spec), want) <= 1e-12

    def test_term_ratio_matches_explicit_factors(self, rnd):
        # Guards index bookkeeping: summand ratios rebuilt from single E calls.
        spec = jackson_spec(rnd, n=5)
        q, p = spec.nome.q, spec.nome.p
        uppers = spec.full_upper()
        terms = omega_terms(spec.a1, uppers, spec.nome, spec.n_term)
        for k in range(1, len(terms)):
            ratio = eval_E(spec.a1 * q ** (2 * k), p) / \
                eval_E(spec.a1 * q ** (2 * k - 2), p) * q
            ratio *= eval_E(spec.a1 * q ** (k - 1), p)
            for u in uppers:
                ratio *= eval_E(u * q ** (k - 1), p)
            ratio /= eval_E(q ** k, p)
            for u in uppers:
                ratio /= eval_E(spec.a1 * q ** k / u, p)
            assert rel_err(terms[k] / terms[k - 1], ratio) <= 1e-11

    def test_degenerate_denominator_reports_position(self):
        # Force a1 q / a4 = q so the k = 1 denominator factor E(q * q^0 ...)
        # collides with a kernel zero only when it lands on 1; use a4 = a1.
        q, p = 0.5, 0.1
        a1 = 0.3
        spec = OmegaSpec(a1, (a1 * q, 0.4, 0.7, 1.1), Nome(q, p), 2)
        with pytest.raises((DegenerateParameters, BalanceViolation)):
            eval_omega(spec)

    def test_strict_balance_raises(self, rnd):
        spec = jackson_spec(rnd, n=2)
        bad = OmegaSpec(spec.a1, tuple(1.1 * u for u in spec.upper),
                        spec.nome, spec.n_term)
        with pytest.raises(BalanceViolation):
            eval_omega(bad)


class TestBalanceResidual:
    def test_jackson_point_is_exact(self, rnd):
        assert balance_residual(jackson_spec(rnd)) <= 1e-12

    def test_perturbation_detected(self, rnd):
        spec = jackson_spec(rnd)
        bad = OmegaSpec(spec.a1, (spec.upper[0] * 1.1,) + spec.upper[1:],
                        spec.nome, spec.n_term)
        assert balance_residual(bad) > 1e-3

    def test_ten_term_constraint_point(self, rnd):
        q, p = rnd(0.3, 0.8), rnd(0.05, 0.3)
        a, b, c, d, e, f = (rnd() for _ in range(6))
        n = 3
        g = a ** 3 * q ** (n + 2) / (b * c * d * e * f)
        spec = OmegaSpec(a, (b, c, d, e, f, g), Nome(q, p), n)
        assert balance_residual(spec) <= 1e-12


class TestOmegaSumScale:
    def test_scale_tracks_largest_term(self, rnd):
        spec = jackson_spec(rnd, n=4)
        value, scale = omega_sum(spec.a1, spec.full_upper(), spec.nome, 4)
        terms = omega_terms(spec.a1, spec.full_upper(), spec.nome, 4)
        assert scale == max(abs(t) for t in terms)
        assert rel_err(value, sum(terms)) <= 1e-13


class TestEngine:
    def test_mixed_bases_and_doubled_index_against_factorwise_oracle(self, rnd):
        # Groups in bases q and q^3, one of them with step 2 (the factorial
        # (d; q, p)_{2k}): every summand rebuilt factor by factor.
        q, p = rnd(0.3, 0.8), rnd(0.05, 0.3)
        q3 = q ** 3
        a, b, c, d, e, f, g, h, u = (rnd() for _ in range(9))
        num = [((b, c), q, 1), ((d,), q, 2), ((e,), q3, 1)]
        den = [((f, g), q3, 1), ((h,), q, 2), ((u,), q, 1)]
        E = lambda z: truncated_product_E(z, p)
        prefactor = lambda k: E(a * q ** (3 * k)) / E(a)
        kmax = 4
        terms = vwp_terms(prefactor, num, den, q, kmax, p)
        assert len(terms) == kmax + 1
        want = []
        for k in range(kmax + 1):
            term = prefactor(k) * q ** k
            for groups, sign in ((num, 1), (den, -1)):
                for params, base, step in groups:
                    for x in params:
                        for t in range(step * k):
                            term *= E(x * base ** t) ** sign
            want.append(term)
        scale = max(abs(t) for t in want)
        for got, ref in zip(terms, want):
            assert abs(got - ref) <= 1e-12 * scale
        value, got_scale = vwp_sum(prefactor, num, den, q, kmax, p)
        assert abs(value - sum(want)) <= 1e-12 * scale
        assert rel_err(got_scale, scale) <= 1e-12

    def test_omega_first_term_is_exactly_one(self, rnd):
        spec = jackson_spec(rnd, n=3)
        terms = omega_terms(spec.a1, spec.full_upper(), spec.nome, 3)
        assert terms[0] == 1.0


FINITE = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)


class TestSummed:
    def test_recovers_cancellation(self):
        # A plain left-to-right sum misses the 1e-16 in either order.
        for terms in ([1.0, 1e-16, -1.0], [-1.0, 1e-16, 1.0]):
            assert sum(terms) != 1e-16
            assert _summed(complex(x, -x) for x in terms) == (1e-16 - 1e-16j, abs(1 - 1j))

    @given(st.lists(FINITE, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_matches_plain_sum_to_roundoff(self, values):
        value, scale = _summed(values)
        plain = sum(values, 0.0 + 0.0j)
        assert abs(value - plain) <= 1e-9 * (1 + abs(plain))
        assert scale == max((abs(z) for z in values), default=0.0)

    @given(st.lists(FINITE, min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_reversed_order(self, values):
        # Neumaier's bound, 2u|s| + O(n u^2) sum |t|, holds in any order,
        # so two orders differ by rounding of the total, not of the terms.
        forward, scale = _summed(values)
        backward, _ = _summed(reversed(values))
        assert abs(forward - backward) <= 1e-15 * abs(forward) + 1e-28 * len(values) * scale

    def test_mpc_terms_keep_their_precision(self):
        with workdps(50):
            tiny = to_wide(mpmath.mpc("1e-40", "1e-45"))
            value, scale = _summed([wide.ctx.convert(1 + 0j), tiny, wide.ctx.convert(-1 + 0j)])
            assert isinstance(value, wide.mpc)
            assert value == tiny
        assert scale == 1.0
