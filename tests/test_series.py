import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipsum import DegenerateParameters, Nome, wide
from ellipsum.catalog import ParamPoint
from ellipsum.kernel import eval_E
from ellipsum.series import (
    Omega,
    Side,
    Term,
    _monomial,
    _summed,
    _times,
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

# The terminating Jackson series over the letters of a point.
JACKSON = Side(Term(series=Omega("a", ("b", "c", "d", "e", "q^-n"), "q", "n")))


def jackson_point(rnd, n=3, p=None):
    """A point of JACKSON with e solved from the balancing condition."""
    q, p = rnd(0.3, 0.8), rnd(0.05, 0.3) if p is None else p
    a, b, c, d = rnd(), rnd(), rnd(), rnd()
    e = a * a * q ** (n + 1) / (b * c * d)
    return ParamPoint(Nome(q, p), {"a": a, "b": b, "c": c, "d": d, "e": e}, n)


def uppers_of(pt):
    v = pt.values
    return (v["b"], v["c"], v["d"], v["e"], pt.nome.q ** -pt.n)


def imbalance(omega: Omega) -> tuple:
    """The exponent vector of (a4 ... a_{r+1})^2 / (a1^{r-3} B^{r-5}), r the
    number of uppers plus 2: empty exactly when the series is balanced."""
    r = len(omega.uppers) + 2
    return _times(*((_monomial(u), 2) for u in omega.uppers),
                  (_monomial(omega.point), 3 - r), (_monomial(omega.base), 5 - r))


class TestOmega:
    def test_zero_termination_is_one(self, rnd):
        value, scale = JACKSON(jackson_point(rnd, n=0))
        assert value == 1.0 and scale == 1.0

    def test_classical_jackson_sum(self, rnd):
        # p = 0 with the product constraint: closed form of the classical sum.
        n = 4
        pt = jackson_point(rnd, n, p=0.0)
        q, (a, b, c, d) = pt.nome.q, (pt.values[k] for k in "abcd")
        got, _ = JACKSON(pt)
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
        prod = uppers[0] * uppers[1] * uppers[2] * uppers[3]
        assert rel_err(prod * prod, a1 ** 3 * q) <= 1e-12
        side = Side(Term(series=Omega("a", ("b", "c", "d", "q^-n"), "q", "n")))
        pt = ParamPoint(Nome(q, p), dict(zip("abcd", (a1, *uppers[:3]))), n)
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
        assert abs(side(pt)[0] - want) <= 1e-13 * scale

    def test_p_to_zero_matches_classical_evaluator(self, rnd):
        for _ in range(100):
            pt = jackson_point(rnd, 3, p=0.0)
            want = classical_w_sum(pt.values["a"], uppers_of(pt), pt.nome.q, 3)
            assert rel_err(JACKSON(pt)[0], want) <= 1e-12

    def test_term_ratio_matches_explicit_factors(self, rnd):
        # Guards index bookkeeping: summand ratios rebuilt from single E calls.
        pt = jackson_point(rnd, n=5)
        a1, (q, p), uppers = pt.values["a"], pt.nome, uppers_of(pt)
        terms = omega_terms(a1, uppers, pt.nome, pt.n)
        for k in range(1, len(terms)):
            ratio = eval_E(a1 * q ** (2 * k), p) / eval_E(a1 * q ** (2 * k - 2), p) * q
            ratio *= eval_E(a1 * q ** (k - 1), p)
            for u in uppers:
                ratio *= eval_E(u * q ** (k - 1), p)
            ratio /= eval_E(q ** k, p)
            for u in uppers:
                ratio /= eval_E(a1 * q ** k / u, p)
            assert rel_err(terms[k] / terms[k - 1], ratio) <= 1e-11

    def test_degenerate_denominator_reports_position(self):
        # The upper a q makes the lower a q / (a q) exactly 1 on exponents,
        # so the k = 1 denominator factor is E(1) = 0: a pole, raised.
        side = Side(Term(series=Omega("a", ("a q", "b", "c", "d", "q^-n"), "q", "n")))
        pt = ParamPoint(Nome(0.5, 0.1), {"a": 0.3, "b": 0.4, "c": 0.7, "d": 1.1}, 2)
        with pytest.raises(DegenerateParameters, match="^denominator factor"):
            side(pt)

    def test_spec_matches_omega_sum(self, rnd):
        # the lowers on exponents round apart from a1 q / u in arithmetic
        for n in range(6):
            pt = jackson_point(rnd, n)
            value, scale = JACKSON(pt)
            want, want_scale = omega_sum(pt.values["a"], uppers_of(pt), pt.nome, n)
            assert abs(value - want) <= 1e-14 * want_scale
            assert rel_err(scale, want_scale) <= 1e-14


class TestBalanceResidual:
    """Balancing, (a4 ... a_{r+1})^2 = a1^{r-3} q^{r-5}, is exact arithmetic
    on the exponents of a spec."""

    def test_jackson_point_is_exact(self):
        assert imbalance(Omega("a", ("b", "c", "d", "a^2 q^(n+1)/b c d", "q^-n"), "q", "n")) == ()

    def test_perturbation_detected(self):
        bad = Omega("a", ("b q", "c", "d", "a^2 q^(n+1)/b c d", "q^-n"), "q", "n")
        assert imbalance(bad) == (("q", 2, 0),)

    def test_ten_term_constraint_point(self):
        g = "a^3 q^(n+2)/b c d e f"
        assert imbalance(Omega("a", ("b", "c", "d", "e", "f", g, "q^-n"), "q", "n")) == ()
        # in the base q^2, as the quadratic transformation's right side is
        omega = Omega("a", ("b", "c", "d", "e", "f", "a^3 q^(2n+4)/b c d e f", "q^-2n"),
                      "q^2", "n")
        assert imbalance(omega) == ()

    def test_monomial_text(self):
        assert _monomial("a^2 q^(2n+1)/b c") == (("a", 2, 0), ("b", -1, 0), ("c", -1, 0),
                                                 ("q", 1, 2))
        assert _monomial("1/b") == (("b", -1, 0),)
        assert _monomial("q^(1-n) q^-n/q") == (("q", 0, -2),)
        assert _monomial("a/a") == ()


class TestOmegaSumScale:
    def test_scale_tracks_largest_term(self, rnd):
        pt = jackson_point(rnd, n=4)
        value, scale = omega_sum(pt.values["a"], uppers_of(pt), pt.nome, 4)
        terms = omega_terms(pt.values["a"], uppers_of(pt), pt.nome, 4)
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
        pt = jackson_point(rnd, n=3)
        terms = omega_terms(pt.values["a"], uppers_of(pt), pt.nome, 3)
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
