import pytest

from ellipsum import DegenerateParameters, Nome
from ellipsum.inversion import (
    KrattenthalerPair,
    RawRPair,
    RStepPair,
    check_orthogonality,
    cubic_replay_sides,
    esum_sides,
    macdonald_sides,
    quadratic_replay_sides,
)
from ellipsum.kernel import eval_E, pochhammer_e

from conftest import rel_err


def nome_for(rnd):
    return Nome(rnd(0.3, 0.8), rnd(0.05, 0.3))


def make_pairs(rnd, n_max=8):
    nome = nome_for(rnd)
    a, b = rnd(), rnd()
    bs = [rnd() for _ in range(n_max + 2)]
    cs = [rnd() for _ in range(n_max + 2)]
    return [
        RStepPair(a, b, 2, nome),
        RawRPair(a, b, rnd(0.3, 0.8), nome),
        KrattenthalerPair(a, bs.__getitem__, cs.__getitem__, nome),
    ]


class TestEntries:
    def test_diagonal_reciprocity(self, rnd):
        for pair in make_pairs(rnd):
            for n in range(5):
                prod = pair.f_inv(n, n) * pair.f(n, n)
                assert rel_err(prod, 1.0) <= 1e-11

    def test_diagonal_self_consistency(self, rnd):
        # The k = n entry evaluated through the generic formula agrees with
        # itself computed a second time (pure determinism/structure check).
        for pair in make_pairs(rnd):
            for n in range(4):
                assert pair.f(n, n) == pair.f(n, n)
                assert pair.f_inv(n, n) == pair.f_inv(n, n)

    def test_step_pair_classical_base(self, rnd):
        # p = 0, step 1: entries match the classical single-base pair formula
        # built from plain products.
        q = rnd(0.4, 0.8)
        a, b = rnd(), rnd()
        nome = Nome(q, 0.0)
        pair = RStepPair(a, b, 1, nome)

        def cp(x, n):
            val = 1.0
            for k in range(n):
                val *= 1 - x * q ** k
            return val

        for n in range(5):
            for k in range(n + 1):
                want = (1 - a * b * q ** (2 * k)) / (1 - a * b)
                want *= cp(a * q ** n, k) / cp(b * q ** (1 - n), k)
                want *= cp(a * b, k) * cp(q ** (-n), k)
                want /= cp(q, k) * cp(a * b * q ** (n + 1), k)
                want *= q ** k
                assert rel_err(pair.f(n, k), want) <= 1e-12

    def test_sequence_pair_substitution_reproduces_step_pair(self, rnd):
        # With a -> ab, b_i -> a q^i, c_i -> q^{r i} the sequence pair carries
        # the step pair up to a separable row/column rescaling: the entry
        # ratio h satisfies h(n,k) h(k,0) = h(n,0) h(k,k).  Individual entries
        # overflow binary64 at small |q| for r = 3, so |q| stays above 0.5.
        for r in (1, 2, 3):
            for _ in range(7):
                nome = Nome(rnd(0.5, 0.8), rnd(0.05, 0.25))
                q = nome.q
                a, b = rnd(), rnd()
                kr = KrattenthalerPair(a * b, lambda i: a * q ** i,
                                       lambda i, r=r: q ** (r * i), nome)
                rp = RStepPair(a, b, r, nome)
                h = {}
                for n in range(5):
                    for k in range(n + 1):
                        h[n, k] = rp.f(n, k) / kr.f(n, k)
                for n in range(5):
                    for k in range(n + 1):
                        lhs = h[n, k] * h[k, 0]
                        rhs = h[n, 0] * h[k, k]
                        assert rel_err(lhs, rhs) <= 1e-10


class TestOrthogonality:
    def test_trivial_size(self, rnd):
        for pair in make_pairs(rnd):
            assert check_orthogonality(pair, 0) <= 1e-14

    def test_step_pair_all_steps(self, rnd):
        for r in (1, 2, 3, 4):
            nome = nome_for(rnd)
            pair = RStepPair(rnd(), rnd(), r, nome)
            assert check_orthogonality(pair, 8) <= 1e-8

    def test_free_base_pair(self, rnd):
        nome = nome_for(rnd)
        pair = RawRPair(rnd(), rnd(), rnd(0.3, 0.8), nome)
        assert check_orthogonality(pair, 8) <= 1e-8

    def test_sequence_pair(self, rnd):
        nome = nome_for(rnd)
        bs = [rnd() for _ in range(10)]
        cs = [rnd() for _ in range(10)]
        pair = KrattenthalerPair(rnd(), bs.__getitem__, cs.__getitem__, nome)
        assert check_orthogonality(pair, 6) <= 1e-8

    def test_rejects_uncontrolled_size(self, rnd):
        pair = make_pairs(rnd)[0]
        with pytest.raises(ValueError):
            check_orthogonality(pair, 13)


def sum1_term(a, b, c, r, nome: Nome, n: int, k: int):
    """k-th summand of the two-base telescoping sum at its d = r^n point."""
    q, p = nome.q, nome.p
    nr = nome.with_base(r)
    val = eval_E(a * (q * r) ** k, p) * eval_E(b * r ** k * q ** (-k), p)
    val /= eval_E(a, p) * eval_E(b, p)
    val *= pochhammer_e(a / c, nome, k) * pochhammer_e(c / b, nome, k)
    val *= pochhammer_e(a * b * r ** n, nr, k) * pochhammer_e(r ** (-n), nr, k)
    val /= pochhammer_e(c * r, nr, k) * pochhammer_e(a * b * r / c, nr, k)
    val /= pochhammer_e(q * r ** (-n) / b, nome, k)
    val /= pochhammer_e(a * q * r ** n, nome, k)
    return val * q ** k


def shifted_sum1_params(a, b, r, l: int, q):
    """The parameter shift (c = 1, a -> a q^l r^l, b -> b q^{-l} r^l) that
    turns the telescoping sum into the orthogonality relation at offset l."""
    return a * (q * r) ** l, b * r ** l * q ** (-l), 1.0


class TestShiftChain:
    def test_telescoping_sum_becomes_orthogonality_termwise(self, rnd):
        # The c = 1 shift of the closing telescoping sum reproduces each
        # product f^{-1}_{n,k} f_{k,l} up to the k-independent normalization
        # fixed by the leading term.
        nome = nome_for(rnd)
        a, b, r = rnd(), rnd(), rnd(0.3, 0.8)
        pair = RawRPair(a, b, r, nome)
        for n, l in ((3, 0), (4, 1), (5, 2), (4, 4)):
            a2, b2, c2 = shifted_sum1_params(a, b, r, l, nome.q)
            norm = pair.f_inv(n, l) * pair.f(l, l)
            for k in range(l, n + 1):
                term = sum1_term(a2, b2, c2, r, nome, n - l, k - l)
                want = pair.f_inv(n, k) * pair.f(k, l)
                assert rel_err(term * norm, want) <= 1e-11


class TestApplyPair:
    def test_quadratic_replay(self, rnd):
        done = 0
        while done < 3:
            nome = Nome(rnd(0.55, 0.8), rnd(0.05, 0.25))
            a, b, c, d = (rnd(0.7, 1.4) for _ in range(4))
            try:
                for n in range(6):
                    applied, closed, scale = quadratic_replay_sides(a, b, c, d, nome, n)
                    if not scale < 1e6 * abs(closed):
                        raise DegenerateParameters("cancellation-dominated")
                    assert rel_err(applied, closed) <= 1e-8
            except DegenerateParameters:
                continue
            done += 1

    def test_cubic_replay(self, rnd):
        done = 0
        while done < 3:
            nome = Nome(rnd(0.55, 0.8), rnd(0.05, 0.25))
            a, b, c = (rnd(0.7, 1.4) for _ in range(3))
            try:
                for n in range(6):
                    applied, closed, scale = cubic_replay_sides(a, b, c, nome, n)
                    if not scale < 1e6 * abs(closed):
                        raise DegenerateParameters("cancellation-dominated")
                    assert rel_err(applied, closed) <= 1e-8
            except DegenerateParameters:
                continue
            done += 1


class TestAdditionFormula:
    def test_esum_random(self, rnd):
        for _ in range(100):
            p = rnd(0.05, 0.3)
            lhs, rhs = esum_sides(rnd(), rnd(), rnd(), rnd(), p)
            assert rel_err(lhs, rhs) <= 1e-10

    def test_macdonald_lemma(self, rnd):
        for _ in range(50):
            p = rnd(0.05, 0.3)
            n = 1 + int(abs(rnd()) * 2) % 6
            seqs = [[rnd() for _ in range(n + 1)] for _ in range(4)]
            lhs, rhs = macdonald_sides(*seqs, p)
            assert rel_err(lhs, rhs) <= 1e-10

    def test_macdonald_base_case_is_addition_formula(self, rnd):
        p = rnd(0.05, 0.3)
        u, v, x, y = rnd(), rnd(), rnd(), rnd()
        lhs, rhs = macdonald_sides([u], [v], [x], [y], p)
        el, er = esum_sides(u, v, x, y, p)
        # n = 0 lemma: sum = (v/x) * four-E product = el's right side
        assert rel_err(lhs * x / v, er * x / v) <= 1e-12
        assert rel_err(rhs, el) <= 1e-12

    def test_macdonald_rejects_ragged_input(self, rnd):
        with pytest.raises(ValueError):
            macdonald_sides([1.0], [1.0, 2.0], [1.0], [1.0], 0.1)
