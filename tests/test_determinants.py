import math

import mpmath
import numpy as np
import pytest

from ellipsum import Nome
from ellipsum.determinants import (
    andrews_stanton_lu,
    andrews_stanton_matrix,
    andrews_stanton_product,
    corollary_determ_matrix,
    corollary_determ_product,
    det_lemma_matrix,
    det_lemma_product,
    det_numeric,
    shifted_product_family,
    theta_det_matrix,
    theta_det_product,
)
from ellipsum.errors import SingularToWorkingPrecision
from ellipsum.kernel import eval_E, theta1

from conftest import rel_err
from oracles import cofactor_det


def det_and_product(matrix, product, *args):
    """(det_numeric of a family's matrix, the family's closed-form product)."""
    return det_numeric(matrix(*args))[0], product(*args)


class TestDetNumeric:
    def test_identity_matrix(self):
        det, cond = det_numeric(np.eye(4, dtype=complex))
        assert det == 1.0 and cond == 1.0

    def test_two_by_two(self):
        a, b, c, d = 1.3 + 0.2j, -0.4j, 2.0, 0.5 - 1.0j
        det, _ = det_numeric([[a, b], [c, d]])
        assert rel_err(det, a * d - b * c) <= 1e-14

    def test_against_cofactor_oracle(self, rnd):
        m = [[rnd() for _ in range(5)] for _ in range(5)]
        det, _ = det_numeric(m)
        assert rel_err(det, cofactor_det(m)) <= 1e-10

    @pytest.mark.parametrize("n", range(1, 13))
    def test_against_lapack(self, n):
        """det and kappa_1 of random complex matrices against numpy's LAPACK."""
        state = np.random.default_rng(n)
        m = state.uniform(-1, 1, (n, n)) + 1j * state.uniform(-1, 1, (n, n))
        det, cond = det_numeric(m.tolist())
        assert rel_err(det, np.linalg.det(m)) <= 1e-12
        assert rel_err(cond, np.linalg.cond(m, 1)) <= 1e-10

    def test_mpc_entries_stay_mpc(self, rnd):
        with mpmath.workdps(50):
            m = [[mpmath.mpc(rnd()) for _ in range(4)] for _ in range(4)]
            det, cond = det_numeric(m)
            assert isinstance(det, mpmath.mpc) and isinstance(cond, mpmath.mpf)
            assert abs(det - mpmath.det(mpmath.matrix(m))) <= 1e-45 * abs(det)

    @pytest.mark.parametrize("matrix, reason", [
        ([[1 + 2j, 3 - 1j, 0.5], [2.0, 1j, -1.0], [1 + 2j, 3 - 1j, 0.5]], "zero pivot"),
        ([[1.0, math.inf], [2.0, 3.0]], "not finite"),
    ], ids=["equal_rows", "inf_entry"])
    def test_singular_raises(self, matrix, reason):
        with pytest.raises(SingularToWorkingPrecision, match=reason):
            det_numeric(matrix)

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            det_numeric([[1.0, 2.0]])

    @pytest.mark.parametrize("matrix", [[], [[1.0, 2.0], [3.0]]], ids=["empty", "ragged"])
    def test_rejects_empty_and_ragged(self, matrix):
        with pytest.raises(ValueError):
            det_numeric(matrix)

    def test_rejects_large(self):
        with pytest.raises(ValueError):
            det_numeric(np.eye(13))


class TestQuadraticBaseDeterminant:
    def test_one_by_one(self, rnd):
        nome = Nome(rnd(0.3, 0.8), rnd(0.05, 0.3))
        det, prod = det_and_product(andrews_stanton_matrix, andrews_stanton_product,
                                    rnd(), rnd(), nome, 1)
        assert rel_err(det, prod) <= 1e-12

    def test_small_sizes_random(self, rnd):
        for n in range(1, 6):
            nome = Nome(rnd(0.3, 0.8), rnd(0.05, 0.3))
            det, prod = det_and_product(andrews_stanton_matrix, andrews_stanton_product,
                                        rnd(0.7, 1.4), rnd(0.7, 1.4), nome, n)
            assert rel_err(det, prod) <= 1e-8

    def test_classical_case(self, rnd):
        for n in range(1, 6):
            nome = Nome(rnd(0.3, 0.8), 0.0)
            det, prod = det_and_product(andrews_stanton_matrix, andrews_stanton_product,
                                        rnd(0.7, 1.4), rnd(0.7, 1.4), nome, n)
            assert rel_err(det, prod) <= 1e-8

    def test_structural_zeros_far_above_diagonal(self, rnd):
        # Entries with column index beyond 2i vanish through the reciprocal
        # factorial convention; assembled as fractions they are exact zeros.
        nome = Nome(rnd(0.3, 0.8), rnd(0.05, 0.3))
        m = andrews_stanton_matrix(rnd(0.7, 1.4), rnd(0.7, 1.4), nome, 5)
        for i in range(1, 6):
            for j in range(1, 6):
                if j >= 2 * i + 1:
                    assert m[i - 1][j - 1] == 0.0

    def test_lu_factorization(self, rnd):
        x, y = rnd(0.7, 1.4), rnd(0.7, 1.4)
        nome = Nome(rnd(0.3, 0.8), rnd(0.05, 0.3))
        n = 5
        U, l_diag = andrews_stanton_lu(x, y, nome, n)
        for i in range(n):
            assert U[i][i] == 1.0
        M = np.array(andrews_stanton_matrix(x, y, nome, n))
        L = M @ np.array(U)
        for i in range(n):
            rowscale = max(abs(L[i, i]), 1e-300)
            for j in range(i + 1, n):
                assert abs(L[i, j]) / rowscale <= 1e-9
            assert rel_err(L[i, i], l_diag[i]) <= 1e-9
        det, _ = det_numeric(M)
        prod = 1.0
        for v in l_diag:
            prod *= v
        assert rel_err(det, prod) <= 1e-8


class TestPeriodicFamilyDeterminant:
    def test_one_by_one_is_trivial(self, rnd):
        nome = Nome(rnd(0.3, 0.8), rnd(0.05, 0.3))
        fam = shifted_product_family(rnd(), rnd(), nome, 1)
        det, prod = det_and_product(det_lemma_matrix, det_lemma_product,
                                    [rnd()], [rnd()], rnd(), nome, fam)
        assert det == prod == 1.0

    def test_family_periodicity_and_symmetry(self, rnd):
        # P_j(p x) = (c / x^2 p)^j P_j(x) and P_j(c/x) = P_j(x).
        for _ in range(50):
            nome = Nome(rnd(0.3, 0.8), rnd(0.05, 0.3))
            p = nome.p
            b, c = rnd(), rnd()
            n = 4
            fam = shifted_product_family(b, c, nome, n)
            x = rnd()
            for j, pj in enumerate(fam):
                if j == 0:
                    assert pj(x) == 1.0
                    continue
                lhs = pj(p * x)
                rhs = (c / (x * x * p)) ** j * pj(x)
                assert rel_err(lhs, rhs) <= 1e-11
                assert rel_err(pj(c / x), pj(x)) <= 1e-11

    def test_small_sizes_random(self, rnd):
        for n in range(1, 6):
            nome = Nome(rnd(0.3, 0.8), rnd(0.05, 0.3))
            c = rnd()
            fam = shifted_product_family(rnd(), c, nome, n)
            xs = [rnd() for _ in range(n)]
            avs = [rnd() for _ in range(n)]
            det, prod = det_and_product(det_lemma_matrix, det_lemma_product,
                                        xs, avs, c, nome, fam)
            assert rel_err(det, prod) <= 1e-8

    def test_classical_case(self, rnd):
        # p = 0 covers the Laurent-polynomial version of the lemma; the
        # shipped family degenerates to plain shifted products there.
        for n in (2, 3, 4):
            nome = Nome(rnd(0.3, 0.8), 0.0)
            c = rnd()
            fam = shifted_product_family(rnd(), c, nome, n)
            xs = [rnd() for _ in range(n)]
            avs = [rnd() for _ in range(n)]
            det, prod = det_and_product(det_lemma_matrix, det_lemma_product,
                                        xs, avs, c, nome, fam)
            assert rel_err(det, prod) <= 1e-10

    def test_reciprocal_specialization_triangularizes(self, rnd):
        # X_i = 1/A_i collapses the matrix to upper-triangular form whose
        # determinant is the explicit double product.
        nome = Nome(rnd(0.3, 0.8), rnd(0.05, 0.3))
        p = nome.p
        n = 4
        avs = [rnd() for _ in range(n)]
        xs = [1.0 / av for av in avs]
        b, c = rnd(), rnd()
        fam = shifted_product_family(b, c, nome, n)
        det, prod = det_and_product(det_lemma_matrix, det_lemma_product,
                                    xs, avs, c, nome, fam)
        tri = 1.0
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                tri *= eval_E(avs[j - 1] / avs[i - 1], p) * \
                    eval_E(c * avs[i - 1] * avs[j - 1], p)
            tri *= fam[i - 1](1.0 / avs[i - 1])
        assert rel_err(det, tri) <= 1e-10
        assert rel_err(prod, tri) <= 1e-10

    def test_nome_shifted_row_proportionality(self, rnd):
        # X_i = p X_j makes rows i and j proportional with the constant
        # (c / (p X_j^2))^{n-1}; asserted entrywise at n = 3.
        nome = Nome(rnd(0.3, 0.8), rnd(0.05, 0.3))
        p = nome.p
        n = 3
        b, c = rnd(), rnd()
        fam = shifted_product_family(b, c, nome, n)
        xj = rnd()
        xs = [p * xj, xj, rnd()]
        avs = [rnd() for _ in range(n)]
        m = det_lemma_matrix(xs, avs, c, nome, fam)
        const = (c / (p * xj * xj)) ** (n - 1)
        for col in range(n):
            assert rel_err(m[0][col], const * m[1][col]) <= 1e-10

    def test_two_by_two_reduces_to_addition_formula(self, rnd):
        # n = 2 instance against the four-factor addition relation rewritten
        # as a 2x2 determinant.
        nome = Nome(rnd(0.3, 0.8), rnd(0.05, 0.3))
        n = 2
        c = rnd()
        fam = shifted_product_family(rnd(), c, nome, n)
        xs = [rnd(), rnd()]
        avs = [rnd(), rnd()]
        det, prod = det_and_product(det_lemma_matrix, det_lemma_product,
                                    xs, avs, c, nome, fam)
        assert rel_err(det, prod) <= 1e-10


class TestFactorialRatioDeterminant:
    def test_one_by_one(self, rnd):
        nome = Nome(rnd(0.3, 0.8), rnd(0.05, 0.3))
        det, prod = det_and_product(corollary_determ_matrix, corollary_determ_product,
                                    [rnd()], rnd(), rnd(), rnd(), nome)
        assert det == prod == 1.0

    def test_small_sizes_random(self, rnd):
        for n in range(2, 6):
            nome = Nome(rnd(0.3, 0.8), rnd(0.05, 0.3))
            xs = [rnd() for _ in range(n)]
            det, prod = det_and_product(corollary_determ_matrix, corollary_determ_product,
                                        xs, rnd(), rnd(), rnd(), nome)
            assert rel_err(det, prod) <= 1e-8


class TestThetaDeterminant:
    def theta_args(self, rnd, n):
        p = rnd(0.05, 0.45)
        xs = [complex(abs(rnd(0.3, 2.8)), 0.3 * rnd(0.1, 1.0).real) for _ in range(n)]
        a, b, c = (complex(abs(rnd(0.1, 2.0)), 0.2 * rnd(0.1, 1.0).real)
                   for _ in range(3))
        return xs, a, b, c, p

    def test_two_by_two_random(self, rnd):
        for _ in range(5):
            xs, a, b, c, p = self.theta_args(rnd, 2)
            det, prod = det_and_product(theta_det_matrix, theta_det_product,
                                        xs, a, b, c, p)
            assert rel_err(det, prod) <= 1e-8

    def test_two_by_two_is_four_theta_addition(self, rnd):
        # Classical four-term relation in theta form.
        p = rnd(0.05, 0.45)
        u, v, x, y = (complex(abs(rnd(0.2, 2.0)), 0.2 * rnd(0.1, 1.0).real)
                      for _ in range(4))
        t = lambda z: theta1(z, p)
        lhs = t(u + x) * t(u - x) * t(v + y) * t(v - y) - \
            t(u + y) * t(u - y) * t(v + x) * t(v - x)
        rhs = t(x + y) * t(x - y) * t(u + v) * t(u - v)
        assert rel_err(lhs, rhs) <= 1e-12

    def test_three_by_three_random(self, rnd):
        xs, a, b, c, p = self.theta_args(rnd, 3)
        det, prod = det_and_product(theta_det_matrix, theta_det_product, xs, a, b, c, p)
        assert rel_err(det, prod) <= 1e-8

