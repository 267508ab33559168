import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipsum import BalanceViolation, Nome
from ellipsum.multivar import (
    CnPoint,
    Partition,
    cn_jackson_sides,
    conjecture_sides,
    enumerate_partitions,
    eval_Omega,
    omega87_sides,
)
from ellipsum.series import omega_sum

from conftest import omega_at_x1, rel_err
from oracles import brute_partitions


class TestPartition:
    def test_statistics(self):
        lam = Partition((3, 1, 0))
        assert lam.weight == 4
        assert lam.n_weight == 1

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Partition((1, -1))


class TestEnumeration:
    def test_single_row(self):
        got = [lam.parts for lam in enumerate_partitions(1, 4)]
        assert sorted(got) == [(0,), (1,), (2,), (3,), (4,)]

    def test_two_rows_cap_two(self):
        got = sorted(lam.parts for lam in enumerate_partitions(2, 2))
        assert got == [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]

    def test_three_rows_against_brute_filter(self):
        got = sorted(lam.parts for lam in enumerate_partitions(3, 3))
        assert got == brute_partitions(3, 3)
        assert len(got) == 20

    @given(st.integers(1, 4), st.integers(0, 5))
    @settings(max_examples=24, deadline=None)
    def test_count_property(self, nparts, cap):
        lams = list(enumerate_partitions(nparts, cap))
        assert len(lams) == math.comb(cap + nparts, nparts)
        assert len(set(lam.parts for lam in lams)) == len(lams)

    def test_rejects_desk_scale_overrun(self):
        with pytest.raises(ValueError):
            list(enumerate_partitions(7, 2))


def jackson_point(rnd, n, N):
    q, p = rnd(0.3, 0.8), rnd(0.05, 0.3)
    a, b, c, d = rnd(), rnd(), rnd(), rnd()
    e = a * a * q ** (N - n + 2) / (b * c * d)
    xs = tuple(rnd(0.8, 1.25) for _ in range(n))
    return CnPoint(Nome(q, p), n, N, xs, a=a, b=b, c=c, d=d, e=e)


class TestCnJackson:
    def test_one_variable_reduction(self, rnd):
        pt = jackson_point(rnd, 1, 3)
        lhs, rhs = cn_jackson_sides(pt)
        assert rel_err(lhs, rhs) <= 1e-10

    def test_zero_cap(self, rnd):
        pt = jackson_point(rnd, 3, 0)
        lhs, rhs = cn_jackson_sides(pt)
        assert lhs == 1.0
        assert rel_err(rhs, 1.0) <= 1e-14

    def test_two_by_two_brute_force(self, rnd):
        pt = jackson_point(rnd, 2, 2)
        lhs, rhs = cn_jackson_sides(pt)
        assert rel_err(lhs, rhs) <= 1e-8

    def test_constraint_enforced(self, rnd):
        pt = jackson_point(rnd, 2, 2)
        bad = CnPoint(pt.nome, 2, 2, pt.x, a=pt.a, b=pt.b * 1.05, c=pt.c,
                      d=pt.d, e=pt.e)
        with pytest.raises(BalanceViolation):
            cn_jackson_sides(bad)

    def test_brute_force_cap(self, rnd):
        pt = jackson_point(rnd, 2, 2)
        big = CnPoint(pt.nome, 2, 400, pt.x, a=pt.a, b=pt.b, c=pt.c, d=pt.d,
                      e=pt.a * pt.a * pt.nome.q ** 400 / (pt.b * pt.c * pt.d))
        with pytest.raises(ValueError):
            cn_jackson_sides(big)


class TestOmegaSeries:
    def test_single_part_reduces_to_one_variable(self, rnd):
        q, p = rnd(0.3, 0.8), rnd(0.05, 0.3)
        nome = Nome(q, p)
        a, b, c, d = rnd(), rnd(), rnd(), rnd()
        N = 2
        e = a * a * q ** (N + 1) / (b * c * d)
        got = eval_Omega(a, (b, c, d, e), nome, rnd(0.8, 0.95), 1, N)
        want, _ = omega_sum(a, (b, c, d, e, q ** (-N)), nome, N)
        assert rel_err(got, want) <= 1e-12

    def test_zero_cap_is_one(self, rnd):
        q, p = rnd(0.3, 0.8), rnd(0.05, 0.3)
        a, b, c, d = rnd(), rnd(), rnd(), rnd()
        x = rnd(0.8, 0.95)
        n = 3
        e = a * a * q * x ** (1 - n) / (b * c * d)
        assert eval_Omega(a, (b, c, d, e), Nome(q, p), x, n, 0) == 1.0

    def test_x_one_collapse_is_power(self, rnd):
        q, p = rnd(0.3, 0.8), rnd(0.05, 0.3)
        nome = Nome(q, p)
        a, b, c, d = rnd(), rnd(), rnd(), rnd()
        n, N = 2, 2
        e = a * a * q ** (N + 1) / (b * c * d)
        collapsed = omega_at_x1(a, (b, c, d, e), nome, n, N)
        w, _ = omega_sum(a, (b, c, d, e, q ** (-N)), nome, N)
        assert rel_err(collapsed, w ** n) <= 1e-10

    def test_x_one_collapse_single_part(self, rnd):
        q, p = rnd(0.3, 0.8), rnd(0.05, 0.3)
        nome = Nome(q, p)
        a, b, c, d = rnd(), rnd(), rnd(), rnd()
        N = 1
        e = a * a * q ** (N + 1) / (b * c * d)
        got = omega_at_x1(a, (b, c, d, e), nome, 1, N)
        want, _ = omega_sum(a, (b, c, d, e, q ** (-N)), nome, N)
        assert rel_err(got, want) <= 1e-13

    def test_near_one_continuity(self, rnd):
        q, p = rnd(0.3, 0.8), rnd(0.05, 0.3)
        nome = Nome(q, p)
        a, b, c, d = rnd(), rnd(), rnd(), rnd()
        n, N = 2, 2
        x = 1.0 + 1e-4
        e = a * a * q ** (N + 1) * x ** (1 - n) / (b * c * d)
        near = eval_Omega(a, (b, c, d, e), nome, x, n, N)
        e1 = a * a * q ** (N + 1) / (b * c * d)
        collapsed = omega_at_x1(a, (b, c, d, e1), nome, n, N)
        assert rel_err(near, collapsed) <= 1e-3

    def test_balance_enforced(self, rnd):
        q, p = rnd(0.3, 0.8), rnd(0.05, 0.3)
        with pytest.raises(BalanceViolation):
            eval_Omega(rnd(), (rnd(), rnd(), rnd(), rnd()), Nome(q, p),
                       rnd(0.8, 0.95), 2, 2)


class TestConjecture:
    def conj_point(self, rnd, n, N):
        q, p = rnd(0.3, 0.8), rnd(0.05, 0.3)
        x = rnd(0.75, 0.95)
        a, b, c, d, e, f = (rnd() for _ in range(6))
        g = a ** 3 * q ** (N + 2) / (b * c * d * e * f * x ** (n - 1))
        return CnPoint(Nome(q, p), n, N, x, a=a, b=b, c=c, d=d, e=e, f=f, g=g)

    def test_one_variable_case_is_proven_transformation(self, rnd):
        pt = self.conj_point(rnd, 1, 3)
        lhs, rhs = conjecture_sides(pt)
        assert rel_err(lhs, rhs) <= 1e-10

    def test_zero_cap(self, rnd):
        pt = self.conj_point(rnd, 2, 0)
        lhs, rhs = conjecture_sides(pt)
        assert lhs == 1.0
        assert rel_err(rhs, 1.0) <= 1e-12

    def test_two_rows_random(self, rnd):
        for N in (1, 2):
            pt = self.conj_point(rnd, 2, N)
            lhs, rhs = conjecture_sides(pt)
            assert rel_err(lhs, rhs) <= 1e-7

    def test_rectangle_evaluation(self, rnd):
        for n, N in ((2, 2), (3, 1)):
            q, p = rnd(0.3, 0.8), rnd(0.05, 0.3)
            x = rnd(0.75, 0.95)
            a, b, c, d = (rnd() for _ in range(4))
            e = a * a * q ** (N + 1) / (b * c * d * x ** (n - 1))
            pt = CnPoint(Nome(q, p), n, N, x, a=a, b=b, c=c, d=d, e=e)
            lhs, rhs = omega87_sides(pt)
            assert rel_err(lhs, rhs) <= 1e-7
