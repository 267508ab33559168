"""Lower-triangular inverse pairs and the machinery that produces them.

Three families of pairs (f, f^{-1}) with sum_{k=l}^{n} f^{-1}_{n,k} f_{k,l}
= delta_{n,l} are provided:

* ``RStepPair``   -- the pair with integer step r obtained by stretching the
  second base to q^r; the workhorse behind the quadratic/cubic/quartic
  transformations.
* ``RawRPair``    -- the same construction before stretching, with a free
  complex second base r.
* ``KrattenthalerPair`` -- the general pair built from two parameter
  sequences b_i, c_i and a scalar a.

Matrices are realized as entry functions, never stored: entries are cheap
and the formulas are the source of truth.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

from .errors import DegenerateParameters
from .kernel import (
    Nome,
    binom2,
    eval_E,
    pochhammer_e,
)
from .series import _summed, omega_sum


class _RStepFields(NamedTuple):
    a: complex
    b: complex
    r: int
    nome: Nome


class RStepPair(_RStepFields):
    """Inverse pair with bases (q, q^r) for a positive integer step r."""

    __slots__ = ()

    def __new__(cls, a, b, r, nome):
        if r < 1:
            raise ValueError("step r must be a positive integer")
        return super().__new__(cls, a, b, r, nome)

    def f(self, n: int, k: int):
        a, b, r = self.a, self.b, self.r
        q, p = self.nome.q, self.nome.p
        nr = self.nome.with_base(q ** r)
        val = eval_E(a * b * q ** (2 * r * k), p) / eval_E(a * b, p)
        val *= pochhammer_e(a * q ** n, self.nome, r * k)
        val /= pochhammer_e(b * q ** (1 - n), self.nome, r * k)
        val *= pochhammer_e(a * b, nr, k)
        val *= pochhammer_e(q ** (-r * n), nr, k)
        val /= pochhammer_e(q ** r, nr, k)
        val /= pochhammer_e(a * b * q ** (r * n + r), nr, k)
        return val * q ** (r * k)

    def f_inv(self, n: int, k: int):
        a, b, r = self.a, self.b, self.r
        q, p = self.nome.q, self.nome.p
        nr = self.nome.with_base(q ** r)
        val = pochhammer_e(b, self.nome, r * n)
        val /= pochhammer_e(a * q, self.nome, r * n)
        val *= eval_E(a * q ** ((r + 1) * k), p)
        val *= eval_E(b * q ** ((r - 1) * k), p)
        val /= eval_E(a, p) * eval_E(b, p)
        val *= pochhammer_e(a, self.nome, k)
        val *= pochhammer_e(1.0 / b, self.nome, k)
        val /= pochhammer_e(q ** r, nr, k)
        val /= pochhammer_e(a * b * q ** r, nr, k)
        val *= pochhammer_e(a * b * q ** (r * n), nr, k)
        val *= pochhammer_e(q ** (-r * n), nr, k)
        val /= pochhammer_e(q ** (1 - r * n) / b, self.nome, k)
        val /= pochhammer_e(a * q ** (r * n + 1), self.nome, k)
        return val * q ** k


class RawRPair(NamedTuple):
    """Inverse pair with a free complex second base r (the pre-stretch form)."""

    a: complex
    b: complex
    r: complex
    nome: Nome

    def f(self, n: int, k: int):
        a, b, r = self.a, self.b, self.r
        q = self.nome.q
        nr = self.nome.with_base(r)
        val = pochhammer_e(a * q ** k * r ** k, self.nome, n - k)
        val *= pochhammer_e(q ** k * r ** (-k) / b, self.nome, n - k)
        val /= pochhammer_e(r, nr, n - k)
        val /= pochhammer_e(a * b * r ** (2 * k + 1), nr, n - k)
        return val

    def f_inv(self, n: int, k: int):
        a, b, r = self.a, self.b, self.r
        q, p = self.nome.q, self.nome.p
        nr = self.nome.with_base(r)
        # The power of the second base here is r^C(n-k,2): with q in that
        # slot the pair fails orthogonality (checked by explicit inversion),
        # and the stretched-base pair requires the r form.
        val = (-1.0) ** (n - k) * r ** binom2(n - k)
        val *= eval_E(a * q ** k * r ** k, p)
        val *= eval_E(q ** k * r ** (-k) / b, p)
        val /= eval_E(a * q ** n * r ** n, p)
        val /= eval_E(q ** n * r ** (-n) / b, p)
        val *= pochhammer_e(a * q ** (k + 1) * r ** n, self.nome, n - k)
        val *= pochhammer_e(q ** (k + 1) * r ** (-n) / b, self.nome, n - k)
        val /= pochhammer_e(r, nr, n - k)
        val /= pochhammer_e(a * b * r ** (n + k), nr, n - k)
        return val


class KrattenthalerPair(NamedTuple):
    """General inverse pair from sequences b_i, c_i and a scalar a.

    Requires c_i distinct and a*c_i*c_j != 1 for the indices used.
    ``b_seq`` and ``c_seq`` map an integer index to a complex value.
    """

    a: complex
    b_seq: Callable[[int], complex]
    c_seq: Callable[[int], complex]
    nome: Nome

    def f(self, n: int, k: int):
        a = self.a
        p = self.nome.p
        ck = self.c_seq(k)
        num = 1.0
        for j in range(k, n):
            bj = self.b_seq(j)
            num *= eval_E(ck * bj, p) * eval_E(a * ck / bj, p)
        den = 1.0
        for j in range(k + 1, n + 1):
            cj = self.c_seq(j)
            den *= cj * eval_E(a * ck * cj, p) * eval_E(ck / cj, p)
        return num / den

    def f_inv(self, n: int, k: int):
        a = self.a
        p = self.nome.p
        ck, cn = self.c_seq(k), self.c_seq(n)
        bk, bn = self.b_seq(k), self.b_seq(n)
        val = eval_E(ck * bk, p) * eval_E(a * ck / bk, p)
        val /= eval_E(cn * bn, p) * eval_E(a * cn / bn, p)
        for j in range(k + 1, n + 1):
            bj = self.b_seq(j)
            val *= eval_E(cn * bj, p) * eval_E(a * cn / bj, p)
        for j in range(k, n):
            cj = self.c_seq(j)
            val /= cj * eval_E(a * cn * cj, p) * eval_E(cn / cj, p)
        return val


InversePair = RStepPair | RawRPair | KrattenthalerPair


def check_orthogonality(pair: InversePair, n_max: int) -> float:
    """max over 0 <= l <= n <= n_max of the normalized orthogonality residual.

    For each (n, l) the sum sum_k f^{-1}_{n,k} f_{k,l} is compared against
    delta_{n,l}; the residual is normalized by the largest term magnitude,
    because raw entries can span many orders of magnitude.
    """
    if n_max > 12:
        raise ValueError("n_max above 12 is outside the conditioned regime")
    worst = 0.0
    finv = {}
    f = {}
    for n in range(n_max + 1):
        for k in range(n + 1):
            try:
                finv[n, k] = pair.f_inv(n, k)
                f[n, k] = pair.f(n, k)
            except DegenerateParameters as exc:
                raise DegenerateParameters(f"entry (n={n}, k={k}): {exc}") from exc
    for n in range(n_max + 1):
        for l in range(n + 1):
            total, scale = _summed(finv[n, k] * f[k, l] for k in range(l, n + 1))
            target = 1.0 if n == l else 0.0
            worst = max(worst, float(abs(total - target) / max(scale, 1e-300)))
    return worst


def esum_sides(u, v, x, y, p):
    """Both sides of the four-factor addition formula for E."""
    E = lambda z: eval_E(z, p)
    lhs = E(u * x) * E(u / x) * E(v * y) * E(v / y) \
        - E(u * y) * E(u / y) * E(v * x) * E(v / x)
    rhs = (v / x) * E(x * y) * E(x / y) * E(u * v) * E(u / v)
    return lhs, rhs


def macdonald_sides(a: Sequence, b: Sequence, c: Sequence, d: Sequence, p):
    """Both sides of the telescoped addition-formula lemma.

    ``a, b, c, d`` are sequences of equal length n+1; the left side is the
    n+1 term sum, the right side the difference of the two full products.
    """
    n = len(a) - 1
    if not (len(b) == len(c) == len(d) == n + 1):
        raise ValueError("parameter sequences must share one length")
    E = lambda z: eval_E(z, p)

    def term(k: int):
        t = b[k] / c[k] * E(a[k] * b[k]) * E(a[k] / b[k]) * E(c[k] * d[k]) * E(c[k] / d[k])
        for j in range(k):
            t *= E(a[j] * c[j]) * E(a[j] / c[j]) * E(b[j] * d[j]) * E(b[j] / d[j])
        for j in range(k + 1, n + 1):
            t *= E(a[j] * d[j]) * E(a[j] / d[j]) * E(b[j] * c[j]) * E(b[j] / c[j])
        return t

    lhs, _ = _summed(map(term, range(n + 1)))
    prod1 = 1.0
    prod2 = 1.0
    for j in range(n + 1):
        prod1 *= E(a[j] * c[j]) * E(a[j] / c[j]) * E(b[j] * d[j]) * E(b[j] / d[j])
        prod2 *= E(a[j] * d[j]) * E(a[j] / d[j]) * E(b[j] * c[j]) * E(b[j] / c[j])
    return lhs, prod1 - prod2


def _replay_sides(r: int, a, b, nome: Nome, n: int, a_seq: Callable[[int], complex],
                  closed_nums: Sequence, closed_dens: Sequence):
    """(sum_k f_{n,k} a_k over the r-step pair, closed form, largest term).

    The closed form is the product of the ``closed_nums`` over the
    ``closed_dens``, each a (parameter, nome, length) shifted factorial.
    """
    pair = RStepPair(a, b, r, nome)
    total, scale = _summed(pair.f(n, k) * a_seq(k) for k in range(n + 1))
    (u, base, m), *nums = closed_nums
    closed = pochhammer_e(u, base, m)
    for u, base, m in nums:
        closed *= pochhammer_e(u, base, m)
    for u, base, m in closed_dens:
        closed /= pochhammer_e(u, base, m)
    return total, closed, scale


def quadratic_replay_sides(a, b, c, d, nome: Nome, n: int):
    """Reproduce the closed form b_n of the quadratic-transformation proof by
    pushing the series-valued sequence a_k through the r = 2 pair.

    Returns (sum_k f_{n,k} a_k, closed form, largest term magnitude).  The
    last value lets callers detect cancellation-dominated draws: individual
    terms can dwarf the answer even though each product f_{n,k} a_k is finite.
    """
    q = nome.q
    n2 = nome.with_base(q * q)

    def a_seq(k: int):
        val = pochhammer_e(b / d, n2, k) * pochhammer_e(b * d * q, n2, k)
        val /= pochhammer_e(a * d * q * q, n2, k) * pochhammer_e(a * q / d, n2, k)
        uppers = (a * d / c, c, d * q, d * q * q, a * q / b,
                  a * b * q ** (2 * k), (q * q) ** (-k))
        inner, _ = omega_sum(a * d, uppers, n2, k)
        return val * inner

    return _replay_sides(
        2, a, b, nome, n, a_seq,
        ((q * q, n2, n), (a * b * q * q, n2, n), (a * q / b, n2, n),
         (a / c, nome, n), (c / d, nome, n), (d * q, nome, n)),
        ((a, nome, n), (1.0 / b, nome, n), (b * q, nome, n),
         (c * q * q, n2, n), (a * d * q * q / c, n2, n), (a * q / d, n2, n)))


def cubic_replay_sides(a, b, c, nome: Nome, n: int):
    """Same proof replay for the cubic transformation with the r = 3 pair."""
    q = nome.q
    n3 = nome.with_base(q ** 3)

    def a_seq(k: int):
        val = pochhammer_e(b * b / a, n3, k)
        val /= pochhammer_e(a * a * q ** 3 / b, n3, k)
        uppers = (a * c / b, a / c, a * q / b, a * q * q / b, a * q ** 3 / b,
                  a * b * q ** (3 * k), q ** (-3 * k))
        inner, _ = omega_sum(a * a / b, uppers, n3, k)
        return val * inner

    return _replay_sides(
        3, a, b, nome, n, a_seq,
        ((q ** 3, n3, n), (a * b * q ** 3, n3, n), (b / c, nome, n), (c, nome, n),
         (a * q / b, nome, 2 * n)),
        ((a, nome, n), (1.0 / b, nome, n), (a * c * q ** 3 / b, n3, n),
         (a * q ** 3 / c, n3, n), (b * q, nome, 2 * n)))
