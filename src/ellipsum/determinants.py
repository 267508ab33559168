"""Structured determinants with closed-form product evaluations.

Four families are covered:

* the quadratic-base determinant whose LU factorization is carried out
  explicitly (``andrews_stanton_*``),
* the general elliptic determinant lemma with a row-periodic function family
  (``det_lemma_*``),
* its shifted-factorial corollary (``corollary_determ_*``),
* the same corollary rewritten in theta functions (``theta_det_*``).

Each family has one matrix builder and one closed-form product; a check
compares :func:`det_numeric` of the one with the other.  Matrix entries are
assembled from unreduced Pochhammer fractions so the structural zeros
produced by negative indices are exact.  The determinants suite's draws and
check table (``DETERMINANTS_CHECKS``) close the module.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Sequence

from .errors import DegenerateParameters, SingularToWorkingPrecision
from .kernel import (
    Nome,
    binom2,
    eval_E,
    pochhammer_e,
    pochhammer_frac,
    theta1,
)
from .sampling import TINY, _draw_complex, _uniform_pair
from .suites import Check, _rel

# Trials whose condition estimate exceeds this are resampled, not failed.
COND_LIMIT = 1e8


def det_numeric(matrix) -> tuple:
    """Determinant and condition number kappa_1 = ||A||_1 ||A^-1||_1.

    One Gauss-Jordan elimination with partial pivoting reduces [A | I] to
    [I | A^-1]; the determinant is the signed product of its pivots and the
    inverse gives kappa_1 (Higham, *Accuracy and Stability of Numerical
    Algorithms*, ch. 9 and 15).  The arithmetic is that of the entries, so a
    matrix of ``mpmath.mpc`` is reduced at working precision.

    Returns (det, cond).  Raises SingularToWorkingPrecision on a zero pivot
    or a non-finite det or cond.
    """
    rows = [list(row) for row in matrix]
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise ValueError("det_numeric requires a non-empty square matrix")
    if n > 12:
        raise ValueError("matrix size above 12 is outside the conditioned regime")
    norm = max(sum(abs(row[j]) for row in rows) for j in range(n))
    aug = [row + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(rows)]
    det = 1
    for k in range(n):
        piv = max(range(k, n), key=lambda i: abs(aug[i][k]))
        pivot = aug[piv][k]
        if pivot == 0:
            raise SingularToWorkingPrecision(f"zero pivot in column {k + 1}")
        if piv != k:
            aug[k], aug[piv] = aug[piv], aug[k]
            det = -det
        det *= pivot
        tail = aug[k][k + 1:]
        for i, row in enumerate(aug):
            if i != k:
                f = row[k] / pivot
                row[k + 1:] = [u - f * v for u, v in zip(row[k + 1:], tail)]
        aug[k][k + 1:] = [v / pivot for v in tail]
    cond = norm * max(sum(abs(row[n + j]) for row in aug) for j in range(n))
    if not (abs(det) < math.inf and cond < math.inf):
        raise SingularToWorkingPrecision("det or cond not finite at working precision")
    return det, cond


def _qpow_poch_frac(exponent: int, nome: Nome, n: int):
    """(q^exponent; q, p)_n as a fraction, with integer exponent bookkeeping
    so that factors landing exactly on E(q^0) = 0 vanish exactly."""
    q, p = nome.q, nome.p

    def factor(e: int):
        return 0.0 if e == 0 else eval_E(q ** e, p)

    if n >= 0:
        return math.prod((factor(exponent + k) for k in range(n)), start=1.0), 1.0
    return 1.0, math.prod((factor(exponent + n + k) for k in range(-n)), start=1.0)


def andrews_stanton_entry(x, y, nome: Nome, i: int, j: int):
    """Entry M_{i,j} (1-based) of the quadratic-base determinant.

    Assembled as one unreduced fraction; the pure q-power factorial keeps
    its exponent as an integer so the structural zeros at j > 2i are exact.
    """
    q = nome.q
    n2 = nome.with_base(q * q)
    m = i - j
    top = 1.0
    bot = 1.0
    for a in (y * q ** (1 - i) / x, q ** (2 - i) / (x * y), q ** (2 - 4 * i) / (x * x)):
        u, v = pochhammer_frac(a, n2, m)
        top *= u
        bot *= v
    for a in (q ** (2 - 2 * i) / (x * y), y * q ** (1 - 2 * i) / x):
        u, v = pochhammer_frac(a, nome, m)
        top *= v
        bot *= u
    u, v = _qpow_poch_frac(i + 1, nome, m)
    top *= v
    bot *= u
    return top / bot


def andrews_stanton_matrix(x, y, nome: Nome, n: int) -> list:
    return [[andrews_stanton_entry(x, y, nome, i, j)
             for j in range(1, n + 1)] for i in range(1, n + 1)]


def andrews_stanton_product(x, y, nome: Nome, n: int):
    """Closed-form double product of the quadratic-base determinant."""
    q = nome.q
    n2 = nome.with_base(q * q)
    prod = 1.0
    for i in range(1, n + 1):
        prod *= pochhammer_e(q, nome, i)
        prod *= pochhammer_e(x * x * q ** (2 * i - 2), nome, i)
        prod /= pochhammer_e(q, n2, i)
        prod /= pochhammer_e(x * x * q ** (2 * i - 2), n2, i)
        prod *= pochhammer_e(x * y * q ** (i - 1), n2, i)
        prod *= pochhammer_e(x * q ** i / y, n2, i)
        prod /= pochhammer_e(x * y * q ** (i - 1), nome, i)
        prod /= pochhammer_e(x * q ** i / y, nome, i)
    return prod


def andrews_stanton_lu(x, y, nome: Nome, n: int):
    """The explicit unit-upper-triangular U and diagonal of L = M U.

    Returns (U, L_diag) with U an n x n nested list, U_{i,i} = 1, and L_diag
    the closed-form diagonal entries of the lower-triangular product M U.
    """
    q, p = nome.q, nome.p
    n2 = nome.with_base(q * q)
    U = [[0.0j for _ in range(n)] for _ in range(n)]
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            val = (-1.0) ** (i + j) * q ** ((i - j) * (i + j - 7) // 2)
            val *= eval_E(x * x * q ** (3 * i - 2), p)
            val /= eval_E(x * x * q ** (i + 2 * j - 2), p)
            val *= pochhammer_e(q ** i, nome, 2 * j - 2 * i)
            val *= pochhammer_e(q ** (3 - 3 * j) / (x * x), nome, j - i)
            val /= pochhammer_e(q * q, n2, j - i)
            val /= pochhammer_e(q ** (4 - 4 * j) / (x * x), n2, j - i)
            val /= pochhammer_e(q ** (3 - 2 * j) / (x * x), n2, j - i)
            U[i - 1][j - 1] = val
    l_diag = []
    for i in range(1, n + 1):
        val = pochhammer_e(q * q, nome, i - 1)
        val *= pochhammer_e(x * x * q ** (2 * i - 1), nome, i - 1)
        val *= pochhammer_e(x * y * q ** (i + 1), n2, i - 1)
        val *= pochhammer_e(x * q ** (i + 2) / y, n2, i - 1)
        val /= pochhammer_e(q ** 3, n2, i - 1)
        val /= pochhammer_e(x * x * q ** (2 * i), n2, i - 1)
        val /= pochhammer_e(x * y * q ** i, nome, i - 1)
        val /= pochhammer_e(x * q ** (i + 1) / y, nome, i - 1)
        l_diag.append(val)
    return U, l_diag


def shifted_product_family(b, c, nome: Nome, n: int) -> list:
    """The function family P_j(X) = (b X q^{n-j-1}, b c q^{n-j-1}/X; q, p)_j.

    Each member satisfies P_j(pX) = (c / X^2 p)^j P_j(X) and P_j(c/X) = P_j(X),
    the two hypotheses of the elliptic determinant lemma.
    """
    q = nome.q

    def make(j: int) -> Callable:
        def pj(xv):
            s = q ** (n - j - 1)
            return pochhammer_e(b * xv * s, nome, j) * \
                pochhammer_e(b * c * s / xv, nome, j)
        return pj

    return [make(j) for j in range(n)]


def det_lemma_matrix(xs: Sequence, a_values: Sequence, c, nome: Nome,
                     family: Sequence[Callable]) -> list:
    n = len(xs)
    p = nome.p
    matrix = []
    for i in range(n):
        row = []
        for j in range(1, n + 1):
            val = family[j - 1](xs[i])
            for k in range(j + 1, n + 1):
                ak = a_values[k - 1]
                val *= eval_E(ak * xs[i], p) * eval_E(c * ak / xs[i], p)
            row.append(val)
        matrix.append(row)
    return matrix


def det_lemma_product(xs: Sequence, a_values: Sequence, c, nome: Nome,
                      family: Sequence[Callable]):
    """Closed-form product side of the elliptic determinant lemma."""
    n = len(xs)
    p = nome.p
    rhs = 1.0
    for i in range(n):
        for j in range(i + 1, n):
            rhs *= a_values[j] * xs[j] * eval_E(xs[i] / xs[j], p) * \
                eval_E(c / (xs[i] * xs[j]), p)
    for i in range(1, n + 1):
        rhs *= family[i - 1](1.0 / a_values[i - 1])
    return rhs


def corollary_determ_matrix(xs: Sequence, a, b, c, nome: Nome) -> list:
    n = len(xs)
    matrix = []
    for i in range(n):
        row = []
        for j in range(1, n + 1):
            num = pochhammer_e(a * xs[i], nome, n - j) * \
                pochhammer_e(a * c / xs[i], nome, n - j)
            den = pochhammer_e(b * xs[i], nome, n - j) * \
                pochhammer_e(b * c / xs[i], nome, n - j)
            row.append(num / den)
        matrix.append(row)
    return matrix


def corollary_determ_product(xs: Sequence, a, b, c, nome: Nome):
    """Closed-form product side of the shifted-factorial ratio determinant."""
    n = len(xs)
    q, p = nome.q, nome.p
    rhs = a ** binom2(n) * q ** _binom3(n)
    for i in range(n):
        for j in range(i + 1, n):
            rhs *= xs[j] * eval_E(xs[i] / xs[j], p) * \
                eval_E(c / (xs[i] * xs[j]), p)
    for i in range(1, n + 1):
        rhs *= pochhammer_e(b / a, nome, i - 1)
        rhs *= pochhammer_e(a * b * c * q ** (2 * n - 2 * i), nome, i - 1)
        rhs /= pochhammer_e(b * xs[i - 1], nome, n - 1)
        rhs /= pochhammer_e(b * c / xs[i - 1], nome, n - 1)
    return rhs


def _binom3(n: int) -> int:
    return n * (n - 1) * (n - 2) // 6


def theta_product_chain(z, m: int, p):
    """prod_{k=0}^{m-1} theta_1(z + k): theta analogue of a shifted factorial."""
    return math.prod((theta1(z + k, p) for k in range(m)), start=1.0)


def theta_det_matrix(xs: Sequence, a, b, c, p) -> list:
    """Entries are chains of theta_1 values at shifted angles: arguments are
    additive here, exercising the theta code path directly rather than
    reducing to the multiplicative kernel."""
    n = len(xs)
    matrix = []
    for i in range(n):
        row = []
        for j in range(1, n + 1):
            val = theta_product_chain(a + xs[i], n - j, p)
            val *= theta_product_chain(a + c - xs[i], n - j, p)
            val *= theta_product_chain(b + xs[i] + n - j, j - 1, p)
            val *= theta_product_chain(b + c + n - j - xs[i], j - 1, p)
            row.append(val)
        matrix.append(row)
    return matrix


def theta_det_product(xs: Sequence, a, b, c, p):
    """Closed-form product side of the theta-function determinant identity."""
    n = len(xs)
    rhs = 1.0
    for i in range(n):
        for j in range(i + 1, n):
            rhs *= theta1(xs[i] - xs[j], p) * theta1(c - xs[i] - xs[j], p)
    for i in range(1, n + 1):
        rhs *= theta_product_chain(b - a, i - 1, p)
        rhs *= theta_product_chain(a + b + c + 2 * n - 2 * i, i - 1, p)
    return rhs


# --------------------------------------------------------------------------
# The determinants suite's checks (ellipsum.suites.run_determinants_suite)
# --------------------------------------------------------------------------

def _conditioned_det(matrix):
    # Ill-conditioned matrices are resampled rather than failed.
    det, cond = det_numeric(matrix)
    if cond > COND_LIMIT:
        raise DegenerateParameters(f"cond {cond:.2e}")
    return det


def _det_rel(matrix, product, *args):
    # each side is built once: the guarded determinant against the product
    return _rel(_conditioned_det(matrix(*args)), product(*args))


def _draw_andrews_stanton(rng, region):
    q, p = _draw_complex(rng, region.q_mod), _draw_complex(rng, region.p_mod)
    x = _draw_complex(rng, (0.7, 1.4))
    y = _draw_complex(rng, (0.7, 1.4))
    n = rng.integers(1, 6)
    return x, y, Nome(q, p), n


def _lu_factorization(x, y, nome, n):
    M = andrews_stanton_matrix(x, y, nome, n)
    det = _conditioned_det(M)
    U, l_diag = andrews_stanton_lu(x, y, nome, n)
    L = [[sum(M[i][k] * U[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    err = 0.0
    for i in range(n):
        rowscale = max(abs(L[i][i]), TINY)
        for j in range(i + 1, n):
            err = max(err, abs(L[i][j]) / rowscale)
        err = max(err, _rel(L[i][i], l_diag[i]))
    return max(err, _rel(det, math.prod(l_diag, start=1.0)))


def _draw_factorial_ratio(rng, region):
    q, p = _draw_complex(rng, region.q_mod), _draw_complex(rng, region.p_mod)
    n = rng.integers(1, 6)
    xs = [_draw_complex(rng, region.param_mod) for _ in range(n)]
    a, b, c = (_draw_complex(rng, region.param_mod) for _ in range(3))
    return xs, a, b, c, Nome(q, p)


def _draw_periodic_family(rng, region):
    q, p = _draw_complex(rng, region.q_mod), _draw_complex(rng, region.p_mod)
    n = rng.integers(1, 6)
    xs = [_draw_complex(rng, region.param_mod) for _ in range(n)]
    avs = [_draw_complex(rng, region.param_mod) for _ in range(n)]
    b, c = (_draw_complex(rng, region.param_mod) for _ in range(2))
    return xs, avs, b, c, Nome(q, p)


def _periodic_family_det(xs, avs, b, c, nome):
    fam = shifted_product_family(b, c, nome, len(xs))
    return _det_rel(det_lemma_matrix, det_lemma_product, xs, avs, c, nome, fam)


def _draw_theta_det(rng, region):
    p = _draw_complex(rng, (0.05, 0.45))
    xs = [complex(*_uniform_pair(rng, 0.3, 2.8, -0.3, 0.3)) for _ in range(2)]
    a, b, c = (complex(*_uniform_pair(rng, 0.0, 2.0, -0.3, 0.3)) for _ in range(3))
    return xs, a, b, c, p


DETERMINANTS_CHECKS = [
    Check("quadratic_base_determinant", "suite.det.quadratic_base",
          _draw_andrews_stanton,
          partial(_det_rel, andrews_stanton_matrix, andrews_stanton_product), 1e-8),
    Check("lu_factorization", "suite.det.lu", _draw_andrews_stanton,
          _lu_factorization, 1e-9),
    Check("factorial_ratio_determinant", "suite.det.ratio", _draw_factorial_ratio,
          partial(_det_rel, corollary_determ_matrix, corollary_determ_product), 1e-8),
    Check("periodic_family_determinant", "suite.det.lemma", _draw_periodic_family,
          _periodic_family_det, 1e-8),
    Check("theta_determinant_2x2", "suite.det.theta", _draw_theta_det,
          partial(_det_rel, theta_det_matrix, theta_det_product), 1e-8),
]
