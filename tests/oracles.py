"""Independent reference evaluators used as test oracles.

Nothing here imports evaluation code from the package beyond constructing
inputs; each oracle recomputes its quantity from first principles (direct
truncated products, mpmath's q-Pochhammer symbol, (1-x)-based classical
sums, cofactor expansion, sine-series theta), so an implementation bug
cannot cancel itself.
"""

from __future__ import annotations

import cmath


def truncated_product_E(x, p, terms: int = 50):
    """Direct product oracle for the elliptic kernel."""
    val = 1.0
    for k in range(terms):
        val *= (1 - x * p ** k) * (1 - (p / x) * p ** k)
    return val


def infinite_product_E(x, p, dps: int = 90):
    """E(x; p) = (x; p)_inf (p/x; p)_inf by mpmath's q-Pochhammer symbol at ``dps`` digits.

    x and p are taken exactly: p / x is formed at ``dps`` digits, also for
    binary64 inputs.
    """
    import mpmath

    with mpmath.workdps(dps):
        x, p = mpmath.mpc(x), mpmath.mpc(p)
        return mpmath.qp(x, p) * mpmath.qp(p / x, p)


def classical_pochhammer(a, q, n: int):
    """(a; q)_n via 1 - a q^k factors, any integer n."""
    if n >= 0:
        val = 1.0
        for k in range(n):
            val *= 1 - a * q ** k
        return val
    val = 1.0
    for k in range(-n):
        val *= 1 - a * q ** (n + k)
    return 1.0 / val


def classical_w_sum(a1, uppers, q, kmax: int):
    """Terminating classical very-well-poised sum built purely from 1 - x.

    ``uppers`` is the complete upper parameter list (termination included).
    """
    total = 0.0
    for k in range(kmax + 1):
        term = (1 - a1 * q ** (2 * k)) / (1 - a1)
        term *= classical_pochhammer(a1, q, k) * q ** k
        for a in uppers:
            term *= classical_pochhammer(a, q, k)
        term /= classical_pochhammer(q, q, k)
        for a in uppers:
            term /= classical_pochhammer(a1 * q / a, q, k)
        total += term
    return total


def theta_sine_series(z, p, terms: int = 31):
    """Odd theta via its alternating sine series with principal log of p."""
    logp = cmath.log(p)
    total = 0.0
    for m in range(terms):
        total += (-1) ** m * cmath.exp(logp * ((2 * m + 1) ** 2 / 4.0)) * \
            cmath.sin((2 * m + 1) * z)
    return 2 * total


def cofactor_det(matrix):
    """Determinant by cofactor expansion along the first row (n <= 6)."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = 0.0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        total += (-1) ** j * matrix[0][j] * cofactor_det(minor)
    return total


def brute_partitions(nparts: int, cap: int):
    """All weakly decreasing tuples by filtering the full product set."""
    out = []

    def rec(prefix):
        if len(prefix) == nparts:
            out.append(prefix)
            return
        for v in range(cap + 1):
            rec(prefix + (v,))

    rec(())
    return sorted(set(t for t in out
                      if all(t[i] >= t[i + 1] for i in range(len(t) - 1))))
