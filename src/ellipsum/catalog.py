"""Catalog of summation and transformation identities with random checking.

Each entry bundles the free parameters, exact solvers for the constrained
ones, the termination index and its sampling range, an optional residue-class
filter, and independent left/right evaluators.  Left and right sides never
share assembled shifted-factorial subexpressions; both go back to the kernel,
so a shared bug cannot cancel itself.

Both evaluators return (value, scale) where scale bounds the largest
intermediate summand behind the value (for plain products it is just the
magnitude).  Identities whose right side vanishes on part of their range are
checked against the left scale instead of a meaningless relative error, and
draws where either scale dwarfs the value are resampled as
cancellation-dominated.

This module holds the rows and how an identity draws and evaluates a
point; the sampling loop, the record and the fork pool it runs on are
:mod:`ellipsum.sampling`, shared with the suite checks.
"""

from __future__ import annotations

import contextlib
import math
from functools import partial
from typing import Callable, NamedTuple, Sequence

from .errors import DegenerateParameters
from .kernel import (
    DELTA_DEGEN,
    EMemo,
    Nome,
    _check_degen,
    eval_E,
    pochhammer_e,
)
from .report import VerificationReport, point_dump
from .sampling import (
    CONDITION_LIMIT,
    CONDITION_LIMIT_EXTENDED,
    DEFAULT_REGION,
    SamplingRegion,
    _draw_complex,
    _record,
    _rng_for,
    _trials,
    trial_error,
)
from .series import _eprefactor, omega_sum, vwp_sum
from .stream import PhiloxStream


class ParamPoint(NamedTuple):
    """A concrete sampled parameter point."""

    nome: Nome
    values: dict
    n: int


class Identity(NamedTuple):
    """One catalog record: what a draw needs and the two sides to compare.

    ``free_params`` are drawn at random and ``solve(values, n, q)`` returns
    the constrained parameters.  ``termination`` is ``(lo, hi)``: the
    termination index n is drawn uniformly from ``lo..hi``.  ``branch``, if
    set, is a predicate on n which keeps only the residue classes the right
    side covers.  ``extra_bases`` name further bases, drawn like q and before
    the free parameters.  ``lhs`` and ``rhs`` map a point to
    ``(value, scale)``; the scalar type of the point picks the truncation of
    the products behind E (:func:`eval_E`).
    """

    id: str
    description: str
    free_params: tuple
    termination: tuple
    lhs: Callable
    rhs: Callable
    solve: Callable
    branch: Callable | None = None
    extra_bases: tuple = ()


# --------------------------------------------------------------------------
# Shared evaluation helpers
# --------------------------------------------------------------------------

def _poch_ratio(nums: Sequence, dens: Sequence, nome: Nome, n: int):
    val = 1.0
    for a in nums:
        val = val * pochhammer_e(a, nome, n)
    for a in dens:
        val = val / pochhammer_e(a, nome, n, min_factor=DELTA_DEGEN)
    return val


def _eight_term(hi, lo, b, c, d, nome: Nome, m: int):
    """(hi, hi/bc, lo/bd, lo/cd)_m / (hi/b, hi/c, lo/d, lo/bcd)_m, the closed
    form of the eight-term summation (hi = lo = aq) and of its cubic and
    quadratic-base relatives."""
    return _poch_ratio([hi, hi / (b * c), lo / (b * d), lo / (c * d)],
                       [hi / b, hi / c, lo / d, lo / (b * c * d)], nome, m)


def _sigma3(n: int) -> int:
    return (3 - n % 3) % 3


# --------------------------------------------------------------------------
# Left-hand-side families
# --------------------------------------------------------------------------

def _lhs_quadratic(pt):
    """Sum with E(a q^{3k}) prefactor and alternating q / q^2 factorials."""
    v, n, nome = _pt_unpack(pt)
    a, b, c, d, e, f = v["a"], v["b"], v["c"], v["d"], v["e"], v["f"]
    q, p = nome.q, nome.p
    q2 = q * q
    num = [((b, c, d), q, 1), ((e, f, q ** (-2 * n)), q2, 1)]
    den = [((a * q2 / b, a * q2 / c, a * q2 / d), q2, 1),
           ((a * q / e, a * q / f, a * q ** (2 * n + 1)), q, 1)]
    return vwp_sum(_eprefactor(a, 3, q, p), num, den, q, n, p)


def _lhs_cubic(pt):
    """Sum with E(a q^{4k}) prefactor, doubled-index middle factorial and a
    q^3-base terminating block."""
    v, n, nome = _pt_unpack(pt)
    a, b, c, d, e = v["a"], v["b"], v["c"], v["d"], v["e"]
    q, p = nome.q, nome.p
    q3 = q ** 3
    num = [((b, c), q, 1), ((d,), q, 2), ((e, q ** (-3 * n)), q3, 1)]
    den = [((a * q3 / b, a * q3 / c), q3, 1), ((a * q / d,), q, 2),
           ((a * q / e, a * q ** (3 * n + 1)), q, 1)]
    return vwp_sum(_eprefactor(a, 4, q, p), num, den, q, n, p)


# The families below are shared by several records.  Each factory takes the
# names of the point's parameters that fill its slots and returns the
# side.  _lhs_family43 and _lhs_family_half always take "a" as
# their base point.

def _lhs_mixed32(*slots):
    """Sum with E(a q^{3k}) prefactor and swapped q^2 / q factorial bases;
    ``slots`` fill a, b, c, d, e, f."""
    def lhs(pt):
        v, n, nome = _pt_unpack(pt)
        a, b, c, d, e, f = (v[name] for name in slots)
        q, p = nome.q, nome.p
        q2 = q * q
        num = [((b, c, d), q2, 1), ((e, f, q ** (-n)), q, 1)]
        den = [((a * q / b, a * q / c, a * q / d), q, 1),
               ((a * q2 / e, a * q2 / f, a * q ** (n + 2)), q2, 1)]
        return vwp_sum(_eprefactor(a, 3, q, p), num, den, q, n, p)

    return lhs


def _lhs_family43(*slots):
    """E(a q^{4k}) family with single doubled slot and q^3 tail block;
    ``slots`` fill b1, b2, dslot, eslot."""
    def lhs(pt):
        v, n, nome = _pt_unpack(pt)
        b1, b2, dslot, eslot = (v[name] for name in slots)
        a = v["a"]
        q, p = nome.q, nome.p
        q3 = q ** 3
        num = [((b1, b2), q3, 1), ((dslot,), q, 2), ((eslot, q ** (-n)), q, 1)]
        den = [((a * q / b1, a * q / b2), q, 1), ((a * q / dslot,), q, 2),
               ((a * q3 / eslot, a * q ** (n + 3)), q3, 1)]
        return vwp_sum(_eprefactor(a, 4, q, p), num, den, q, n, p)

    return lhs


def _lhs_family_half(*slots):
    """E(a q^{4k}) family with doubled terminating factorial, k <= n/2;
    ``slots`` fill b1, b2, d1, d2."""
    def lhs(pt):
        v, n, nome = _pt_unpack(pt)
        b1, b2, d1, d2 = (v[name] for name in slots)
        a = v["a"]
        q, p = nome.q, nome.p
        q3 = q ** 3
        num = [((b1, b2), q3, 1), ((q ** (-n),), q, 2), ((d1, d2), q, 1)]
        den = [((a * q / b1, a * q / b2), q, 1), ((a * q ** (n + 1),), q, 2),
               ((a * q3 / d1, a * q3 / d2), q3, 1)]
        return vwp_sum(_eprefactor(a, 4, q, p), num, den, q, n // 2, p)

    return lhs


def _gr_prefactor(a, b, q, r, p):
    ea = _check_degen(eval_E(a, p), "E(a)")
    eb = _check_degen(eval_E(b, p), "E(b)")

    def pref(k: int):
        return eval_E(a * (q * r) ** k, p) * \
            eval_E(b * r ** k * q ** (-k), p) / (ea * eb)

    return pref


# --------------------------------------------------------------------------
# Identity registry
# --------------------------------------------------------------------------

_REGISTRY: list = []


def _register(ident: Identity) -> Identity:
    if any(x.id == ident.id for x in _REGISTRY):
        raise ValueError(f"duplicate identity id {ident.id}")
    _REGISTRY.append(ident)
    return ident


def _pt_unpack(pt: ParamPoint):
    return pt.values, pt.n, pt.nome


# ---- ten-term transformation and Jackson evaluation ----------------------

def _omega_lhs(letters: str):
    """The terminating omega series with base point a, the parameters named
    by ``letters`` and q^{-n} as its upper parameters."""
    def lhs(pt):
        v, n, nome = _pt_unpack(pt)
        uppers = (*(v[name] for name in letters), nome.q ** (-n))
        return omega_sum(v["a"], uppers, nome, n)

    return lhs


def _e109_rhs(pt):
    v, n, nome = _pt_unpack(pt)
    a, b, c, d, e, f, g = (v[k] for k in "abcdefg")
    q = nome.q
    lam = a * a * q / (b * c * d)
    pref = _poch_ratio([a * q, a * q / (e * f), lam * q / e, lam * q / f],
                       [a * q / e, a * q / f, lam * q / (e * f), lam * q],
                       nome, n)
    uppers = (lam * b / a, lam * c / a, lam * d / a, e, f, g, q ** (-n))
    val, wscale = omega_sum(lam, uppers, nome, n)
    return pref * val, abs(pref) * wscale


_register(Identity(
    id="e109",
    description="ten-term very-well-poised transformation with shifted base point",
    free_params=("a", "b", "c", "d", "e", "f"),
    termination=(0, 5),
    lhs=_omega_lhs("bcdefg"),
    rhs=_e109_rhs,
    solve=lambda v, n, q: {"g": v["a"] ** 3 * q ** (n + 2) /
                           (v["b"] * v["c"] * v["d"] * v["e"] * v["f"])},
))


def _e87_rhs(pt):
    v, n, nome = _pt_unpack(pt)
    a, b, c, d = v["a"], v["b"], v["c"], v["d"]
    q = nome.q
    val = _eight_term(a * q, a * q, b, c, d, nome, n)
    return val, abs(val)


_register(Identity(
    id="e87",
    description="eight-term very-well-poised summation in closed product form",
    free_params=("a", "b", "c", "d"),
    termination=(0, 6),
    lhs=_omega_lhs("bcde"),
    rhs=_e87_rhs,
    solve=lambda v, n, q: {"e": v["a"] ** 2 * q ** (n + 1) /
                           (v["b"] * v["c"] * v["d"])},
))


# ---- two-base telescoping sums --------------------------------------------

def _gr_lhs(pt):
    v, n, nome = _pt_unpack(pt)
    a, b, c, d, r = v["a"], v["b"], v["c"], v["d"], v["r"]
    q, p = nome.q, nome.p
    num = [((a / c, c / b), q, 1), ((a * b * d, 1.0 / d), r, 1)]
    den = [((c * r, a * b * r / c), r, 1), ((q / (b * d), a * d * q), q, 1)]
    return vwp_sum(_gr_prefactor(a, b, q, r, p), num, den, q, n, p)


def _gr_rhs(pt):
    v, n, nome = _pt_unpack(pt)
    a, b, c, d, r = v["a"], v["b"], v["c"], v["d"], v["r"]
    q = nome.q
    nr = nome.with_base(r)
    first = _poch_ratio([c, a * b / c, a * d, b * d], [a, b, c * d, a * b * d / c],
                        nome, 1)
    ratio = _poch_ratio([a / c, b * q ** (-n) / c], [b * d * q ** (-n), a * d],
                        nome, n + 1)
    ratio *= _poch_ratio([a * b * d, d * r ** (-n)], [r ** (-n) / c, a * b / c],
                         nr, n + 1)
    val = first * (1.0 - ratio)
    return val, abs(first) * max(1.0, float(abs(ratio)))


_register(Identity(
    id="gr_sum_general",
    description="two-base telescoping sum with free weight parameter",
    free_params=("a", "b", "c", "d"),
    termination=(0, 6),
    lhs=_gr_lhs,
    rhs=_gr_rhs,
    solve=lambda v, n, q: {},
    extra_bases=("r",),
))


def _sum1_lhs(pt):
    v, n, nome = _pt_unpack(pt)
    a, b, c, r = v["a"], v["b"], v["c"], v["r"]
    q, p = nome.q, nome.p
    num = [((a / c, c / b), q, 1), ((a * b * r ** n, r ** (-n)), r, 1)]
    den = [((c * r, a * b * r / c), r, 1),
           ((q * r ** (-n) / b, a * q * r ** n), q, 1)]
    return vwp_sum(_gr_prefactor(a, b, q, r, p), num, den, q, n, p)


def _sum1_rhs(pt):
    v, n, nome = _pt_unpack(pt)
    a, b, c, r = v["a"], v["b"], v["c"], v["r"]
    val = _poch_ratio([c, a * b / c, a * r ** n, b * r ** n],
                      [a, b, c * r ** n, a * b * r ** n / c], nome, 1)
    return val, abs(val)


_register(Identity(
    id="sum1",
    description="two-base telescoping sum at the closing weight r^n",
    free_params=("a", "b", "c"),
    termination=(0, 6),
    lhs=_sum1_lhs,
    rhs=_sum1_rhs,
    solve=lambda v, n, q: {},
    extra_bases=("r",),
))


# ---- stretched-base summation family --------------------------------------

def _make_thmr(r: int) -> Identity:
    def lhs(pt):
        v, n, nome = _pt_unpack(pt)
        a, b, c = v["a"], v["b"], v["c"]
        q = nome.q
        nr = nome.with_base(q ** r)
        uppers = [c, a * b / c]
        uppers += [b * q ** i for i in range(1, r + 1)]
        uppers += [a * q ** (n + i) for i in range(r)]
        uppers.append(q ** (-r * n))
        return omega_sum(a * b, tuple(uppers), nr, n)

    def rhs(pt):
        v, n, nome = _pt_unpack(pt)
        a, b, c = v["a"], v["b"], v["c"]
        q = nome.q
        nr = nome.with_base(q ** r)
        val = _poch_ratio([a / c, c / b], [a, 1.0 / b], nome, n)
        val *= _poch_ratio([q ** r, a * b * q ** r],
                           [c * q ** r, a * b * q ** r / c], nr, n)
        return val, abs(val)

    return Identity(
        id=f"thmr_r{r}",
        description=f"stretched-base (step {r}) very-well-poised summation",
        free_params=("a", "b", "c"),
        termination=(0, 5 if r <= 2 else (4 if r == 3 else 3)),
        lhs=lhs,
        rhs=rhs,
        solve=lambda v, n, q: {},
    )


for _r in (1, 2, 3, 4):
    _register(_make_thmr(_r))


# ---- quadratic transformation and its summation cases ----------------------

def _solve_quad_transform(which: str):
    def solve(v, n, q):
        d = v["a"] * q / (v["b"] * v["c"])
        f = v["a"] ** 2 * q ** (2 * n + 1) / v["e"]
        g = v["a"] / v["b"] if which == "gab" else v["a"] / v["e"]
        return {"d": d, "f": f, "g": g}

    return solve


def _quad_transform_rhs(pt):
    v, n, nome = _pt_unpack(pt)
    a, b, c, d, e, f, g = (v[k] for k in "abcdefg")
    q = nome.q
    q2 = q * q
    n2 = nome.with_base(q2)
    pref = _poch_ratio(
        [a * q2, a * a * q2 / (b * c * e), a * a * q2 / (b * d * e * g),
         a * g * q2 / (c * d)],
        [a * a * q2 / (b * e * g), a * g * q2 / c, a * q2 / d,
         a * a * q2 / (b * c * d * e)],
        n2, n)
    uppers = (a / c, g * q2 / c, b * e * g / a, d, f, g, q2 ** (-n))
    val, wscale = omega_sum(a * g / c, uppers, n2, n)
    return pref * val, abs(pref) * wscale


for _which in ("gab", "gae"):
    _register(Identity(
        id=f"etrafo_quadratic_{_which}",
        description="quadratic transformation into a ten-term series "
                    f"(gauge {_which[-2:]})",
        free_params=("a", "b", "c", "e"),
        termination=(0, 5),
        lhs=_lhs_quadratic,
        rhs=_quad_transform_rhs,
        solve=_solve_quad_transform(_which),
    ))


def _coalesced_rhs(step: int):
    """Closed form of the summations left when two parameters of the
    quadratic (step 2) or cubic (step 3) transformation coalesce."""
    def rhs(pt):
        v, n, nome = _pt_unpack(pt)
        a, b, c, d, e = (v[k] for k in "abcde")
        qs = nome.q ** step
        ns = nome.with_base(qs)
        val = _poch_ratio(
            [a * qs, a * a * qs / (b * c * e), a * a * qs / (b * d * e),
             a * qs / (c * d)],
            [a * a * qs / (b * e), a * qs / c, a * qs / d,
             a * a * qs / (b * c * d * e)],
            ns, n)
        return val, abs(val)

    return rhs


_register(Identity(
    id="cor1_ba",
    description="quadratic summation, first-parameter coalescence",
    free_params=("a", "c", "e"),
    termination=(0, 6),
    lhs=_lhs_quadratic,
    rhs=_coalesced_rhs(2),
    solve=lambda v, n, q: {"b": v["a"], "d": q / v["c"],
                           "f": v["a"] ** 2 * q ** (2 * n + 1) / v["e"]},
))

_register(Identity(
    id="cor1_ea",
    description="quadratic summation, middle-parameter coalescence",
    free_params=("a", "b", "c"),
    termination=(0, 6),
    lhs=_lhs_quadratic,
    rhs=_coalesced_rhs(2),
    solve=lambda v, n, q: {"d": v["a"] * q / (v["b"] * v["c"]), "e": v["a"],
                           "f": v["a"] * q ** (2 * n + 1)},
))


# ---- cubic transformation and its summation cases ---------------------------

def _solve_cubic_transform(which: str):
    def solve(v, n, q):
        d = v["a"] * q / (v["b"] * v["c"])
        e = v["a"] ** 2 * q ** (3 * n + 1) / d
        f = v["a"] / v["b"] if which == "fab" else v["a"] / e
        return {"d": d, "e": e, "f": f}

    return solve


def _cubic_transform_rhs(pt):
    v, n, nome = _pt_unpack(pt)
    a, b, c, d, e, f = (v[k] for k in "abcdef")
    q = nome.q
    q3 = q ** 3
    n3 = nome.with_base(q3)
    pref = _poch_ratio(
        [a * q3, a * a * q3 / (b * c * e), a * a * q3 / (b * d * e * f),
         a * f * q3 / (c * d)],
        [a * a * q3 / (b * e * f), a * q3 * f / c, a * q3 / d,
         a * a * q3 / (b * c * d * e)],
        n3, n)
    uppers = (a / c, f * q3 / c, b * e * f / a, d, d * q, f, q3 ** (-n))
    val, wscale = omega_sum(a * f / c, uppers, n3, n)
    return pref * val, abs(pref) * wscale


for _which in ("fab", "fae"):
    _register(Identity(
        id=f"etrafo2_cubic_{_which}",
        description="cubic transformation into a ten-term series "
                    f"(gauge {_which[-2:]})",
        free_params=("a", "b", "c"),
        termination=(0, 5),
        lhs=_lhs_cubic,
        rhs=_cubic_transform_rhs,
        solve=_solve_cubic_transform(_which),
    ))


_register(Identity(
    id="cor_cubic_ba",
    description="cubic summation, first-parameter coalescence",
    free_params=("a", "c"),
    termination=(0, 5),
    lhs=_lhs_cubic,
    rhs=_coalesced_rhs(3),
    solve=lambda v, n, q: {"b": v["a"], "d": q / v["c"],
                           "e": v["a"] ** 2 * q ** (3 * n + 1) * v["c"] / q},
))

_register(Identity(
    id="cor_cubic_ea",
    description="cubic summation, tail-parameter coalescence",
    free_params=("a", "b"),
    termination=(0, 3),
    lhs=_lhs_cubic,
    rhs=_coalesced_rhs(3),
    solve=lambda v, n, q: {"c": q ** (-3 * n) / v["b"],
                           "d": v["a"] * q ** (3 * n + 1), "e": v["a"]},
))


def _cor_cubic_da_rhs(pt):
    v, n, nome = _pt_unpack(pt)
    a, b, c = v["a"], v["b"], v["c"]
    q = nome.q
    q3 = q ** 3
    n3 = nome.with_base(q3)
    val = _poch_ratio([a * q * q, a * q3, b * q, c * q],
                      [q, q * q, a * q3 / b, a * q3 / c], n3, n)
    return val, abs(val)


_register(Identity(
    id="cor_cubic_da",
    description="cubic summation with doubled-index slot pinned to the base point",
    free_params=("a", "b"),
    termination=(0, 5),
    lhs=_lhs_cubic,
    rhs=_cor_cubic_da_rhs,
    solve=lambda v, n, q: {"c": q / v["b"], "d": v["a"],
                           "e": v["a"] * q ** (3 * n + 1)},
))


# ---- mixed-base transformations -------------------------------------------

def _etrafo3_prefactor(v, n, nome):
    a, b, c = v["a"], v["b"], v["c"]
    q = nome.q
    n2 = nome.with_base(q * q)
    val = _poch_ratio([a * q, a * q / (b * c)], [a * q / b, a * q / c],
                      nome, n)
    val *= _poch_ratio([a * q ** (1 - n) / b, a * q ** (1 - n) / c],
                       [a * q ** (1 - n), a * q ** (1 - n) / (b * c)],
                       n2, n)
    return val


def _etrafo3_rhs(pt):
    v, n, nome = _pt_unpack(pt)
    a, b, c, d, e, f = (v[k] for k in "abcdef")
    q = nome.q
    n2 = nome.with_base(q * q)
    pref = _etrafo3_prefactor(v, n, nome)
    uppers = (b, c, d, a / e, a / f, q ** (1 - n), q ** (-n))
    val, wscale = omega_sum(a * a / (e * f), uppers, n2, n // 2)
    return pref * val, abs(pref) * wscale


_register(Identity(
    id="etrafo3",
    description="quadratic-base transformation with halved inner series",
    free_params=("a", "b", "c", "e"),
    termination=(0, 8),
    lhs=_lhs_mixed32("a", "b", "c", "d", "e", "f"),
    rhs=_etrafo3_rhs,
    solve=lambda v, n, q: {"d": v["a"] ** 2 * q / (v["b"] * v["c"]),
                           "f": v["a"] * q ** (n + 1) / v["e"]},
))


def _etrafo4_prefactor(v, n, nome):
    a, b = v["a"], v["b"]
    q = nome.q
    n3 = nome.with_base(q ** 3)
    val = _poch_ratio([a * q], [a * q / b], nome, n)
    val *= _poch_ratio([a * q ** (2 - n) / b], [a * q ** (2 - n)], n3, n)
    return val


def _etrafo4_rhs(pt):
    v, n, nome = _pt_unpack(pt)
    a, b, c, d, e = (v[k] for k in "abcde")
    q = nome.q
    n3 = nome.with_base(q ** 3)
    pref = _etrafo4_prefactor(v, n, nome)
    uppers = (b, c, a / d, a / e, q ** (2 - n), q ** (1 - n), q ** (-n))
    val, wscale = omega_sum(a * a / (d * e), uppers, n3, n // 3)
    return pref * val, abs(pref) * wscale


_register(Identity(
    id="etrafo4",
    description="cubic-base transformation over the half-range sum",
    free_params=("a", "b", "d"),
    termination=(0, 8),
    lhs=_lhs_family_half("b", "c", "d", "e"),
    rhs=_etrafo4_rhs,
    solve=lambda v, n, q: {"c": v["a"] ** 2 * q ** (n + 1) / v["b"],
                           "e": v["a"] * q ** (n + 1) / v["d"]},
))


def _etrafo5_solve(v, n, q):
    c = v["a"] ** 2 * q / (v["b"] * v["d"])
    e = v["a"] * q ** (n + 1) / v["d"]
    return {"c": c, "e": e}


def _etrafo5_rhs(which: int):
    """Right side of residue branch 0, 1 or 2: an eight-term prefactor times
    an omega series in base q^3 over k <= n/3."""
    def rhs(pt):
        v, n, nome = _pt_unpack(pt)
        a, b, c, d, e = (v[k] for k in "abcde")
        q = nome.q
        n3 = nome.with_base(q ** 3)
        s = _sigma3(n)
        m = (n + s) // 3
        hi = a * q ** (3 - s)
        if which == 0:
            pref = _eight_term(hi, hi, b, c, d, n3, m)
            uppers = (a / (d * q), a / e, b, c, d, q ** (1 - n), q ** (-n))
            base_point = a * a / (d * e * q)
        elif which == 1:
            pref = _eight_term(hi, a * q ** (2 - s), b, c, d, n3, m)
            uppers = (a / d, a / e, b, c, d * q, q ** (2 - n), q ** (-n))
            base_point = a * a / (d * e)
        else:
            pref = _eight_term(a * q ** s, a * q, b, c, d, nome, 1)
            pref *= _eight_term(hi, a * q ** (1 - s), b, c, d, n3, m)
            uppers = (a * q / d, a / e, b, c, d * q * q, q ** (2 - n), q ** (1 - n))
            base_point = a * a * q / (d * e)
        val, wscale = omega_sum(base_point, uppers, n3, n // 3)
        return pref * val, abs(pref) * wscale

    return rhs


for _sigma, _pred in ((0, lambda n: n % 3 != 2),
                      (1, lambda n: n % 3 != 1),
                      (2, lambda n: n % 3 != 0)):
    _register(Identity(
        id=f"etrafo5_b{_sigma}",
        description=f"cubic-base transformation, residue branch {_sigma}",
        free_params=("a", "b", "d"),
        termination=(0, 8),
        lhs=_lhs_family43("b", "c", "d", "e"),
        rhs=_etrafo5_rhs(_sigma),
        solve=_etrafo5_solve,
        branch=_pred,
    ))


# ---- summation corollaries of the mixed-base transformations ----------------

def _prefactor_rhs(prefactor):
    """A summation's closed form where it pins a transformation's inner series
    to its k = 0 term, 1: the transformation's prefactor alone."""
    def rhs(pt):
        v, n, nome = _pt_unpack(pt)
        val = prefactor(v, n, nome)
        return val, abs(val)

    return rhs


_register(Identity(
    id="cor_etrafo3_fa",
    description="quadratic-base summation from pinning the inner series",
    free_params=("a", "b", "c"),
    termination=(0, 8),
    lhs=_lhs_mixed32("a", "b", "c", "d", "e", "f"),
    rhs=_prefactor_rhs(_etrafo3_prefactor),
    solve=lambda v, n, q: {"d": v["a"] ** 2 * q / (v["b"] * v["c"]),
                           "e": q ** (n + 1), "f": v["a"]},
))


def _egs_rhs(pt):
    v, n, nome = _pt_unpack(pt)
    if n % 2 == 1:
        return 0.0, 0.0
    a, b, c, d = v["a"], v["b"], v["c"], v["d"]
    q2 = nome.q ** 2
    n2 = nome.with_base(q2)
    val = _eight_term(a * q2, a * q2, b, c, d, n2, n // 2)
    return val, abs(val)


_register(Identity(
    id="egs",
    description="quadratic-base summation vanishing at odd order",
    free_params=("a", "b", "d"),
    termination=(0, 9),
    # the base point itself fills the first quadratic-base slot
    lhs=_lhs_mixed32("a", "a", "b", "c", "d", "e"),
    rhs=_egs_rhs,
    solve=lambda v, n, q: {"c": v["a"] * q / v["b"],
                           "e": v["a"] * q ** (n + 1) / v["d"]},
))


_register(Identity(
    id="cor_etrafo4_ea",
    description="half-range cubic-base summation, tail coalescence",
    free_params=("a", "b"),
    termination=(0, 8),
    lhs=_lhs_family_half("b", "c", "a", "d"),
    rhs=_prefactor_rhs(_etrafo4_prefactor),
    solve=lambda v, n, q: {"c": v["a"] ** 2 * q ** (n + 1) / v["b"],
                           "d": q ** (n + 1)},
))


def _c2_rhs(pt):
    v, n, nome = _pt_unpack(pt)
    if n % 3 == 2:
        return 0.0, 0.0
    a, b, c, d = v["a"], v["b"], v["c"], v["d"]
    q3 = nome.q ** 3
    n3 = nome.with_base(q3)
    val = _poch_ratio(
        [a * q3, a * q3 / (b * c), a * q3 / (b * d)],
        [a * q3 / c, a * q3 / d, a * q3 / (b * c * d)], n3, n // 3)
    return val, abs(val)


_register(Identity(
    id="c2",
    description="half-range cubic-base summation vanishing on one residue class",
    free_params=("a", "c"),
    termination=(0, 8),
    lhs=_lhs_family_half("a", "b", "c", "d"),
    rhs=_c2_rhs,
    solve=lambda v, n, q: {"b": v["a"] * q ** (n + 1),
                           "d": v["a"] * q ** (n + 1) / v["c"]},
))


def _cor_etrafo5_ea_rhs(pt):
    v, n, nome = _pt_unpack(pt)
    a, b, c, d = v["a"], v["b"], v["c"], v["d"]
    q = nome.q
    q3 = q ** 3
    n3 = nome.with_base(q3)
    if n % 3 == 0:
        hi, lo, m = a * q3, a * q3, n // 3
    elif n % 3 == 1:
        hi, lo, m = a * q, a * q, (n + 2) // 3
    else:
        hi, lo, m = a * q * q, a * q, (n + 1) // 3
    val = _eight_term(hi, lo, b, c, d, n3, m)
    return val, abs(val)


_register(Identity(
    id="cor_etrafo5_ea",
    description="cubic-base summation with residue-split closed forms",
    free_params=("a", "b"),
    termination=(0, 6),
    lhs=_lhs_family43("b", "c", "d", "a"),
    rhs=_cor_etrafo5_ea_rhs,
    solve=lambda v, n, q: {"d": q ** (n + 1),
                           "c": v["a"] ** 2 * q ** (-n) / v["b"]},
))


def _cor_chu_rhs(pt):
    v, n, nome = _pt_unpack(pt)
    if n % 3 != 0:
        return 0.0, 0.0
    a, b = v["a"], v["b"]
    q = nome.q
    q3 = q ** 3
    n3 = nome.with_base(q3)
    val = _poch_ratio([q, q * q, a * q3, b * b / a],
                      [b * q, b * q * q, b / a, a * q3 / b], n3, n // 3)
    return val, abs(val)


_register(Identity(
    id="cor_chu",
    description="cubic-base summation vanishing off one residue class",
    free_params=("a", "b"),
    termination=(0, 9),
    lhs=_lhs_family43("a", "b", "c", "d"),
    rhs=_cor_chu_rhs,
    solve=lambda v, n, q: {"c": v["a"] * q / v["b"], "d": v["b"] * q ** n},
))


def _cor_etrafo5_da_rhs(pt):
    v, n, nome = _pt_unpack(pt)
    if n % 3 == 1:
        return 0.0, 0.0
    a, b, c = v["a"], v["b"], v["c"]
    q = nome.q
    q3 = q ** 3
    n3 = nome.with_base(q3)
    if n % 3 == 0:
        val = _poch_ratio([a * q3, q * q / b, q * q / c],
                          [q * q / (b * c), a * q3 / b, a * q3 / c],
                          n3, n // 3)
    else:
        val = _poch_ratio([a * q * q, q / b, q / c],
                          [q / (b * c), a * q * q / b, a * q * q / c],
                          n3, (n + 2) // 3)
    return val, abs(val)


_register(Identity(
    id="cor_etrafo5_da",
    description="cubic-base summation with doubled slot at the base point",
    free_params=("a", "b"),
    termination=(0, 8),
    lhs=_lhs_family43("b", "c", "a", "d"),
    rhs=_cor_etrafo5_da_rhs,
    solve=lambda v, n, q: {"c": v["a"] * q / v["b"], "d": q ** (n + 1)},
))


# ---- quartic results --------------------------------------------------------

def _quartic_trafo_lhs(pt):
    v, n, nome = _pt_unpack(pt)
    a, b = v["a"], v["b"]
    q, p = nome.q, nome.p
    q2, q3, q4 = q * q, q ** 3, q ** 4
    num = [((b * b / (a * q2),), q, 1),
           ((a * q / b, a * q2 / b, a * q3 / b), q2, 1),
           ((a * b * q ** (4 * n), q ** (-4 * n)), q4, 1)]
    den = [((a * a * q ** 6 / (b * b),), q4, 1),
           ((b, b * q, b * q2), q3, 1),
           ((q ** (1 - 4 * n) / b, a * q ** (4 * n + 1)), q, 1)]
    return vwp_sum(_eprefactor(a, 5, q, p), num, den, q, n, p)


def _quartic_trafo_rhs(pt):
    v, n, nome = _pt_unpack(pt)
    a, b = v["a"], v["b"]
    q = nome.q
    q2, q4 = q * q, q ** 4
    n4 = nome.with_base(q4)
    pref = _poch_ratio([a * q], [b], nome, 4 * n)
    pref *= _poch_ratio([q4, b ** 3 / (a * q2)],
                        [a * b, a * a * q ** 6 / (b * b)], n4, n)
    uppers = (a * a * q2 / (b * b), b, b / q, b / q2, b / q ** 3)
    val, wscale = omega_sum(a * b / q4, uppers, n4, n)
    return pref * val, abs(pref) * wscale


_register(Identity(
    id="quartic_trafo",
    description="quartic-step transformation between two-parameter sums",
    free_params=("a", "b"),
    termination=(0, 3),
    lhs=_quartic_trafo_lhs,
    rhs=_quartic_trafo_rhs,
    solve=lambda v, n, q: {},
))


def _quartic_sum_lhs(pt):
    v, n, nome = _pt_unpack(pt)
    a = v["a"]
    q, p = nome.q, nome.p
    q2, q3, q4 = q * q, q ** 3, q ** 4
    num = [((a * a,), q4, 1), ((a, a * q, a * q2), q3, 1),
           ((a * q ** (n + 1), q ** (-n)), q, 1)]
    den = [((q,), q, 1), ((a, a * q, a * q2), q2, 1),
           ((a * q ** (3 - n), a * a * q ** (n + 4)), q4, 1)]
    return vwp_sum(_eprefactor(a * a, 5, q, p), num, den, q, n, p)


def _quartic_sum_rhs(pt):
    v, n, nome = _pt_unpack(pt)
    if n % 4 != 0:
        return 0.0, 0.0
    a = v["a"]
    q = nome.q
    q4 = q ** 4
    n4 = nome.with_base(q4)
    val = _poch_ratio([q, q * q, q ** 3, a * a * q4],
                      [a * q * q, a * q ** 3, a * q4, q / a],
                      n4, n // 4)
    return val, abs(val)


_register(Identity(
    id="quartic_sum",
    description="quartic-step summation vanishing off one residue class",
    free_params=("a",),
    termination=(0, 8),
    lhs=_quartic_sum_lhs,
    rhs=_quartic_sum_rhs,
    solve=lambda v, n, q: {},
))


# --------------------------------------------------------------------------
# Sampling and checking
# --------------------------------------------------------------------------

def list_identities() -> list:
    """All catalog entries, stable order."""
    return list(_REGISTRY)


def get_identity(ident_id: str) -> Identity:
    for ident in _REGISTRY:
        if ident.id == ident_id:
            return ident
    raise KeyError(f"unknown identity id {ident_id!r}")


def _bases_clear(q: complex, p: complex) -> bool:
    # Sampling keeps powers of q away from powers of p (identities with
    # b-periodicity proofs assume q^{m1} != p^{m2}).
    for m1 in range(1, 5):
        qm = q ** m1
        for m2 in range(1, 5):
            pm = p ** m2
            if abs(qm - pm) < 1e-6 * max(abs(qm), abs(pm)):
                return False
    return True


def _draw_point(ident: Identity, rng: PhiloxStream,
                region: SamplingRegion) -> ParamPoint:
    q = _draw_complex(rng, region.q_mod)
    p = _draw_complex(rng, region.p_mod)
    if not _bases_clear(q, p):
        raise DegenerateParameters("a power of q is too close to a power of p")
    values = {}
    for name in ident.extra_bases:
        values[name] = _draw_complex(rng, region.q_mod)
    for name in ident.free_params:
        values[name] = _draw_complex(rng, region.param_mod)
    lo, hi = ident.termination
    allowed = [m for m in range(lo, hi + 1)
               if ident.branch is None or ident.branch(m)]
    n = allowed[rng.integers(0, len(allowed))]
    values.update(ident.solve(values, n, q))
    return ParamPoint(Nome(q, p), values, n)


def _is_finite(z) -> bool:
    z = complex(z)
    return math.isfinite(z.real) and math.isfinite(z.imag)


def _extend_point(ident: Identity, pt: ParamPoint) -> ParamPoint:
    """Extended-precision view of a sampled point, at the current precision
    of :data:`ellipsum.wide.ctx`.

    Free parameters and bases are widened and the constrained parameters are
    re-solved at full precision, so extended runs measure the identity itself
    rather than the binary64 rounding of the constraint solver.
    """
    from .wide import ctx

    conv = ctx.convert
    nome = Nome(conv(pt.nome.q), conv(pt.nome.p))
    values = {name: conv(pt.values[name])
              for name in (*ident.extra_bases, *ident.free_params)}
    values.update(ident.solve(values, pt.n, nome.q))
    return ParamPoint(nome, values, pt.n)


# Decimal digits of the extended-precision mode.
EXTENDED_DPS = 50

# An extended trial error at or below 2^NOISE_BITS units of the last place
# of the extended working precision, 2^(24 - 169) or about 2.2e-44, times
# the cancellation of the trial's sides, is rounding noise: it does not pick
# the worst point (:func:`_identity_trials`).
NOISE_BITS = 24


def _identity_trials(ident: Identity, trials: int, seed: int,
                     region: SamplingRegion, precision: str):
    """:func:`_trials` of an identity: values ``(pt, err, noise)``.

    Trial t draws from ``_rng_for(ident.id, seed, t)``.  Extended trials widen
    the point and evaluate both sides under ``wide.workdps(EXTENDED_DPS)``,
    which leaves the precision of :data:`ellipsum.wide.ctx` as it was.  Each
    side of each draw gets its own kernel memo, so the right side never reads
    an E value the left side computed; the two share only the series tables
    of each nome, which depend on p alone.  ``err`` is :func:`trial_error`,
    at the caller's precision.  ``noise`` is 0 in binary64; in extended
    trials it is the rounding floor 2^(NOISE_BITS - prec), prec the bits of
    EXTENDED_DPS digits, times the cancellation max(1, scale / |rhs|) of a
    nonzero right side, scale the larger summand scale of the two sides (a
    zero right side's error is already relative to the scale).
    """
    if precision not in ("double", "extended"):
        raise ValueError(f"precision must be 'double' or 'extended', not {precision!r}")
    extended = precision == "extended"
    cond_limit = CONDITION_LIMIT_EXTENDED if extended else CONDITION_LIMIT
    floor = 0.0
    if extended:
        from .wide import dps_to_prec, workdps

        scope = workdps(EXTENDED_DPS)
        floor = 2.0 ** (NOISE_BITS - dps_to_prec(EXTENDED_DPS))
    else:
        scope = contextlib.nullcontext()

    def evaluate(pt):
        with scope:
            work = _extend_point(ident, pt) if extended else pt
            nomes = {}
            with EMemo(nomes):
                lhs, scale = ident.lhs(work)
            with EMemo(nomes):
                rhs, rhs_scale = ident.rhs(work)
            if not (_is_finite(lhs) and _is_finite(rhs)):
                raise DegenerateParameters("non-finite value at working precision")
            if rhs != 0 and max(scale, rhs_scale) > \
                    cond_limit * float(abs(lhs) + abs(rhs)):
                raise DegenerateParameters(
                    "cancellation-dominated draw, value far below summand scale")
            noise = floor
            if floor and rhs != 0:
                noise *= max(1.0, float(max(scale, rhs_scale) / abs(rhs)))
        # the error at the caller's precision, outside the extended scope
        return pt, trial_error(lhs, rhs, scale), noise

    # _draw_point is looked up per draw, so tests can patch it
    return _trials(ident.id, trials, partial(_rng_for, ident.id, seed),
                   lambda rng: _draw_point(ident, rng, region), evaluate)


def check_identity(ident: Identity, trials: int = 100, tol: float = 1e-8,
                   seed: int = 1, region: SamplingRegion = DEFAULT_REGION,
                   precision: str = "double") -> VerificationReport:
    """Randomized verification of one identity over independent trials.

    Extended trials work in :class:`ellipsum.wide.mpc` at EXTENDED_DPS
    digits, each operation rounded once, a type that also takes the
    kernel's products to the extended tail; their worst point skips
    rounding noise (:func:`_identity_trials`, :func:`_record`).
    A trial that runs out of admissible draws ends the run: the report then
    fails with the exhaustion message as its ``error`` and counts the
    completed trials, and nothing is raised.  ``trials`` below 1 and a
    ``precision`` other than "double" or "extended" raise
    :class:`ValueError`.
    """
    return _record(ident.id, tol, seed,
                   partial(_identity_trials, ident, trials, seed, region, precision),
                   lambda pt: point_dump(pt.nome, pt.values, pt.n))
