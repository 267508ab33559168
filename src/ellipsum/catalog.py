"""Catalog of summation and transformation identities with random checking.

Each entry bundles the free parameters, exact solvers for the constrained
ones, the termination index and its sampling range, an optional residue-class
filter, and its two sides.  A side is data, a :class:`~ellipsum.series.Side`
of products of shifted factorials and very-well-poised series whose
parameters are monomials in the point's letters and q; one evaluator turns
either side into (value, scale).  Each side is written from the paper, not
derived from the other, and each is evaluated on its own, down to the
kernel, so a shared bug cannot cancel itself.

The scale bounds the largest intermediate summand behind the value (for
plain products it is just the magnitude).  Identities whose right side
vanishes on part of their range are checked against the left scale instead
of a meaningless relative error, and draws where either scale dwarfs the
value are resampled as cancellation-dominated.

This module holds the rows and how an identity draws and evaluates a
point; the sampling loop, the record and the fork pool it runs on are
:mod:`ellipsum.sampling`, shared with the suite checks.
"""

from __future__ import annotations

import contextlib
import math
from functools import partial
from typing import Callable, NamedTuple

from .errors import DegenerateParameters
from .kernel import EMemo, Nome
from .report import VerificationReport, point_dump
from .sampling import (
    CONDITION_LIMIT,
    CONDITION_LIMIT_EXTENDED,
    DEFAULT_REGION,
    PARAM_MOD,
    SamplingRegion,
    _draw_complex,
    _record,
    _rng_for,
    _trials,
    trial_error,
)
from .series import Omega, Product, Series, Side, Term
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
    ``(value, scale)``: in the catalog each is a
    :class:`~ellipsum.series.Side`, and the scalar type of the point picks
    the precision of the E values behind it.
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
# Identity registry
# --------------------------------------------------------------------------

_REGISTRY: list = []


def _register(ident: Identity) -> Identity:
    if any(x.id == ident.id for x in _REGISTRY):
        raise ValueError(f"duplicate identity id {ident.id}")
    _REGISTRY.append(ident)
    return ident


# Every side below is data (:mod:`ellipsum.series`): monomials over the
# letters of the row's point and q, in text such as "a^2 q/b c d".  The left
# sides of a family are written out once per assignment of its slots.

# The closed form (hi, hi/b c, lo/b d, lo/c d) / (hi/b, hi/c, lo/d, lo/b c d)
# of the eight-term summation and its cubic relatives, at (hi, lo) = (a q,
# a q), (a q^2, a q) and (a q^3, a q^3): numerators and denominators.
_EIGHT_AQ = (("a q", "a q/b c", "a q/b d", "a q/c d"), ("a q/b", "a q/c", "a q/d", "a q/b c d"))
_EIGHT_AQ2_AQ = (("a q^2", "a q^2/b c", "a q/b d", "a q/c d"),
                 ("a q^2/b", "a q^2/c", "a q/d", "a q/b c d"))
_EIGHT_AQ3 = (("a q^3", "a q^3/b c", "a q^3/b d", "a q^3/c d"),
              ("a q^3/b", "a q^3/c", "a q^3/d", "a q^3/b c d"))

# ---- ten-term transformation and Jackson evaluation ----------------------

_register(Identity(
    id="e109",
    description="ten-term very-well-poised transformation with shifted base point",
    free_params=("a", "b", "c", "d", "e", "f"), termination=(0, 5),
    lhs=Side(Term(series=Omega("a", ("b", "c", "d", "e", "f", "g", "q^-n"), "q", "n"))),
    rhs=Side(Term(
        (Product(("a q", "a q/e f", "a^2 q^2/b c d e", "a^2 q^2/b c d f"),
                 ("a q/e", "a q/f", "a^2 q^2/b c d e f", "a^2 q^2/b c d"), "q", "n"),),
        Omega("a^2 q/b c d", ("a q/c d", "a q/b d", "a q/b c", "e", "f", "g", "q^-n"),
              "q", "n"))),
    solve=lambda v, n, q: {"g": v["a"] ** 3 * q ** (n + 2) /
                           (v["b"] * v["c"] * v["d"] * v["e"] * v["f"])},
))

_register(Identity(
    id="e87",
    description="eight-term very-well-poised summation in closed product form",
    free_params=("a", "b", "c", "d"), termination=(0, 6),
    lhs=Side(Term(series=Omega("a", ("b", "c", "d", "e", "q^-n"), "q", "n"))),
    rhs=Side(Term((Product(*_EIGHT_AQ, "q", "n"),))),
    solve=lambda v, n, q: {"e": v["a"] ** 2 * q ** (n + 1) /
                           (v["b"] * v["c"] * v["d"])},
))


# ---- two-base telescoping sums --------------------------------------------

# E(a (q r)^k) E(b (r/q)^k) / (E(a) E(b))
_TWO_BASE = (("a", "q r", 1), ("b", "r/q", 1))
_GR_FIRST = Product(("c", "a b/c", "a d", "b d"), ("a", "b", "c d", "a b d/c"), "q", "1")

_register(Identity(
    id="gr_sum_general",
    description="two-base telescoping sum with free weight parameter",
    free_params=("a", "b", "c", "d"), termination=(0, 6),
    lhs=Side(Term(series=Series(
        _TWO_BASE,
        ((("a/c", "c/b"), "q", 1), (("a b d", "1/d"), "r", 1)),
        ((("c r", "a b r/c"), "r", 1), (("q/b d", "a d q"), "q", 1))))),
    # first * (1 - ratio), a sum of two products
    rhs=Side(Term((_GR_FIRST,)), Term((
        _GR_FIRST,
        Product(("a/c", "b q^-n/c"), ("b d q^-n", "a d"), "q", "n+1"),
        Product(("a b d", "d r^-n"), ("r^-n/c", "a b/c"), "r", "n+1")), sign=-1)),
    solve=lambda v, n, q: {},
    extra_bases=("r",),
))

_register(Identity(
    id="sum1",
    description="two-base telescoping sum at the closing weight r^n",
    free_params=("a", "b", "c"), termination=(0, 6),
    lhs=Side(Term(series=Series(
        _TWO_BASE,
        ((("a/c", "c/b"), "q", 1), (("a b r^n", "r^-n"), "r", 1)),
        ((("c r", "a b r/c"), "r", 1), (("q r^-n/b", "a q r^n"), "q", 1))))),
    rhs=Side(Term((Product(("c", "a b/c", "a r^n", "b r^n"),
                           ("a", "b", "c r^n", "a b r^n/c"), "q", "1"),))),
    solve=lambda v, n, q: {},
    extra_bases=("r",),
))


# ---- stretched-base summation family --------------------------------------

_THMR_FIRST = Product(("a/c", "c/b"), ("a", "1/b"), "q", "n")

for _r, _hi in ((1, 5), (2, 5), (3, 4), (4, 3)):
    _qr = f"q^{_r}"
    _register(Identity(
        id=f"thmr_r{_r}",
        description=f"stretched-base (step {_r}) very-well-poised summation",
        free_params=("a", "b", "c"), termination=(0, _hi),
        # uppers c, a b/c, b q^i for i = 1..r, a q^(n+i) for i = 0..r-1, q^-rn
        lhs=Side(Term(series=Omega("a b", (
            "c", "a b/c", *(f"b q^{i}" for i in range(1, _r + 1)),
            *(f"a q^(n+{i})" for i in range(_r)), f"q^-{_r}n"), _qr, "n"))),
        rhs=Side(Term((_THMR_FIRST,
                       Product((_qr, f"a b {_qr}"), (f"c {_qr}", f"a b {_qr}/c"), _qr, "n")))),
        solve=lambda v, n, q: {},
    ))


# ---- quadratic transformation and its summation cases ----------------------

# E(a q^{3k}) prefactor, alternating q / q^2 factorials
_QUADRATIC = Side(Term(series=Series(
    (("a", "q", 3),),
    ((("b", "c", "d"), "q", 1), (("e", "f", "q^-2n"), "q^2", 1)),
    ((("a q^2/b", "a q^2/c", "a q^2/d"), "q^2", 1), (("a q/e", "a q/f", "a q^(2n+1)"), "q", 1)))))


for _which in ("gab", "gae"):
    _register(Identity(
        id=f"etrafo_quadratic_{_which}",
        description=f"quadratic transformation into a ten-term series (gauge {_which[-2:]})",
        free_params=("a", "b", "c", "e"), termination=(0, 5),
        lhs=_QUADRATIC,
        rhs=Side(Term(
            (Product(("a q^2", "a^2 q^2/b c e", "a^2 q^2/b d e g", "a g q^2/c d"),
                     ("a^2 q^2/b e g", "a g q^2/c", "a q^2/d", "a^2 q^2/b c d e"), "q^2", "n"),),
            Omega("a g/c", ("a/c", "g q^2/c", "b e g/a", "d", "f", "g", "q^-2n"), "q^2", "n"))),
        # the gauge parameter g is a/b or a/e
        solve=lambda v, n, q, by=_which[-1]: {
            "d": v["a"] * q / (v["b"] * v["c"]), "f": v["a"] ** 2 * q ** (2 * n + 1) / v["e"],
            "g": v["a"] / v[by]},
    ))

# the closed form of the summations left when two parameters coalesce
_COALESCED_Q2 = Side(Term((Product(
    ("a q^2", "a^2 q^2/b c e", "a^2 q^2/b d e", "a q^2/c d"),
    ("a^2 q^2/b e", "a q^2/c", "a q^2/d", "a^2 q^2/b c d e"), "q^2", "n"),)))

_register(Identity(
    id="cor1_ba",
    description="quadratic summation, first-parameter coalescence",
    free_params=("a", "c", "e"), termination=(0, 6),
    lhs=_QUADRATIC,
    rhs=_COALESCED_Q2,
    solve=lambda v, n, q: {"b": v["a"], "d": q / v["c"],
                           "f": v["a"] ** 2 * q ** (2 * n + 1) / v["e"]},
))

_register(Identity(
    id="cor1_ea",
    description="quadratic summation, middle-parameter coalescence",
    free_params=("a", "b", "c"), termination=(0, 6),
    lhs=_QUADRATIC,
    rhs=_COALESCED_Q2,
    solve=lambda v, n, q: {"d": v["a"] * q / (v["b"] * v["c"]), "e": v["a"],
                           "f": v["a"] * q ** (2 * n + 1)},
))


# ---- cubic transformation and its summation cases ---------------------------

# E(a q^{4k}) prefactor, a doubled-index middle factorial and a q^3-base block
_CUBIC = Side(Term(series=Series(
    (("a", "q", 4),),
    ((("b", "c"), "q", 1), (("d",), "q", 2), (("e", "q^-3n"), "q^3", 1)),
    ((("a q^3/b", "a q^3/c"), "q^3", 1), (("a q/d",), "q", 2),
     (("a q/e", "a q^(3n+1)"), "q", 1)))))


def _solve_cubic_transform(which: str):
    def solve(v, n, q):
        d = v["a"] * q / (v["b"] * v["c"])
        e = v["a"] ** 2 * q ** (3 * n + 1) / d
        f = v["a"] / v["b"] if which == "fab" else v["a"] / e
        return {"d": d, "e": e, "f": f}

    return solve


for _which in ("fab", "fae"):
    _register(Identity(
        id=f"etrafo2_cubic_{_which}",
        description=f"cubic transformation into a ten-term series (gauge {_which[-2:]})",
        free_params=("a", "b", "c"), termination=(0, 5),
        lhs=_CUBIC,
        rhs=Side(Term(
            (Product(("a q^3", "a^2 q^3/b c e", "a^2 q^3/b d e f", "a f q^3/c d"),
                     ("a^2 q^3/b e f", "a f q^3/c", "a q^3/d", "a^2 q^3/b c d e"), "q^3", "n"),),
            Omega("a f/c", ("a/c", "f q^3/c", "b e f/a", "d", "d q", "f", "q^-3n"), "q^3", "n"))),
        solve=_solve_cubic_transform(_which),
    ))

_COALESCED_Q3 = Side(Term((Product(
    ("a q^3", "a^2 q^3/b c e", "a^2 q^3/b d e", "a q^3/c d"),
    ("a^2 q^3/b e", "a q^3/c", "a q^3/d", "a^2 q^3/b c d e"), "q^3", "n"),)))

_register(Identity(
    id="cor_cubic_ba",
    description="cubic summation, first-parameter coalescence",
    free_params=("a", "c"), termination=(0, 5),
    lhs=_CUBIC,
    rhs=_COALESCED_Q3,
    solve=lambda v, n, q: {"b": v["a"], "d": q / v["c"],
                           "e": v["a"] ** 2 * q ** (3 * n + 1) * v["c"] / q},
))

_register(Identity(
    id="cor_cubic_ea",
    description="cubic summation, tail-parameter coalescence",
    free_params=("a", "b"), termination=(0, 3),
    lhs=_CUBIC,
    rhs=_COALESCED_Q3,
    solve=lambda v, n, q: {"c": q ** (-3 * n) / v["b"],
                           "d": v["a"] * q ** (3 * n + 1), "e": v["a"]},
))

_register(Identity(
    id="cor_cubic_da",
    description="cubic summation with doubled-index slot pinned to the base point",
    free_params=("a", "b"), termination=(0, 5),
    lhs=_CUBIC,
    rhs=Side(Term((Product(("a q^2", "a q^3", "b q", "c q"),
                           ("q", "q^2", "a q^3/b", "a q^3/c"), "q^3", "n"),))),
    solve=lambda v, n, q: {"c": q / v["b"], "d": v["a"],
                           "e": v["a"] * q ** (3 * n + 1)},
))


# ---- mixed-base transformations -------------------------------------------

# E(a q^{3k}) prefactor with swapped q^2 / q factorial bases
_MIXED32 = Side(Term(series=Series(
    (("a", "q", 3),),
    ((("b", "c", "d"), "q^2", 1), (("e", "f", "q^-n"), "q", 1)),
    ((("a q/b", "a q/c", "a q/d"), "q", 1), (("a q^2/e", "a q^2/f", "a q^(n+2)"), "q^2", 1)))))
_ETRAFO3_PREFACTOR = (
    Product(("a q", "a q/b c"), ("a q/b", "a q/c"), "q", "n"),
    Product(("a q^(1-n)/b", "a q^(1-n)/c"), ("a q^(1-n)", "a q^(1-n)/b c"), "q^2", "n"))

_register(Identity(
    id="etrafo3",
    description="quadratic-base transformation with halved inner series",
    free_params=("a", "b", "c", "e"), termination=(0, 8),
    lhs=_MIXED32,
    rhs=Side(Term(_ETRAFO3_PREFACTOR, Omega(
        "a^2/e f", ("b", "c", "d", "a/e", "a/f", "q^(1-n)", "q^-n"), "q^2", "n//2"))),
    solve=lambda v, n, q: {"d": v["a"] ** 2 * q / (v["b"] * v["c"]),
                           "f": v["a"] * q ** (n + 1) / v["e"]},
))

_ETRAFO4_PREFACTOR = (Product(("a q",), ("a q/b",), "q", "n"),
                      Product(("a q^(2-n)/b",), ("a q^(2-n)",), "q^3", "n"))

_register(Identity(
    id="etrafo4",
    description="cubic-base transformation over the half-range sum",
    free_params=("a", "b", "d"), termination=(0, 8),
    # E(a q^{4k}) prefactor with a doubled terminating factorial, k <= n/2
    lhs=Side(Term(series=Series(
        (("a", "q", 4),),
        ((("b", "c"), "q^3", 1), (("q^-n",), "q", 2), (("d", "e"), "q", 1)),
        ((("a q/b", "a q/c"), "q", 1), (("a q^(n+1)",), "q", 2),
         (("a q^3/d", "a q^3/e"), "q^3", 1)), "q", "n//2"))),
    rhs=Side(Term(_ETRAFO4_PREFACTOR, Omega(
        "a^2/d e", ("b", "c", "a/d", "a/e", "q^(2-n)", "q^(1-n)", "q^-n"), "q^3", "n//3"))),
    solve=lambda v, n, q: {"c": v["a"] ** 2 * q ** (n + 1) / v["b"],
                           "e": v["a"] * q ** (n + 1) / v["d"]},
))


def _etrafo5_solve(v, n, q):
    c = v["a"] ** 2 * q / (v["b"] * v["d"])
    e = v["a"] * q ** (n + 1) / v["d"]
    return {"c": c, "e": e}


# E(a q^{4k}) prefactor with one doubled slot and a q^3 tail block
_FAMILY43 = Side(Term(series=Series(
    (("a", "q", 4),),
    ((("b", "c"), "q^3", 1), (("d",), "q", 2), (("e", "q^-n"), "q", 1)),
    ((("a q/b", "a q/c"), "q", 1), (("a q/d",), "q", 2), (("a q^3/e", "a q^(n+3)"), "q^3", 1)))))

# Residue branch 0, 1 or 2 of the cubic-base transformation: with n = 3m - s,
# s in 0..2, an eight-term prefactor of length m times an omega series in
# base q^3 over k <= n/3; the prefactor depends on s, so one term per residue.
_ETRAFO5_OMEGA = (
    Omega("a^2/d e q", ("a/d q", "a/e", "b", "c", "d", "q^(1-n)", "q^-n"), "q^3", "n//3"),
    Omega("a^2/d e", ("a/d", "a/e", "b", "c", "d q", "q^(2-n)", "q^-n"), "q^3", "n//3"),
    Omega("a^2 q/d e", ("a q/d", "a/e", "b", "c", "d q^2", "q^(2-n)", "q^(1-n)"), "q^3", "n//3"))
_ETRAFO5_RHS = (
    Side(Term((Product(*_EIGHT_AQ3, "q^3", "n//3"),), _ETRAFO5_OMEGA[0], when=(3, 0)),
         Term((Product(*_EIGHT_AQ, "q^3", "(n+2)//3"),), _ETRAFO5_OMEGA[0], when=(3, 1))),
    Side(Term((Product(("a q^3", "a q^3/b c", "a q^2/b d", "a q^2/c d"),
                       ("a q^3/b", "a q^3/c", "a q^2/d", "a q^2/b c d"), "q^3", "n//3"),),
              _ETRAFO5_OMEGA[1], when=(3, 0)),
         Term((Product(*_EIGHT_AQ2_AQ, "q^3", "(n+1)//3"),), _ETRAFO5_OMEGA[1], when=(3, 2))),
    Side(Term((Product(*_EIGHT_AQ2_AQ, "q", "1"),
               Product(("a q", "a q/b c", "a/b d q", "a/c d q"),
                       ("a q/b", "a q/c", "a/d q", "a/b c d q"), "q^3", "(n+2)//3")),
              _ETRAFO5_OMEGA[2], when=(3, 1)),
         Term((Product(*_EIGHT_AQ, "q", "1"),
               Product(("a q^2", "a q^2/b c", "a/b d", "a/c d"),
                       ("a q^2/b", "a q^2/c", "a/d", "a/b c d"), "q^3", "(n+1)//3")),
              _ETRAFO5_OMEGA[2], when=(3, 2))))

for _sigma, _pred in ((0, lambda n: n % 3 != 2),
                      (1, lambda n: n % 3 != 1),
                      (2, lambda n: n % 3 != 0)):
    _register(Identity(
        id=f"etrafo5_b{_sigma}",
        description=f"cubic-base transformation, residue branch {_sigma}",
        free_params=("a", "b", "d"), termination=(0, 8),
        lhs=_FAMILY43,
        rhs=_ETRAFO5_RHS[_sigma],
        solve=_etrafo5_solve,
        branch=_pred,
    ))


# ---- summation corollaries of the mixed-base transformations ----------------

# Where a summation pins a transformation's inner series to its k = 0 term,
# 1, its closed form is the transformation's prefactor alone.
_register(Identity(
    id="cor_etrafo3_fa",
    description="quadratic-base summation from pinning the inner series",
    free_params=("a", "b", "c"), termination=(0, 8),
    lhs=_MIXED32,
    rhs=Side(Term(_ETRAFO3_PREFACTOR)),
    solve=lambda v, n, q: {"d": v["a"] ** 2 * q / (v["b"] * v["c"]),
                           "e": q ** (n + 1), "f": v["a"]},
))

_register(Identity(
    id="egs",
    description="quadratic-base summation vanishing at odd order",
    free_params=("a", "b", "d"), termination=(0, 9),
    # the base point itself fills the first quadratic-base slot
    lhs=Side(Term(series=Series(
        (("a", "q", 3),),
        ((("a", "b", "c"), "q^2", 1), (("d", "e", "q^-n"), "q", 1)),
        ((("q", "a q/b", "a q/c"), "q", 1), (("a q^2/d", "a q^2/e", "a q^(n+2)"), "q^2", 1))))),
    rhs=Side(Term((Product(("a q^2", "a q^2/b c", "a q^2/b d", "a q^2/c d"),
                           ("a q^2/b", "a q^2/c", "a q^2/d", "a q^2/b c d"), "q^2", "n//2"),),
                  when=(2, 0))),
    solve=lambda v, n, q: {"c": v["a"] * q / v["b"],
                           "e": v["a"] * q ** (n + 1) / v["d"]},
))

_register(Identity(
    id="cor_etrafo4_ea",
    description="half-range cubic-base summation, tail coalescence",
    free_params=("a", "b"), termination=(0, 8),
    lhs=Side(Term(series=Series(
        (("a", "q", 4),),
        ((("b", "c"), "q^3", 1), (("q^-n",), "q", 2), (("a", "d"), "q", 1)),
        ((("a q/b", "a q/c"), "q", 1), (("a q^(n+1)",), "q", 2), (("q^3", "a q^3/d"), "q^3", 1)),
        "q", "n//2"))),
    rhs=Side(Term(_ETRAFO4_PREFACTOR)),
    solve=lambda v, n, q: {"c": v["a"] ** 2 * q ** (n + 1) / v["b"],
                           "d": q ** (n + 1)},
))

_register(Identity(
    id="c2",
    description="half-range cubic-base summation vanishing on one residue class",
    free_params=("a", "c"), termination=(0, 8),
    lhs=Side(Term(series=Series(
        (("a", "q", 4),),
        ((("a", "b"), "q^3", 1), (("q^-n",), "q", 2), (("c", "d"), "q", 1)),
        ((("q", "a q/b"), "q", 1), (("a q^(n+1)",), "q", 2), (("a q^3/c", "a q^3/d"), "q^3", 1)),
        "q", "n//2"))),
    rhs=Side(Term((Product(("a q^3", "a q^3/b c", "a q^3/b d"),
                           ("a q^3/c", "a q^3/d", "a q^3/b c d"), "q^3", "n//3"),),
                  when=(3, 0, 1))),
    solve=lambda v, n, q: {"b": v["a"] * q ** (n + 1),
                           "d": v["a"] * q ** (n + 1) / v["c"]},
))

_register(Identity(
    id="cor_etrafo5_ea",
    description="cubic-base summation with residue-split closed forms",
    free_params=("a", "b"), termination=(0, 6),
    lhs=Side(Term(series=Series(
        (("a", "q", 4),),
        ((("b", "c"), "q^3", 1), (("d",), "q", 2), (("a", "q^-n"), "q", 1)),
        ((("a q/b", "a q/c"), "q", 1), (("a q/d",), "q", 2), (("q^3", "a q^(n+3)"), "q^3", 1))))),
    rhs=Side(Term((Product(*_EIGHT_AQ3, "q^3", "n//3"),), when=(3, 0)),
             Term((Product(*_EIGHT_AQ, "q^3", "(n+2)//3"),), when=(3, 1)),
             Term((Product(*_EIGHT_AQ2_AQ, "q^3", "(n+1)//3"),), when=(3, 2))),
    solve=lambda v, n, q: {"d": q ** (n + 1),
                           "c": v["a"] ** 2 * q ** (-n) / v["b"]},
))

_register(Identity(
    id="cor_chu",
    description="cubic-base summation vanishing off one residue class",
    free_params=("a", "b"), termination=(0, 9),
    lhs=Side(Term(series=Series(
        (("a", "q", 4),),
        ((("a", "b"), "q^3", 1), (("c",), "q", 2), (("d", "q^-n"), "q", 1)),
        ((("q", "a q/b"), "q", 1), (("a q/c",), "q", 2), (("a q^3/d", "a q^(n+3)"), "q^3", 1))))),
    rhs=Side(Term((Product(("q", "q^2", "a q^3", "b^2/a"),
                           ("b q", "b q^2", "b/a", "a q^3/b"), "q^3", "n//3"),),
                  when=(3, 0))),
    solve=lambda v, n, q: {"c": v["a"] * q / v["b"], "d": v["b"] * q ** n},
))

_register(Identity(
    id="cor_etrafo5_da",
    description="cubic-base summation with doubled slot at the base point",
    free_params=("a", "b"), termination=(0, 8),
    lhs=Side(Term(series=Series(
        (("a", "q", 4),),
        ((("b", "c"), "q^3", 1), (("a",), "q", 2), (("d", "q^-n"), "q", 1)),
        ((("a q/b", "a q/c"), "q", 1), (("q",), "q", 2), (("a q^3/d", "a q^(n+3)"), "q^3", 1))))),
    rhs=Side(Term((Product(("a q^3", "q^2/b", "q^2/c"),
                           ("q^2/b c", "a q^3/b", "a q^3/c"), "q^3", "n//3"),), when=(3, 0)),
             Term((Product(("a q^2", "q/b", "q/c"),
                           ("q/b c", "a q^2/b", "a q^2/c"), "q^3", "(n+2)//3"),), when=(3, 2))),
    solve=lambda v, n, q: {"c": v["a"] * q / v["b"], "d": q ** (n + 1)},
))


# ---- quartic results --------------------------------------------------------

_register(Identity(
    id="quartic_trafo",
    description="quartic-step transformation between two-parameter sums",
    free_params=("a", "b"), termination=(0, 3),
    lhs=Side(Term(series=Series(
        (("a", "q", 5),),
        ((("b^2/a q^2",), "q", 1), (("a q/b", "a q^2/b", "a q^3/b"), "q^2", 1),
         (("a b q^4n", "q^-4n"), "q^4", 1)),
        ((("a^2 q^6/b^2",), "q^4", 1), (("b", "b q", "b q^2"), "q^3", 1),
         (("q^(1-4n)/b", "a q^(4n+1)"), "q", 1))))),
    rhs=Side(Term(
        (Product(("a q",), ("b",), "q", "4n"),
         Product(("q^4", "b^3/a q^2"), ("a b", "a^2 q^6/b^2"), "q^4", "n")),
        Omega("a b/q^4", ("a^2 q^2/b^2", "b", "b/q", "b/q^2", "b/q^3"), "q^4", "n"))),
    solve=lambda v, n, q: {},
))

_register(Identity(
    id="quartic_sum",
    description="quartic-step summation vanishing off one residue class",
    free_params=("a",), termination=(0, 8),
    lhs=Side(Term(series=Series(
        (("a^2", "q", 5),),
        ((("a^2",), "q^4", 1), (("a", "a q", "a q^2"), "q^3", 1), (("a q^(n+1)", "q^-n"), "q", 1)),
        ((("q",), "q", 1), (("a", "a q", "a q^2"), "q^2", 1),
         (("a q^(3-n)", "a^2 q^(n+4)"), "q^4", 1))))),
    rhs=Side(Term((Product(("q", "q^2", "q^3", "a^2 q^4"),
                           ("a q^2", "a q^3", "a q^4", "q/a"), "q^4", "n//4"),), when=(4, 0))),
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
        values[name] = _draw_complex(rng, PARAM_MOD)
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
