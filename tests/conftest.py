from __future__ import annotations

import cmath
import contextlib
import math
import os
import random
import struct
from collections import Counter

import mpmath
import pytest
from mpmath import libmp

from ellipsum import catalog, wide
from ellipsum.multivar import enumerate_partitions
from ellipsum.series import _summed, omega_terms


@pytest.fixture
def rnd():
    """Seeded random complex draw: rnd(lo, hi) has modulus in [lo, hi]."""
    state = random.Random(20260810)

    def draw(lo: float = 0.5, hi: float = 2.0) -> complex:
        mod = state.uniform(lo, hi)
        phase = state.uniform(0.0, 2.0 * cmath.pi)
        return mod * cmath.exp(1j * phase)

    return draw


def rel_err(a, b) -> float:
    return float(abs(a - b) / (abs(a) + abs(b) + 1e-300))


def bits(z) -> bytes:
    """The bytes of both parts of a number, so that signed zeros and NaNs compare too."""
    return struct.pack("<dd", z.real, z.imag)


@contextlib.contextmanager
def workdps(dps: int):
    """A scope at ``dps`` digits for mpmath and ``ellipsum.wide`` both, the
    same bits on each side (169 at 50 digits)."""
    with mpmath.workdps(dps), wide.workdps(dps):
        yield


def signed_parts(raw) -> tuple:
    """mpmath's raw parts (sign, |man|, exp, bit count) as (man, exp)."""
    sign, man, exp, _ = raw
    return (-man if sign else man), exp


def to_wide(x):
    """An mpmath mpf or mpc as the ``ellipsum.wide`` number of equal value,
    an mpf or an mpc, exactly at any precision of either."""
    if isinstance(x, mpmath.mpf):
        return to_wide(mpmath.mp.make_mpc((x._mpf_, libmp.fzero))).real
    parts = [signed_parts(part) for part in x._mpc_]
    bits = -min((e for m, e in parts if m), default=0)
    # from_parts rounds to the precision of wide.ctx: that of the longer
    # mantissa keeps it exact
    with wide.workdps(max(abs(m).bit_length() for m, _ in parts) + 1):
        return wide.from_parts(*(m << (e + bits) if m else 0 for m, e in parts), bits)


def to_mp(x):
    """An ``ellipsum.wide`` mpf or mpc as the mpmath number of equal value,
    exactly at any precision of either."""
    re, im, bits = wide.exact_parts(x)
    parts = libmp.from_man_exp(re, -bits), libmp.from_man_exp(im, -bits)
    if isinstance(x, wide.mpf):
        return mpmath.mp.make_mpf(parts[0])
    return mpmath.mp.make_mpc(parts)


def sample_point(ident: catalog.Identity, seed: int,
                 region: catalog.SamplingRegion = catalog.DEFAULT_REGION):
    """The admissible point that trial 0 of ``check_identity`` draws for
    ``ident`` at ``seed``."""
    values, _, error = catalog._identity_trials(ident, 1, seed, region, "double")
    assert error is None, error
    return values[0][0]


def gauge_pair_errors(trials: int, seed: int,
                      region: catalog.SamplingRegion = catalog.DEFAULT_REGION) -> dict:
    """{pair: max relative difference} of the two gauge forms of the quadratic
    and cubic transformations' right sides at matched points.

    A transformation's left side does not involve its gauge parameter, so the
    two right-hand forms must agree.  Each pair runs through
    ``check_identity`` as an unregistered row whose sides are the two forms,
    the second with its own gauge parameter solved again.  A pair that runs
    out of admissible draws fails the assertion instead of reading as 0.
    """
    out = {}
    for pair_name, id_a, id_b in (
            ("quadratic", "etrafo_quadratic_gab", "etrafo_quadratic_gae"),
            ("cubic", "etrafo2_cubic_fab", "etrafo2_cubic_fae")):
        ident_a, ident_b = catalog.get_identity(id_a), catalog.get_identity(id_b)

        def rhs_b(pt):
            values = dict(pt.values)
            values.update(ident_b.solve({k: values[k] for k in ident_b.free_params},
                                        pt.n, pt.nome.q))
            return ident_b.rhs(catalog.ParamPoint(pt.nome, values, pt.n))

        pair = ident_a._replace(id=pair_name, lhs=ident_a.rhs, rhs=rhs_b)
        rep = catalog.check_identity(pair, trials, seed=seed, region=region)
        assert rep.error is None, rep.error
        out[pair_name] = rep.max_rel_err
    return out


def omega_at_x1(a1, upper, nome, nparts: int, N: int):
    """The partition series Omega at x = 1, ``upper`` without q^-N.

    There a partition with part multiplicities m_0..m_N weighs
    nparts! / (m_0! ... m_N!) times the product of one-variable terms, one per
    part, so the sum is the nparts-th power of the one-variable series by the
    multinomial theorem.
    """
    terms = omega_terms(a1, (*upper, nome.q ** (-N)), nome, N)

    def summand(lam):
        mult = math.factorial(nparts) // math.prod(
            map(math.factorial, Counter(lam.parts).values()))
        return math.prod((terms[part] for part in lam.parts), start=1.0 * mult)

    value, _ = _summed(map(summand, enumerate_partitions(nparts, N)))
    return value


@pytest.fixture(scope="session", autouse=True)
def no_child_left():
    """After the session, no forked worker is left running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process was left {'running' if pid == 0 else 'unreaped'}")
