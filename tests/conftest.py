from __future__ import annotations

import cmath
import os
import random
import struct

import pytest


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


@pytest.fixture(scope="session", autouse=True)
def no_child_left():
    """After the session, no forked worker is left running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process was left {'running' if pid == 0 else 'unreaped'}")
