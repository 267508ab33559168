"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
The conjecture criterion reports a finding rather than failing the build
unless ELLIPSUM_STRICT_CONJECTURE=1 is set.
"""

import json
import os
import time

import pytest

from ellipsum import Nome
from ellipsum.catalog import (
    check_identity,
    get_identity,
    list_identities,
    SamplingRegion,
)
from ellipsum.multivar import eval_Omega
from ellipsum.series import omega_sum
from ellipsum.suites import (
    run_cn_suite,
    run_conjecture_suite,
    run_determinants_suite,
    run_inversion_suite,
    run_kernel_suite,
)

from conftest import gauge_pair_errors, omega_at_x1, rel_err, sample_point
from oracles import classical_w_sum


def verdict(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:2d} {label}: {status}{tail}")
    assert ok, f"criterion {number} ({label}) failed{tail}"


def test_criterion_01_kernel_invariants():
    started = time.perf_counter()
    results = run_kernel_suite(trials=100, seed=1)
    elapsed = time.perf_counter() - started
    wanted = {"reflection", "quasi_periodicity", "factorial_quasi_periodicity",
              "factorial_relations", "classical_reduction", "nome_doubling"}
    got = {r.identity_id: r for r in results}
    ok = wanted <= set(got) and all(got[name].passed for name in wanted)
    ok = ok and elapsed < 1.0
    worst = max(got[name].max_rel_err for name in wanted)
    verdict(1, "kernel invariants at 100 points", ok,
            f"worst {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_addition_formula_and_lemma():
    results = {r.identity_id: r for r in run_inversion_suite(
        trials=20, seed=1, only=("addition_formula", "telescoped_addition_lemma"))}
    esum = results["addition_formula"]
    lemma = results["telescoped_addition_lemma"]
    ok = esum.max_rel_err <= 1e-10 and lemma.max_rel_err <= 1e-10
    verdict(2, "addition formula and telescoped lemma", ok,
            f"esum {esum.max_rel_err:.2e}, lemma {lemma.max_rel_err:.2e}")


def test_criterion_03_orthogonality():
    names = ["orthogonality_step1", "orthogonality_step2", "orthogonality_step3",
             "orthogonality_step4", "orthogonality_free_base",
             "orthogonality_sequence_pair"]
    results = {r.identity_id: r for r in run_inversion_suite(trials=20, seed=2, only=names)}
    worst = max(results[name].max_rel_err for name in names)
    verdict(3, "inverse-pair orthogonality (all kinds, n_max 8)", worst <= 1e-8,
            f"worst {worst:.2e}")


def test_criterion_04_proof_replay():
    results = {r.identity_id: r for r in run_inversion_suite(
        trials=20, seed=3, only=("replay_quadratic", "replay_cubic"))}
    quad = results["replay_quadratic"]
    cubic = results["replay_cubic"]
    ok = quad.max_rel_err <= 1e-8 and cubic.max_rel_err <= 1e-8
    verdict(4, "proof replay through the r=2 and r=3 pairs", ok,
            f"quad {quad.max_rel_err:.2e}, cubic {cubic.max_rel_err:.2e}")


def test_criterion_05_full_catalog():
    started = time.perf_counter()
    idents = list_identities()
    failures = []
    worst = 0.0
    for ident in idents:
        rep = check_identity(ident, trials=100, tol=1e-8, seed=1)
        worst = max(worst, rep.max_rel_err)
        if not rep.passed:
            failures.append(ident.id)
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 60.0
    verdict(5, f"full catalog ({len(idents)} entries x 100 trials)", ok,
            f"worst {worst:.2e}, {elapsed:.1f}s"
            + (f", failing: {failures}" if failures else ""))


def test_criterion_06_classical_degenerations():
    region = SamplingRegion(p_mod=(0.0, 0.0))
    worst = 0.0
    for seed in range(20):
        ident = get_identity("e87")
        pt = sample_point(ident, seed=seed, region=region)
        v, n, q = pt.values, pt.n, pt.nome.q
        lhs, _ = ident.lhs(pt)
        want = classical_w_sum(v["a"], (v["b"], v["c"], v["d"], v["e"],
                                        q ** (-n)), q, n)
        worst = max(worst, rel_err(lhs, want))

        ident = get_identity("e109")
        pt = sample_point(ident, seed=seed, region=region)
        v, n, q = pt.values, pt.n, pt.nome.q
        lhs, _ = ident.lhs(pt)
        want = classical_w_sum(v["a"], (v["b"], v["c"], v["d"], v["e"], v["f"],
                                        v["g"], q ** (-n)), q, n)
        worst = max(worst, rel_err(lhs, want))
        rhs, _ = ident.rhs(pt)
        worst = max(worst, rel_err(lhs, rhs))
    verdict(6, "p=0 matches the independent classical evaluator", worst <= 1e-12,
            f"worst {worst:.2e}")


def test_criterion_07_transform_pair_consistency():
    out = gauge_pair_errors(trials=20, seed=1)
    worst = max(out.values())
    verdict(7, "gauge-pair right sides agree at matched points", worst <= 1e-9,
            f"quadratic {out['quadratic']:.2e}, cubic {out['cubic']:.2e}")


def test_criterion_08_determinants():
    results = {r.identity_id: r for r in run_determinants_suite(trials=20, seed=1)}
    ratio_names = ["quadratic_base_determinant", "factorial_ratio_determinant",
                   "periodic_family_determinant", "theta_determinant_2x2"]
    ok = all(results[name].max_rel_err <= 1e-8 for name in ratio_names)
    ok = ok and results["lu_factorization"].max_rel_err <= 1e-9
    worst = max(results[name].max_rel_err for name in ratio_names)
    verdict(8, "determinant/product pairs and LU replay", ok,
            f"worst ratio {worst:.2e}, "
            f"lu {results['lu_factorization'].max_rel_err:.2e}")


def test_criterion_09_cn_jackson():
    results = {r.identity_id: r
               for r in run_cn_suite(trials=20, seed=1,
                                     sizes=((1, 4), (2, 3), (3, 2)))}
    names = ["cn_jackson_n1", "cn_jackson_n2", "cn_jackson_n3",
             "cn_jackson_reduces_to_one_variable"]
    worst = max(results[name].max_rel_err for name in names)
    verdict(9, "multivariable Jackson sum (n = 1..3)", worst <= 1e-8,
            f"worst {worst:.2e}")


def test_criterion_10_partition_series_degenerations():
    import random
    state = random.Random(1012)

    def draw(lo=0.5, hi=2.0):
        import cmath
        return state.uniform(lo, hi) * cmath.exp(1j * state.uniform(0, 6.283185))

    worst_single = 0.0
    worst_collapse = 0.0
    exact_zero_cap = True
    for _ in range(10):
        q, p = draw(0.3, 0.8), draw(0.05, 0.3)
        nome = Nome(q, p)
        a, b, c, d = draw(), draw(), draw(), draw()
        N = 2
        e = a * a * q ** (N + 1) / (b * c * d)
        got = eval_Omega(a, (b, c, d, e), nome, draw(0.8, 0.95), 1, N)
        want, _ = omega_sum(a, (b, c, d, e, q ** (-N)), nome, N)
        worst_single = max(worst_single, rel_err(got, want))

        n = 2
        ez = a * a * q * draw(0.8, 0.95) ** (1 - n) / (b * c * d)
        exact_zero_cap &= eval_Omega(a, (b, c, d,
                                         a * a * q * 0.9 ** (1 - n) / (b * c * d)),
                                     nome, 0.9, n, 0) == 1.0
        collapsed = omega_at_x1(a, (b, c, d, e), nome, n, N)
        worst_collapse = max(worst_collapse, rel_err(collapsed, want ** n))
    ok = worst_single <= 1e-12 and exact_zero_cap and worst_collapse <= 1e-10
    verdict(10, "partition-series degenerations", ok,
            f"single {worst_single:.2e}, collapse {worst_collapse:.2e}, "
            f"zero-cap exact {exact_zero_cap}")


def test_criterion_11_conjecture_evidence():
    results = {r.identity_id: r
               for r in run_conjecture_suite(trials=20, seed=1, sizes=((2, 2),))}
    conj = results["conjecture_n2"]
    rect = results["rectangle_evaluation_n2"]
    ok = conj.max_rel_err <= 1e-7 and rect.max_rel_err <= 1e-7
    detail = f"conjecture {conj.max_rel_err:.2e}, rectangle {rect.max_rel_err:.2e}"
    if ok:
        verdict(11, "conjecture evidence (n=2, N<=2)", True, detail)
        return
    # A counterexample is a finding about the open statement, not a build
    # defect; strict mode turns it into a failure.
    strict = os.environ.get("ELLIPSUM_STRICT_CONJECTURE") == "1"
    print(f"ACCEPTANCE 11 conjecture evidence: FINDING  ({detail})")
    if strict:
        pytest.fail(f"conjecture evidence failed in strict mode: {detail}")


def test_criterion_12_cli_determinism(tmp_path):
    import subprocess
    import sys

    payloads = []
    for run_index in (0, 1):
        path = tmp_path / f"det{run_index}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "ellipsum.cli", "run", "--identity", "e87",
             "--trials", "30", "--seed", "7", "--json", str(path)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(path.read_text())
        for rep in payload["reports"]:
            rep.pop("wall_time_ms")
        payloads.append(json.dumps(payload, sort_keys=True))
    verdict(12, "CLI determinism (byte-identical modulo timing)",
            payloads[0] == payloads[1])
