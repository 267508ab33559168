import json
import sys

import pytest

from ellipsum import determinants
from ellipsum.kernel import EMemo
from ellipsum.suites import (
    KERNEL_CHECKS,
    SUITES,
    Check,
    run_checks,
    run_conjecture_suite,
    run_determinants_suite,
    run_kernel_suite,
)


def _no_args(rng, region):
    return ()


def _records(results) -> list:
    """The records' dicts without their wall-clock field."""
    return [{k: v for k, v in r.to_dict().items() if k != "wall_time_ms"} for r in results]


class TestSuiteRunners:
    def test_registry_names(self):
        assert sorted(SUITES) == ["cn", "conjecture", "determinants",
                                  "inversion", "kernel"]

    def test_kernel_suite_reproducible(self):
        a = _records(run_kernel_suite(trials=30, seed=5))
        b = _records(run_kernel_suite(trials=30, seed=5))
        assert a == b

    def test_check_result_shape(self):
        res = run_conjecture_suite(trials=3, seed=2)[0]
        d = res.to_dict()
        assert list(d) == ["identity_id", "trials", "tol", "seed", "max_rel_err",
                           "mean_rel_err", "failures", "resamples", "worst_point",
                           "wall_time_ms"]
        assert res.passed == (d["max_rel_err"] <= d["tol"]) == (d["failures"] == [])

    def test_conjecture_suite_size_override(self):
        results = run_conjecture_suite(trials=2, seed=1, sizes=((1, 3),))
        assert [r.identity_id for r in results] == ["conjecture_n1",
                                             "rectangle_evaluation_n1"]
        assert all(r.passed for r in results)

    def test_check_names_unique_across_suites(self):
        names = [r.identity_id for run in SUITES.values() for r in run(trials=1, seed=1)]
        assert len(names) == len(set(names))

    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_subset_run_matches_full_run(self, suite):
        # Each check draws from its own stream, so running it alone must
        # reproduce its record from the full run exactly.
        run = SUITES[suite]
        full = _records(run(trials=2, seed=11))
        for record in full:
            alone = _records(run(trials=2, seed=11, only=(record["identity_id"],)))
            assert alone == [record]


class TestRunChecks:
    def test_failure_points_replay_to_their_error(self):
        # at tol 0 every trial with an error is a failure; each JSON point
        # decodes to the draw that gives its rel_err again, bit for bit
        (check,) = [c for c in KERNEL_CHECKS if c.name == "reflection"]
        (rec,) = run_checks([check._replace(tol=0.0)], trials=5)
        record = json.loads(json.dumps(rec.to_dict()))
        assert len(record["failures"]) == rec.trials == 5
        for failure in record["failures"]:
            args = [complex(*pair) for pair in failure["point"]]
            with EMemo():
                assert check.evaluate(*args) == failure["rel_err"]
        worst = max(record["failures"], key=lambda f: f["rel_err"])
        assert record["worst_point"] == worst["point"]

    def test_unknown_names_in_only_raise(self):
        with pytest.raises(ValueError, match="^no such checks: 'reflexion', 'nope'$"):
            run_kernel_suite(trials=2, only=("reflection", "reflexion", "nope"))

    def test_nan_error_never_passes(self):
        check = Check("always_nan", "test.nan", _no_args, lambda: float("nan"), 1e-8)
        (res,) = run_checks([check], trials=3)
        assert not res.passed and res.trials == 0
        assert "always_nan" in res.error

    def test_non_finite_errors_are_resampled(self):
        def draw(rng, region):
            return (rng.pair()[0],)

        def evaluate(u):
            return float("nan") if u < 0.5 else 1e-12

        (res,) = run_checks([Check("half_nan", "test.half_nan", draw, evaluate, 1e-8)],
                            trials=20, seed=3)
        assert res.passed and res.max_rel_err == 1e-12
        assert res.resamples > 0

    def test_fixed_trial_count_overrides_run(self):
        check = Check("fixed", "test.fixed", _no_args, lambda: 0.0, 1e-8, trials=7)
        (res,) = run_checks([check], trials=2)
        assert res.trials == 7 and res.resamples == 0


def _patch_det_numeric(monkeypatch, replacement):
    real = determinants.det_numeric
    for module in list(sys.modules.values()):
        if module.__name__.startswith("ellipsum") and \
                vars(module).get("det_numeric") is real:
            monkeypatch.setattr(module, "det_numeric", replacement)
    return real


@pytest.mark.parametrize("name", ["quadratic_base_determinant",
                                  "factorial_ratio_determinant",
                                  "periodic_family_determinant",
                                  "theta_determinant_2x2"])
def test_guarded_determinant_row_factors_each_draw_once(name, monkeypatch):
    # One LU per draw: the guarded determinant is the side that is compared.
    calls = []

    def spy(matrix):
        calls.append(1)
        return real(matrix)

    real = _patch_det_numeric(monkeypatch, spy)
    (res,) = run_determinants_suite(trials=20, seed=5, only=(name,))
    assert res.passed
    assert len(calls) == res.trials + res.resamples


def test_theta_determinant_row_resamples_ill_conditioned_draw(monkeypatch):
    # The theta row applies the COND_LIMIT guard like every other row: a
    # first draw reported at kappa_1 = 1e9 is redrawn, not compared.
    only = ("theta_determinant_2x2",)
    (plain,) = run_determinants_suite(trials=3, seed=1, only=only)
    calls = []

    def ill_conditioned_first(matrix):
        calls.append(1)
        det, cond = real(matrix)
        return det, (1e9 if len(calls) == 1 else cond)

    real = _patch_det_numeric(monkeypatch, ill_conditioned_first)
    (res,) = run_determinants_suite(trials=3, seed=1, only=only)
    assert res.passed and res.trials == plain.trials
    assert res.resamples == plain.resamples + 1

