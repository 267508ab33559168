import json
import os
import re
import subprocess
import sys
import textwrap
import time

import pytest

from ellipsum import catalog, sampling, suites
from ellipsum.cli import main
from ellipsum.errors import DegenerateParameters, TruncationLimit, WorkerError
from ellipsum.sampling import _map_units
from ellipsum.suites import SUITES, Check

from conftest import at_workers


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestList:
    def test_prints_ids_and_suites(self, capsys):
        code, out = run_cli(["list"], capsys)
        lines = out.strip().splitlines()
        assert code == 0
        assert "e87" in lines and "e109" in lines and "quartic_sum" in lines
        for suite in ("kernel", "inversion", "determinants", "cn", "conjecture"):
            assert suite in lines
        assert len(lines) == 31 + len(SUITES)


class TestRun:
    def test_identity_run_writes_report(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, out = run_cli(
            ["run", "--identity", "e87", "--trials", "50", "--seed", "42",
             "--tol", "1e-9", "--json", str(out_path)], capsys)
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["schema"] == 2
        assert payload["rng"]
        rep = payload["reports"][0]
        assert rep["identity_id"] == "e87"
        assert rep["max_rel_err"] <= 1e-9
        assert rep["failures"] == []

    def test_unknown_identity_is_usage_error(self, capsys):
        code = main(["run", "--identity", "zzz"])
        capsys.readouterr()
        assert code == 2

    def test_missing_target_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["run"])
        assert exc.value.code == 2

    def test_suite_run(self, tmp_path, capsys):
        out_path = tmp_path / "suite.json"
        code, out = run_cli(
            ["run", "--suite", "conjecture", "--n", "2", "--N", "2",
             "--trials", "5", "--seed", "3", "--json", str(out_path)], capsys)
        assert code == 0
        payload = json.loads(out_path.read_text())
        names = [c["identity_id"] for c in payload["suite_checks"]]
        assert names == ["conjecture_n2", "rectangle_evaluation_n2"]
        assert all(c["failures"] == [] for c in payload["suite_checks"])

    def test_identity_and_suite_records_share_their_keys(self, tmp_path, capsys):
        records = []
        for target in (["--identity", "e87"], ["--suite", "kernel"]):
            path = tmp_path / "out.json"
            code, _ = run_cli(["run", *target, "--trials", "2", "--json", str(path)],
                              capsys)
            assert code == 0
            payload = json.loads(path.read_text())
            records.append(payload["reports"] + payload["suite_checks"])
        reports, suite_checks = records
        keys = {tuple(record) for record in reports + suite_checks}
        assert len(keys) == 1 and len(suite_checks) == len(suites.KERNEL_CHECKS)
        assert all(record["worst_point"] is not None for record in reports + suite_checks)

    def test_custom_sampling_region(self, capsys):
        code, out = run_cli(
            ["run", "--identity", "e87", "--trials", "10", "--seed", "5",
             "--p-mod", "0.0,0.0"], capsys)
        assert code == 0

    def test_determinism_byte_identical_modulo_timing(self, tmp_path, capsys):
        paths = []
        for run_index in (0, 1):
            path = tmp_path / f"out{run_index}.json"
            code, _ = run_cli(
                ["run", "--identity", "thmr_r2", "--trials", "25",
                 "--seed", "9", "--json", str(path)], capsys)
            assert code == 0
            paths.append(path)

        def normalized(path):
            payload = json.loads(path.read_text())
            for rep in payload["reports"]:
                rep.pop("wall_time_ms")
            return json.dumps(payload, sort_keys=True)

        assert normalized(paths[0]) == normalized(paths[1])

    def test_determinants_resample_singular_matrices(self, capsys):
        # Seed 103 draws a matrix that is singular at working precision.
        code, out = run_cli(["run", "--suite", "determinants", "--trials", "20",
                             "--seed", "103"], capsys)
        assert code == 0
        assert sum(line.startswith("pass ") for line in out.splitlines()) == 5

    def test_degenerate_extended_draw_is_resampled(self, capsys):
        # crashed with a TypeError while formatting the rejection message
        code, out = run_cli(["run", "--suite", "catalog", "--trials", "3",
                             "--p-mod", "0.9,0.95", "--precision", "extended",
                             "--seed", "1"], capsys)
        assert code == 0
        assert out.splitlines()[-1] == "result: ok"


def _always_degenerate() -> Check:
    def evaluate():
        raise DegenerateParameters("always")

    return Check("always_degenerate", "test.degenerate", lambda rng, region: (),
                 evaluate, 1e-8)


@pytest.fixture
def exhausting_kernel_table(monkeypatch):
    """The kernel suite as reflection, a check that rejects every draw, and
    quasi_periodicity."""
    by_name = {check.name: check for check in suites.KERNEL_CHECKS}
    monkeypatch.setattr(suites, "KERNEL_CHECKS", [
        by_name["reflection"], _always_degenerate(), by_name["quasi_periodicity"]])


@pytest.fixture
def exhausted_e87(monkeypatch):
    """Every draw of e87 rejected by the catalog's sampler."""
    real = catalog._draw_point

    def draw_point(ident, rng, region):
        if ident.id == "e87":
            raise DegenerateParameters("always")
        return real(ident, rng, region)

    monkeypatch.setattr(catalog, "_draw_point", draw_point)


class TestSamplingExhausted:
    def test_exhausted_check_exits_1_with_message(self, monkeypatch, capsys):
        monkeypatch.setattr(suites, "KERNEL_CHECKS", [_always_degenerate()])
        code = main(["run", "--suite", "kernel", "--trials", "2"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.strip() == ("error: always_degenerate: no admissible point "
                               "after 100 resamples")

    @pytest.mark.usefixtures("exhausting_kernel_table")
    def test_other_checks_still_run_and_json_is_written(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code = main(["run", "--suite", "kernel", "--trials", "2", "--json", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.strip() == ("error: always_degenerate: no admissible "
                                        "point after 100 resamples")
        statuses = [line.split()[:2] for line in captured.out.splitlines()[:-1]]
        assert statuses == [["pass", "reflection"], ["FAIL", "always_degenerate"],
                            ["pass", "quasi_periodicity"]]
        assert captured.out.splitlines()[-1] == "result: FAIL"
        records = json.loads(path.read_text())["suite_checks"]
        assert [bool(r["failures"]) or "error" in r for r in records] == [False, True, False]
        assert [r["trials"] for r in records] == [2, 0, 2]
        assert records[1]["error"] == ("always_degenerate: no admissible point "
                                       "after 100 resamples")
        assert "error" not in records[0] and "error" not in records[2]

    @pytest.mark.usefixtures("exhausted_e87")
    def test_exhausted_identity_fails_and_run_goes_on(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code = main(["run", "--suite", "catalog", "--trials", "1", "--json", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.strip() == "error: e87: no admissible point after 100 resamples"
        records = json.loads(path.read_text())["reports"]
        assert len(records) == 31
        (exhausted,) = [r for r in records if r["identity_id"] == "e87"]
        assert exhausted.pop("wall_time_ms") >= 0
        assert exhausted == {"identity_id": "e87", "trials": 0, "tol": 1e-8, "seed": 1,
                             "max_rel_err": 0.0, "mean_rel_err": 0.0, "failures": [],
                             "resamples": 101, "worst_point": None,
                             "error": "e87: no admissible point after 100 resamples"}
        assert sum(line.startswith("pass ") for line in captured.out.splitlines()) == 30


class TestUsageErrors:
    @pytest.mark.parametrize("args", [
        ["--identity", "e87", "--trials", "0"],
        ["--suite", "kernel", "--trials", "0"],
        ["--suite", "kernel", "--trials", "-3"],
        ["--identity", "e87", "--q-mod", "0,0"],
        ["--identity", "e87", "--q-mod", "0,0.5"],
        ["--identity", "e87", "--p-mod", "0.5,1"],
        ["--suite", "kernel", "--p-mod", "0.2,1.5"],
        # --N -1 crashed, --n -1 recursed without end, --n 0 and --N 0 passed
        # a check with nothing to check, and --tol nan passed any error.
        ["--suite", "cn", "--N", "-1"],
        ["--suite", "conjecture", "--n", "-1"],
        ["--suite", "cn", "--n", "0"],
        ["--suite", "conjecture", "--N", "0"],
        ["--identity", "e109", "--tol", "nan"],
        ["--identity", "e109", "--tol", "inf"],
        ["--identity", "e109", "--tol", "0"],
        ["--identity", "e109", "--tol", "-0.5"],
        ["--identity", "e109", "--tol", "tight"],
        ["--identity", "e87", "--trials", "2", "--seed", "-1"],
        ["--identity", "e87", "--q-mod", "0.3,inf"],
        # ran every check, then failed to open the report
        ["--suite", "kernel", "--trials", "2", "--json", "no-such-dir/out.json"],
        ["--suite", "kernel", "--trials", "2", "--json", "."],
        # ran in binary64 and recorded "precision": "extended"
        ["--suite", "kernel", "--trials", "2", "--precision", "extended"],
        # ran every check and wrote no report
        ["--suite", "kernel", "--trials", "2", "--json", ""],
    ])
    def test_bad_flag_values_exit_2(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", *args])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_report_that_cannot_be_written_exits_2(self, capsys):
        # the path passes the early check; the write itself fails at the end
        code = main(["run", "--suite", "kernel", "--trials", "2", "--json", "/dev/full"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ("error: cannot write the report to '/dev/full': "
                                "No space left on device\n")
        assert captured.out.count("pass  ") == len(suites.KERNEL_CHECKS)
        assert "result:" not in captured.out

    def test_nome_beyond_truncation_cap_exits_2(self, capsys):
        code = main(["run", "--suite", "kernel", "--p-mod", "0.995,0.999",
                     "--trials", "3"])
        err = capsys.readouterr().err
        assert code == 2
        assert "|p| = 0.99" in err

    def test_non_finite_argument_exits_2(self, capsys):
        # At |q| up to 1e308 some kernel-suite arguments are NaN; the message
        # called their modulus nan outside the binary64 range.
        code = main(["run", "--suite", "kernel", "--q-mod", "1e300,1e308", "--trials", "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert re.fullmatch(r"error: x = \S+ is not finite; narrow --q-mod or --p-mod\n", err), err

    def test_truncation_message_keeps_every_digit_of_p(self, capsys):
        # HI < 1 is required of --p-mod, so the message must not round |p| to 1
        code = main(["run", "--suite", "kernel", "--trials", "2",
                     "--p-mod", "0.9999995,0.9999996"])
        err = capsys.readouterr().err
        assert code == 2
        assert "|p| = 0.999999" in err and "|p| = 1 " not in err

    @pytest.mark.parametrize("p_mod", ["0.996,0.999", "0.9999995,0.9999996"])
    def test_extended_nome_near_one_exits_2(self, p_mod, capsys):
        # The extended kernel takes |p| up to 0.99540; the message prints
        # every digit of the drawn |p|.
        code = main(["run", "--suite", "catalog", "--precision", "extended",
                     "--trials", "1", "--p-mod", p_mod])
        err = capsys.readouterr().err
        assert code == 2
        shown = re.search(r"\|p\| = (\S+) is too close to 1", err).group(1)
        lo, hi = map(float, p_mod.split(","))
        assert lo <= float(shown) <= hi and len(shown) > 12, err

    def test_overflow_from_q_names_q_mod(self, capsys):
        code = main(["run", "--suite", "determinants", "--trials", "2",
                     "--q-mod", "1e-100,1e-100"])
        err = capsys.readouterr().err
        assert code == 2
        assert "--q-mod" in err

    @pytest.mark.parametrize("suite", ["cn", "conjecture"])
    def test_huge_n_exits_2_before_the_power(self, suite):
        # (N+1)^n at this n has 317 million bits; the timeout turns the time
        # spent computing it into a failure
        proc = subprocess.run(
            [sys.executable, "-m", "ellipsum.cli", "run", "--suite", suite,
             "--n", "100000000", "--N", "8"],
            capture_output=True, text=True, timeout=30)
        assert proc.returncode == 2
        assert "exceeds the brute-force budget" in proc.stderr


def _run_at(workers, args, monkeypatch, capsys, tmp_path):
    """(exit code, stdout, stderr, report without wall-clock fields)."""
    path = tmp_path / f"out{workers}.json"
    with monkeypatch.context() as patch:
        at_workers(workers, patch)
        code = main(["run", *args, "--json", str(path)])
    captured = capsys.readouterr()
    payload = json.loads(path.read_text()) if path.exists() else None
    for rep in [*payload["reports"], *payload["suite_checks"]] if payload else ():
        rep.pop("wall_time_ms", None)
    return code, captured.out, captured.err, payload


def _sleep_then(seconds, value):
    time.sleep(seconds)
    if isinstance(value, Exception):
        raise value
    return value


class TestWorkers:
    """Parallel runs give the serial run's output, records and errors."""

    @pytest.mark.parametrize("args, code, err", [
        *((["--suite", name, "--trials", "3"], 0, "") for name in sorted(SUITES)),
        (["--suite", "catalog", "--trials", "1"], 0, ""),
        (["--suite", "catalog", "--trials", "1", "--precision", "extended"], 0, ""),
        (["--suite", "kernel", "--p-mod", "0.995,0.999", "--trials", "3"], 2, "|p| = 0.99"),
        # E(p/x) at p = 0 is a resampled draw, not a traceback from a worker
        (["--suite", "kernel", "--trials", "2", "--p-mod", "0,0"], 1,
         "error: reflection: no admissible point"),
    ], ids=[*sorted(SUITES), "catalog", "catalog-extended", "truncation-cap", "p-zero"])
    def test_parallel_run_equals_serial_run(self, args, code, err, monkeypatch, capsys,
                                            tmp_path):
        serial = _run_at(1, args, monkeypatch, capsys, tmp_path)
        assert serial[0] == code and err in serial[2]
        assert _run_at(2, args, monkeypatch, capsys, tmp_path) == serial

    @pytest.mark.usefixtures("exhausting_kernel_table")
    def test_exhausted_check(self, monkeypatch, capsys, tmp_path):
        args = ["--suite", "kernel", "--trials", "2"]
        serial = _run_at(1, args, monkeypatch, capsys, tmp_path)
        assert serial[0] == 1 and "always_degenerate" in serial[2]
        assert _run_at(2, args, monkeypatch, capsys, tmp_path) == serial

    @pytest.mark.usefixtures("exhausted_e87")
    def test_exhausted_identity(self, monkeypatch, capsys, tmp_path):
        args = ["--suite", "catalog", "--trials", "1"]
        serial = _run_at(1, args, monkeypatch, capsys, tmp_path)
        assert serial[0] == 1 and "e87" in serial[2]
        assert _run_at(2, args, monkeypatch, capsys, tmp_path) == serial

    def test_dead_worker_is_an_error_line(self, monkeypatch, capsys, tmp_path):
        # the worker that runs the second check exits without reporting it
        dies = Check("dies", "test.dies", lambda rng, region: (), lambda: os._exit(3), 1e-8)
        monkeypatch.setattr(suites, "KERNEL_CHECKS", [suites.KERNEL_CHECKS[0], dies])
        assert _run_at(2, ["--suite", "kernel", "--trials", "2"], monkeypatch, capsys,
                       tmp_path) == (2, "", "error: a worker exited with status 3 before "
                                            "all of its units reported\n", None)


class _TwoArgError(Exception):
    """Pickles, but cannot be unpickled: its constructor wants two arguments."""

    def __init__(self, first, second):
        super().__init__(first)


def _run_script(body: str) -> str:
    """Output of ``body`` run in a fresh interpreter with two workers, then
    'no child left' if it reaped every worker.  The timeout turns a hang into
    a failure."""
    script = textwrap.dedent("""
        import os, signal
        from ellipsum import sampling
        from ellipsum.errors import WorkerError
        sampling._worker_count = lambda units: min(2, units)
        """) + textwrap.dedent(body) + textwrap.dedent("""
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            print("no child left")
        """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestMapUnits:
    def test_results_in_table_order(self, monkeypatch):
        at_workers(2, monkeypatch)
        units = [lambda: _sleep_then(0.2, "slow"), lambda: "fast", os.getpid]
        slow, fast, pid = _map_units(units)
        assert (slow, fast) == ("slow", "fast") and pid != os.getpid()

    def test_first_error_in_table_order(self, monkeypatch):
        # the second unit raises first, the first unit's error is raised
        at_workers(2, monkeypatch)
        units = [lambda: _sleep_then(0.2, TruncationLimit("first")),
                 lambda: _sleep_then(0.0, TruncationLimit("second")),
                 lambda: "done"]
        with pytest.raises(TruncationLimit, match="^first$"):
            _map_units(units)

    @pytest.mark.parametrize("workers, units", [(1, 3), (2, 1)])
    def test_one_worker_or_unit_runs_in_process(self, workers, units, monkeypatch):
        at_workers(workers, monkeypatch)
        assert _map_units([os.getpid] * units) == [os.getpid()] * units

    def test_runs_in_process_without_fork(self, monkeypatch):
        at_workers(2, monkeypatch)
        monkeypatch.delattr(os, "fork")
        assert _map_units([os.getpid] * 2) == [os.getpid()] * 2

    @pytest.mark.parametrize("unit, cause", [
        ("lambda: os._exit(3)", "exited with status 3"),
        ("lambda: os.kill(os.getpid(), signal.SIGKILL)", "killed by signal 9 (SIGKILL)"),
        # exits cleanly, but without reporting its unit
        ("lambda: os._exit(0)", "unit 1 never reported"),
    ], ids=["exit-3", "sigkill", "exit-0"])
    def test_dead_worker_raises(self, unit, cause):
        out = _run_script(f"""
            try:
                sampling._map_units([lambda: 1, {unit}, lambda: 2])
            except WorkerError as exc:
                print(exc)
            """)
        assert cause in out and "no child left" in out

    def test_indices_overflowing_a_pipe_buffer(self):
        # 80,000 bytes of indices and about 2 MB of results, more than a
        # 65,536-byte pipe buffer each: the parent must read while it writes
        out = _run_script("""
            units = [lambda index=index: (index, bytes(64)) for index in range(20_000)]
            print(sampling._map_units(units) == [(index, bytes(64)) for index in range(20_000)])
            """)
        assert out.splitlines() == ["True", "no child left"]

    @pytest.mark.parametrize("unit, message", [
        (lambda: (lambda: 2), "^unit 1: its result cannot be pickled"),
        (lambda: _sleep_then(0, ValueError(lambda: 2)), "^unit 1: its error cannot be pickled"),
        (lambda: _sleep_then(0, _TwoArgError("a", "b")), "^unit 1: its result cannot be unpickled"),
    ], ids=["result", "error", "unpickling"])
    def test_result_that_cannot_cross_the_pipe(self, unit, message, monkeypatch):
        at_workers(2, monkeypatch)
        with pytest.raises(WorkerError, match=message):
            _map_units([lambda: 1, unit, lambda: 3])
        # the other results still arrive: an earlier unit's error comes first
        with pytest.raises(TruncationLimit, match="^first$"):
            _map_units([lambda: _sleep_then(0.2, TruncationLimit("first")), unit,
                        lambda: 3])

    def test_workers_follow_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5})
        assert [sampling._worker_count(n) for n in (1, 2, 3, 31)] == [1, 2, 3, 3]
        monkeypatch.delattr(os, "sched_getaffinity")
        assert sampling._worker_count(31) == 1


# A fresh interpreter in which ``import numpy`` raises ImportError.
_NUMPY_BLOCKED = ("import sys; sys.modules['numpy'] = None; "
                  "from ellipsum.cli import main; sys.exit(main(sys.argv[1:]))")


# Modules that only some runs need: the suites' own modules and
# ellipsum.wide for extended precision; numpy, mpmath, dataclasses and
# inspect, which no run needs, are watched as well.
_ON_DEMAND = ("ellipsum.determinants", "ellipsum.inversion", "ellipsum.multivar",
              "ellipsum.wide", "numpy", "mpmath", "dataclasses", "inspect")


def _loaded_after(code: str) -> list:
    """The _ON_DEMAND modules that ``code`` adds to a fresh interpreter.

    Modules already loaded before it, by ``site`` say, do not count.
    """
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys\nbefore = set(sys.modules)\n{code}\n"
                               f"import json, sys\nprint(json.dumps("
                               f"[m for m in {_ON_DEMAND!r} "
                               f"if m in sys.modules and m not in before]))"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# Runs in the calling process: a module that only a forked worker imported
# would be missing from the parent's sys.modules.
_SERIAL = ("import os\nfrom ellipsum import kernel, sampling\n"
           "sampling._worker_count = lambda n: 1\n"
           "def no_fork(): raise AssertionError('a run at one worker forked')\n"
           "os.fork = no_fork\n")


class TestWithoutNumpy:
    """No run loads numpy, dataclasses or inspect, and each suite loads its
    own modules in its runner."""

    def test_cli_import_leaves_numpy_out(self):
        assert _loaded_after("import ellipsum.cli") == []
        assert _loaded_after("from ellipsum.cli import main; main(['list'])") == []
        # A module only a forked worker imported would be missing here.
        for suite, module in (("inversion", "ellipsum.inversion"),
                              ("determinants", "ellipsum.determinants"),
                              ("cn", "ellipsum.multivar"),
                              ("conjecture", "ellipsum.multivar")):
            run = f"from ellipsum.suites import SUITES; SUITES[{suite!r}](trials=1)"
            assert _loaded_after(run) == [module], suite

    @pytest.mark.parametrize("args, fixed", [
        (["run", "--suite", "kernel", "--trials", "5", "--p-mod", "0.85,0.95"], True),
        (["run", "--suite", "catalog", "--trials", "2"], False),
    ])
    def test_binary64_runs_leave_mpmath_out(self, args, fixed):
        # The kernel run takes the fixed-point series where the float sum
        # cancels.
        run = (_SERIAL + "series, calls = kernel._series_fixed, []\n"
               "kernel._series_fixed = lambda *a: calls.append(a) or series(*a)\n"
               f"from ellipsum.cli import main\nassert main({args!r}) == 0\n"
               f"assert bool(calls) or not {fixed}")
        assert _loaded_after(run) == []

    @pytest.mark.parametrize("args", [
        ["--suite", "kernel", "--trials", "3"],
        ["--suite", "inversion", "--trials", "2"],
        ["--suite", "determinants", "--trials", "2"],
        ["--suite", "cn", "--trials", "2"],
        ["--suite", "conjecture", "--trials", "2"],
        ["--suite", "catalog", "--trials", "2"],
        ["--suite", "catalog", "--precision", "extended", "--trials", "1"],
    ])
    def test_runs_with_numpy_blocked(self, args):
        blocked, free = (subprocess.run([sys.executable, *prefix, "run", *args],
                                        capture_output=True, text=True, timeout=120)
                         for prefix in (["-c", _NUMPY_BLOCKED], ["-m", "ellipsum.cli"]))
        assert blocked.returncode == 0, blocked.stderr
        assert free.returncode == 0
        assert blocked.stdout == free.stdout


class TestWithoutMpmath:
    """Extended runs compute in ellipsum.wide, which loads with the first
    extended trial; no run loads mpmath."""

    def test_extended_run_loads_wide_alone(self):
        args = ["run", "--identity", "e87", "--trials", "1", "--precision", "extended"]
        run = _SERIAL + f"from ellipsum.cli import main\nassert main({args!r}) == 0"
        assert _loaded_after(run) == ["ellipsum.wide"]

    def test_serial_extended_catalog_leaves_mpmath_out(self):
        args = ["run", "--suite", "catalog", "--precision", "extended", "--trials", "1"]
        run = (_SERIAL + f"from ellipsum.cli import main\nassert main({args!r}) == 0\n"
               "assert 'mpmath' not in sys.modules")
        assert _loaded_after(run) == ["ellipsum.wide"]

    def test_extended_run_restores_wide_precision(self):
        from ellipsum import wide

        assert wide.ctx.prec == 53
        catalog.check_identity(catalog.get_identity("e87"), trials=1, seed=7,
                               precision="extended")
        assert wide.ctx.prec == 53


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ellipsum.cli", "list"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "e109" in proc.stdout
