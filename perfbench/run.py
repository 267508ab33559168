"""End-to-end benchmark of the ``verify`` CLI, with a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Every sample is a fresh interpreter (``child.py``) that imports
``ellipsum.cli`` from ``./src`` and runs the workload's ``verify``
invocations, as a user's process would: a module-level cache warmed by an
earlier sample would measure a program nobody runs.  Samples run one at a
time, with BLAS/OpenMP pinned to one thread.

Each sample of an untraced run passes its own seed to the CLI: sample j
passes seed + j * CASE_SEED_STRIDE, and samples follow while another fits in
``--seconds``.  The work varies with the sampled points (the kernel products
one extended catalog run takes vary by up to 50 % between seeds), and a run
that spreads over many seeds averages that out.

Times are corrected for the host's speed.  On a shared host, speed can swing
by up to 2x over seconds to minutes, in CPU time as much as in wall time, and
a median over one run does not average that out: on the VM named below,
medians of 20-second windows of one fixed loop spread by 40 %.  Each sample
therefore also times a fixed reference loop (``child.reference_loop``) after
the import, around each invocation and, in untraced runs, at each verdict
line the CLI prints.  Each stretch of verdict time between two such loops
(the loops themselves are left out) is scaled by REFERENCE_NOMINAL_S over
the mean of the loop times at its two ends, and the import time by
REFERENCE_NOMINAL_S over the loop time that follows it.  Times so read in
seconds on a host that runs the loop in REFERENCE_NOMINAL_S, about the
loop's median time on the 2-vCPU Xeon VM the benchmark was written on.  A
change to the program does not touch the loop, so it moves the scaled times
as much as the wall times.  On that VM, over five seeds, the scaling cut the
run-to-run spread (IQR over median) of ``verdict_s`` for
``catalog_extended`` from 26 % to 7 %; with the loop timed only around each
invocation it was 13 %.  Wall-clock medians and tail percentiles are in the
detail line.

``verdict_s`` is the time from calling ``main`` to the ``result:`` line,
summed over a sample's invocations.  The run reports medians over its
samples.  Traced runs alternate an untraced and a traced sample at ``--seed``
itself, so counts repeat exactly for a seed and ``bench.trace_overhead``
compares like with like.

Every invocation goes through the correctness gate: exit 0, ``result: ok``
and every check at its requested trial count.  In traced runs, repeats of
the one seed must also give identical reports (apart from ``wall_*``
fields) and identical counts.  A check that reports FAIL or aborts makes
``correct`` false and counts in ``failed``.  The last line of output is the
JSON result; the line before it holds the details: tail percentiles, sample
counts, per-seed report digests, the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from time import perf_counter

from tracer import LAYERS, layer_times

HERE = os.path.dirname(os.path.abspath(__file__))
# Each run writes CLI reports and spans to its own .perfbench_out.* directory
# in the checkout and removes it at the end.
OUT_PREFIX = ".perfbench_out."
CHILD_TIMEOUT_S = 60
HELD_OUT_SEED = 7919
# Sample j of an untraced run passes --seed (seed + j * CASE_SEED_STRIDE) to the CLI.
CASE_SEED_STRIDE = 100_000
MIN_SAMPLES = 3
# Times are scaled to a host that runs child.reference_loop in this many seconds.
REFERENCE_NOMINAL_S = 0.005
TINY = 1e-300


@dataclass(frozen=True)
class Workload:
    argvs: tuple   # CLI invocations run in sequence in one process
    smoke: tuple   # tiny-size invocations for --smoke


# Why these two: catalog_extended runs every catalog identity, through the
# mpmath path that double-precision kernel changes must leave alone, with most
# eval_E arguments distinct (80 %); the kernel suite repeats about half of its
# eval_E arguments, so a kernel cache shows its gain there, and it is the only
# one to reach theta1.  Together they reach the kernel, series, catalog,
# suites and cli layers.  A kernel sample takes about a second; the extended
# catalog cannot go below one trial per identity, about 5 s.
#
# Left out, because the program reports false FAILs on a share of seeds, so
# that no run over many seeds has every check pass: the double-precision
# catalog (``verify run --identity cor_etrafo3_fa --trials 10 --seed 5068013``
# fails at relative error 0.10, and the same seed passes at 2e-41 in extended
# precision; about one catalog run in 800 at 10 trials fails), and the
# inversion, determinants, cn and conjecture suites (relative errors above
# tolerance on ill-conditioned draws, or an uncaught exception, in 3 % to 25 %
# of runs at 3 to 25 draws).
WORKLOADS = {
    "catalog_extended": Workload(
        (("run", "--suite", "catalog", "--precision", "extended", "--trials", "1"),),
        (("run", "--suite", "catalog", "--precision", "extended", "--trials", "1"),)),
    "kernel": Workload((("run", "--suite", "kernel", "--trials", "500"),),
                       (("run", "--suite", "kernel", "--trials", "2"),)),
}

# Per-layer groups: metric prefix -> traced functions whose calls and self
# times are summed.
GROUPS = {
    "kernel.eval_E": ("kernel.eval_E",),
    "kernel.pochhammer": ("kernel.pochhammer_e", "kernel.pochhammer_frac",
                          "kernel.pochhammer_multi", "kernel.pochhammer_partition"),
    "kernel.theta1": ("kernel.theta1",),
    "series.omega_sum": ("series.omega_sum", "series.omega_terms"),
    "catalog.check_identity": ("catalog.check_identity",),
    "catalog.vwp_sum": ("catalog._vwp_sum",),
    "catalog.extend_point": ("catalog._extend_point",),
    "cli.main": ("cli.main",),
    "suites.kernel": ("suites.run_kernel_suite",),
}
# omega_sum calls omega_terms once per call: count the calls of omega_sum only.
CALLS_OF = {"series.omega_sum": ("series.omega_sum",)}


def _child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def _sample(root: str, out_dir: str, argvs: list, spans: str | None = None,
            mark: bool = False) -> dict:
    """Run one fresh-interpreter sample; returns the child's record."""
    spec = {"argvs": argvs, "json_dir": out_dir, "spans": spans, "mark": mark,
            "src": os.path.join(root, "src")}
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
            cwd=root, env=_child_env(root), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"sample exceeded {CHILD_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"sample exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def _strip_wall(value):
    if isinstance(value, dict):
        return {k: _strip_wall(v) for k, v in value.items() if not k.startswith("wall_")}
    if isinstance(value, list):
        return [_strip_wall(v) for v in value]
    return value


def _gate(run: dict) -> tuple:
    """(checks attempted, checks failed, gate errors) for one invocation."""
    errors = []
    lines = [line for line in run["output"].splitlines()
             if line.startswith(("pass ", "FAIL "))]
    attempted = len(lines)
    failed = sum(line.startswith("FAIL") for line in lines)
    if run["error"]:
        attempted += 1
        failed += 1
        errors.append(run["error"])
    if run["exit"] != 0:
        errors.append(f"exit code {run['exit']}")
    if not run["output"].rstrip().endswith("result: ok"):
        errors.append("no 'result: ok' line")
    report = run["report"]
    if report is None:
        errors.append("no JSON report")
        return attempted, failed, errors
    checks = report["reports"] + report["suite_checks"]
    if len(checks) != len(lines) or not checks:
        errors.append(f"{len(checks)} checks in the report, {len(lines)} printed")
    requested = int(run["argv"][run["argv"].index("--trials") + 1])
    for check in checks:
        name = check.get("identity_id") or check["name"]
        if check["trials"] != requested:
            errors.append(f"{name}: {check['trials']} trials, expected {requested}")
        if check.get("failures") or check.get("passed") is False:
            errors.append(f"{name}: failed")
    return attempted, failed, errors


def _summary(record: dict) -> dict:
    """Gate and figures of one sample (all its invocations).

    A sample whose process died has no figures ("timed" is false); one whose
    checks failed keeps its figures, since its timing is still a measurement.
    """
    if "error" in record:
        return {"timed": False, "errors": [record["error"]], "attempted": 1, "failed": 1}
    attempted = failed = 0
    errors = []
    trials = resamples = catalog_trials = catalog_resamples = 0
    worst = 0.0
    for run in record["runs"]:
        a, f, e = _gate(run)
        attempted += a
        failed += f
        errors += e
        report = run["report"] or {"reports": [], "suite_checks": []}
        for check in report["reports"]:
            catalog_trials += check["trials"]
            catalog_resamples += check["resamples"]
        for check in report["reports"] + report["suite_checks"]:
            trials += check["trials"]
            resamples += check["resamples"]
            worst = max(worst, check["max_rel_err"])
    digest = hashlib.sha256(json.dumps(
        [_strip_wall(run["report"]) for run in record["runs"]],
        sort_keys=True).encode()).hexdigest()
    segments = [seg for run in record["runs"] for seg in run["segments"]]
    return {
        "timed": True, "errors": errors, "attempted": attempted, "failed": failed,
        "verdict_s": sum(2 * REFERENCE_NOMINAL_S * t / (r0 + r1) for t, r0, r1 in segments),
        "setup_s": record["setup_s"] * REFERENCE_NOMINAL_S / segments[0][1],
        "wall_verdict_s": sum(run["verdict_s"] for run in record["runs"]),
        "wall_setup_s": record["setup_s"],
        "cpu_s": sum(run["cpu_s"] for run in record["runs"]),
        "peak_rss_mb": record["peak_rss_mb"],
        "trials": trials, "resamples": resamples,
        "catalog_trials": catalog_trials, "catalog_resamples": catalog_resamples,
        "worst_err": worst, "digest": digest, "counts": record.get("counts"),
    }


def _tail(values: list) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "samples": n}
    if n > 10:
        out[f"p{math.floor(100 * (n - 10) / n)}"] = ordered[n - 11]
    return out


def _cli_argvs(workload: Workload, cli_seed: int, smoke: bool) -> list:
    return [list(argv) + ["--seed", str(cli_seed)]
            for argv in (workload.smoke if smoke else workload.argvs)]


def _environment() -> dict:
    import mpmath
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def _check_consistent(values: list, errors: list, label: str) -> None:
    if len({json.dumps(v, sort_keys=True) for v in values}) > 1:
        errors.append(f"{label} differs between repeats of one seed")


def _repeat(step, minimum: int, seconds: float, smoke: bool) -> None:
    """Call step(k) for k = 0, 1, ... at least ``minimum`` times, then while
    another call is expected to end within ``seconds`` of the start."""
    started = perf_counter()
    k = 0
    while k < minimum or not smoke:
        begun = perf_counter()
        step(k)
        k += 1
        now = perf_counter()
        if k >= minimum and now + (now - begun) > started + seconds:
            break


def _outcome(samples: list) -> tuple:
    errors = [e for s in samples for e in s["errors"]]
    return errors, {"correct": not errors,
                    "attempted": sum(s["attempted"] for s in samples),
                    "failed": sum(s["failed"] for s in samples),
                    "metrics": {}}


def _metrics(values: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def run_untraced(root: str, out_dir: str, workload: Workload, seed: int,
                 seconds: float, smoke: bool) -> tuple:
    samples = []

    def step(k):
        cli_seed = seed + CASE_SEED_STRIDE * k
        summary = _summary(_sample(root, out_dir, _cli_argvs(workload, cli_seed, smoke),
                                   mark=True))
        summary["cli_seed"] = cli_seed
        samples.append(summary)

    _repeat(step, 1 if smoke else MIN_SAMPLES, seconds, smoke)
    errors, result = _outcome(samples)
    if not all(s["timed"] for s in samples):
        return result, {"errors": errors[:20]}
    # per sample: -log10 of the largest max_rel_err over its checks
    digits = [-math.log10(max(s["worst_err"], TINY)) for s in samples]
    result["metrics"] = _metrics({
        "setup_s": (statistics.median(s["setup_s"] for s in samples), "s"),
        "verdict_s": (statistics.median(s["verdict_s"] for s in samples), "s"),
        "trials_per_s": (statistics.median(s["trials"] / s["verdict_s"] for s in samples),
                         "1/s"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in samples), "MB"),
        "worst_err_digits": (statistics.median(digits), "digits"),
    })
    detail = {
        "cli_seeds": [s["cli_seed"] for s in samples],
        "digests": [s["digest"] for s in samples],
        "trials": [s["trials"] for s in samples],
        "failed_share": result["failed"] / result["attempted"],
        "worst_err_log10": [-d for d in digits],
        "verdict_s": _tail([s["verdict_s"] for s in samples]),
        "setup_s": _tail([s["setup_s"] for s in samples]),
        "wall_verdict_s": _tail([s["wall_verdict_s"] for s in samples]),
        "wall_setup_s": _tail([s["wall_setup_s"] for s in samples]),
        "sample_verdict_s": [s["verdict_s"] for s in samples],
        "errors": errors[:20],
    }
    return result, detail


def _layer_metrics(times: dict, counts: dict, summary: dict) -> dict:
    def calls(names):
        return sum(times.get(n, (0, 0.0))[0] for n in names)

    def self_s(names):
        return sum(times.get(n, (0, 0.0))[1] for n in names)

    out = {}
    for prefix, names in GROUPS.items():
        out[f"{prefix}.calls"] = (calls(CALLS_OF.get(prefix, names)), "count")
        out[f"{prefix}.self_s"] = (self_s(names), "s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_s([n for n in times if n.startswith(layer + ".")]),
                                  "s")
    e_calls = out["kernel.eval_E.calls"][0]
    out["kernel.eval_E.us_per_call"] = (
        1e6 * out["kernel.eval_E.self_s"][0] / e_calls if e_calls else 0.0, "us")
    out["kernel.eval_E.distinct_share"] = (
        counts.get("kernel.eval_E.distinct", 0) / e_calls if e_calls else 0.0, "share")
    out["series.terms"] = (counts.get("series.terms", 0), "count")
    ct, cr = summary["catalog_trials"], summary["catalog_resamples"]
    out["catalog.trials"] = (ct, "count")
    out["catalog.resamples"] = (cr, "count")
    out["catalog.accept_share"] = (ct / (ct + cr) if ct else 0.0, "share")
    out["bench.self_time_share"] = (
        sum(t[1] for t in times.values()) / summary["wall_verdict_s"], "share")
    return out


def run_traced(root: str, out_dir: str, workload: Workload, seed: int,
               seconds: float, smoke: bool) -> tuple:
    argvs = _cli_argvs(workload, seed, smoke)
    spans = os.path.join(out_dir, "spans.npz")
    plain, traced = [], []

    def step(k):
        plain.append(_summary(_sample(root, out_dir, argvs)))
        summary = _summary(_sample(root, out_dir, argvs, spans))
        if summary["timed"]:
            summary["layers"] = _layer_metrics(layer_times(spans),
                                               summary["counts"], summary)
        traced.append(summary)

    _repeat(step, 1, seconds, smoke)
    errors, result = _outcome(plain + traced)
    plain = [s for s in plain if s["timed"]]
    traced = [s for s in traced if s["timed"]]
    if not (plain and traced):
        return result, {"errors": errors[:20]}
    for key in ("digest", "trials", "resamples"):
        _check_consistent([s[key] for s in plain + traced], errors, f"traced run: {key}")
    _check_consistent([s["counts"] for s in traced], errors, "traced run: counts")
    _check_consistent([{k: v for k, (v, unit) in s["layers"].items() if unit == "count"}
                       for s in traced], errors, "traced run: layer counts")
    # counts repeat exactly (checked above); times are medians over traced samples
    metrics = {name: (value if unit == "count" else
                      statistics.median(s["layers"][name][0] for s in traced), unit)
               for name, (value, unit) in traced[0]["layers"].items()}
    metrics["cli.cpu_s"] = (statistics.median(s["cpu_s"] for s in plain), "s")
    metrics["bench.trace_overhead"] = (
        statistics.median(s["verdict_s"] for s in traced)
        / statistics.median(s["verdict_s"] for s in plain), "ratio")
    result["correct"] = not errors
    result["metrics"] = _metrics(metrics)
    detail = {"cli_seed": seed, "digest": traced[0]["digest"],
              "failed_share": result["failed"] / result["attempted"],
              "traced_verdict_s": _tail([s["verdict_s"] for s in traced]),
              "plain_verdict_s": _tail([s["verdict_s"] for s in plain]),
              "errors": errors[:20]}
    return result, detail


def run(root: str, name: str, seed: int, seconds: float, trace: bool,
        smoke: bool = False) -> dict:
    workload = WORKLOADS[name]
    out_dir = tempfile.mkdtemp(prefix=OUT_PREFIX, dir=root)
    try:
        runner = run_traced if trace else run_untraced
        result, detail = runner(root, out_dir, workload, seed, seconds, smoke)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    detail.update({"workload": name, "seed": seed, "held_out_seed": HELD_OUT_SEED,
                   "trace": trace, "environment": _environment()})
    print(json.dumps({"detail": detail}, default=str))
    return result


def smoke(root: str) -> bool:
    """Every workload at tiny size, traced and not; checks names and units."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ok = True
    for name in WORKLOADS:
        for trace, declared in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result = run(root, name, 1, 0, trace, smoke=True)
            print(json.dumps(result))
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            if not result["correct"] or got != want:
                ok = False
                print(f"smoke {name} trace={int(trace)}: correct={result['correct']}, "
                      f"missing {sorted(set(want) - set(got))}, "
                      f"extra {sorted(set(got) - set(want))}, "
                      f"unit mismatch {sorted(k for k in want if k in got and got[k] != want[k])}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny size and check metric names")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: the running sample is killed and waited for, and the
    # run's output directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ellipsum", "cli.py")):
        print(f"perfbench: no ellipsum sources under {root}/src; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    if args.smoke:
        ok = smoke(root)
        print("smoke " + ("ok" if ok else "FAILED"))
        return 0 if ok else 1
    if args.workload is None:
        parser.error("--workload is required")
    result = run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
