"""Command-line harness: list checks, run them, emit JSON reports.

Every check, an identity or a suite check, gives one record of one shape
(:class:`~ellipsum.report.VerificationReport`: ``reports`` or
``suite_checks`` in the JSON) and one verdict line (:func:`_line`).

Exit codes: 0 all requested checks passed, 1 at least one check failed,
2 usage error, a nome past the kernel's range (``TruncationLimit``), a
worker that died (``WorkerError``) or a ``--json`` report that cannot be
written; an exit 2 after the checks start writes no report.  A check or
identity that runs out of admissible draws fails, with an ``error`` in its
record, and the run goes on.

Independent checks and identities run on one worker per CPU in the
process's affinity mask (``taskset -c 0 verify run ...`` runs serially), and
every verdict line is printed once all have finished.  The workers are plain
forks fed unit indices through a pipe (:func:`~ellipsum.sampling._map_units`).
Identical flags and seed produce byte-identical JSON and output apart from
the wall-clock fields, whatever the number of CPUs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import partial

from .catalog import check_identity, get_identity, list_identities
from .errors import TruncationLimit, WorkerError
from .report import RNG_ALGORITHM, SCHEMA_VERSION
from .sampling import DEFAULT_REGION, SamplingRegion, _map_units
from .suites import SUITES


def _parse_bounds(text: str, flag: str) -> tuple:
    try:
        lo, hi = (float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{flag} expects LO,HI (e.g. 0.05,0.3), got {text!r}")
    if not (0 <= lo <= hi < math.inf):
        raise argparse.ArgumentTypeError(
            f"{flag} bounds must be finite and satisfy 0 <= LO <= HI")
    if flag == "--q-mod" and lo == 0:
        raise argparse.ArgumentTypeError("LO must be > 0: the base q must be nonzero")
    if flag == "--p-mod" and hi >= 1:
        raise argparse.ArgumentTypeError("HI must be < 1: the nome must satisfy |p| < 1")
    return lo, hi


def _parse_count(text: str, least: int = 1) -> int:
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects an integer, got {text!r}")
    if count < least:
        raise argparse.ArgumentTypeError(f"must be at least {least}, got {count}")
    return count


def _parse_tol(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects a number, got {text!r}")
    if not (0 < tol < math.inf):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
    return tol


def _parse_json_path(text: str) -> str:
    # checked before any check runs, so a long run is not lost at the end
    if not text or os.path.isdir(text) or not os.path.isdir(os.path.dirname(text) or "."):
        raise argparse.ArgumentTypeError(f"cannot write a report file at {text!r}")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Randomized numerical verification of elliptic "
                    "hypergeometric summation and transformation identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="print catalog identity ids and suite names")

    run = sub.add_parser("run", help="run one identity check or one suite")
    target = run.add_mutually_exclusive_group(required=True)
    target.add_argument("--identity", help="catalog identity id")
    target.add_argument("--suite",
                        choices=sorted(SUITES) + ["catalog"],
                        help="property suite name, or 'catalog' for every identity")
    run.add_argument("--trials", type=_parse_count, default=100,
                     help="trials per identity / draws per suite check (default 100)")
    # SeedSequence entropy, as numpy defines it, is an integer >= 0
    run.add_argument("--seed", type=lambda s: _parse_count(s, 0), default=1,
                     help="base RNG seed, an integer >= 0 (default 1)")
    run.add_argument("--tol", type=_parse_tol, default=1e-8,
                     help="failure threshold on the relative error of identity "
                          "runs (default 1e-8); suite checks keep their own "
                          "tolerances")
    run.add_argument("--q-mod", type=lambda s: _parse_bounds(s, "--q-mod"),
                     default=None, metavar="LO,HI",
                     help="modulus bounds for the base q (default 0.3,0.8)")
    run.add_argument("--p-mod", type=lambda s: _parse_bounds(s, "--p-mod"),
                     default=None, metavar="LO,HI",
                     help="modulus bounds for the nome p (default 0.05,0.3)")
    run.add_argument("--precision", choices=("double", "extended"),
                     default="double", help="working precision (identity runs)")
    run.add_argument("--json", dest="json_path", type=_parse_json_path, default=None,
                     help="write a machine-readable report to this path")
    run.add_argument("--n", type=_parse_count, default=2,
                     help="dimension for the cn/conjecture suites (default 2)")
    run.add_argument("--N", type=_parse_count, default=2, dest="cap",
                     help="termination cap for the cn/conjecture suites (default 2)")
    return parser


def _region(args) -> SamplingRegion:
    return SamplingRegion(
        q_mod=args.q_mod or DEFAULT_REGION.q_mod,
        p_mod=args.p_mod or DEFAULT_REGION.p_mod,
    )


def _line(rep) -> str:
    """The verdict line of an identity's or a suite check's record."""
    if rep.error is not None:
        return f"FAIL  {rep.identity_id:24s} sampling exhausted"
    return (f"{'pass' if rep.passed else 'FAIL'}  {rep.identity_id:24s} "
            f"trials={rep.trials} max={rep.max_rel_err:.3e} "
            f"mean={rep.mean_rel_err:.3e} resamples={rep.resamples}")


def _print_records(records) -> tuple:
    """Print each record's error and verdict line; (record dicts, any failed)."""
    for rec in records:
        if rec.error is not None:
            print(f"error: {rec.error}", file=sys.stderr)
        print(_line(rec))
    return [rec.to_dict() for rec in records], not all(rec.passed for rec in records)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        for ident in list_identities():
            print(ident.id)
        for name in sorted(SUITES):
            print(name)
        return 0

    # the suites evaluate in binary64 only
    if args.precision == "extended" and args.suite not in (None, "catalog"):
        parser.error(f"--precision extended applies to --identity and --suite "
                     f"catalog, not --suite {args.suite}")

    if args.suite in ("cn", "conjecture"):
        from .multivar import MAX_BRUTE_TERMS

        # the cheap bounds first: a huge --n makes the power itself hang
        if args.cap > 8 or args.n > 6 or (args.cap + 1) ** args.n > MAX_BRUTE_TERMS:
            print(f"error: --n {args.n} --N {args.cap} exceeds the brute-force "
                  f"budget ((N+1)^n <= {MAX_BRUTE_TERMS}, N <= 8, n <= 6)",
                  file=sys.stderr)
            return 2

    region = _region(args)
    payload = {
        "schema": SCHEMA_VERSION,
        "rng": RNG_ALGORITHM,
        "command": {
            "identity": args.identity,
            "suite": args.suite,
            "trials": args.trials,
            "seed": args.seed,
            "tol": args.tol,
            "q_mod": list(region.q_mod),
            "p_mod": list(region.p_mod),
            "precision": args.precision,
            "n": args.n,
            "N": args.cap,
        },
        "reports": [],
        "suite_checks": [],
    }

    if args.identity is not None:
        try:
            idents = [get_identity(args.identity)]
        except KeyError:
            print(f"error: unknown identity {args.identity!r}; "
                  f"see 'verify list'", file=sys.stderr)
            return 2
    elif args.suite == "catalog":
        idents = list_identities()
    else:
        idents = None
    try:
        if idents is not None:
            key, records = "reports", _map_units([
                partial(check_identity, ident, trials=args.trials, tol=args.tol,
                        seed=args.seed, region=region, precision=args.precision)
                for ident in idents])
        else:
            key, records = "suite_checks", SUITES[args.suite](
                trials=args.trials, seed=args.seed, region=region,
                sizes=((args.n, args.cap),))
        payload[key], failed = _print_records(records)
    except TruncationLimit as exc:
        print(f"error: {exc}; narrow --q-mod or --p-mod", file=sys.stderr)
        return 2
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.json_path:
        try:
            with open(args.json_path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            print(f"error: cannot write the report to {args.json_path!r}: "
                  f"{exc.strerror or exc}", file=sys.stderr)
            return 2

    print("result: " + ("FAIL" if failed else "ok"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
