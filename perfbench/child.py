"""One timed sample: a fresh interpreter that runs ``verify`` invocations.

Usage: python3 child.py SPEC_JSON

SPEC_JSON holds ``argvs`` (the CLI argument lists, run in order in this one
process), ``json_dir`` (where the CLI writes its reports), ``spans`` (a path
to write a span trace to, or null for an untraced sample) and ``mark``
(whether to time the reference loop at each verdict line).  The sample
prints one JSON line: import time, per-invocation exit code, verdict time,
CPU time, captured output and report, and the process's peak RSS.

It also tells how fast the host ran it: a fixed reference loop runs before
and after each invocation and, if ``mark`` is set, each time the CLI prints
a check's verdict line.  Each invocation reports ``segments``, the stretches
of its verdict time between those loops (which are left out of it), each with
the reference times at its two ends.
"""

import importlib
import io
import json
import os
import resource
import sys
from time import perf_counter, process_time


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python complex-arithmetic loop."""
    started = perf_counter()
    z, acc = 0.3 + 0.1j, 0j
    for _ in range(20_000):
        acc += z * (1 - z * acc) * 1e-6
        z *= 1.0000001
    return perf_counter() - started


class _Capture(io.StringIO):
    """Captures CLI output; notes when the ``result:`` line is written and,
    if ``mark`` is set, times the reference loop at each verdict line."""

    def __init__(self, mark: bool):
        super().__init__()
        self.mark = mark
        self.marks = []   # (time of the verdict line, reference loop seconds)
        self.result_at = None

    def write(self, text):
        if self.mark and text.startswith(("pass ", "FAIL ")):
            at = perf_counter()
            self.marks.append((at, reference_loop()))
        if self.result_at is None and text.startswith("result:"):
            self.result_at = perf_counter()
        return super().write(text)


def _segments(called: float, before: float, marks: list, done: float,
              after: float) -> list:
    """[seconds, reference at start, reference at end] for each stretch of
    the verdict time between reference loops."""
    out = []
    start, ref = called, before
    for at, mark_ref in marks:
        out.append([at - start, ref, mark_ref])
        start, ref = at + mark_ref, mark_ref
    out.append([done - start, ref, after])
    return out


def _invoke(cli, argv: list, json_path: str, mark: bool) -> dict:
    capture = _Capture(mark)
    before = reference_loop()
    real_stdout, sys.stdout = sys.stdout, capture
    error = None
    cpu = process_time()
    called = perf_counter()
    try:
        code = cli.main(argv + ["--json", json_path])
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an aborted check is a failure the gate reports
        code = None
        error = f"{type(exc).__name__}: {exc}"
    finally:
        ended = perf_counter()
        sys.stdout = real_stdout
    cpu = process_time() - cpu
    segments = _segments(called, before, capture.marks, capture.result_at or ended,
                         reference_loop())
    report = None
    if os.path.exists(json_path):
        with open(json_path, encoding="utf-8") as fh:
            report = json.load(fh)
        os.remove(json_path)
    return {
        "argv": argv,
        "exit": code,
        "error": error,
        "verdict_s": sum(seg[0] for seg in segments),
        "segments": segments,
        "cpu_s": cpu,
        "output": capture.getvalue(),
        "report": report,
    }


def _peak_rss_mb() -> float:
    """Peak RSS of this process image.

    ru_maxrss is not used: across exec it keeps the high-water mark of the
    process that launched this one.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> None:
    spec = json.loads(sys.argv[1])
    started = perf_counter()
    cli = importlib.import_module("ellipsum.cli")
    setup_s = perf_counter() - started
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        sys.exit(f"ellipsum imported from {cli.__file__}, not {src}")
    tracer = None
    if spec["spans"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    runs = [_invoke(cli, argv, os.path.join(spec["json_dir"], f"report{i}.json"),
                    spec["mark"])
            for i, argv in enumerate(spec["argvs"])]
    sample = {
        "setup_s": setup_s,
        "runs": runs,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        tracer.dump(spec["spans"])
        sample["counts"] = tracer.counts()
    print(json.dumps(sample))


if __name__ == "__main__":
    main()
