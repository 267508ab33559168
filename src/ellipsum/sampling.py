"""The engine every check shares: its sampling region and seeded streams,
the sample/resample loop, the record builder and the fork pool.

A catalog identity (:mod:`ellipsum.catalog`) and a suite check
(:mod:`ellipsum.suites`) both draw trial t from a stream of
:func:`_rng_for`, take it through :func:`_trials`, which redraws on any of
REJECTED, and turn the outcomes into one
:class:`~ellipsum.report.VerificationReport` with :func:`_record`.
:func:`_map_units` runs independent checks on forked workers.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import struct
import sys
import zlib
from time import perf_counter
from typing import NamedTuple

from .errors import (
    BalanceViolation,
    DegenerateParameters,
    NonzeroRequired,
    SingularToWorkingPrecision,
    WorkerError,
)
from .report import VerificationReport
from .stream import PhiloxStream

TINY = 1e-300


class SamplingRegion(NamedTuple):
    """Moduli bounds for the random parameter draws (phases are uniform)."""

    q_mod: tuple = (0.3, 0.8)
    p_mod: tuple = (0.05, 0.3)
    param_mod: tuple = (0.5, 2.0)


DEFAULT_REGION = SamplingRegion()


def _rng_for(tag: str, seed: int, trial: int) -> PhiloxStream:
    """The stream of trial ``trial`` of the check or identity named ``tag``."""
    return PhiloxStream(seed, (zlib.crc32(tag.encode("utf-8")), trial))


def _uniform_pair(rng: PhiloxStream, lo1: float, hi1: float,
                  lo2: float, hi2: float) -> tuple:
    """``rng.uniform(lo1, hi1), rng.uniform(lo2, hi2)`` of numpy's generator
    on the same stream, bit for bit, from one ``rng.pair()``.

    numpy draws a uniform as ``low + (high - low) * next_double``, and
    ``pair`` takes the same two doubles from the stream.
    """
    u, v = rng.pair()
    return lo1 + (hi1 - lo1) * u, lo2 + (hi2 - lo2) * v


_TWO_PI = 2.0 * math.pi


def _draw_complex(rng: PhiloxStream, bounds: tuple) -> complex:
    """A modulus in ``bounds`` and a phase in [0, 2 pi), bit for bit
    :func:`_uniform_pair` with the second range (0.0, _TWO_PI): its
    ``0.0 + x`` is x for the phase's x >= 0."""
    lo, hi = bounds
    u, v = rng.pair()
    mod, phase = lo + (hi - lo) * u, _TWO_PI * v
    return complex(mod * math.cos(phase), mod * math.sin(phase))


MAX_RESAMPLES = 100

# Rejected draws, redrawn rather than failed: poles, balance misses, binary64
# overflow, arguments that underflow to zero, singular matrices, and
# non-finite or cancellation-dominated values.
REJECTED = (DegenerateParameters, BalanceViolation, SingularToWorkingPrecision,
            NonzeroRequired, OverflowError, ZeroDivisionError)

# A nonzero value this far below its summand scale is numerically
# indistinguishable from zero in binary64 (in extended precision, the second
# limit); such draws are resampled, in the same spirit as the determinant
# condition-number guard.
CONDITION_LIMIT = 1e6
CONDITION_LIMIT_EXTENDED = 1e30


def _trials(label: str, trials: int, stream, draw, evaluate):
    """The sampling loop of every check: ``(values, resamples, error)``.

    Trial t takes ``evaluate(args)`` of the first ``args = draw(stream(t))``
    that raises none of REJECTED, within MAX_RESAMPLES redraws.  A trial
    whose draws are all rejected ends the loop: ``values`` keeps the
    completed trials and ``error`` says why; otherwise ``error`` is None.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    values, resamples = [], 0
    for trial in range(trials):
        rng = stream(trial)
        for _ in range(MAX_RESAMPLES + 1):
            try:
                values.append(evaluate(draw(rng)))
                break
            except REJECTED:
                resamples += 1
        else:
            return values, resamples, (
                f"{label}: no admissible point after {MAX_RESAMPLES} resamples")
    return values, resamples, None


def _worker_count(units: int) -> int:
    """Worker processes for ``units`` independent units: one per CPU in the
    process's affinity mask, so ``taskset -c 0`` gives a serial run.  Where
    the platform has no affinity mask, the run is serial."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return min(cpus, units)


# A result frame on a worker's pipe: unit index and pickle length, then the
# pickle of (ok, result or exception).
_FRAME = struct.Struct("<II")


def _map_units(units: list) -> list:
    """[unit() for unit in units], on forked workers when more than one CPU is
    available.

    Units are independent zero-argument callables; results come back in table
    order.  If units raise, the first error in table order is raised, as the
    serial loop would raise it.  A worker that dies, or a result that cannot
    cross the pipe, raises :class:`~ellipsum.errors.WorkerError`.
    """
    workers = _worker_count(len(units))
    if workers < 2 or not hasattr(os, "fork"):
        return [unit() for unit in units]
    results = _fork_map(units, workers)
    for index, result in enumerate(results):
        if result is None:
            raise WorkerError(f"unit {index} never reported: its worker ended early")
        if not result[0]:
            raise result[1]
    return [value for _, value in results]


def _fork_map(units: list, workers: int) -> list:
    """(ok, result or exception), or None where nothing came back, per unit.

    The workers are plain forks: they read 4-byte unit indices from one task
    pipe and each sends its results back on a pipe of its own.  The parent
    writes the indices while it reads the results, so neither side can wait
    on a full pipe forever.  The ``verify`` process starts no threads, so
    forking it is safe.
    """
    import selectors
    from select import PIPE_BUF

    tasks = memoryview(struct.pack(f"<{len(units)}I", *range(len(units))))
    results = [None] * len(units)
    sys.stdout.flush()
    sys.stderr.flush()
    task_r, task_w = os.pipe()
    buffers, pids = {}, {}      # by result pipe
    try:
        for _ in range(workers):
            result_r, result_w = os.pipe()
            buffers[result_r] = bytearray()
            try:
                pid = os.fork()
                if pid == 0:
                    _worker(units, task_r, result_w, [task_w, *buffers])
            finally:
                os.close(result_w)
            pids[result_r] = pid
        os.close(task_r)
        task_r = None
        os.set_blocking(task_w, False)
        with selectors.DefaultSelector() as selector:
            selector.register(task_w, selectors.EVENT_WRITE)
            for fd in pids:
                selector.register(fd, selectors.EVENT_READ)
            while selector.get_map():
                for key, _ in selector.select():
                    if key.fd == task_w:
                        # at most PIPE_BUF bytes, so the write is whole or fails
                        try:
                            tasks = tasks[os.write(task_w, tasks[:PIPE_BUF]):]
                        except BlockingIOError:
                            continue
                        except BrokenPipeError:     # every worker is gone
                            tasks = tasks[:0]
                        if not tasks:
                            selector.unregister(task_w)
                            os.close(task_w)
                            task_w = None
                    elif data := os.read(key.fd, 1 << 16):
                        _unframe(buffers[key.fd], data, results)
                    else:
                        selector.unregister(key.fd)
                        os.close(key.fd)
                        del buffers[key.fd]
                        status = os.waitpid(pids.pop(key.fd), 0)[1]
                        if status:
                            raise WorkerError(f"a worker {_exit_cause(status)} "
                                              f"before all of its units reported")
        return results
    finally:
        for fd in (task_r, task_w, *buffers):
            if fd is not None:
                os.close(fd)
        if pids:
            import signal

            for pid in pids.values():
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _worker(units: list, task_r: int, result_w: int, inherited: list):
    """A forked worker's life: run the units whose indices it reads, send
    back each result, and end with ``os._exit`` whatever happens."""
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        while data := os.read(task_r, 4):
            index, = struct.unpack("<I", data)
            try:
                outcome = True, units[index]()
            except Exception as exc:    # a unit's error is its result
                outcome = False, exc
            try:
                payload = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                what = "result" if outcome[0] else "error"
                payload = pickle.dumps((False, WorkerError(
                    f"unit {index}: its {what} cannot be pickled: {exc}")))
            frame = memoryview(_FRAME.pack(index, len(payload)) + payload)
            while frame:
                frame = frame[os.write(result_w, frame):]
        status = 0
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(status)


def _unframe(buffer: bytearray, data: bytes, results: list):
    """Append ``data`` to a worker's buffer and store each whole result frame."""
    buffer += data
    while len(buffer) >= _FRAME.size:
        index, size = _FRAME.unpack_from(buffer)
        end = _FRAME.size + size
        if len(buffer) < end:
            return
        try:
            results[index] = pickle.loads(buffer[_FRAME.size:end])
        except Exception as exc:
            results[index] = False, WorkerError(
                f"unit {index}: its result cannot be unpickled: {exc}")
        del buffer[:end]


def _exit_cause(status: int) -> str:
    """'exited with status 3' or 'was killed by signal 9 (SIGKILL)'."""
    code = os.waitstatus_to_exitcode(status)
    if code >= 0:
        return f"exited with status {code}"
    import signal

    with contextlib.suppress(ValueError):
        return f"was killed by signal {-code} ({signal.Signals(-code).name})"
    return f"was killed by signal {-code}"


def _rel_diff(a, b) -> float:
    """|a - b| / (|a| + |b|), the relative difference of two values."""
    return float(abs(a - b) / (abs(a) + abs(b) + TINY))


def trial_error(lhs, rhs, scale: float) -> float:
    """Relative error of one trial; zero right sides use the summand scale."""
    if rhs == 0:
        return float(abs(lhs)) / max(scale, TINY)
    return _rel_diff(lhs, rhs)


def _record(label: str, tol: float, seed: int, run, dump) -> VerificationReport:
    """The record of one check, whose trials ``run()`` gives as
    :func:`_trials` does, with values ``(args, err, noise)`` per trial.

    The worst point is that of the first trial with the largest error,
    except that a trial whose error is at or below its ``noise`` displaces no
    earlier choice: where every error is noise it is the first trial's point,
    which a change in the last bits of the arithmetic does not move.  Each
    trial over ``tol`` is a failure kept with its point.  ``dump(args)``
    gives a point, for the worst trial and the failures only.  ``label``
    names the record; the wall time covers ``run()``.
    """
    started = perf_counter()
    outcomes, resamples, error = run()
    errs, failures, worst = [], [], None
    for trial, (args, err, noise) in enumerate(outcomes):
        errs.append(err)
        if worst is None or err > worst[1] and err > noise:
            worst = args, err
        if err > tol:
            failures.append({"trial_index": trial, "rel_err": err, "point": dump(args)})
    return VerificationReport(
        identity_id=label, trials=len(errs), tol=tol, seed=seed,
        max_rel_err=max(errs, default=0.0),
        mean_rel_err=sum(errs) / len(errs) if errs else 0.0,
        failures=failures, resamples=resamples,
        wall_time_ms=(perf_counter() - started) * 1e3,
        worst_point=None if worst is None else dump(worst[0]), error=error)

