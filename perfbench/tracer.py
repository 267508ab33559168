"""Span tracing of the ellipsum layers, applied from outside the package.

``install`` wraps the public functions of each layer module (plus the few
private helpers the benchmark reports on) and rebinds every reference to the
original function object held by an ``ellipsum.*`` module: its globals and
the values of dicts in its globals, such as ``suites.SUITES``.  Modules such
as ``catalog`` and ``suites`` bind ``eval_E`` with ``from .kernel import ...``,
so rebinding only ``kernel.eval_E`` would miss most calls.

Spans (name, start, end, parent) are kept in flat arrays while the program
runs and written to an ``.npz`` file by ``dump``; ``layer_times`` turns such
a file into per-name call counts and self times.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from array import array
from time import perf_counter

# The layers the workloads reach; inversion, determinants and multivar are
# reached only by suites the benchmark leaves out (see run.py).
LAYERS = ("kernel", "series", "catalog", "suites", "cli")

# Private helpers with a per-layer metric of their own.
PRIVATE = {"catalog": ("_vwp_sum", "_extend_point")}

# Functions whose argument tuples are collected, for the distinct-argument
# share that bounds what memoization could save.
DISTINCT = ("kernel.eval_E",)


# Work counts derived from a completed call: name -> (counter, count(args, result)).
COUNTERS = {
    "series.omega_terms": ("series.terms", lambda args, result: len(result)),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.counters: dict = {}
        self.arguments: dict = {name: set() for name in DISTINCT}

    def wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        seen = self.arguments.get(name)
        # trailing defaults, so that f(x, p) and f(x, p, DEFAULT) count as one argument
        argcount, defaults = fn.__code__.co_argcount, fn.__defaults__ or ()
        counter, count = COUNTERS.get(name, (None, None))
        name_ids, parents, starts, ends, stack = (
            self.name_ids, self.parents, self.starts, self.ends, self.stack)

        def traced(*args, **kwargs):
            if seen is not None:
                missing = argcount - len(args)
                key = args + defaults[len(defaults) - missing:] if missing > 0 else args
                seen.add((key, tuple(sorted(kwargs.items()))))
            span = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(span)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = perf_counter()
                stack.pop()
            if counter is not None:
                self.counters[counter] = self.counters.get(counter, 0) + count(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the layer functions and rebind them throughout ``ellipsum``."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"ellipsum.{layer}")
            for obj in vars(module).values():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and id(obj) not in wrappers
                        and (not obj.__name__.startswith("_")
                             or obj.__name__ in PRIVATE.get(layer, ()))):
                    wrappers[id(obj)] = self.wrap(obj, f"{layer}.{obj.__name__}")
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "ellipsum" and not mod_name.startswith("ellipsum."):
                continue
            namespace = vars(module)
            for attr, obj in list(namespace.items()):
                if id(obj) in wrappers:
                    namespace[attr] = wrappers[id(obj)]
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in wrappers:
                            obj[key] = wrappers[id(value)]

    def counts(self) -> dict:
        """Work counters and distinct-argument counts, all deterministic."""
        out = dict(self.counters)
        for name, seen in self.arguments.items():
            out[f"{name}.distinct"] = len(seen)
        return out

    def dump(self, path: str) -> None:
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
            parents=np.frombuffer(self.parents, dtype=np.int32),
            starts=np.frombuffer(self.starts, dtype=np.float64),
            ends=np.frombuffer(self.ends, dtype=np.float64),
        )


def layer_times(path: str) -> dict:
    """{name: (calls, self seconds)} from a span file written by ``dump``.

    Spans nest strictly (one thread), so the time children cover inside a
    span is the sum of their durations.
    """
    import numpy as np

    with np.load(path) as spans:
        names = spans["names"]
        name_ids = spans["name_ids"]
        parents = spans["parents"]
        duration = spans["ends"] - spans["starts"]
    nested = parents >= 0
    covered = np.bincount(parents[nested], weights=duration[nested],
                          minlength=len(duration))
    self_s = duration - covered
    calls = np.bincount(name_ids, minlength=len(names))
    self_by_name = np.bincount(name_ids, weights=self_s, minlength=len(names))
    return {str(name): (int(calls[i]), float(self_by_name[i]))
            for i, name in enumerate(names)}
