"""Machine-readable verification reports.

Every check, a catalog identity or a suite check, gives one record,
:class:`VerificationReport`.  Records serialize to plain dicts with a stable
key order and [re, im] pairs for complex values, so that identical runs
produce byte-identical JSON (the wall-clock field is the one permitted
difference).
"""

from __future__ import annotations

from typing import NamedTuple

SCHEMA_VERSION = 2

# The sampling generator: Philox 4x64-10 keyed through numpy's SeedSequence
# with spawn_key = (crc32(identity id), trial index).  stream.PhiloxStream
# draws numpy's stream bit for bit without numpy, so the name is unchanged.
RNG_ALGORITHM = "philox4x64/seedsequence(crc32-id,trial)"


def _cpair(z) -> list:
    return [float(z.real), float(z.imag)]


class VerificationReport(NamedTuple):
    """Per-check trial statistics with the worst point kept for replay.

    ``identity_id`` names the identity or suite check.  ``failures`` holds
    one ``{"trial_index", "rel_err", "point"}`` dict per trial over
    ``tol``.  ``error`` says why the run stopped short of its
    trials; ``trials`` then counts the completed ones, and the record keeps
    their failures and worst point.
    """

    identity_id: str
    trials: int
    tol: float
    seed: int
    max_rel_err: float
    mean_rel_err: float
    failures: list
    resamples: int = 0
    wall_time_ms: float = 0.0
    worst_point: dict | None = None
    error: str | None = None

    @property
    def passed(self) -> bool:
        return self.error is None and not self.failures

    def to_dict(self) -> dict:
        record = {
            "identity_id": self.identity_id,
            "trials": self.trials,
            "tol": self.tol,
            "seed": self.seed,
            "max_rel_err": self.max_rel_err,
            "mean_rel_err": self.mean_rel_err,
            "failures": self.failures,
            "resamples": self.resamples,
            "worst_point": self.worst_point,
            "wall_time_ms": self.wall_time_ms,
        }
        if self.error is not None:
            record["error"] = self.error
        return record

    @classmethod
    def from_dict(cls, d: dict) -> "VerificationReport":
        """The report a record was made from."""
        return cls(**d)


def point_dump(nome, values: dict, n: int) -> dict:
    """JSON-ready dump of a sampled parameter point with termination index n."""
    return {
        "q": _cpair(nome.q),
        "p": _cpair(nome.p),
        "values": {k: _cpair(v) for k, v in sorted(values.items())},
        "integers": {"n": int(n)},
    }


def args_dump(value):
    """JSON-ready dump of a suite trial's draw arguments: [re, im] for a
    complex, a dict by field for a NamedTuple, a list for another tuple or
    list, and anything else (an int, None) as it is."""
    if isinstance(value, complex):
        return _cpair(value)
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return {name: args_dump(part) for name, part in zip(value._fields, value)}
    if isinstance(value, (tuple, list)):
        return [args_dump(part) for part in value]
    return value
