"""Output checks: a speed-up that changes results counts as a failed op.

Simulation ops (Monte-Carlo rounds) must conserve requests, repeat exactly
within a run, and at the reference seed match the recorded reference:
integer counts exactly, float metrics within ``FLOAT_REL_TOL``.

Chain ops (one stationary solve per strategy) must return a probability
vector that is stationary for the chain to ``RESIDUAL_L1_BOUND``, lies within
``PI_L1_TOL`` of the recorded reference, and agrees with the reported
estimates.  The chain is not held to a digest: an exact solver is expected to
move the tolerance-stopped answer by about 1e-5.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

FLOAT_REL_TOL = 1e-12
RESIDUAL_L1_BOUND = 1e-7
PI_L1_TOL = 1e-4
PI_SUM_TOL = 1e-9
ESTIMATE_REL_TOL = 1e-9

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

COUNT_FIELDS = ("arrivals", "joined", "balked", "accepted", "reneged", "still_waiting")
FLOAT_FIELDS = ("acceptance_rates", "queue_length_means", "wait_means", "mean_active_slices")


@dataclass(frozen=True)
class SimOp:
    """One Monte-Carlo round as the CLI writes it to metrics.csv."""

    group: str
    seed: int
    counts: dict[str, tuple[int, ...]]
    floats: tuple[float, ...]

    @classmethod
    def from_report(cls, group: str, report) -> "SimOp":
        floats = (report.utility_rate_mean, report.wait_mean, report.admission_rate)
        for name in FLOAT_FIELDS:
            floats += tuple(getattr(report, name))
        counts = {name: tuple(int(v) for v in getattr(report, name)) for name in COUNT_FIELDS}
        return cls(group, int(report.seed), counts, tuple(float(v) for v in floats))

    def to_json(self) -> dict:
        return {"group": self.group, "seed": self.seed,
                "counts": {k: list(v) for k, v in self.counts.items()},
                "floats": list(self.floats)}

    @classmethod
    def from_json(cls, data: dict) -> "SimOp":
        return cls(data["group"], data["seed"],
                   {k: tuple(v) for k, v in data["counts"].items()}, tuple(data["floats"]))


@dataclass(frozen=True)
class Group:
    """A summary row over several ops: a sweep score or an IAT fit table."""

    label: str
    ints: tuple[int, ...]
    floats: tuple[float, ...]

    def to_json(self) -> dict:
        return {"label": self.label, "ints": list(self.ints), "floats": list(self.floats)}

    @classmethod
    def from_json(cls, data: dict) -> "Group":
        return cls(data["label"], tuple(data["ints"]), tuple(data["floats"]))


@dataclass
class ChainOp:
    """One stationary solve: the distribution and the estimates derived from it."""

    group: str
    pi: np.ndarray
    acceptance_rates: tuple[float, ...]
    mean_active: tuple[float, ...]
    utility_rate: float
    residual_l1: float = math.nan  # filled by check_chain_op


def conservation_error(op: SimOp) -> str | None:
    """arrivals = joined + balked and joined = accepted + reneged + still_waiting."""
    c = op.counts
    for n in range(len(c["arrivals"])):
        if min(c[name][n] for name in COUNT_FIELDS) < 0:
            return f"negative count for type {n + 1}"
        if c["arrivals"][n] != c["joined"][n] + c["balked"][n]:
            return f"type {n + 1}: arrivals != joined + balked"
        if c["joined"][n] != c["accepted"][n] + c["reneged"][n] + c["still_waiting"][n]:
            return f"type {n + 1}: joined != accepted + reneged + still_waiting"
    if not all(math.isfinite(v) for v in op.floats):
        return "non-finite metric"
    return None


def _floats_close(a, b, rel: float) -> bool:
    if len(a) != len(b):
        return False
    return all(x == y or abs(x - y) <= rel * max(abs(x), abs(y)) for x, y in zip(a, b))


def sim_mismatch(op: SimOp, ref: SimOp, rel: float) -> str | None:
    """Counts and seeds must be equal, floats within ``rel``."""
    if (op.group, op.seed, op.counts) != (ref.group, ref.seed, ref.counts):
        return f"{op.group}: counts or seed differ from reference"
    if not _floats_close(op.floats, ref.floats, rel):
        return f"{op.group}: float metrics differ from reference"
    return None


def group_mismatch(group: Group, ref: Group, rel: float) -> str | None:
    if (group.label, group.ints) != (ref.label, ref.ints):
        return f"{group.label}: summary counts differ from reference"
    if not _floats_close(group.floats, ref.floats, rel):
        return f"{group.label}: summary floats differ from reference"
    return None


def check_chain_op(op: ChainOp, matrix, states: np.ndarray, model) -> str | None:
    """Probability vector, stationarity residual, estimates consistent with pi."""
    pi = op.pi
    if pi.shape != (states.shape[0],) or not np.all(np.isfinite(pi)):
        return f"{op.group}: distribution has the wrong shape or non-finite entries"
    if pi.min() < -1e-12 or abs(pi.sum() - 1.0) > PI_SUM_TOL:
        return f"{op.group}: distribution is not a probability vector"
    op.residual_l1 = float(np.abs(matrix.T @ pi - pi).sum())
    if not op.residual_l1 <= RESIDUAL_L1_BOUND:
        return f"{op.group}: residual {op.residual_l1:.3g} above {RESIDUAL_L1_BOUND}"
    release = np.asarray(model.release_rates)
    utility = np.asarray(model.utility_rates)
    expected = [
        (pi @ (states * release), op.acceptance_rates, states * release),
        (pi @ states, op.mean_active, states),
        (np.array([pi @ (states @ utility)]), (op.utility_rate,), states @ utility),
    ]
    for want, got, per_state in expected:
        scale = float(np.abs(per_state).max()) or 1.0
        if np.abs(np.asarray(got, dtype=float) - want).max() > ESTIMATE_REL_TOL * scale:
            return f"{op.group}: estimates disagree with the distribution"
    return None


def chain_mismatch(op: ChainOp, ref_pi: np.ndarray) -> str | None:
    if op.pi.shape != ref_pi.shape or np.abs(op.pi - ref_pi).sum() > PI_L1_TOL:
        return f"{op.group}: distribution is more than {PI_L1_TOL} (L1) from reference"
    return None


def same_output(a, b) -> bool:
    """Whether two ops of one seed are identical (a run must repeat exactly)."""
    if isinstance(a, ChainOp):
        return (a.group == b.group and np.array_equal(a.pi, b.pi)
                and (a.acceptance_rates, a.mean_active, a.utility_rate)
                == (b.acceptance_rates, b.mean_active, b.utility_rate))
    return a == b


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_reference(workload: str) -> dict:
    with open(reference_path(workload), encoding="utf-8") as handle:
        return json.load(handle)
