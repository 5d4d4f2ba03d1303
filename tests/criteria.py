"""The acceptance criteria's harness: pipelines that only the tests run.

The inter-acceptance-time (IAT) study runs many seeded random strategies
through Monte-Carlo batches and pools per-queue IATs (criteria 3 and 4).  Cells
that are compared against each other (patient vs impatient, across load
scenarios) are first subsampled to a common per-queue sample count, so that
the finite-sample bias of the divergence estimator is matched and differences
reflect distribution shape, not sample volume.  The consistency check runs
the chain estimator against simulated acceptance rates (criterion 7), and
``accepted_by_panel`` reads the case study's outcome (criterion 8).
"""

from __future__ import annotations

import random as _pyrandom
from dataclasses import dataclass
from typing import Sequence

from slicesim.casestudy import PANELS, Row
from slicesim.engine import (
    SimConfig,
    derived_seed,
    logged_rounds,
    monte_carlo,
    queue_empty_counts,
)
from slicesim.errors import ContractViolation
from slicesim.experiments import FitRow
from slicesim.markov import strategy_steady_state
from slicesim.slice_model import ResourceModel, StateSpace
from slicesim.statfit import empirical_pmf, fit_geometric, kld_vs_geometric
from slicesim.strategy import PreferenceMatrix, random_strategy


def collect_iat_samples(model: ResourceModel, space: StateSpace,
                        n_strategies: int, rounds: int, horizon: float,
                        impatient: bool, master_seed: int) -> list[list[list[float]]]:
    """Pooled IAT samples per (random strategy, queue).

    Strategy i is generated from a seed derived from the master seed, and all
    strategies run on the same Monte-Carlo round seeds, so cells collected
    with the same master seed are paired; they replay one set of round tapes.
    """
    out, tapes = [], {}
    for i in range(n_strategies):
        strategy = random_strategy(space, derived_seed(master_seed, i))
        config = SimConfig(model=model, strategy=strategy, horizon=horizon,
                           seed=master_seed, initial_state="full",
                           balking=impatient, reneging=impatient)
        result = monte_carlo(config, rounds, space, tapes)
        out.append([list(queue) for queue in result.iat_samples])
    return out


def divergences_by_queue(rows: Sequence[FitRow], num_types: int) -> list[list[float]]:
    out: list[list[float]] = [[] for _ in range(num_types)]
    for row in rows:
        out[row.queue - 1].append(row.divergence)
    return out


def matched_divergences(cells: dict[str, Sequence[Sequence[Sequence[float]]]],
                        bin_widths: dict[str, Sequence[float]],
                        subsample_seed: int = 20240707,
                        min_samples: int = 10) -> dict[str, list[float]]:
    """Divergences comparable across cells: equal sample counts per pair.

    For every (strategy, queue) pair the cells are subsampled (seeded,
    without replacement) to the smallest count any cell collected; pairs
    below ``min_samples`` anywhere are dropped everywhere.  The divergence
    estimator's finite-sample bias is then common to all cells and
    differences reflect the shape of the IAT laws.
    """
    names = list(cells)
    if not names:
        raise ContractViolation("need at least one cell to compare")
    n_strategies = len(cells[names[0]])
    n_queues = len(cells[names[0]][0])
    rng = _pyrandom.Random(subsample_seed)
    out: dict[str, list[float]] = {name: [] for name in names}
    for i in range(n_strategies):
        for q in range(n_queues):
            count = min(len(cells[name][i][q]) for name in names)
            if count < min_samples:
                continue
            for name in names:
                picked = rng.sample(cells[name][i][q], count)
                pmf = empirical_pmf(picked, bin_widths[name][q])
                out[name].append(kld_vs_geometric(pmf, fit_geometric(pmf)))
    return out


@dataclass(frozen=True)
class ConsistencyRow:
    """Chain-model acceptance-rate estimate against the measured rate, per type."""

    label: str
    queue: int
    measured: float
    estimated: float
    queue_empty_prob: float

    @property
    def relative_error(self) -> float:
        if self.measured == 0.0:
            return float("inf") if self.estimated != 0.0 else 0.0
        return abs(self.estimated - self.measured) / self.measured


def markov_consistency(model: ResourceModel, space: StateSpace,
                       strategies: dict[str, PreferenceMatrix],
                       rounds: int, horizon: float, master_seed: int,
                       impatient: bool = True) -> list[ConsistencyRow]:
    """Full pipeline per strategy: simulate, measure queue-empty probabilities,
    build the default-mode chain, and compare estimated acceptance rates.

    The strategies run on the same round seeds; the rounds are logged, since the
    queue-empty counts come from their event logs."""
    rows = []
    for label, strategy in strategies.items():
        config = SimConfig(model=model, strategy=strategy, horizon=horizon,
                           seed=master_seed, initial_state="full",
                           balking=impatient, reneging=impatient)
        logged = list(logged_rounds(config, rounds, space))
        empty_probs = queue_empty_counts([trace for trace, _ in logged], space,
                                         strategy).empty_probs
        measured = [sum(r.acceptance_rates[n] for _, r in logged) / len(logged)
                    for n in range(model.num_types)]
        estimate = strategy_steady_state(model, space, strategy, empty_probs)
        for n in range(model.num_types):
            rows.append(ConsistencyRow(
                label=label,
                queue=n + 1,
                measured=measured[n],
                estimated=float(estimate.acceptance_rates[n]),
                queue_empty_prob=empty_probs[n],
            ))
    return rows


def balanced_benchmark_strategy(space: StateSpace) -> PreferenceMatrix:
    """Reserve-free strategy preferring whichever type is under-provisioned.

    Columns favour the second type until it holds one active slice per four
    of the first; two-type models only.
    """
    if space.model.num_types != 2:
        raise ContractViolation("the balanced benchmark strategy is two-type only")
    columns = tuple((2, 1, 0) if second * 4 <= first else (1, 2, 0)
                    for first, second in space.counts[:space.num_admissible].tolist())
    return PreferenceMatrix(columns=columns, num_types=2)


def accepted_by_panel(rows: list[Row]) -> dict[str, list[int]]:
    """Request ids accepted in each panel of the case study, in acceptance order."""
    out: dict[str, list[int]] = {panel: [] for panel in PANELS}
    for panel, _, event, _, request_id, _, _ in rows:
        if event == "accept":
            out[panel].append(request_id)
    return out
