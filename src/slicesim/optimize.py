"""Strategy scoring and search.

Every strategy is scored by a seeded Monte-Carlo batch on the three headline
metrics (mean utility rate, mean queue wait, admission rate).  Compared
policies run on common random numbers: the per-round seeds depend only on the
master seed, so sweeps and baselines are paired.  The scoring calls take a
``tapes`` dict (see ``engine.monte_carlo``): every strategy scored with the
same dict replays each round's draws instead of drawing them again.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .engine import MonteCarloResult, SimConfig, derived_seed, monte_carlo
from .errors import ContractViolation
from .slice_model import ResourceModel, StateSpace
from .strategy import PreferenceMatrix, random_strategy

METRICS = ("utility", "wait", "admission")

#: The label of the greedy single-queue controller's scores.
GREEDY_SINGLE_QUEUE = "greedy-single-queue"


@dataclass(frozen=True)
class StrategyScore:
    """Monte-Carlo means and 95% half-widths of the three metrics for one strategy."""

    label: str
    rounds: int
    utility_mean: float
    utility_halfwidth: float
    wait_mean: float
    wait_halfwidth: float
    admission_mean: float
    admission_halfwidth: float

    def metric(self, name: str) -> float:
        if name == "utility":
            return self.utility_mean
        if name == "wait":
            return self.wait_mean
        if name == "admission":
            return self.admission_mean
        raise ContractViolation(f"unknown metric {name!r}; pick one of {METRICS}")


def round_mean(values: list[float]) -> float:
    """The mean of per-round values: the sum of v / n where each is finite and their sum not."""
    n, total = len(values), sum(values)
    if abs(total) == math.inf and all(map(math.isfinite, values)):
        return sum(v / n for v in values)
    return total / n


def _mean_halfwidth(values: list[float]) -> tuple[float, float]:
    n = len(values)
    mean = round_mean(values)
    if n < 2:
        return mean, 0.0
    if not math.isfinite(mean):  # inf - inf deviations: the interval is unbounded
        return mean, math.inf
    try:
        var = sum((v - mean) ** 2 for v in values) / (n - 1)
    except OverflowError:  # a deviation past 1e154: square them scaled by the largest
        scale = max(abs(v - mean) for v in values)
        var = sum(((v - mean) / scale) ** 2 for v in values) / (n - 1)
        return mean, 1.96 * scale * math.sqrt(var / n)
    return mean, 1.96 * math.sqrt(var / n)


def score_from_result(result: MonteCarloResult, label: str) -> StrategyScore:
    """Aggregate per-round reports into a StrategyScore."""
    utilities = [r.utility_rate_mean for r in result.reports]
    waits = [r.wait_mean for r in result.reports]
    admissions = [r.admission_rate for r in result.reports]
    u_mean, u_hw = _mean_halfwidth(utilities)
    w_mean, w_hw = _mean_halfwidth(waits)
    a_mean, a_hw = _mean_halfwidth(admissions)
    return StrategyScore(
        label=label,
        rounds=len(result.reports),
        utility_mean=u_mean,
        utility_halfwidth=u_hw,
        wait_mean=w_mean,
        wait_halfwidth=w_hw,
        admission_mean=a_mean,
        admission_halfwidth=a_hw,
    )


def evaluate_strategy(model: ResourceModel, strategy: PreferenceMatrix | None,
                      config: SimConfig, rounds: int, space: StateSpace,
                      label: str = "strategy", tapes: dict | None = None) -> StrategyScore:
    """Score one strategy by a seeded Monte-Carlo batch; ``strategy`` None scores the
    greedy single-queue controller on the same random numbers."""
    result = monte_carlo(replace(config, model=model, strategy=strategy), rounds, space, tapes)
    return score_from_result(result, label)


def greedy_single_queue_baseline(model: ResourceModel, config: SimConfig, rounds: int,
                                 space: StateSpace) -> StrategyScore:
    """``evaluate_strategy`` of the greedy single queue, under its label."""
    return evaluate_strategy(model, None, config, rounds, space, GREEDY_SINGLE_QUEUE)


@dataclass(frozen=True)
class SweepEntry:
    """One sweep row: strategy index, generating seed, and score."""

    index: int
    strategy_seed: int
    score: StrategyScore


def random_sweep(model: ResourceModel, count: int, master_seed: int,
                 config: SimConfig, rounds: int, space: StateSpace,
                 tapes: dict | None = None) -> list[SweepEntry]:
    """Score ``count`` seeded random strategies; entry i is reproducible from (seed, i).

    All strategies share the same Monte-Carlo round seeds (common random
    numbers), so rows are directly comparable; they replay one set of round
    tapes, in ``tapes`` or in a dict of their own.
    """
    if count < 1:
        raise ContractViolation("sweep needs at least one strategy")
    if tapes is None:
        tapes = {}
    entries = []
    for i in range(count):
        strategy_seed = derived_seed(master_seed, i)
        strategy = random_strategy(space, strategy_seed)
        score = evaluate_strategy(model, strategy, config, rounds, space,
                                  label=f"random-{i}", tapes=tapes)
        entries.append(SweepEntry(index=i, strategy_seed=strategy_seed, score=score))
    return entries


def _swapped(strategy: PreferenceMatrix, j: int, a: int, b: int) -> PreferenceMatrix:
    """The strategy with entries a and b of column j swapped."""
    swapped = list(strategy.columns[j])
    swapped[a], swapped[b] = swapped[b], swapped[a]
    cols = strategy.columns[:j] + (tuple(swapped),) + strategy.columns[j + 1:]
    return PreferenceMatrix(columns=cols, num_types=strategy.num_types)


@dataclass
class SearchStep:
    """Best-so-far point after one evaluation."""

    evaluations: int
    score: StrategyScore
    strategy: PreferenceMatrix


def local_search(model: ResourceModel, start: PreferenceMatrix, budget: int,
                 config: SimConfig, rounds: int, space: StateSpace,
                 metric: str = "utility") -> list[SearchStep]:
    """Steepest-ascent hill climbing over single-column single-swap neighbors.

    ``budget`` counts strategy evaluations beyond the start; waits are
    minimized, the other metrics maximized.  Neighbors are scanned in a
    seeded shuffled order so small budgets still sample across columns; each
    is built only when it is scored.
    Returns the monotone best-so-far trajectory, ending when the budget runs
    out or no neighbor improves.  Every evaluation replays one set of round
    tapes, kept in a dict of its own.
    """
    if metric not in METRICS:
        raise ContractViolation(f"unknown metric {metric!r}; pick one of {METRICS}")
    if budget < 0:
        raise ContractViolation("budget must be >= 0")
    tapes: dict = {}
    sign = -1.0 if metric == "wait" else 1.0
    order_rng = np.random.Generator(np.random.PCG64(derived_seed(config.seed, 0x5eac)))

    def value(score: StrategyScore) -> float:
        return sign * score.metric(metric)

    # neighbor i swaps pair i % len(pairs) of column i // len(pairs)
    pairs = list(itertools.combinations(range(start.num_types + 1), 2))

    best = start
    best_score = evaluate_strategy(model, start, config, rounds, space, label="start",
                                   tapes=tapes)
    trajectory = [SearchStep(evaluations=0, score=best_score, strategy=best)]
    used = 0
    improved = True
    while improved and used < budget:
        improved = False
        candidate, candidate_score = None, None
        for idx in order_rng.permutation(best.num_columns * len(pairs)).tolist():
            if used >= budget:
                break
            j, pair = divmod(idx, len(pairs))
            neighbor = _swapped(best, j, *pairs[pair])
            used += 1
            score = evaluate_strategy(model, neighbor, config, rounds, space,
                                      label=f"eval-{used}", tapes=tapes)
            if candidate_score is None or value(score) > value(candidate_score):
                candidate, candidate_score = neighbor, score
        if candidate_score is not None and value(candidate_score) > value(best_score):
            best, best_score = candidate, candidate_score
            improved = True
        trajectory.append(SearchStep(evaluations=used, score=best_score, strategy=best))
    return trajectory
