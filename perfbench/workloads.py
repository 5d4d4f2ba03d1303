"""The four workloads, each driven through the public calls its CLI command makes.

Every workload splits into ``setup`` (configuration load, state-space
enumeration, strategy construction) and ``main`` (the command's computation
without writing files), in the order ``slicesim.cli`` makes the calls.  The
configuration files in ``configs/`` hold every size; the master seed
replaces the file's ``seed`` as ``--seed`` does on the command line.
"""

from __future__ import annotations

import os
import random
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

import slicesim.cli  # noqa: F401  (the CLI process loads every module)
from slicesim import config as sconfig
from slicesim import engine, experiments, markov, optimize, slice_model, strategy

from . import tracing
from .checks import (
    ChainOp,
    Group,
    SimOp,
    check_chain_op,
    conservation_error,
)

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "configs")

# chain-s2x3 solves one chain per entry.  The list spans fast-mixing
# (prefer-type) and slow-mixing (random) strategies; the seed only shuffles
# the order, so every seed does the same work.
CHAIN_STRATEGIES = (
    {"prefer_type": 1},
    {"prefer_type": 2},
    {"random_seed": 1},
    {"random_seed": 2},
)


@dataclass
class Context:
    """What ``setup`` builds and ``main`` uses."""

    config: object
    block: dict
    space: object
    strategies: list = field(default_factory=list)  # (label, PreferenceMatrix)


@dataclass
class PassOutput:
    ops: list  # SimOp or ChainOp, in execution order
    groups: list[Group]
    strategies: int  # strategies scored or solved
    requests: int  # simulated arrivals


def _label(spec: dict) -> str:
    (key, value), = spec.items()
    return f"{key}={value}"


@contextmanager
def _recording_monte_carlo(results: list):
    """Keep every ``monte_carlo`` result, so a sweep's rounds can be checked."""
    original = engine.monte_carlo

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        results.append(result)
        return result

    undo = tracing.rebind(original, recording)
    try:
        yield
    finally:
        tracing.restore(undo)


class Workload:
    """A CLI command on one configuration file."""

    command = ""
    # Whether the main phase runs mostly in the interpreter, so that its
    # time is normalised by the reference kernel (see ``speed``).
    interpreted_main = True

    def __init__(self, name: str, config_path: str | None = None) -> None:
        self.name = name
        self.config_path = config_path or os.path.join(CONFIG_DIR, f"{name}.yaml")
        cfg = sconfig.load_config(self.config_path)
        self.expected_ops = self._expected_ops(cfg, cfg.block(self.command))

    def _load(self, seed: int):
        cfg = sconfig.load_config(self.config_path)
        cfg.seed = seed
        cfg.raw["seed"] = seed
        return cfg, cfg.block(self.command)

    def setup(self, seed: int) -> Context:
        raise NotImplementedError

    def main(self, ctx: Context) -> PassOutput:
        raise NotImplementedError

    def check(self, ctx: Context, out: PassOutput) -> list[str | None]:
        """One failure message (or None) per op."""
        return [conservation_error(op) for op in out.ops]

    def _expected_ops(self, cfg, block) -> int:
        raise NotImplementedError


class Sweep(Workload):
    """``slicesim sweep``: random strategies plus the naive and greedy baselines."""

    command = "sweep"

    def _expected_ops(self, cfg, block) -> int:
        strategies = block["count"]
        strategies += cfg.model.num_types if block["include_naive"] else 0
        strategies += 1 if block["include_greedy_baseline"] else 0
        return strategies * block["rounds"]

    def setup(self, seed: int) -> Context:
        cfg, block = self._load(seed)
        return Context(cfg, block, slice_model.enumerate_state_space(cfg.model))

    def main(self, ctx: Context) -> PassOutput:
        cfg, block, space = ctx.config, ctx.block, ctx.space
        sim = engine.SimConfig(
            model=cfg.model, strategy=None, horizon=block["horizon"],
            seed=cfg.seed, initial_state=block["initial_state"],
            balking=block["balking"], reneging=block["reneging"],
        )
        results: list = []
        scored = []
        with _recording_monte_carlo(results):
            entries = optimize.random_sweep(cfg.model, block["count"], cfg.seed, sim,
                                            block["rounds"], space)
            scored += [(f"random-{e.index}", e.strategy_seed, e.score) for e in entries]
            if block["include_naive"]:
                for n in range(1, cfg.model.num_types + 1):
                    kind = f"prefer-type-{n}"
                    score = optimize.evaluate_strategy(
                        cfg.model, strategy.naive_strategy(space, kind), sim,
                        block["rounds"], space, label=kind)
                    scored.append((kind, 0, score))
            if block["include_greedy_baseline"]:
                score = optimize.greedy_single_queue_baseline(cfg.model, sim,
                                                              block["rounds"], space)
                scored.append(("greedy-single-queue", 0, score))
        ops, groups = [], []
        for (label, seed, score), result in zip(scored, results):
            ops += [SimOp.from_report(label, r) for r in result.reports]
            groups.append(Group(label, (seed, score.rounds), (
                score.utility_mean, score.utility_halfwidth, score.wait_mean,
                score.wait_halfwidth, score.admission_mean, score.admission_halfwidth)))
        requests = sum(sum(op.counts["arrivals"]) for op in ops)
        return PassOutput(ops, groups, len(scored), requests)


class Simulate(Workload):
    """``slicesim simulate``: one strategy, a Monte-Carlo batch, the IAT fit table."""

    command = "simulate"

    def _expected_ops(self, cfg, block) -> int:
        return block["rounds"]

    def setup(self, seed: int) -> Context:
        cfg, block = self._load(seed)
        space = slice_model.enumerate_state_space(cfg.model)
        base_dir = os.path.dirname(cfg.source) or "."
        built = sconfig.build_strategy(block["strategy"], space, base_dir)
        return Context(cfg, block, space, [(_label(block["strategy"]), built)])

    def main(self, ctx: Context) -> PassOutput:
        cfg, block, space = ctx.config, ctx.block, ctx.space
        label, built = ctx.strategies[0]
        sim = engine.SimConfig(
            model=cfg.model, strategy=built, horizon=block["horizon"],
            warmup=block["warmup"], seed=cfg.seed,
            initial_state=block["initial_state"],
            balking=block["balking"], reneging=block["reneging"],
        )
        result = engine.monte_carlo(sim, block["rounds"], space)
        widths = experiments.iat_bin_widths(cfg.model, block["bin_width_divisor"])
        fit = experiments.geometric_fit_table([result.iat_samples], widths)
        ops = [SimOp.from_report(label, r) for r in result.reports]
        group = Group(label,
                      tuple(v for row in fit for v in (row.queue, row.samples)),
                      tuple(v for row in fit for v in (row.bin_width, row.p_hat, row.divergence)))
        requests = sum(sum(op.counts["arrivals"]) for op in ops)
        return PassOutput(ops, [group], 1, requests)


class SteadyState(Workload):
    """``slicesim steady-state`` once per strategy of ``CHAIN_STRATEGIES``."""

    command = "steady_state"
    # About 98% of the main phase is the stationary solve in compiled
    # BLAS code, which the host's slow spells leave almost unslowed (wall
    # time stayed within 10% while the kernel moved by 30%), so the main
    # phase is reported in wall seconds.
    interpreted_main = False

    def _expected_ops(self, cfg, block) -> int:
        return len(CHAIN_STRATEGIES)

    def setup(self, seed: int) -> Context:
        cfg, block = self._load(seed)
        space = slice_model.enumerate_state_space(cfg.model)
        base_dir = os.path.dirname(cfg.source) or "."
        order = list(CHAIN_STRATEGIES)
        random.Random(seed).shuffle(order)
        built = [(_label(spec), sconfig.build_strategy(spec, space, base_dir)) for spec in order]
        return Context(cfg, block, space, built)

    def main(self, ctx: Context) -> PassOutput:
        cfg, block, space = ctx.config, ctx.block, ctx.space
        ops = []
        for label, built in ctx.strategies:
            estimate = markov.strategy_steady_state(
                cfg.model, space, built, block["queue_empty_probs"], mode=block["mode"],
                opportunity_rate=block["opportunity_rate"],
                p_init=block["initial_distribution"],
            )
            ops.append(ChainOp(
                label, np.array(estimate.distribution.probabilities, dtype=float),
                tuple(float(v) for v in estimate.acceptance_rates),
                tuple(float(v) for v in estimate.mean_active_slices),
                float(estimate.utility_rate)))
        return PassOutput(ops, [], len(ops), 0)

    def check(self, ctx: Context, out: PassOutput) -> list[str | None]:
        cfg, block, space = ctx.config, ctx.block, ctx.space
        states = np.array(space.states, dtype=float)
        built = dict(ctx.strategies)
        failures = []
        for op in out.ops:
            psi = markov.build_transition_matrix(
                built[op.group], space, block["queue_empty_probs"],
                cfg.model.release_rates, block["mode"], block["opportunity_rate"])
            failures.append(check_chain_op(op, psi.matrix, states, cfg.model))
        return failures


KINDS = {
    "sweep-s2": Sweep,
    "backlog-renege": Simulate,
    "chain-s2x3": SteadyState,
    "fine-grid": Simulate,
}


def make(name: str, config_path: str | None = None) -> Workload:
    return KINDS[name](name, config_path)
