"""Command-line entry point: experiment orchestration and file outputs.

Subcommands: simulate, analyze, fit-iat, steady-state, sweep, optimize,
casestudy.  Every run writes deterministic artifacts (CSV with LF endings,
JSON with sorted keys, no timestamps) into the output directory, so a run can
be regenerated byte-for-byte from its recorded configuration, seed, and
package version.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from typing import Iterable, Sequence

from . import __version__
from .analytics import (
    QueueParams,
    acceptance_probabilities,
    impatient_queue_pmf_table,
    mm1_queue_pmf,
    wait_distributions,
    wait_means,
)
from .casestudy import case_study_rows, render_case_study
from .config import OUTPUT_ROOT_ENV, ExperimentConfig, build_strategy, load_config, read_text
from .engine import (
    RNG_METADATA,
    SimConfig,
    logged_rounds,
    monte_carlo,
    queue_empty_counts,
)
from .errors import (ConfigError, ContractViolation, NumericError, SliceSimError,
                     StateSpaceTooLarge)
from .experiments import default_bin_width, geometric_fit_table, iat_bin_widths
from .markov import strategy_steady_state
from .optimize import (GREEDY_SINGLE_QUEUE, evaluate_strategy, local_search, random_sweep,
                       round_mean)
from .slice_model import StateSpace, enumerate_state_space
from .statfit import empirical_pmf, fit_geometric, kld_vs_geometric
from .strategy import PreferenceMatrix, naive_strategy, to_text


def _write_csv(path: str, header: list[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: str, value: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(value, handle, sort_keys=True, indent=2)
        handle.write("\n")


def _metric_rows(reports) -> tuple[list[str], list[list]]:
    n_types = len(reports[0].acceptance_rates)
    header = ["round", "seed", "utility_rate", "wait", "admission_rate"]
    for n in range(1, n_types + 1):
        header += [f"acceptance_rate_{n}", f"queue_length_{n}", f"wait_{n}",
                   f"arrivals_{n}", f"accepted_{n}", f"balked_{n}",
                   f"reneged_{n}", f"waiting_{n}"]
    rows = []
    for i, r in enumerate(reports):
        row = [i, r.seed, r.utility_rate_mean, r.wait_mean, r.admission_rate]
        for n in range(n_types):
            row += [r.acceptance_rates[n], r.queue_length_means[n], r.wait_means[n],
                    r.arrivals[n], r.accepted[n], r.balked[n], r.reneged[n],
                    r.still_waiting[n]]
        rows.append(row)
    rows.append(["mean", ""] + [round_mean([row[j] for row in rows])
                                for j in range(2, len(header))])
    return header, rows


def _state_labels(space: StateSpace) -> list[str]:
    """Each state's slice counts as the artefacts write them (``"2 0"``), in index order."""
    return list(map(" ".join, zip(*(map(str, column) for column in space.counts.T.tolist()))))


def _sim_config(config: ExperimentConfig, block: dict,
                strategy: PreferenceMatrix | None = None, **fixed) -> SimConfig:
    """The round settings of a block that runs Monte-Carlo rounds; ``fixed`` adds those it lacks."""
    keys = ("horizon", "warmup", "initial_state", "balking", "reneging")
    given = {key: block[key] for key in keys if key in block}
    return SimConfig(model=config.model, strategy=strategy, seed=config.seed, **given, **fixed)


def _state_space(config: ExperimentConfig) -> StateSpace:
    """The model's state space; a model it cannot enumerate fails at the ``model`` key's line."""
    try:
        return enumerate_state_space(config.model)
    except StateSpaceTooLarge as exc:
        raise ConfigError(f"{config.anchors[('model',)]}: {exc}") from None


def _with_strategy(config: ExperimentConfig, command: str,
                   key: str) -> tuple[dict, StateSpace, PreferenceMatrix]:
    """``command``'s block, the state space, and the strategy its ``key`` specifies (a file
    beside the configuration; a column count that does not fit fails at its line)."""
    block, space = config.block(command), _state_space(config)
    return block, space, build_strategy(block[key], space, os.path.dirname(config.source) or ".",
                                        config.anchors[(command, key, "columns")])


def _cmd_simulate(config: ExperimentConfig, outdir: str) -> None:
    block, space, strategy = _with_strategy(config, "simulate", "strategy")
    sim = _sim_config(config, block, strategy)
    result = monte_carlo(sim, block["rounds"], space)
    header, rows = _metric_rows(result.reports)
    _write_csv(os.path.join(outdir, "metrics.csv"), header, rows)

    iat_rows = []
    for q, samples in enumerate(result.iat_samples, start=1):
        iat_rows += [[q, value] for value in samples]
    _write_csv(os.path.join(outdir, "pooled_iat.csv"), ["queue", "iat"], iat_rows)

    widths = iat_bin_widths(config.model, block["bin_width_divisor"])
    try:
        fit = geometric_fit_table([result.iat_samples], widths)
    except ContractViolation as exc:  # a divisor so large that a sample has no finite bin
        raise ConfigError(f"{config.anchors[('simulate', 'bin_width_divisor')]}: {exc}") from None
    fit_rows = [
        [row.queue, row.samples, row.bin_width, row.p_hat, row.divergence]
        for row in fit
    ]
    _write_csv(os.path.join(outdir, "iat_fit.csv"),
               ["queue", "samples", "bin_width", "p_hat", "kld"], fit_rows)

    if block["write_traces"]:
        labels = _state_labels(space)
        for i, (trace, _) in enumerate(logged_rounds(sim, block["rounds"], space)):
            rows = [
                [t, kind, slice_type, request_id, labels[index],
                 " ".join(str(v) for v in queues)]
                for t, kind, slice_type, request_id, index, queues in trace.events
            ]
            _write_csv(os.path.join(outdir, f"trace_round_{i}.csv"),
                       ["time", "event", "type", "request_id", "s", "queue_lengths"],
                       rows)


def _law_table(block: dict) -> tuple[list[str], list[list]]:
    """The header and rows of ``analysis.csv`` for the law an ``analyze`` block names."""
    law = block["law"]
    if law == "mm1-pmf":
        rho = block["arrival_rate"] / block["acceptance_rate"]
        return ["length", "probability"], [[l, mm1_queue_pmf(rho, l)]
                                           for l in range(block["max_length"] + 1)]
    params = QueueParams(
        arrival_rate=block["arrival_rate"],
        acceptance_rate=block["acceptance_rate"],
        reneging_rate=block["reneging_rate"],
        balking_willingness=block["balking_willingness"],
    )
    if law == "impatient-pmf":
        table = impatient_queue_pmf_table(params)
        return ["length", "probability"], [[l, p] for l, p in
                                           enumerate(table[: block["max_length"] + 1])]
    if law == "wait-densities":
        dists = wait_distributions(params)
        rows = []
        steps = int(round(block["wait_stop"] / block["wait_step"]))
        for k in range(steps + 1):
            w = k * block["wait_step"]
            rows.append([w, dists.accepted(w), dists.reneged(w), dists.joined(w)])
        return ["wait", "f_accepted", "f_reneged", "f_joined"], rows
    if law == "wait-means":
        means = wait_means(params)
        return (["mean_wait_accepted", "mean_wait_reneged", "mean_wait_joined",
                 "joined_identity"],
                [[means.accepted, means.reneged, means.joined, means.joined]])
    probs = acceptance_probabilities(params)  # acceptance-probabilities
    return (["p_accept", "p_accept_and_join", "p_accept_given_join"],
            [[probs.accept, probs.accept_and_join, probs.accept_given_join]])


def _cmd_analyze(config: ExperimentConfig, outdir: str) -> None:
    try:
        header, rows = _law_table(config.block("analyze"))
    except NumericError as exc:  # rates that pass every check can still overflow a series
        raise ConfigError(f"{config.anchors[('analyze', 'law')]}: {exc}") from None
    _write_csv(os.path.join(outdir, "analysis.csv"), header, rows)


def _read_samples(path: str, column: str) -> list[float]:
    rows = [row for row in csv.reader(read_text(path, "samples").splitlines()) if row]
    if not rows:
        raise SliceSimError(f"no data in {path!r}")
    try:
        float(rows[0][0])
        index, start = 0, 0
    except ValueError:
        if column not in rows[0]:
            raise SliceSimError(f"{path!r} has no column {column!r}") from None
        index, start = rows[0].index(column), 1
    samples = []
    for number, row in enumerate(rows[start:], start=start + 1):
        try:
            value = float(row[index])
        except (IndexError, ValueError):
            value = math.nan
        if not (math.isfinite(value) and value >= 0.0):
            raise SliceSimError(f"{path!r} row {number}: expected a finite non-negative "
                                f"number in column {index + 1}, got {row!r}")
        samples.append(value)
    return samples


def _cmd_fit_iat(config: ExperimentConfig, outdir: str) -> None:
    block = config.block("fit_iat")
    path = os.path.join(os.path.dirname(config.source) or ".", block["samples"])
    samples = _read_samples(path, block["column"])
    width = block["bin_width"] or default_bin_width(config.model)
    try:
        pmf = empirical_pmf(samples, width)
    except ContractViolation as exc:  # no samples, or one past every bin of this width
        raise SliceSimError(f"{path!r}: {exc}") from None
    p_hat = fit_geometric(pmf)
    divergence = kld_vs_geometric(pmf, p_hat)
    rows = [
        [k, c / pmf.total, (1 - p_hat) ** k * p_hat]
        for k, c in pmf.counts
    ]
    _write_csv(os.path.join(outdir, "iat_fit.csv"),
               ["bin", "empirical", "fitted"], rows)
    summary = {"samples": pmf.total, "bin_width": width, "p_hat": p_hat,
               "kld": divergence}
    _write_json(os.path.join(outdir, "fit_summary.json"), summary)
    print(f"fitted p={p_hat!r} kld={divergence!r} over {pmf.total} samples")


def _cmd_steady_state(config: ExperimentConfig, outdir: str) -> dict:
    block, space, strategy = _with_strategy(config, "steady_state", "strategy")
    probs = block["queue_empty_probs"]
    if isinstance(probs, dict):
        sim_spec = probs["from_simulation"]
        sim = _sim_config(config, sim_spec, strategy, initial_state="full")
        rounds = logged_rounds(sim, sim_spec["rounds"], space)
        probs = list(queue_empty_counts((trace for trace, _ in rounds), space,
                                        strategy).empty_probs)
    try:
        estimate = strategy_steady_state(
            config.model, space, strategy, probs, mode=block["mode"],
            opportunity_rate=block["opportunity_rate"],
            p_init=block["initial_distribution"],
        )
    except ContractViolation as exc:  # the config checked every input: a large rate cancels
        anchor = config.anchors[("steady_state", "opportunity_rate")]
        raise ConfigError(f"{anchor}: {exc}") from None
    _write_csv(os.path.join(outdir, "distribution.csv"), ["index", "state", "probability"],
               zip(range(len(space)), _state_labels(space),
                   estimate.distribution.probabilities.tolist()))
    est_rows = [
        [n + 1, probs[n], estimate.acceptance_rates[n],
         estimate.mean_active_slices[n]]
        for n in range(config.model.num_types)
    ]
    _write_csv(os.path.join(outdir, "estimates.csv"),
               ["type", "queue_empty_prob", "acceptance_rate", "mean_active"],
               est_rows)
    print(f"mean utility rate estimate: {estimate.utility_rate!r} "
          f"(converged={estimate.distribution.converged})")
    return {"converged": estimate.distribution.converged,
            "utility_rate": estimate.utility_rate, "queue_empty_probs": list(probs)}


_SCORE_COLUMNS = ["u_mean", "u_ci", "Wq_mean", "Wq_ci", "PA_mean", "PA_ci"]


def _score_cells(score) -> list:
    return [score.utility_mean, score.utility_halfwidth,
            score.wait_mean, score.wait_halfwidth,
            score.admission_mean, score.admission_halfwidth]


def _cmd_sweep(config: ExperimentConfig, outdir: str) -> None:
    block = config.block("sweep")
    space = _state_space(config)
    sim = _sim_config(config, block)
    tapes: dict = {}  # the random strategies and the baselines replay the same rounds
    entries = random_sweep(config.model, block["count"], config.seed, sim,
                           block["rounds"], space, tapes)
    rows = [
        [e.index, e.strategy_seed] + _score_cells(e.score)
        for e in entries
    ]
    _write_csv(os.path.join(outdir, "sweep.csv"),
               ["index", "seed"] + _SCORE_COLUMNS, rows)

    baselines = []  # (label, strategy); the greedy single queue runs without one
    if block["include_naive"]:
        kinds = [f"prefer-type-{n}" for n in range(1, config.model.num_types + 1)]
        baselines += [(kind, naive_strategy(space, kind)) for kind in kinds]
    if block["include_greedy_baseline"]:
        baselines.append((GREEDY_SINGLE_QUEUE, None))
    baseline_rows = [
        [label] + _score_cells(evaluate_strategy(config.model, strategy, sim, block["rounds"],
                                                 space, label=label, tapes=tapes))
        for label, strategy in baselines
    ]
    if baseline_rows:
        _write_csv(os.path.join(outdir, "baselines.csv"),
                   ["label"] + _SCORE_COLUMNS, baseline_rows)
    best = max(entries, key=lambda e: e.score.admission_mean)
    print(f"swept {len(entries)} strategies; "
          f"best admission {best.score.admission_mean!r} at index {best.index}")


def _cmd_optimize(config: ExperimentConfig, outdir: str) -> None:
    block, space, start = _with_strategy(config, "optimize", "start")
    sim = _sim_config(config, block)
    trajectory = local_search(config.model, start, block["budget"], sim,
                              block["rounds"], metric=block["metric"], space=space)
    rows = [
        [step.evaluations] + _score_cells(step.score)
        for step in trajectory
    ]
    _write_csv(os.path.join(outdir, "trajectory.csv"),
               ["evaluations"] + _SCORE_COLUMNS, rows)
    with open(os.path.join(outdir, "best_strategy.txt"), "w", encoding="utf-8") as fh:
        fh.write(to_text(trajectory[-1].strategy))
    print(f"best {block['metric']}: {trajectory[-1].score.metric(block['metric'])!r} "
          f"after {trajectory[-1].evaluations} evaluations")


def _cmd_casestudy(config: ExperimentConfig | None, outdir: str) -> None:
    rows = case_study_rows()
    _write_csv(os.path.join(outdir, "casestudy.csv"),
               ["panel", "time", "event", "type", "request_id", "s", "queue_lengths"],
               [list(row) for row in rows])
    print(render_case_study(rows), end="")


# Each command writes its artifacts and returns the fields it adds to run_meta.json.
_COMMANDS = {"simulate": _cmd_simulate, "analyze": _cmd_analyze, "fit-iat": _cmd_fit_iat,
             "steady-state": _cmd_steady_state, "sweep": _cmd_sweep,
             "optimize": _cmd_optimize, "casestudy": _cmd_casestudy}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slicesim",
        description="Multi-queue slice admission control: simulation, "
                    "closed-form analytics, and strategy evaluation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="experiment configuration file (YAML)",
                       required=name != "casestudy")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--out", help="output directory (default from config or "
                                     f"${OUTPUT_ROOT_ENV})")
        p.add_argument("--rounds", type=int, help="override Monte-Carlo rounds")
        p.add_argument("--horizon", type=float, help="override the time horizon")
        p.add_argument("--scenario", help="override the built-in scenario name")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command
    flags = {key: getattr(args, key) for key in ("scenario", "seed", "rounds", "horizon")}
    given = [key for key, value in flags.items() if value is not None]
    try:
        config = None if args.config is None else load_config(args.config, command, **flags)
        if config is None and given:  # only casestudy runs without a configuration
            raise SliceSimError(f"--{given[0]}: {command} without --config takes no --{given[0]}")
        outdir = args.out or (config.output_dir if config else
                              os.environ.get(OUTPUT_ROOT_ENV, "."))
        try:
            os.makedirs(outdir, exist_ok=True)
        except OSError as exc:
            raise SliceSimError(f"cannot create output directory {outdir!r}: {exc}") from None
        extra = _COMMANDS[command](config, outdir)
        if config is not None:
            _write_json(os.path.join(outdir, "run_meta.json"), {
                "command": command,
                "config": config.raw,
                "scenario": config.scenario,
                "seed": config.seed,
                "version": __version__,
                "rng": RNG_METADATA,
                **(extra or {}),
            })
        return 0
    except SliceSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
