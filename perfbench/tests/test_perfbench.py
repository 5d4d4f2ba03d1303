"""The benchmark's own checks, on tiny versions of its four workloads.

    python -m pytest perfbench/tests -q
"""

import csv
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from perfbench import harness, speed, tracing, workloads
from slicesim import cli, engine, experiments, markov, statfit

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SCENARIO_2_TYPES = """
    - {cost: [0.01, 0.05], arrival_rate: 6.0, mean_lifetime: 5.0,
       utility_rate: 1.0, reneging_rate: %s, balking_willingness: 0.02}
    - {cost: [0.2, 0.04], arrival_rate: 1.5, mean_lifetime: 2.0,
       utility_rate: 10.0, reneging_rate: %s, balking_willingness: 0.02}
"""

TINY = {
    "sweep-s2": """
seed: 1234
scenario: paper-scenario-2
sweep: {count: 2, rounds: 2, horizon: 5.0, balking: true, reneging: true,
        initial_state: full}
""",
    "backlog-renege": """
seed: 1234
model:
  resources: [1.0, 1.0]
  slice_types:""" + SCENARIO_2_TYPES % (0.05, 0.05) + """
simulate: {rounds: 2, horizon: 30.0, balking: false, reneging: true,
           initial_state: full, strategy: {prefer_type: 1}}
""",
    "chain-s2x3": """
seed: 1234
model:
  resources: [1.0, 1.0]
  slice_types:""" + SCENARIO_2_TYPES % (1.0, 1.0) + """
steady_state: {queue_empty_probs: [0.2, 0.8], mode: with-releases,
               initial_distribution: full}
""",
    "fine-grid": """
seed: 1234
model:
  resources: [1.0]
  slice_types:
    - {cost: [0.05], arrival_rate: 4.0, release_rate: 0.2, utility_rate: 1.0,
       reneging_rate: 1.0, balking_willingness: 0.02}
    - {cost: [0.05], arrival_rate: 1.0, release_rate: 0.5, utility_rate: 10.0,
       reneging_rate: 1.0, balking_willingness: 0.02}
simulate: {rounds: 2, horizon: 5.0, balking: true, reneging: true,
           initial_state: full, strategy: {random_seed: 7}}
""",
}


@pytest.fixture
def tiny(tmp_path):
    """Path of a tiny configuration for a workload."""
    def path(name):
        target = tmp_path / f"{name}.yaml"
        target.write_text(TINY[name], encoding="utf-8")
        return str(target)
    return path


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return ({m["name"] for m in spec["end_to_end"]}, {m["name"] for m in spec["per_layer"]},
            {w["name"] for w in spec["workloads"]})


def test_workloads_match_declaration():
    assert _declared()[2] == set(workloads.KINDS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_is_emitted_and_held_out_seed_passes(name, tiny):
    end_to_end, per_layer, _ = _declared()
    for trace, declared in ((False, end_to_end), (True, per_layer)):
        result, details = harness.measure(name, harness.HELD_OUT_SEED, 0.01, trace,
                                          config_path=tiny(name))
        assert set(result["metrics"]) == declared
        assert result["correct"] and result["failed"] == 0, details["failures"]
        assert result["attempted"] >= 1
        assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
    if name != "chain-s2x3":
        assert all(result["metrics"][k]["value"] == 0 for k in declared if k.startswith("markov."))


def test_full_size_reference_passes_on_master_seed():
    workload = workloads.make("backlog-renege")
    tally = harness.Tally(harness.load_reference("backlog-renege"))
    tally.add(harness.run_pass(workload, harness.MASTER_SEED))
    assert tally.attempted == workload.expected_ops and tally.failed == 0, tally.messages


def test_costly_setup_repeats_main_on_pristine_copies(monkeypatch, tiny):
    workload = workloads.make("backlog-renege", tiny("backlog-renege"))
    setup = workload.setup

    def slow_setup(seed):
        time.sleep(0.2)
        return setup(seed)

    monkeypatch.setattr(workload, "setup", slow_setup)
    tally = harness.Tally(None)
    passes = harness._passes(workload, 1, 0.5, 3, tally)
    assert passes[0].setup_s is not None and passes[1].setup_s is None
    assert tally.failed == 0 and tally.attempted == len(passes) * workload.expected_ops
    assert all(p.kernels is not None and p.pristine is None for p in passes)


def test_normalised_time_scales_with_the_kernel():
    assert speed.normalise(2.0, speed.NOMINAL_KERNEL_S, speed.NOMINAL_KERNEL_S) == 2.0
    assert speed.normalise(2.0, speed.NOMINAL_KERNEL_S, 3 * speed.NOMINAL_KERNEL_S) == 1.0
    assert speed.kernel_s() > 0


def _bump_counts(monkeypatch, conserving):
    original = engine.overall_metrics

    def bumped(trace, seed=0):
        report = original(trace, seed)
        plus = lambda counts: (counts[0] + 1,) + counts[1:]
        changes = {"arrivals": plus(report.arrivals)}
        if conserving:
            changes.update(joined=plus(report.joined), accepted=plus(report.accepted))
        return dataclasses.replace(report, **changes)

    monkeypatch.setattr(engine, "overall_metrics", bumped)


def test_broken_conservation_fails_ops(monkeypatch, tiny):
    _bump_counts(monkeypatch, conserving=False)
    result, details = harness.measure("backlog-renege", 1, 0.01, False,
                                      config_path=tiny("backlog-renege"))
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert "arrivals != joined + balked" in details["failures"][0]


def _reference(workload):
    clean = harness.run_pass(workload, harness.MASTER_SEED).output
    return {"seed": harness.MASTER_SEED, "ops": [op.to_json() for op in clean.ops],
            "groups": [g.to_json() for g in clean.groups]}


def test_count_off_the_reference_fails_ops(monkeypatch, tiny):
    workload = workloads.make("sweep-s2", tiny("sweep-s2"))
    tally = harness.Tally(_reference(workload))
    _bump_counts(monkeypatch, conserving=True)
    tally.add(harness.run_pass(workload, harness.MASTER_SEED))
    assert tally.failed == tally.attempted == workload.expected_ops
    assert "differ from reference" in tally.messages[0]


def test_summary_off_the_reference_fails_its_ops(monkeypatch, tiny):
    workload = workloads.make("backlog-renege", tiny("backlog-renege"))
    tally = harness.Tally(_reference(workload))
    original = experiments.fit_geometric
    monkeypatch.setattr(experiments, "fit_geometric", lambda pmf: original(pmf) * (1 + 1e-9))
    tally.add(harness.run_pass(workload, harness.MASTER_SEED))
    assert tally.failed == tally.attempted == workload.expected_ops
    assert "summary floats differ" in tally.messages[0]


def test_perturbed_distribution_fails_ops(monkeypatch, tiny):
    original = markov.long_term_distribution

    def perturbed(*args, **kwargs):
        dist = original(*args, **kwargs)
        p = dist.probabilities.copy()
        top = int(np.argmax(p))
        p[top] -= 1e-3
        p[(top + 1) % len(p)] += 1e-3
        return markov.StateDistribution(p, dist.initial, dist.converged)

    monkeypatch.setattr(markov, "long_term_distribution", perturbed)
    result, details = harness.measure("chain-s2x3", 1, 0.01, False,
                                      config_path=tiny("chain-s2x3"))
    assert result["failed"] == result["attempted"]
    assert "residual" in details["failures"][0]


def test_missing_target_is_reported_not_failed(monkeypatch, tiny):
    # experiments keeps its own binding, so the program still runs.
    monkeypatch.delattr(statfit, "fit_geometric")
    result, details = harness.measure("backlog-renege", 1, 0.01, True,
                                      config_path=tiny("backlog-renege"))
    assert result["correct"]
    assert details["missing_metrics"] == ["statfit.fit_s"]
    assert "statfit.fit_s" not in result["metrics"]


def test_tracer_restores_the_program():
    before = (engine.run, markov.long_term_distribution,
              vars(cli)["monte_carlo"], engine.MultiQueueController.serve_queues)
    with tracing.Tracer() as tracer:
        assert engine.run is not before[0]
        assert vars(cli)["monte_carlo"] is engine.monte_carlo
    after = (engine.run, markov.long_term_distribution,
             vars(cli)["monte_carlo"], engine.MultiQueueController.serve_queues)
    assert after == before and not tracer.missing_spans


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def test_sweep_numbers_equal_the_cli_csv(tiny, tmp_path):
    config = tiny("sweep-s2")
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", config, "--out", str(out), "--seed", "77"]) == 0
    workload = workloads.make("sweep-s2", config)
    groups = workload.main(workload.setup(77)).groups
    rows = _read_csv(out / "sweep.csv")[1:] + _read_csv(out / "baselines.csv")[1:]
    assert len(rows) == len(groups)
    for row, group in zip(rows, groups):
        if row[0].isdigit():
            assert (f"random-{row[0]}", int(row[1])) == (group.label, group.ints[0])
            row = row[1:]
        else:
            assert row[0] == group.label
        assert [float(v) for v in row[1:]] == list(group.floats)


def test_simulate_numbers_equal_the_cli_csv(tiny, tmp_path):
    config = tiny("backlog-renege")
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", config, "--out", str(out), "--seed", "77"]) == 0
    workload = workloads.make("backlog-renege", config)
    output = workload.main(workload.setup(77))
    rows = _read_csv(out / "metrics.csv")
    header, rounds = rows[0], rows[1:-1]  # the last row is the mean
    assert len(rounds) == len(output.ops)
    for row, op in zip(rounds, output.ops):
        cell = dict(zip(header, row))
        n_types = len(op.counts["arrivals"])
        assert int(cell["seed"]) == op.seed
        assert [float(cell[k]) for k in ("utility_rate", "wait", "admission_rate")] == list(op.floats[:3])
        for n in range(n_types):
            assert float(cell[f"acceptance_rate_{n + 1}"]) == op.floats[3 + n]
            assert float(cell[f"queue_length_{n + 1}"]) == op.floats[3 + n_types + n]
            assert float(cell[f"wait_{n + 1}"]) == op.floats[3 + 2 * n_types + n]
            for column, field in (("arrivals", "arrivals"), ("accepted", "accepted"),
                                  ("balked", "balked"), ("reneged", "reneged"),
                                  ("waiting", "still_waiting")):
                assert int(cell[f"{column}_{n + 1}"]) == op.counts[field][n]
    fit = _read_csv(out / "iat_fit.csv")[1:]
    (group,) = output.groups
    assert [int(v) for row in fit for v in row[:2]] == list(group.ints)
    assert [float(v) for row in fit for v in row[2:]] == list(group.floats)


def test_run_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-s2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert done.returncode != 0
    assert done.stdout.strip() == ""
