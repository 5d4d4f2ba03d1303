"""Golden outputs of seeded simulation runs.

Pins what ``engine.run``, ``engine.monte_carlo`` and
``casestudy.case_study_rows`` produce for fixed seeds, on both built-in
scenarios, both controllers, with impatience on and off and a
warm-up window.  Event logs, acceptance times and integer
counts must match exactly; float accumulators and metrics must match within
1e-12 relative.

The fixture is rewritten only when a change is meant to alter seeded
outputs, by running this module as a script from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import os

import pytest

from slicesim.casestudy import case_study_rows
from slicesim.config import builtin_scenario
from slicesim.engine import (
    SimConfig,
    logged_rounds,
    monte_carlo,
    queue_empty_counts,
)
from slicesim.slice_model import enumerate_state_space
from slicesim.strategy import naive_strategy, random_strategy

from oracles import run_round

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_outputs.json")
REL_TOL = 1e-12
HORIZON, WARMUP = 20.0, 4.0

COUNT_FIELDS = (
    "arrivals", "joined", "balked", "accepted", "reneged", "wait_count",
    "total_arrivals", "total_joined", "total_balked", "total_accepted",
    "total_reneged", "final_queue_lengths",
)
FLOAT_FIELDS = ("slice_time", "queue_time", "wait_sum")


def _run_configs():
    """Name -> (config, space) for every pinned single run."""
    configs = {}
    for scenario in ("paper-scenario-1", "paper-scenario-2"):
        model = builtin_scenario(scenario)
        space = enumerate_state_space(model)
        for discipline in ("multi-queue", "greedy-single-queue"):
            for impatient in (False, True):
                for seed in (3, 11):
                    strategy = None  # the greedy single queue
                    if discipline == "multi-queue":
                        strategy = (naive_strategy(space, "prefer-type-2") if seed == 3
                                    else random_strategy(space, seed))
                    name = (f"{scenario}/{discipline}/"
                            f"{'impatient' if impatient else 'patient'}/seed-{seed}")
                    configs[name] = (SimConfig(
                        model=model, strategy=strategy, horizon=HORIZON,
                        warmup=WARMUP, seed=seed, initial_state="full",
                        balking=impatient, reneging=impatient,
                    ), space)
    return configs


def _run_snapshot(config, space):
    trace, report = run_round(config, space)
    exact = {  # the log's states as slice counts, as the fixture holds them
        "events": [(t, kind, slice_type, request_id, space.state_at(index), lengths)
                   for t, kind, slice_type, request_id, index, lengths in trace.events],
        "accept_times": trace.accept_times,
    }
    # the queue-empty counts, pinned under the names of the trace and report fields they once were
    counts = queue_empty_counts([trace], space, config.strategy)._asdict()
    exact.update((name, getattr(trace, name)) for name in COUNT_FIELDS)
    exact.update(counts)
    floats = {name: getattr(trace, name) for name in FLOAT_FIELDS}
    floats["state_time"] = sorted(trace.state_time.items())
    floats["report"] = {**dataclasses.asdict(report), **counts}
    return {"exact": exact, "floats": floats}


def _monte_carlo_snapshot():
    model = builtin_scenario("paper-scenario-2")
    space = enumerate_state_space(model)
    config = SimConfig(model=model, strategy=random_strategy(space, 5), horizon=HORIZON,
                       warmup=WARMUP, seed=99, initial_state="full",
                       balking=True, reneging=True)
    result = monte_carlo(config, rounds=3, space=space)
    # each report with its round's queue-empty counts, from the same rounds logged
    reports = []
    for report, (trace, logged) in zip(result.reports, logged_rounds(config, 3, space)):
        assert logged == report
        reports.append({**dataclasses.asdict(report),
                        **queue_empty_counts([trace], space, config.strategy)._asdict()})
    return {"exact": {},
            "floats": {"reports": reports, "iat_samples": result.iat_samples}}


def _snapshots():
    """Every pinned output, as the JSON round trip of the fixture would give it."""
    out = {name: lambda c=config, s=space: _run_snapshot(c, s)
           for name, (config, space) in _run_configs().items()}
    out["monte-carlo/paper-scenario-2"] = _monte_carlo_snapshot
    out["case-study"] = lambda: {"exact": {"rows": case_study_rows()}, "floats": {}}
    return out


SNAPSHOTS = _snapshots()


def _normalise(value):
    return json.loads(json.dumps(value))


def _assert_close(expected, actual, where):
    if isinstance(expected, float) and isinstance(actual, float):
        assert math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=0.0), (
            f"{where}: {actual!r} != {expected!r}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for i, (e, a) in enumerate(zip(expected, actual)):
            _assert_close(e, a, f"{where}[{i}]")
    elif isinstance(expected, dict):
        assert isinstance(actual, dict) and actual.keys() == expected.keys(), where
        for key in expected:
            _assert_close(expected[key], actual[key], f"{where}.{key}")
    else:
        assert actual == expected, f"{where}: {actual!r} != {expected!r}"


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(SNAPSHOTS)


@pytest.mark.parametrize("name", sorted(SNAPSHOTS))
def test_seeded_output_matches_golden(golden, name):
    expected = golden[name]
    actual = _normalise(SNAPSHOTS[name]())
    for key, value in expected["exact"].items():
        assert actual["exact"][key] == value, f"{name}: {key} differs"
    assert actual["exact"].keys() == expected["exact"].keys()
    _assert_close(expected["floats"], actual["floats"], name)


if __name__ == "__main__":
    data = {name: _normalise(snapshot()) for name, snapshot in SNAPSHOTS.items()}
    with open(FIXTURE, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(data, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {len(data)} cases to {FIXTURE}")
