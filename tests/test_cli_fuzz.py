"""Seeded schema fuzzing of the command line: every input ends in a value or a located error.

Each case starts from a valid configuration: a two-type ``model`` and one
block for ``simulate``, ``analyze``, ``steady-state`` (with a list of
queue-empty probabilities, or with ``from_simulation``), ``sweep`` or
``optimize``.  It replaces one or two leaf values with values from ``POOL``
and runs ``cli.main`` in-process.  The run must exit 0, or exit 1 with
exactly one ``error: `` line that names the configuration file or a
``--flag``; no other exception may leave ``main``.

The generator, not the program, keeps each case cheap: the keys in
``SIZE_KEYS`` (round and strategy counts, horizons, the analytic table's
length and the wait grid) take only the pool's values of magnitude at most
``SMALL``, so that no valid case asks for much work.
"""

from __future__ import annotations

import math
import random
import re

import pytest
import yaml

from slicesim.cli import main

POOL = (0, -1, 5e-324, 1e-300, 1e300, 1.7e308, math.inf, math.nan, 2**63, True, False,
        None, "", [], [1.0], {}, {"x": 1}, [0.0, 0.0])

SIZE_KEYS = {"rounds", "count", "budget", "horizon", "max_length", "wait_stop", "wait_step"}
SMALL = 1e3

MODEL = {
    "resources": [1.0],
    "slice_types": [
        {"cost": [0.3], "arrival_rate": 1.0, "release_rate": 1.0, "utility_rate": 2.0,
         "reneging_rate": 0.5, "balking_willingness": 0.5},
        {"cost": [0.2], "arrival_rate": 0.5, "mean_lifetime": 2.0, "utility_rate": 1.0},
    ],
}


def _base(command: str, rng: random.Random) -> dict:
    """A valid configuration that runs ``command`` on ``MODEL``."""
    rounds = {"rounds": 2, "horizon": 5.0, "balking": True, "reneging": True}
    if command == "simulate":
        block = {**rounds, "warmup": 1.0, "initial_state": "full", "bin_width_divisor": 4.0,
                 "strategy": {"prefer_type": 2}}
    elif command == "analyze":
        block = {"law": rng.choice(["mm1-pmf", "impatient-pmf", "wait-densities",
                                    "wait-means", "acceptance-probabilities"]),
                 "arrival_rate": 1.0, "acceptance_rate": 2.0, "reneging_rate": 1.0,
                 "balking_willingness": 0.5, "max_length": 10, "wait_stop": 2.0,
                 "wait_step": 0.5}
    elif command == "steady_state":
        probs = ([0.3, 0.6] if rng.random() < 0.5
                 else {"from_simulation": {**rounds, "horizon": 10.0}})
        block = {"strategy": {"random_seed": 4}, "queue_empty_probs": probs,
                 "initial_distribution": "full", "opportunity_rate": 3.0}
    elif command == "sweep":
        block = {**rounds, "count": 2, "initial_state": "empty"}
    else:
        block = {**rounds, "start": {"prefer_type": 1}, "budget": 2, "metric": "wait"}
    return {"seed": 3, "model": MODEL, command: block}


def _leaves(node, path=()):
    """The path of every scalar below ``node``."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,))
    else:
        yield path


def _replaced(node, path, value):
    """A copy of ``node`` with the value at ``path`` replaced."""
    if not path:
        return value
    head, rest = path[0], path[1:]
    if isinstance(node, dict):
        return {**node, head: _replaced(node[head], rest, value)}
    return [_replaced(v, rest, value) if i == head else v for i, v in enumerate(node)]


def _small(value) -> bool:
    return not (isinstance(value, (int, float)) and abs(value) > SMALL)


def mutated_cases(seed: int, count: int):
    """``count`` (command, configuration text) pairs, each with one or two leaves replaced."""
    rng = random.Random(seed)
    commands = ["simulate", "analyze", "steady_state", "sweep", "optimize"]
    for _ in range(count):
        command = rng.choice(commands)
        doc = _base(command, rng)
        leaves = list(_leaves(doc))
        for path in rng.sample(leaves, rng.choice((1, 2))):
            pool = [v for v in POOL if path[-1] not in SIZE_KEYS or _small(v)]
            doc = _replaced(doc, path, rng.choice(pool))
        yield command.replace("_", "-"), yaml.safe_dump(doc, sort_keys=False)


def _check_case(command: str, text: str, tmp_path, capsys) -> int:
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text, encoding="utf-8")
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    if code == 0:
        assert err == "", f"{command} exited 0 with {err!r} on:\n{text}"
    else:
        located = rf"error: (?:{re.escape(str(cfg))}(?::\d+)?|--[a-z-]+): [^\n]*\n"
        assert code == 1 and re.fullmatch(located, err), (
            f"{command} exited {code} with {err!r} on:\n{text}")
    return code


@pytest.mark.parametrize("seed", [0, 1])
def test_mutated_configs_end_in_values_or_a_located_error(seed, tmp_path, capsys):
    codes = [_check_case(command, text, tmp_path, capsys)
             for command, text in mutated_cases(seed, 500)]
    assert 0 < codes.count(0) < len(codes)  # both outcomes are reached
