"""Experiment configuration files.

Configs are YAML: top-level keys pick the model (a named built-in scenario or
an explicit ``model`` block), the master seed and output directory, plus one
block per command.  Validation is strict: unknown keys anywhere are rejected,
and messages carry the line of the offending key.  Two reference workloads
ship built in ("paper-scenario-1" and "paper-scenario-2": a two-resource pool
with a cheap low-utility type and an expensive high-utility type at moderate
and dense demand).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Any

import yaml

from .errors import ConfigError
from .slice_model import ResourceModel, SliceType
from .strategy import PreferenceMatrix, from_text, naive_strategy, random_strategy
from .slice_model import StateSpace

OUTPUT_ROOT_ENV = "SLICESIM_OUTPUT_ROOT"

SCENARIO_ALIASES = {
    "scenario-1": "paper-scenario-1",
    "scenario-2": "paper-scenario-2",
}

_SCENARIO_ARRIVALS = {
    "paper-scenario-1": (2.0, 0.5),
    "paper-scenario-2": (6.0, 1.5),
}


def builtin_scenario(name: str) -> ResourceModel:
    """The two built-in reference workloads."""
    canonical = SCENARIO_ALIASES.get(name, name)
    if canonical not in _SCENARIO_ARRIVALS:
        known = sorted(set(_SCENARIO_ARRIVALS) | set(SCENARIO_ALIASES))
        raise ConfigError(f"unknown scenario {name!r}; known: {', '.join(known)}")
    lam = _SCENARIO_ARRIVALS[canonical]
    return ResourceModel(
        pool=(1.0, 1.0),
        costs=((0.01, 0.05), (0.2, 0.04)),
        types=(
            SliceType(arrival_rate=lam[0], release_rate=1 / 5.0, utility_rate=1.0,
                      reneging_rate=1.0, balking_willingness=0.02),
            SliceType(arrival_rate=lam[1], release_rate=1 / 2.0, utility_rate=10.0,
                      reneging_rate=1.0, balking_willingness=0.02),
        ),
    )


COMMAND_BLOCKS = ("simulate", "analyze", "fit_iat", "steady_state", "sweep",
                  "optimize", "casestudy")

_TOP_KEYS = {"seed", "output_dir", "scenario", "model", *COMMAND_BLOCKS}

_MODEL_KEYS = {"resources", "slice_types"}
_TYPE_KEYS = {"cost", "arrival_rate", "release_rate", "mean_lifetime",
              "utility_rate", "reneging_rate", "balking_willingness"}
_STRATEGY_KEYS = {"prefer_type", "random_seed", "file", "columns"}

_BLOCK_KEYS = {
    "simulate": {"rounds", "horizon", "warmup", "balking", "reneging",
                 "initial_state", "strategy", "write_traces", "bin_width_divisor"},
    "analyze": {"law", "arrival_rate", "acceptance_rate", "reneging_rate",
                "balking_willingness", "max_length", "wait_stop", "wait_step"},
    "fit_iat": {"samples", "column", "bin_width"},
    "steady_state": {"strategy", "queue_empty_probs", "mode",
                     "initial_distribution", "opportunity_rate"},
    "sweep": {"count", "rounds", "horizon", "balking", "reneging",
              "initial_state", "include_greedy_baseline", "include_naive"},
    "optimize": {"start", "budget", "metric", "rounds", "horizon",
                 "balking", "reneging", "initial_state"},
    "casestudy": set(),
}

_ANALYZE_LAWS = ("mm1-pmf", "impatient-pmf", "wait-densities", "wait-means",
                 "acceptance-probabilities")


class _Lines:
    """Line numbers of every mapping key in the parsed document."""

    def __init__(self, text: str) -> None:
        self.by_path: dict[tuple, int] = {}
        node = yaml.compose(text)
        if node is not None:
            self._walk(node, ())

    def _walk(self, node: yaml.Node, path: tuple) -> None:
        if isinstance(node, yaml.MappingNode):
            for key_node, value_node in node.value:
                key_path = path + (key_node.value,)
                self.by_path[key_path] = key_node.start_mark.line + 1
                self._walk(value_node, key_path)
        elif isinstance(node, yaml.SequenceNode):
            for i, item in enumerate(node.value):
                self._walk(item, path + (i,))

    def line(self, path: tuple) -> int | None:
        while path:
            if path in self.by_path:
                return self.by_path[path]
            path = path[:-1]
        return None


class _Checker:
    def __init__(self, source: str, lines: _Lines) -> None:
        self.source = source
        self.lines = lines

    def fail(self, path: tuple, message: str) -> None:
        line = self.lines.line(path)
        anchor = f"{self.source}:{line}" if line else self.source
        raise ConfigError(f"{anchor}: {message}")

    def mapping(self, value: Any, path: tuple, allowed: set[str]) -> dict:
        if value is None:
            return {}
        if not isinstance(value, dict):
            self.fail(path, f"expected a mapping for {'.'.join(map(str, path)) or 'document'}")
        for key in value:
            if key not in allowed:
                self.fail(path + (key,), f"unknown key {key!r}")
        return value

    def number(self, value: Any, path: tuple, minimum=None, strict=False,
               maximum=None) -> float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            self.fail(path, f"expected a number, got {value!r}")
        v = float(value)
        if not math.isfinite(v):
            self.fail(path, f"expected a finite number, got {value}")
        if minimum is not None and (v <= minimum if strict else v < minimum):
            op = ">" if strict else ">="
            self.fail(path, f"must be {op} {minimum}, got {value}")
        if maximum is not None and v > maximum:
            self.fail(path, f"must be <= {maximum}, got {value}")
        return v

    def integer(self, value: Any, path: tuple, minimum=None) -> int:
        if not isinstance(value, int) or isinstance(value, bool):
            self.fail(path, f"expected an integer, got {value!r}")
        if minimum is not None and value < minimum:
            self.fail(path, f"must be >= {minimum}, got {value}")
        return value

    def boolean(self, value: Any, path: tuple) -> bool:
        if not isinstance(value, bool):
            self.fail(path, f"expected true/false, got {value!r}")
        return value

    def string(self, value: Any, path: tuple, choices=None) -> str:
        if not isinstance(value, str):
            self.fail(path, f"expected a string, got {value!r}")
        if choices is not None and value not in choices:
            self.fail(path, f"must be one of {', '.join(choices)}; got {value!r}")
        return value


@dataclass
class ExperimentConfig:
    """A validated configuration: model, seed, output directory, command blocks."""

    source: str
    seed: int
    output_dir: str
    model: ResourceModel
    scenario: str | None
    blocks: dict[str, dict] = field(default_factory=dict)
    raw: dict = field(default_factory=dict)

    def block(self, command: str) -> dict:
        if command not in self.blocks:
            raise ConfigError(
                f"{self.source}: no {command!r} block in the configuration"
            )
        return self.blocks[command]


def _validate_model(check: _Checker, value: Any, path: tuple) -> ResourceModel:
    block = check.mapping(value, path, _MODEL_KEYS)
    if "resources" not in block or "slice_types" not in block:
        check.fail(path, "model needs 'resources' and 'slice_types'")
    resources = block["resources"]
    if not isinstance(resources, list) or not resources:
        check.fail(path + ("resources",), "expected a non-empty list of pool sizes")
    pool = tuple(
        check.number(r, path + ("resources", i), minimum=0.0)
        for i, r in enumerate(resources)
    )
    raw_types = block["slice_types"]
    if not isinstance(raw_types, list) or not raw_types:
        check.fail(path + ("slice_types",), "expected a non-empty list of slice types")
    costs, types = [], []
    for i, raw in enumerate(raw_types):
        tpath = path + ("slice_types", i)
        t = check.mapping(raw, tpath, _TYPE_KEYS)
        if "cost" not in t:
            check.fail(tpath, "slice type needs a 'cost' bundle")
        cost = t["cost"]
        if not isinstance(cost, list) or len(cost) != len(pool):
            check.fail(tpath + ("cost",), f"cost bundle must list {len(pool)} values")
        costs.append(tuple(
            check.number(c, tpath + ("cost", m), minimum=0.0)
            for m, c in enumerate(cost)
        ))
        if ("release_rate" in t) == ("mean_lifetime" in t):
            check.fail(tpath, "give exactly one of 'release_rate' or 'mean_lifetime'")
        if "release_rate" in t:
            release = check.number(t["release_rate"], tpath + ("release_rate",),
                                   minimum=0.0, strict=True)
        else:
            release = 1.0 / check.number(t["mean_lifetime"], tpath + ("mean_lifetime",),
                                         minimum=0.0, strict=True)
        beta = t.get("balking_willingness")
        if beta is not None:
            beta = check.number(beta, tpath + ("balking_willingness",), minimum=0.0)
            if beta > 1.0:
                check.fail(tpath + ("balking_willingness",),
                           f"must lie in [0, 1], got {beta}")
        types.append(SliceType(
            arrival_rate=check.number(t.get("arrival_rate", 0.0),
                                      tpath + ("arrival_rate",), minimum=0.0),
            release_rate=release,
            utility_rate=check.number(t.get("utility_rate", 0.0),
                                      tpath + ("utility_rate",), minimum=0.0),
            reneging_rate=check.number(t.get("reneging_rate", 0.0),
                                       tpath + ("reneging_rate",), minimum=0.0),
            balking_willingness=beta,
        ))
    return ResourceModel(pool=pool, costs=tuple(costs), types=tuple(types))


def _validate_strategy_spec(check: _Checker, value: Any, path: tuple) -> dict:
    spec = check.mapping(value, path, _STRATEGY_KEYS)
    if len(spec) != 1:
        check.fail(path, "strategy needs exactly one of "
                         "'prefer_type', 'random_seed', 'file', 'columns'")
    key = next(iter(spec))
    if key == "prefer_type":
        check.integer(spec[key], path + (key,), minimum=1)
    elif key == "random_seed":
        check.integer(spec[key], path + (key,), minimum=0)
    elif key == "file":
        check.string(spec[key], path + (key,))
    elif key == "columns":
        if not isinstance(spec[key], list) or not spec[key]:
            check.fail(path + (key,), "expected a non-empty list of preference vectors")
    return spec


def build_strategy(spec: dict, space: StateSpace, base_dir: str = ".") -> PreferenceMatrix:
    """Materialize a validated strategy spec against a state space."""
    if "prefer_type" in spec:
        return naive_strategy(space, f"prefer-type-{spec['prefer_type']}")
    if "random_seed" in spec:
        return random_strategy(space, spec["random_seed"])
    if "file" in spec:
        with open(os.path.join(base_dir, spec["file"]), encoding="utf-8") as handle:
            return from_text(handle.read(), space.model.num_types, space.num_admissible)
    columns = tuple(tuple(int(v) for v in col) for col in spec["columns"])
    if len(columns) == 1:
        columns = columns * space.num_admissible
    return PreferenceMatrix(columns=columns, num_types=space.model.num_types)


def _validate_initial_state(check: _Checker, value: Any, path: tuple):
    if isinstance(value, str):
        return check.string(value, path, choices=("empty", "full"))
    if isinstance(value, list):
        return tuple(check.integer(v, path + (i,), minimum=0)
                     for i, v in enumerate(value))
    check.fail(path, "initial_state must be 'empty', 'full', or a list of counts")


def _validate_block(check: _Checker, command: str, value: Any) -> dict:
    path = (command,)
    block = dict(check.mapping(value, path, _BLOCK_KEYS[command]))
    def num(key, default, minimum=0.0, strict=False):
        if key in block:
            block[key] = check.number(block[key], path + (key,), minimum, strict)
        else:
            block[key] = default
    def integer(key, default, minimum=0):
        if key in block:
            block[key] = check.integer(block[key], path + (key,), minimum)
        else:
            block[key] = default
    def boolean(key, default):
        if key in block:
            block[key] = check.boolean(block[key], path + (key,))
        else:
            block[key] = default

    if command == "simulate":
        integer("rounds", 20, minimum=1)
        num("horizon", 40.0, minimum=0.0, strict=True)
        num("warmup", 0.0, minimum=0.0)
        if block["warmup"] >= block["horizon"]:
            check.fail(path + ("warmup",),
                       f"must be < horizon {block['horizon']}, got {block['warmup']}")
        boolean("balking", False)
        boolean("reneging", False)
        boolean("write_traces", False)
        num("bin_width_divisor", 5.0, minimum=0.0, strict=True)
        block["initial_state"] = _validate_initial_state(
            check, block.get("initial_state", "empty"), path + ("initial_state",))
        block["strategy"] = _validate_strategy_spec(
            check, block.get("strategy", {"prefer_type": 1}), path + ("strategy",))
    elif command == "analyze":
        block["law"] = check.string(block.get("law", ""), path + ("law",),
                                    choices=_ANALYZE_LAWS)
        num("arrival_rate", 1.0, minimum=0.0, strict=True)
        num("acceptance_rate", 2.0, minimum=0.0, strict=True)
        num("reneging_rate", 1.0, minimum=0.0)
        num("balking_willingness", 0.5, minimum=0.0)
        integer("max_length", 40, minimum=1)
        num("wait_stop", 8.0, minimum=0.0, strict=True)
        num("wait_step", 0.05, minimum=0.0, strict=True)
    elif command == "fit_iat":
        if "samples" not in block:
            check.fail(path, "fit_iat needs a 'samples' CSV path")
        check.string(block["samples"], path + ("samples",))
        block["column"] = check.string(block.get("column", "iat"), path + ("column",))
        if "bin_width" in block:
            block["bin_width"] = check.number(block["bin_width"],
                                              path + ("bin_width",), 0.0, strict=True)
        else:
            block["bin_width"] = None
    elif command == "steady_state":
        block["strategy"] = _validate_strategy_spec(
            check, block.get("strategy", {"prefer_type": 1}), path + ("strategy",))
        probs = block.get("queue_empty_probs")
        if isinstance(probs, list):
            block["queue_empty_probs"] = [
                check.number(p, path + ("queue_empty_probs", i), minimum=0.0, maximum=1.0)
                for i, p in enumerate(probs)
            ]
        elif isinstance(probs, dict):
            sim = check.mapping(probs, path + ("queue_empty_probs",), {"from_simulation"})
            spath = path + ("queue_empty_probs", "from_simulation")
            inner = check.mapping(sim.get("from_simulation"), spath,
                                  {"rounds", "horizon", "balking", "reneging"})
            spec = {
                "rounds": check.integer(inner.get("rounds", 20), spath + ("rounds",),
                                        minimum=1),
                "horizon": check.number(inner.get("horizon", 200.0), spath + ("horizon",),
                                        minimum=0.0, strict=True),
                "balking": check.boolean(inner.get("balking", True), spath + ("balking",)),
                "reneging": check.boolean(inner.get("reneging", True),
                                          spath + ("reneging",)),
            }
            block["queue_empty_probs"] = {"from_simulation": spec}
        else:
            check.fail(path + ("queue_empty_probs",),
                       "give a list of probabilities or a from_simulation block")
        block["mode"] = check.string(block.get("mode", "with-releases"),
                                     path + ("mode",),
                                     choices=("with-releases", "acceptance-only"))
        init = block.get("initial_distribution", "full")
        if isinstance(init, str):
            block["initial_distribution"] = check.string(
                init, path + ("initial_distribution",),
                choices=("empty", "uniform", "full"))
        else:
            check.fail(path + ("initial_distribution",),
                       "initial_distribution must be empty, uniform, or full")
        if "opportunity_rate" in block:
            block["opportunity_rate"] = check.number(
                block["opportunity_rate"], path + ("opportunity_rate",), 0.0)
        else:
            block["opportunity_rate"] = None
    elif command == "sweep":
        integer("count", 500, minimum=1)
        integer("rounds", 20, minimum=1)
        num("horizon", 40.0, minimum=0.0, strict=True)
        boolean("balking", True)
        boolean("reneging", True)
        boolean("include_greedy_baseline", True)
        boolean("include_naive", True)
        block["initial_state"] = _validate_initial_state(
            check, block.get("initial_state", "full"), path + ("initial_state",))
    elif command == "optimize":
        block["start"] = _validate_strategy_spec(
            check, block.get("start", {"prefer_type": 1}), path + ("start",))
        integer("budget", 30, minimum=0)
        block["metric"] = check.string(block.get("metric", "utility"),
                                       path + ("metric",),
                                       choices=("utility", "wait", "admission"))
        integer("rounds", 5, minimum=1)
        num("horizon", 40.0, minimum=0.0, strict=True)
        boolean("balking", True)
        boolean("reneging", True)
        block["initial_state"] = _validate_initial_state(
            check, block.get("initial_state", "full"), path + ("initial_state",))
    return block


def parse_config(text: str, source: str = "<config>") -> ExperimentConfig:
    """Validate configuration text; messages carry source and line."""
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{source}: not valid YAML: {exc}") from None
    lines = _Lines(text)
    check = _Checker(source, lines)
    top = check.mapping(data, (), _TOP_KEYS)

    seed = check.integer(top.get("seed", 0), ("seed",), minimum=0)
    output_dir = top.get("output_dir")
    if output_dir is not None:
        output_dir = check.string(output_dir, ("output_dir",))
    else:
        output_dir = os.environ.get(OUTPUT_ROOT_ENV, ".")

    if ("scenario" in top) == ("model" in top):
        check.fail((), "give exactly one of 'scenario' or 'model'")
    scenario = None
    if "scenario" in top:
        scenario = check.string(top["scenario"], ("scenario",))
        try:
            model = builtin_scenario(scenario)
        except ConfigError as exc:
            check.fail(("scenario",), str(exc))
    else:
        model = _validate_model(check, top["model"], ("model",))

    blocks = {}
    for command in COMMAND_BLOCKS:
        if command in top:
            blocks[command] = _validate_block(check, command, top[command])

    return ExperimentConfig(
        source=source,
        seed=seed,
        output_dir=output_dir,
        model=model,
        scenario=SCENARIO_ALIASES.get(scenario, scenario) if scenario else None,
        blocks=blocks,
        raw=top,
    )


def apply_overrides(config: ExperimentConfig, command: str, *, scenario: str | None = None,
                    seed: int | None = None, rounds: int | None = None,
                    horizon: float | None = None) -> None:
    """Apply command-line overrides, each checked by the rule of its YAML key.

    ``rounds`` and ``horizon`` apply only when the command's block has that
    key; on ``steady-state`` they set, and need, ``from_simulation``, and a
    command whose block takes no such key rejects them.  A rejected value
    ends in a ``ConfigError`` that names its flag.
    """
    def check(flag: str) -> _Checker:
        return _Checker(flag, _Lines(""))

    if scenario:
        try:
            config.model = builtin_scenario(scenario)
        except ConfigError as exc:
            check("--scenario").fail((), str(exc))
        config.scenario = config.raw["scenario"] = scenario
    if seed is not None:
        config.seed = config.raw["seed"] = check("--seed").integer(seed, (), minimum=0)
    name = command.replace("-", "_")
    block = config.blocks.get(name, {})
    if command == "steady-state":
        probs = block.get("queue_empty_probs")
        block = probs["from_simulation"] if isinstance(probs, dict) else {}
    for key, value in (("rounds", rounds), ("horizon", horizon)):
        if value is None or key in block:
            continue
        if command == "steady-state":
            check(f"--{key}").fail((), "steady-state needs queue_empty_probs.from_simulation")
        if key not in _BLOCK_KEYS[name]:
            check(f"--{key}").fail((), f"{command} takes no --{key}")
    if rounds is not None and "rounds" in block:
        block["rounds"] = check("--rounds").integer(rounds, (), minimum=1)
    if horizon is not None and "horizon" in block:
        value = check("--horizon").number(horizon, (), minimum=0.0, strict=True)
        if value <= block.get("warmup", 0.0):
            check("--horizon").fail((), f"must be > warmup {block['warmup']}, got {value}")
        block["horizon"] = value


def load_config(path: str) -> ExperimentConfig:
    """Read and validate a configuration file."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read configuration {path!r}: {exc}") from None
    return parse_config(text, source=path)
