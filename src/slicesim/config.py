"""Experiment configuration files.

Configs are YAML: top-level keys pick the model (a named built-in scenario or
an explicit ``model`` block), the master seed and output directory, plus one
block per command.  One schema per block gives every key its rule and its
default.  Command-line flags are written into the configuration at the key
they override, so the same rules check them and the parsed configuration
records them.  Validation is strict: unknown and repeated keys anywhere are
rejected, and messages carry the line of the offending key, or its flag.
Text is parsed by PyYAML's libyaml binding where PyYAML has it, else by its
pure-Python parser; both read YAML 1.2 exponent floats (``1e3``) as numbers.
Two reference workloads ship built in ("paper-scenario-1" and
"paper-scenario-2": a two-resource pool with a cheap low-utility type and an
expensive high-utility type at moderate and dense demand).
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field
from functools import partial
from typing import Any

import yaml

from .errors import ConfigError, ContractViolation
from .experiments import IAT_BIN_DIVISOR
from .markov import ACCEPTANCE_ONLY, WITH_RELEASES
from .slice_model import ResourceModel, SliceType, StateSpace, is_feasible
from .strategy import (PreferenceMatrix, TableLineError, from_text, naive_strategy,
                       random_strategy, validate_matrix)

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
        raise ConfigError(f"unknown scenario {_shown(name)}; known: {', '.join(known)}")
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


#: Longest repr of an offending value that a message shows whole.
_SHOWN_REPR = 200


def _repr_pieces(value: Any, open_ids: set):
    """``repr(value)`` piece by piece, as the built-in writes lists, tuples and dicts.

    YAML's safe loader makes lists and dicts, and tuples for ``!!pairs`` and
    ``!!omap``; anything else is printed whole.
    """
    if not isinstance(value, (list, tuple, dict)):
        yield repr(value)
        return
    is_dict = isinstance(value, dict)
    opening, closing = "{}" if is_dict else "()" if isinstance(value, tuple) else "[]"
    if id(value) in open_ids:  # a value inside itself, through a recursive alias
        yield opening + "..." + closing
        return
    open_ids.add(id(value))
    yield opening
    for i, item in enumerate(value.items() if is_dict else value):
        yield ", " if i else ""
        if is_dict:
            yield from _repr_pieces(item[0], open_ids)
            yield ": "
            item = item[1]
        yield from _repr_pieces(item, open_ids)
    if closing == ")" and len(value) == 1:
        yield ","
    yield closing
    open_ids.discard(id(value))


def _shown(value: Any) -> str:
    """``repr(value)``, cut after ``_SHOWN_REPR`` characters with a ``...`` marker.

    Pieces stop once the limit is passed, so a value nested through aliases is
    never expanded whole.
    """
    text = ""
    for piece in _repr_pieces(value, set()):
        text += piece
        if len(text) > _SHOWN_REPR:
            return text[:_SHOWN_REPR] + "..."
    return text


def _loader_on(base: type) -> type:
    """``_Loader`` built on PyYAML's safe loader ``base``."""

    class _Loader(base):
        """PyYAML's safe loader, also reading YAML 1.2 floats such as ``1e3`` and
        ``1.0e-3``, which its YAML 1.1 rules (a dot and a signed exponent) leave
        as strings."""

    _Loader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$"),
        list("-+0123456789."))
    return _Loader


#: The configuration loader: PyYAML's libyaml binding where PyYAML was built with
#: it, else its pure-Python parser.  The two differ in that libyaml accepts a tab
#: after ``key:`` and words its messages differently.
_Loader = _loader_on(yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)

#: How deep collections may nest.  libyaml's composer recurses in C and crashes
#: the process on nesting some 10**5 deep; the key-line walk recurses in Python.
_MAX_DEPTH = 1000


def _nests_too_deep(text: str) -> bool:
    """Whether collections in ``text`` nest deeper than ``_MAX_DEPTH``.

    Each collection owns one of the characters ``[{-?:``, so a text with no
    more of them than that cannot; otherwise the parser's events are counted
    until the depth passes it or the text ends.
    """
    if sum(map(text.count, "[{-?:")) <= _MAX_DEPTH:
        return False
    loader, depth = _Loader(text), 0
    try:
        while depth <= _MAX_DEPTH and (event := loader.get_event()) is not None:
            if isinstance(event, yaml.CollectionStartEvent):
                depth += 1
            elif isinstance(event, yaml.CollectionEndEvent):
                depth -= 1
    finally:
        loader.dispose()
    return depth > _MAX_DEPTH


class _Anchors(dict):
    """Each key's path mapped to its ``source:line``, or to the flag that gave its value, and
    ``()`` to the source; a path with none of its own (below an alias or a ``<<`` merge)
    reads the nearest above it."""

    def __missing__(self, path: tuple) -> str:
        return self[path[:-1]]


class _Checker:
    """Checks values, failing with messages anchored at their key's line or flag."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.anchors = _Anchors({(): source})

    def record(self, loader: yaml.constructor.SafeConstructor, node: yaml.Node, path: tuple,
               walked: set) -> None:
        """Record the line of every mapping key below ``node``; reject repeats.

        Keys that a ``<<`` merge brings in stay in the merged node, so
        overriding one is no repeat.  A node is walked once: keys reached
        again through an alias take the alias's line.
        """
        if node in walked:
            return
        walked.add(node)
        if isinstance(node, yaml.MappingNode):
            seen = set()
            for key_node, value_node in node.value:
                if not isinstance(key_node, yaml.ScalarNode):
                    continue  # construction rejects it as an unhashable key
                merge = key_node.tag == "tag:yaml.org,2002:merge"
                key = "<<" if merge else loader.construct_object(key_node)
                self.anchors[path + (key,)] = f"{self.source}:{key_node.start_mark.line + 1}"
                if key in seen:
                    self.fail(path + (key,), f"repeated key {_shown(key)}")
                seen.add(key)
                self.record(loader, value_node, path + (key,), walked)
        elif isinstance(node, yaml.SequenceNode):
            for i, item in enumerate(node.value):
                self.record(loader, item, path + (i,), walked)

    def fail(self, path: tuple, message: str) -> None:
        raise ConfigError(f"{self.anchors[path]}: {message}")

    def mapping(self, value: Any, path: tuple, allowed) -> dict:
        if value is None:
            return {}
        if not isinstance(value, dict):
            self.fail(path, f"expected a mapping for {'.'.join(map(str, path)) or 'document'}")
        for key in value:
            if key not in allowed:
                self.fail(path + (key,), f"unknown key {_shown(key)}")
        return value

    def number(self, value: Any, path: tuple, minimum: float, strict=False,
               maximum=None) -> float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            self.fail(path, f"expected a number, got {_shown(value)}")
        v = float(value)
        if not math.isfinite(v):
            self.fail(path, f"expected a finite number, got {value}")
        if v <= minimum if strict else v < minimum:
            op = ">" if strict else ">="
            self.fail(path, f"must be {op} {minimum}, got {value}")
        if maximum is not None and v > maximum:
            self.fail(path, f"must be <= {maximum}, got {value}")
        return v

    def integer(self, value: Any, path: tuple, minimum=None) -> int:
        if not isinstance(value, int) or isinstance(value, bool):
            self.fail(path, f"expected an integer, got {_shown(value)}")
        if minimum is not None and value < minimum:
            self.fail(path, f"must be >= {minimum}, got {value}")
        return value

    def boolean(self, value: Any, path: tuple) -> bool:
        if not isinstance(value, bool):
            self.fail(path, f"expected true/false, got {_shown(value)}")
        return value

    def string(self, value: Any, path: tuple, choices=None) -> str:
        if not isinstance(value, str):
            self.fail(path, f"expected a string, got {_shown(value)}")
        if choices is not None and value not in choices:
            self.fail(path, f"must be one of {', '.join(choices)}; got {_shown(value)}")
        return value


@dataclass
class ExperimentConfig:
    """A validated configuration: model, seed, output directory, command blocks.

    ``anchors`` maps each key's path to its ``source:line``, or to the flag
    that gave it, for errors that only running a command can find.
    """

    source: str
    seed: int
    output_dir: str
    model: ResourceModel
    scenario: str | None
    blocks: dict[str, dict] = field(default_factory=dict)
    raw: dict = field(default_factory=dict)
    anchors: dict[tuple, str] = field(default_factory=dict)

    def block(self, command: str) -> dict:
        if command not in self.blocks:
            raise ConfigError(
                f"{self.source}: no {command!r} block in the configuration"
            )
        return self.blocks[command]


# A rule checks one key's value, ``rule(check, value, path)``, and returns it
# validated.  A schema maps each key of a block to ``(rule, default)``: an
# absent key takes its default, checked by the same rule, except that ``None``
# stays ``None`` and a ``_Required`` default is the message for its absence.

class _Required(str):
    """The default of a key that must be given: the message if it is not."""


_BOOLEAN = _Checker.boolean
_NONNEGATIVE = partial(_Checker.number, minimum=0.0)
_POSITIVE = partial(_Checker.number, minimum=0.0, strict=True)
_NATURAL = partial(_Checker.integer, minimum=0)
_COUNT = partial(_Checker.integer, minimum=1)


def _scenario(check: _Checker, value: Any, path: tuple) -> ResourceModel:
    name = check.string(value, path)
    try:
        return builtin_scenario(name)
    except ConfigError as exc:
        check.fail(path, str(exc))


def _monte_carlo(rounds: int, horizon: float, impatience: bool) -> dict:
    """The keys of a block that runs Monte-Carlo rounds, with its defaults."""
    return {"rounds": (_COUNT, rounds), "horizon": (_POSITIVE, horizon),
            "balking": (_BOOLEAN, impatience), "reneging": (_BOOLEAN, impatience)}


def _initial_state(check: _Checker, value: Any, path: tuple):
    if isinstance(value, str):
        return check.string(value, path, choices=("empty", "full"))
    if isinstance(value, list):
        return tuple(check.integer(v, path + (i,), minimum=0)
                     for i, v in enumerate(value))
    check.fail(path, "initial_state must be 'empty', 'full', or a list of counts")


def _columns(check: _Checker, value: Any, path: tuple) -> list:
    if not isinstance(value, list) or not value:
        check.fail(path, "expected a non-empty list of preference vectors")
    for column in value:
        if not isinstance(column, list):
            check.fail(path, f"expected a preference vector (a list of integers), "
                             f"got {_shown(column)}")
        for entry in column:
            check.integer(entry, path)
    return value


_STRATEGY_KINDS = {"prefer_type": _COUNT, "random_seed": _NATURAL,
                   "file": _Checker.string, "columns": _columns}


def _strategy(check: _Checker, value: Any, path: tuple) -> dict:
    spec = check.mapping(value, path, _STRATEGY_KINDS)
    if len(spec) != 1:
        check.fail(path, "strategy needs exactly one of "
                         f"{', '.join(map(repr, _STRATEGY_KINDS))}")
    (kind, given), = spec.items()
    return {kind: _STRATEGY_KINDS[kind](check, given, path + (kind,))}


_QUEUE_EMPTY_PROBS = "give a list of probabilities or a from_simulation block"
_FROM_SIMULATION = _monte_carlo(rounds=20, horizon=200.0, impatience=True)


def _queue_empty_probs(check: _Checker, value: Any, path: tuple):
    if isinstance(value, list):
        return [check.number(p, path + (i,), minimum=0.0, maximum=1.0)
                for i, p in enumerate(value)]
    if not isinstance(value, dict):
        check.fail(path, _QUEUE_EMPTY_PROBS)
    spec = check.mapping(value, path, {"from_simulation"})
    return {"from_simulation": _block(check, spec.get("from_simulation"),
                                      path + ("from_simulation",), _FROM_SIMULATION)}


_LAWS = ("mm1-pmf", "impatient-pmf", "wait-densities", "wait-means", "acceptance-probabilities")

#: A bound on wait_stop / wait_step, the number of steps of a wait-densities table.
_MAX_WAIT_STEPS = 10**6

#: A bound on a round's expected arrivals, the arrival rates' sum times the horizon: a
#: round's tape holds 40 bytes an arrival, so this is about 400 MB.
_MAX_ARRIVALS = 10**7

_BLOCKS = {
    "simulate": {
        **_monte_carlo(rounds=20, horizon=40.0, impatience=False),
        "warmup": (_NONNEGATIVE, 0.0),
        "write_traces": (_BOOLEAN, False),
        "bin_width_divisor": (_POSITIVE, IAT_BIN_DIVISOR),
        "initial_state": (_initial_state, "empty"),
        "strategy": (_strategy, {"prefer_type": 1}),
    },
    "analyze": {
        "law": (partial(_Checker.string, choices=_LAWS),
                _Required(f"analyze needs a 'law': one of {', '.join(_LAWS)}")),
        "arrival_rate": (_POSITIVE, 1.0),
        "acceptance_rate": (_POSITIVE, 2.0),
        "reneging_rate": (_NONNEGATIVE, 1.0),
        "balking_willingness": (_NONNEGATIVE, 0.5),
        "max_length": (_COUNT, 40),
        "wait_stop": (_POSITIVE, 8.0),
        "wait_step": (_POSITIVE, 0.05),
    },
    "fit_iat": {
        "samples": (_Checker.string, _Required("fit_iat needs a 'samples' CSV path")),
        "column": (_Checker.string, "iat"),
        "bin_width": (_POSITIVE, None),
    },
    "steady_state": {
        "strategy": (_strategy, {"prefer_type": 1}),
        "queue_empty_probs": (_queue_empty_probs, _Required(_QUEUE_EMPTY_PROBS)),
        "mode": (partial(_Checker.string, choices=(WITH_RELEASES, ACCEPTANCE_ONLY)),
                 WITH_RELEASES),
        "initial_distribution": (partial(_Checker.string, choices=("empty", "uniform", "full")),
                                 "full"),
        "opportunity_rate": (_NONNEGATIVE, None),
    },
    "sweep": {
        "count": (_COUNT, 500),
        **_monte_carlo(rounds=20, horizon=40.0, impatience=True),
        "include_greedy_baseline": (_BOOLEAN, True),
        "include_naive": (_BOOLEAN, True),
        "initial_state": (_initial_state, "full"),
    },
    "optimize": {
        "start": (_strategy, {"prefer_type": 1}),
        "budget": (_NATURAL, 30),
        "metric": (partial(_Checker.string, choices=("utility", "wait", "admission")),
                   "utility"),
        **_monte_carlo(rounds=5, horizon=40.0, impatience=True),
        "initial_state": (_initial_state, "full"),
    },
    "casestudy": {},
}


def _block(check: _Checker, value: Any, path: tuple, schema: dict) -> dict:
    """A block checked against its schema, with every absent key defaulted."""
    given = check.mapping(value, path, schema)
    block = {}
    for key, (rule, default) in schema.items():
        if key in given:
            block[key] = rule(check, given[key], path + (key,))
        elif isinstance(default, _Required):
            check.fail(path, default)
        else:
            block[key] = None if default is None else rule(check, default, path + (key,))
    if not block.get("warmup", 0.0) < block.get("horizon", math.inf):
        horizon = path + ("horizon",)
        if check.anchors.get(horizon) == "--horizon":  # the flag is what broke the rule
            check.fail(horizon, f"must be > warmup {block['warmup']}, got {block['horizon']}")
        check.fail(path + ("warmup",),
                   f"must be < horizon {block['horizon']}, got {block['warmup']}")
    return block


def _willingness(check: _Checker, value: Any, path: tuple):
    if value is not None and check.number(value, path, minimum=0.0) > 1.0:
        check.fail(path, f"must lie in [0, 1], got {float(value)}")
    return value if value is None else float(value)


_SLICE_TYPE = {  # "cost", whose length the pool sets, is checked on its own
    "release_rate": (_POSITIVE, None),
    "mean_lifetime": (_POSITIVE, None),
    "balking_willingness": (_willingness, None),
    "arrival_rate": (_NONNEGATIVE, 0.0),
    "utility_rate": (_NONNEGATIVE, 0.0),
    "reneging_rate": (_NONNEGATIVE, 0.0),
}

_MODEL_KEYS = {"resources", "slice_types"}


def _validate_model(check: _Checker, value: Any, path: tuple) -> ResourceModel:
    block = check.mapping(value, path, _MODEL_KEYS)
    if "resources" not in block or "slice_types" not in block:
        check.fail(path, "model needs 'resources' and 'slice_types'")
    resources = block["resources"]
    if not isinstance(resources, list) or not resources:
        check.fail(path + ("resources",), "expected a non-empty list of pool sizes")
    pool = tuple(_NONNEGATIVE(check, r, path + ("resources", i))
                 for i, r in enumerate(resources))
    raw_types = block["slice_types"]
    if not isinstance(raw_types, list) or not raw_types:
        check.fail(path + ("slice_types",), "expected a non-empty list of slice types")
    costs, types = [], []
    for i, raw in enumerate(raw_types):
        tpath = path + ("slice_types", i)
        t = dict(check.mapping(raw, tpath, {"cost", *_SLICE_TYPE}))
        if "cost" not in t:
            check.fail(tpath, "slice type needs a 'cost' bundle")
        cost = t.pop("cost")
        if not isinstance(cost, list) or len(cost) != len(pool):
            check.fail(tpath + ("cost",), f"cost bundle must list {len(pool)} values")
        costs.append(tuple(_NONNEGATIVE(check, c, tpath + ("cost", m))
                           for m, c in enumerate(cost)))
        if ("release_rate" in t) == ("mean_lifetime" in t):
            check.fail(tpath, "give exactly one of 'release_rate' or 'mean_lifetime'")
        t = _block(check, t, tpath, _SLICE_TYPE)
        lifetime = t.pop("mean_lifetime")
        if lifetime is not None:
            t["release_rate"] = 1.0 / lifetime
        types.append(SliceType(**t))
    try:
        return ResourceModel(pool=pool, costs=tuple(costs), types=tuple(types))
    except ContractViolation as exc:
        check.fail(path, str(exc))


def _fit_model(check: _Checker, model: ResourceModel, blocks: dict) -> None:
    """Check the values whose rule needs the model, or another key, at their key's line.

    The messages are those of the runtime checks, which stay only for API
    callers that build a model and its blocks themselves; an
    ``opportunity_rate`` that ``acceptance-only`` would overwrite with 1, and a
    round's expected arrivals past ``_MAX_ARRIVALS``, have none.
    """
    n, rate = model.num_types, sum(model.arrival_rates)
    for command, block in blocks.items():
        state = block.get("initial_state")
        if isinstance(state, tuple) and not (len(state) == n and is_feasible(model, state)):
            check.fail((command, "initial_state"),
                       f"state {state} is not in the feasibility space")
        for key in ("strategy", "start"):
            spec, path = block.get(key, {}), (command, key)
            if spec.get("prefer_type", 1) > n:
                check.fail(path + ("prefer_type",),
                           f"prefer-type-{spec['prefer_type']} needs a type in 1..{n}")
            if "columns" in spec and (problem := validate_matrix(spec["columns"], n)):
                check.fail(path + ("columns",), f"invalid preference matrix: {problem}")
        probs = block.get("queue_empty_probs")
        if isinstance(probs, list) and len(probs) != n:
            check.fail((command, "queue_empty_probs"),
                       f"need {n} queue-empty probabilities, got {len(probs)}")
        sim, path = block, (command,)  # the keys of the block's Monte-Carlo rounds, if any
        if isinstance(probs, dict):
            sim, path = probs["from_simulation"], path + ("queue_empty_probs", "from_simulation")
        if rate * sim.get("horizon", 0.0) > _MAX_ARRIVALS:
            check.fail(path + ("horizon",),
                       f"a round expects {rate * sim['horizon']:.6g} arrivals (the arrival "
                       f"rates' sum times the horizon), more than the cap of {_MAX_ARRIVALS}")
    steady = blocks.get("steady_state")
    if (steady is not None and steady["mode"] == ACCEPTANCE_ONLY
            and steady["opportunity_rate"] is not None):
        check.fail(("steady_state", "opportunity_rate"),
                   f"opportunity_rate has no effect under mode {ACCEPTANCE_ONLY}")
    fit = blocks.get("fit_iat")
    if fit is not None and fit["bin_width"] is None and max(model.arrival_rates) <= 0.0:
        check.fail(("fit_iat",), "bin width needs at least one positive arrival rate")


def _fit_law(check: _Checker, block: dict) -> None:
    """Check the preconditions of ``analyze``'s law at their key's line.

    The messages are those of the laws' runtime checks.  The wait grid of
    ``wait-densities`` is bounded too, since finite values can ask for
    endless rows.
    """
    if block["law"] == "mm1-pmf":
        rho = block["arrival_rate"] / block["acceptance_rate"]
        if rho >= 1.0:
            check.fail(("analyze", "arrival_rate"),
                       f"no statistical equilibrium: work load rate {rho} >= 1")
    else:
        for key in ("reneging_rate", "balking_willingness"):
            if block[key] <= 0.0:
                check.fail(("analyze", key),
                           f"impatient-tenant laws need a {key.replace('_', ' ')} > 0")
        if block["balking_willingness"] > 1.0:
            check.fail(("analyze", "balking_willingness"),
                       "balking willingness must lie in [0, 1]")
    if (block["law"] == "wait-densities"
            and block["wait_stop"] >= _MAX_WAIT_STEPS * block["wait_step"]):
        check.fail(("analyze", "wait_step"), f"wait_stop / wait_step must be < {_MAX_WAIT_STEPS}, "
                                             f"got {block['wait_stop']} / {block['wait_step']}")


# "scenario" and "model" both give the model; absent command blocks stay None
_TOP = {
    "seed": (_NATURAL, 0),
    "output_dir": (lambda check, value, path: value if value is None
                   else check.string(value, path), None),
    "scenario": (_scenario, None),
    "model": (_validate_model, None),
    **{command: (partial(_block, schema=schema), None) for command, schema in _BLOCKS.items()},
}


def _copy_path(top: dict, path: tuple) -> dict | None:
    """Copy each mapping on ``path`` into its place; the last copy, or None if one is missing.

    As their rules read them, a null block and an absent or null
    ``from_simulation`` are empty, while ``queue_empty_probs`` must be a mapping.
    """
    mapping = top
    for key in path:
        value = mapping.get(key, {} if key == "from_simulation" else None)
        if value is None and key in mapping and key != "queue_empty_probs":
            value = {}
        if not isinstance(value, dict):
            return None
        mapping[key] = mapping = dict(value)
    return mapping


def _with_flags(check: _Checker, data: Any, command: str | None, flags: dict) -> Any:
    """``data`` with each given flag written in at the key it overrides, anchored at the flag.

    Mappings on a flag's path are copies, so a block shared through an alias
    keeps its value.  ``--scenario`` replaces a ``model`` block.  ``--rounds``
    and ``--horizon`` go into the command's block (which, if absent, running
    the command reports), and on ``steady-state`` into the ``from_simulation``
    block they need.
    """
    given = {key: value for key, value in flags.items() if value is not None}
    if not given or not isinstance(data, (dict, type(None))):
        return data
    top = dict(data or {})
    if "scenario" in given:
        top.pop("model", None)
        given["scenario"] = SCENARIO_ALIASES.get(given["scenario"], given["scenario"])
    for key, value in given.items():
        path = ()
        if key in ("rounds", "horizon"):
            name = (command or "").replace("-", "_")
            if name == "steady_state":
                path = (name, "queue_empty_probs", "from_simulation")
            elif key not in _BLOCKS.get(name, ()):
                raise ConfigError(f"--{key}: {command or 'a run without a command'} "
                                  f"takes no --{key}")
            else:
                path = (name,)
        block = _copy_path(top, path)
        if block is None:
            if path[0] == "steady_state":
                raise ConfigError(f"--{key}: steady-state needs queue_empty_probs.from_simulation")
            continue
        block[key] = value
        check.anchors[path + (key,)] = f"--{key}"
    return top


def _load(text: str, source: str) -> tuple[Any, _Checker]:
    """The data of YAML ``text``, and a checker holding the line of each of its keys."""
    check = _Checker(source)
    try:
        if _nests_too_deep(text):
            raise ConfigError(f"{source}: not valid YAML: collections nest deeper than "
                              f"{_MAX_DEPTH} levels")
        loader = _Loader(text)
        try:
            node = loader.get_single_node()
            check.record(loader, node, (), set())  # first: construction flattens '<<' merges
            data = loader.construct_document(node) if node else None
        finally:
            loader.dispose()
    except (yaml.YAMLError, UnicodeEncodeError) as exc:  # libyaml cannot encode a lone surrogate
        raise ConfigError(f"{source}: not valid YAML: {exc}") from None
    except RecursionError:
        raise ConfigError(f"{source}: not valid YAML: collections nest too deeply") from None
    return data, check


def parse_config(text: str, source: str = "<config>", command: str | None = None, *,
                 scenario: str | None = None, seed: int | None = None,
                 rounds: int | None = None, horizon: float | None = None) -> ExperimentConfig:
    """Validate configuration text, with the flags given to ``command`` written in.

    Messages carry the source and line, or the flag.  The result's ``raw`` is
    the configuration that runs, flags included.
    """
    data, check = _load(text, source)
    data = _with_flags(check, data, command, {"scenario": scenario, "seed": seed,
                                              "rounds": rounds, "horizon": horizon})
    top = check.mapping(data, (), _TOP)
    if ("scenario" in top) == ("model" in top):
        check.fail((), "give exactly one of 'scenario' or 'model'")
    values = _block(check, top, (), _TOP)
    scenario, output_dir = top.get("scenario"), values["output_dir"]
    model = values["scenario"] or values["model"]
    blocks = {command: values[command] for command in _BLOCKS if values[command] is not None}
    _fit_model(check, model, blocks)
    if "analyze" in blocks:
        _fit_law(check, blocks["analyze"])
    return ExperimentConfig(
        source=source,
        seed=values["seed"],
        output_dir=os.environ.get(OUTPUT_ROOT_ENV, ".") if output_dir is None else output_dir,
        model=model,
        scenario=SCENARIO_ALIASES.get(scenario, scenario) if scenario else None,
        blocks=blocks,
        raw=top,
        anchors=check.anchors,
    )


def read_text(path: str, what: str) -> str:
    """The text of a UTF-8 file; a ``ConfigError`` naming it if unreadable."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path!r}: {exc}") from None


def build_strategy(spec: dict, space: StateSpace, base_dir: str = ".",
                   anchor: str = "columns") -> PreferenceMatrix:
    """Materialize a validated strategy spec against a state space.  A table (a ``file`` in
    ``base_dir``, or ``columns``, whose one column may serve every state) needs one column
    per admissible state, or fails at the file or at ``anchor``."""
    n, k = space.model.num_types, space.num_admissible
    if "prefer_type" in spec:
        return naive_strategy(space, f"prefer-type-{spec['prefer_type']}")
    if "random_seed" in spec:
        return random_strategy(space, spec["random_seed"])
    if "file" in spec:
        anchor = os.path.join(base_dir, spec["file"])
        try:
            matrix = from_text(read_text(anchor, "strategy file"), n)
        except TableLineError as exc:
            raise ConfigError(f"{anchor}:{exc.line}: {exc.problem}") from None
        except ContractViolation as exc:
            raise ConfigError(f"{anchor}: {exc}") from None
    else:
        columns = tuple(tuple(col) for col in spec["columns"])
        matrix = PreferenceMatrix(columns=columns * k if len(columns) == 1 else columns,
                                  num_types=n)
    if matrix.num_columns != k:
        raise ConfigError(f"{anchor}: invalid strategy table: expected {k} columns, "
                          f"got {matrix.num_columns}")
    return matrix


def load_config(path: str, command: str | None = None, **flags) -> ExperimentConfig:
    """Read and validate a configuration file, with ``parse_config``'s flags written in."""
    return parse_config(read_text(path, "configuration"), path, command, **flags)
