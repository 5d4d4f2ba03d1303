"""Spans around slicesim's public functions and methods, installed from outside.

A ``Tracer`` replaces each target (a module function or a class method) with
a wrapper that records one span: name, start, end, parent span and op id.
Nothing in slicesim is edited: module functions are rebound in every
slicesim module that imported them, methods are replaced on their class.
Spans stay in memory (flat arrays) until ``write`` saves them.

An op is one Monte-Carlo round (``engine.run``) or one chain solve
(``markov.strategy_steady_state``); spans inside an op carry its id, spans
that cover several ops carry -1.

A target that no longer exists, or a counter that can no longer be read,
is listed in ``missing_spans`` / ``missing_counters``; the layer metrics
that need it are then reported as missing instead of failing the run.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

# (span name, module, attribute path).  The span name's first part is the layer.
TARGETS = (
    ("config.load_config", "config", "load_config"),
    ("config.parse_config", "config", "parse_config"),
    ("config.build_strategy", "config", "build_strategy"),
    ("slice_model.enumerate_state_space", "slice_model", "enumerate_state_space"),
    ("strategy.random_strategy", "strategy", "random_strategy"),
    ("strategy.naive_strategy", "strategy", "naive_strategy"),
    ("controller.serve", "controller", "MultiQueueController.serve_queues"),
    ("controller.release", "controller", "MultiQueueController.handle_release"),
    ("controller.remove", "controller", "MultiQueueController.remove"),
    ("controller.serve", "controller", "GreedySingleQueueController.serve_queues"),
    ("controller.release", "controller", "GreedySingleQueueController.handle_release"),
    ("controller.remove", "controller", "GreedySingleQueueController.remove"),
    ("engine.monte_carlo", "engine", "monte_carlo"),
    ("engine.run", "engine", "run"),
    ("optimize.random_sweep", "optimize", "random_sweep"),
    ("optimize.evaluate", "optimize", "evaluate_strategy"),
    ("optimize.evaluate", "optimize", "greedy_single_queue_baseline"),
    ("markov.strategy_steady_state", "markov", "strategy_steady_state"),
    ("markov.build", "markov", "build_transition_matrix"),
    ("markov.solve", "markov", "long_term_distribution"),
    ("statfit.empirical_pmf", "statfit", "empirical_pmf"),
    ("statfit.fit_geometric", "statfit", "fit_geometric"),
    ("statfit.kld_vs_geometric", "statfit", "kld_vs_geometric"),
)

# Spans that open a new op.
OP_SPANS = ("engine.run", "markov.strategy_steady_state")


def _queue_length(controller, record) -> int:
    """Length of the queue a reneging request leaves, read before it leaves."""
    queues = getattr(controller, "queues", None)
    if queues is not None:
        return len(queues[record.slice_type - 1])
    return len(controller.queue)


def _count_nonzeros(matrix) -> int:
    nnz = getattr(matrix, "nnz", None)
    return int(nnz) if nnz is not None else int(np.count_nonzero(matrix))


# span -> (counter names, read before the call from args, read after the
# call from (args, result, value read before)).
COUNTERS = {
    "controller.serve": (("serve_accepted", "serve_useful"), None,
                         lambda a, r, b: (len(r), bool(r))),
    "controller.remove": (("remove_queue",), lambda a: _queue_length(a[0], a[1]),
                          lambda a, r, b: (b,)),
    "slice_model.enumerate_state_space": (("states",), None, lambda a, r, b: (len(r),)),
    "strategy.random_strategy": (("columns",), None, lambda a, r, b: (len(r.columns),)),
    "engine.run": (("requests",), None, lambda a, r, b: (sum(r[1].arrivals),)),
    "markov.build": (("markov_states", "markov_nonzeros"), None,
                     lambda a, r, b: (r.matrix.shape[0], _count_nonzeros(r.matrix))),
    "markov.solve": (("converged",), None, lambda a, r, b: (bool(r.converged),)),
    "statfit.empirical_pmf": (("samples",), None, lambda a, r, b: (len(a[0]),)),
}

_READ_ERRORS = (AttributeError, IndexError, KeyError, TypeError)


def rebind(original, replacement) -> list[tuple[object, str, object]]:
    """Bind ``replacement`` wherever a loaded slicesim module binds ``original``.

    Returns the undo list for ``restore``.
    """
    undo = []
    for name, module in list(sys.modules.items()):
        if name != "slicesim" and not name.startswith("slicesim."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                undo.append((module, attr, original))
                setattr(module, attr, replacement)
    return undo


def restore(undo: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


class Tracer:
    """Records spans and counters while installed; ``active = False`` pauses it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self.missing_spans: set[str] = set()
        self.missing_counters: set[str] = set()
        self.active = True
        self._stack: list[int] = []
        self._current_op = -1
        self._next_op = 0
        self._undo: list = []

    def __enter__(self) -> "Tracer":
        import slicesim.cli  # noqa: F401  (loads every module that may bind a target)

        installed = set()
        for span, module_name, path in TARGETS:
            module = importlib.import_module(f"slicesim.{module_name}")
            owner, attr = module, path
            if "." in path:
                class_name, attr = path.split(".", 1)
                owner = getattr(module, class_name, None)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            installed.add(span)
            wrapper = self._wrap(span, original)
            if owner is module:
                self._undo += rebind(original, wrapper)
            else:
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        self.missing_spans = {span for span, _, _ in TARGETS} - installed
        return self

    def __exit__(self, *exc) -> None:
        restore(self._undo)
        self._undo = []

    def _add(self, keys, values) -> None:
        for key, value in zip(keys, values):
            self.counters[key] = self.counters.get(key, 0.0) + value

    def _wrap(self, span: str, fn):
        tracer = self
        if span not in self.names:
            self.names.append(span)
        name_id = self.names.index(span)
        opens_op = span in OP_SPANS
        keys, read_before, read_after = COUNTERS.get(span, ((), None, None))

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            before = None
            if read_before is not None:
                try:
                    before = read_before(args)
                except _READ_ERRORS:
                    tracer.missing_counters.update(keys)
            saved_op = tracer._current_op
            if opens_op:
                tracer._current_op = tracer._next_op
                tracer._next_op += 1
            stack = tracer._stack
            index = len(tracer.name)
            tracer.name.append(name_id)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op.append(tracer._current_op)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.start[index] = start
                tracer.end[index] = end
                tracer._current_op = saved_op
            if read_after is not None and not tracer.missing_counters.intersection(keys):
                try:
                    tracer._add(keys, read_after(args, result, before))
                except _READ_ERRORS:
                    tracer.missing_counters.update(keys)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total duration and total self time, in seconds.

        Self time is a span's duration minus the durations of its direct
        children; spans nest on one thread, so children never overlap.
        """
        a = self.arrays()
        duration = a["end"] - a["start"]
        child = np.zeros_like(duration)
        nested = a["parent"] >= 0
        np.add.at(child, a["parent"][nested], duration[nested])
        size = len(self.names)
        calls = np.bincount(a["name"], minlength=size)
        total = np.bincount(a["name"], weights=duration, minlength=size)
        own = np.bincount(a["name"], weights=duration - child, minlength=size)
        return {
            span: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, span in enumerate(self.names)
        }

    def write(self, path: str) -> None:
        """Save every span and the span names as one ``.npz`` file."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def layer_metrics(tracer: Tracer, passes: int) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics, averaged per traced pass (one set-up plus one main phase).

    Returns ``{name: (value, unit)}`` and the names that could not be measured.
    """
    t = tracer.totals()
    c = tracer.counters

    def calls(span):
        return t.get(span, {}).get("calls", 0)

    def total(*spans):
        return sum(t.get(s, {}).get("total_s", 0.0) for s in spans)

    def own(*spans):
        return sum(t.get(s, {}).get("self_s", 0.0) for s in spans)

    def per(x):
        return x / passes

    def ratio(a, b):
        return a / b if b else 0.0

    def n(key):
        return c.get(key, 0.0)

    load, enum, rand = "config.load_config", "slice_model.enumerate_state_space", "strategy.random_strategy"
    serve, release, remove = "controller.serve", "controller.release", "controller.remove"
    run, evaluate, sweep = "engine.run", "optimize.evaluate", "optimize.random_sweep"
    build, solve = "markov.build", "markov.solve"
    pmf, fit, kld = "statfit.empirical_pmf", "statfit.fit_geometric", "statfit.kld_vs_geometric"
    # (name, unit, spans needed, counters needed, value)
    table = (
        ("config.load_s", "s", (load,), (), lambda: per(total(load))),
        ("slice_model.enumerate_s", "s", (enum,), (), lambda: per(total(enum))),
        ("slice_model.states", "count", (enum,), ("states",), lambda: ratio(n("states"), calls(enum))),
        ("slice_model.us_per_state", "us", (enum,), ("states",),
         lambda: 1e6 * ratio(total(enum), n("states"))),
        ("strategy.random_s", "s", (rand,), (), lambda: per(total(rand))),
        ("strategy.columns", "count", (rand,), ("columns",), lambda: per(n("columns"))),
        ("strategy.us_per_column", "us", (rand,), ("columns",),
         lambda: 1e6 * ratio(total(rand), n("columns"))),
        ("controller.serve_calls", "count", (serve,), (), lambda: per(calls(serve))),
        ("controller.serve_s", "s", (serve,), (), lambda: per(total(serve))),
        ("controller.accepted", "count", (serve,), ("serve_accepted",), lambda: per(n("serve_accepted"))),
        ("controller.accepts_per_serve", "ratio", (serve,), ("serve_useful",),
         lambda: ratio(n("serve_useful"), calls(serve))),
        ("controller.release_calls", "count", (release,), (), lambda: per(calls(release))),
        ("controller.release_s", "s", (release,), (), lambda: per(total(release))),
        ("controller.remove_calls", "count", (remove,), (), lambda: per(calls(remove))),
        ("controller.remove_s", "s", (remove,), (), lambda: per(total(remove))),
        ("controller.us_per_remove", "us", (remove,), (), lambda: 1e6 * ratio(total(remove), calls(remove))),
        ("controller.queue_at_remove", "count", (remove,), ("remove_queue",),
         lambda: ratio(n("remove_queue"), calls(remove))),
        ("engine.rounds", "count", (run,), (), lambda: per(calls(run))),
        ("engine.requests", "count", (run,), ("requests",), lambda: per(n("requests"))),
        ("engine.run_s", "s", (run,), (), lambda: per(total(run))),
        ("engine.self_s", "s", (run,), (), lambda: per(own(run))),
        ("engine.us_per_request", "us", (run,), ("requests",),
         lambda: 1e6 * ratio(total(run), n("requests"))),
        ("optimize.evaluate_calls", "count", (evaluate,), (), lambda: per(calls(evaluate))),
        ("optimize.evaluate_s", "s", (evaluate,), (), lambda: per(total(evaluate))),
        ("optimize.self_s", "s", (evaluate, sweep), (), lambda: per(own(evaluate, sweep))),
        ("markov.build_s", "s", (build,), (), lambda: per(total(build))),
        ("markov.solve_s", "s", (solve,), (), lambda: per(total(solve))),
        ("markov.states", "count", (build,), ("markov_states",),
         lambda: ratio(n("markov_states"), calls(build))),
        ("markov.nonzeros", "count", (build,), ("markov_nonzeros",),
         lambda: ratio(n("markov_nonzeros"), calls(build))),
        ("markov.converged", "ratio", (solve,), ("converged",), lambda: ratio(n("converged"), calls(solve))),
        ("statfit.fit_s", "s", (pmf, fit, kld), (), lambda: per(total(pmf, fit, kld))),
        ("statfit.samples", "count", (pmf,), ("samples",), lambda: per(n("samples"))),
    )
    metrics, missing = {}, []
    for name, unit, spans, counters, value in table:
        if tracer.missing_spans.intersection(spans) or tracer.missing_counters.intersection(counters):
            missing.append(name)
        else:
            metrics[name] = (float(value()), unit)
    return metrics, missing
