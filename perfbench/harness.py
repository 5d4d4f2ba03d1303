"""Timing loop, output checks and the result record of one benchmark run.

A run first makes one untimed pass at the reference seed, checked against
the recorded reference (it also warms the process).  It then repeats passes
at the requested seed for the requested seconds; one pass is one set-up plus
one main phase, and the run reports the median of each.  Where set-up costs
more than the main phase, the main phase is repeated on pristine copies of
the set-up's output until the repeats add up to the set-up's time, so that
the main phase gets enough samples.  Times of
interpreted work are normalised to a fixed machine speed (see ``speed``);
the wall times are kept in the details.  A traced run spends half its time
untraced and half with spans installed, so that the tracing overhead is
measured in the same process.
"""

from __future__ import annotations

import gc
import os
import pickle
import platform
import resource
import statistics
import traceback
from dataclasses import dataclass, field
from importlib import metadata
from time import perf_counter

import numpy as np

from . import speed, tracing, workloads
from .checks import (
    ChainOp,
    Group,
    SimOp,
    chain_mismatch,
    group_mismatch,
    FLOAT_REL_TOL,
    load_reference,
    same_output,
    sim_mismatch,
)

MASTER_SEED = 1234
# Never used while writing or tuning the benchmark; a later claim is checked on it.
HELD_OUT_SEED = 4321
MIN_PASSES = 3
MIN_SETUPS = 25
SETUP_SHARE = 0.1  # of --seconds, for the extra set-ups


@dataclass
class Pass:
    seed: int
    setup_s: float | None  # None where the main phase ran on a copy
    run_s: float
    output: workloads.PassOutput | None
    failures: list[str | None]  # one entry per expected op
    # Kernel readings before set-up, between set-up and main, after main.
    kernels: tuple[float | None, float, float] | None = None
    pristine: bytes | None = None  # the set-up's output, pickled before main

    def normalised(self, interpreted_main: bool) -> tuple[float | None, float]:
        """(set-up, main) time at the nominal machine speed."""
        if self.kernels is None:  # a pass that raised
            return self.setup_s, self.run_s
        k0, k1, k2 = self.kernels
        run_s = speed.normalise(self.run_s, k1, k2) if interpreted_main else self.run_s
        return (None if self.setup_s is None else speed.normalise(self.setup_s, k0, k1)), run_s


@dataclass
class Tally:
    """Ops attempted and failed over a run, with the first failure messages."""

    reference: dict | None
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)
    residual_l1: float = 0.0
    _first: dict = field(default_factory=dict)  # seed -> ops of the first pass

    def add(self, p: Pass) -> None:
        if p.output is not None:
            ops = p.output.ops
            first = self._first.setdefault(p.seed, ops)
            for i, op in enumerate(ops):
                if p.failures[i] is None and first is not ops and (
                        i >= len(first) or not same_output(op, first[i])):
                    p.failures[i] = f"{op.group}: output differs between passes of one seed"
            self._compare_reference(p)
            self.residual_l1 = max([self.residual_l1] + [
                op.residual_l1 for op in ops if isinstance(op, ChainOp)
                and np.isfinite(op.residual_l1)])
        self.attempted += len(p.failures)
        for message in p.failures:
            if message is not None:
                self.failed += 1
                if len(self.messages) < 10:
                    self.messages.append(message)

    def _compare_reference(self, p: Pass) -> None:
        ref = self.reference
        if ref is None:
            return
        ops = p.output.ops
        if "solves" in ref:
            for i, op in enumerate(ops):
                solve = ref["solves"].get(op.group)
                if p.failures[i] is None:
                    p.failures[i] = ("no reference for " + op.group if solve is None
                                     else chain_mismatch(op, np.array(solve["pi"])))
            return
        if p.seed != ref["seed"]:
            return
        ref_ops = [SimOp.from_json(d) for d in ref["ops"]]
        ref_groups = {g["label"]: Group.from_json(g) for g in ref["groups"]}
        bad_groups = set()
        for group in p.output.groups:
            want = ref_groups.get(group.label)
            message = ("no reference for " + group.label if want is None
                       else group_mismatch(group, want, FLOAT_REL_TOL))
            if message is not None:
                bad_groups.add(group.label)
                if len(self.messages) < 10:
                    self.messages.append(message)
        for i, op in enumerate(ops):
            if p.failures[i] is not None:
                continue
            if i >= len(ref_ops):
                p.failures[i] = f"{op.group}: more ops than the reference"
            else:
                p.failures[i] = sim_mismatch(op, ref_ops[i], FLOAT_REL_TOL)
            if p.failures[i] is None and op.group in bad_groups:
                p.failures[i] = f"{op.group}: summary differs from reference"


def run_pass(workload: workloads.Workload, seed: int,
             tracer: tracing.Tracer | None = None, calibrate: bool = False,
             keep: bool = False, pristine: bytes | None = None) -> Pass:
    """Set up, run and check one pass; an exception fails every op of the pass.

    With ``calibrate`` the reference kernel is read before set-up, between
    set-up and main, and after main, outside the timed intervals.  ``keep``
    pickles the set-up's output into ``Pass.pristine`` before main runs;
    given ``pristine``, the pass skips set-up and runs main on a copy.
    """
    expected = workload.expected_ops
    kernels = [speed.kernel_s() if calibrate and pristine is None else None]
    start = perf_counter()
    mid = main_start = start
    setup_s = None
    kept = None
    try:
        if pristine is None:
            ctx = workload.setup(seed)
            mid = perf_counter()
            setup_s = mid - start
            if keep:
                kept = pickle.dumps(ctx, protocol=pickle.HIGHEST_PROTOCOL)
        else:
            ctx = pickle.loads(pristine)
        if calibrate:
            kernels.append(speed.kernel_s())
        main_start = perf_counter()
        output = workload.main(ctx)
    except Exception:  # the run must go on and report the failure
        end = perf_counter()
        message = traceback.format_exc(limit=-3)
        if setup_s is None and pristine is None:
            setup_s = mid - start
        return Pass(seed, setup_s, end - main_start, None, [message] * expected)
    end = perf_counter()
    if calibrate:
        kernels.append(speed.kernel_s())
    if tracer is not None:
        tracer.active = False
    try:
        failures = workload.check(ctx, output)
    except Exception:  # a check that cannot run fails the ops it covers
        failures = [traceback.format_exc(limit=-3)] * len(output.ops)
    finally:
        if tracer is not None:
            tracer.active = True
    failures = failures[:expected]
    failures += ["op missing from the output"] * (expected - len(failures))
    return Pass(seed, setup_s, end - main_start, output, failures,
                tuple(kernels) if calibrate else None, kept)


def _passes(workload, seed, seconds, minimum, tally, tracer=None) -> list[Pass]:
    """Passes until the next one would end after ``seconds`` (at least ``minimum``).

    Untraced, a set-up that took longer than its main phase is followed by
    more main phases on copies of its output, until they add up to its time.
    """
    passes = []
    start = perf_counter()
    pristine, owed, full_s = None, 0.0, 0.0
    while True:
        if pristine is None:
            # Enumeration leaves its state list in a reference cycle; free
            # the last pass's, as a fresh CLI process would have none.
            gc.collect()
        began = perf_counter()
        p = run_pass(workload, seed, tracer, calibrate=tracer is None,
                     keep=tracer is None and pristine is None, pristine=pristine)
        tally.add(p)
        passes.append(p)
        now = perf_counter()
        if p.setup_s is not None:
            pristine, owed, full_s = p.pristine, p.setup_s, now - began
            p.pristine = None
        owed -= p.run_s
        if p.output is None or owed <= 0:
            pristine = None
        next_s = full_s if pristine is None else now - began
        if len(passes) >= minimum and now + next_s - start > seconds:
            return passes


def _extra_setups(workload, seed, passes, seconds) -> tuple[list[float], list[float]]:
    """More set-up samples where set-up is cheap: up to MIN_SETUPS, within ``seconds``.

    Returns the normalised and the wall times.
    """
    samples, walls = [], []
    if any(p.output is None for p in passes):
        return samples, walls
    done = [p.setup_s for p in passes if p.setup_s is not None]
    start = perf_counter()
    before = speed.kernel_s()
    last = perf_counter() - start + statistics.median(done)
    while len(done) + len(samples) < MIN_SETUPS and perf_counter() - start + last <= seconds:
        began = perf_counter()
        workload.setup(seed)
        wall = perf_counter() - began
        after = speed.kernel_s()
        last = perf_counter() - began
        samples.append(speed.normalise(wall, before, after))
        walls.append(wall)
        before = after
    return samples, walls


def _good(passes: list[Pass]) -> list[Pass]:
    return [p for p in passes if p.output is not None] or passes


def _median_wall_run_s(passes: list[Pass]) -> float:
    return statistics.median(p.run_s for p in _good(passes))


def environment() -> dict:
    """Interpreter, library, BLAS and CPU facts recorded with every result."""
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def measure(name: str, seed: int, seconds: float, trace: bool,
            config_path: str | None = None, out_dir: str | None = None) -> tuple[dict, dict]:
    """Run one workload; returns the result line and the detail record."""
    workload = workloads.make(name, config_path)
    reference = load_reference(name) if config_path is None else None
    tally = Tally(reference)
    tally.add(run_pass(workload, MASTER_SEED))  # warm-up, checked against the reference

    untraced_s = (seconds / 2 if trace else seconds) * (1 - SETUP_SHARE)
    untraced = _passes(workload, seed, untraced_s, MIN_PASSES, tally)
    good = _good(untraced)
    normalised = [p.normalised(workload.interpreted_main) for p in good]
    extra, extra_walls = _extra_setups(workload, seed, untraced, seconds * SETUP_SHARE)
    setups = [s for s, _ in normalised if s is not None] + extra
    runs = [r for _, r in normalised]
    run_s = statistics.median(runs)
    output = next((p.output for p in untraced if p.output is not None), None)
    strategies = output.strategies if output else 0
    requests = output.requests if output else 0
    details = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(),
        "untraced": {"setup_s": setups, "run_s": runs,
                     "wall_setup_s": [p.setup_s for p in good if p.setup_s is not None]
                     + extra_walls,
                     "wall_run_s": [p.run_s for p in good],
                     "kernel_s": [p.kernels for p in good],
                     "nominal_kernel_s": speed.NOMINAL_KERNEL_S,
                     "interpreted_main": workload.interpreted_main},
        "strategies_per_pass": strategies,
        "requests_per_pass": requests,
        "requests_per_s": requests / run_s if requests else None,
    }
    if not trace:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "run_s": (run_s, "s"),
            "strategies_per_s": (strategies / run_s, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        tally.residual_l1 = 0.0  # report the residual of the traced passes
        with tracing.Tracer() as tracer:
            traced = _passes(workload, seed, seconds / 2, 1, tally, tracer)
        metrics, missing = tracing.layer_metrics(tracer, len(traced))
        metrics["markov.residual_l1"] = (tally.residual_l1, "l1")
        metrics["trace.overhead_s"] = (
            _median_wall_run_s(traced) - _median_wall_run_s(untraced), "s")
        details["traced"] = {"setup_s": [p.setup_s for p in traced],
                             "run_s": [p.run_s for p in traced]}
        details["missing_metrics"] = missing
        details["spans"] = len(tracer.name)
        details["self_s_per_pass"] = {
            span: v["self_s"] / len(traced) for span, v in sorted(tracer.totals().items())}
        if out_dir is not None:
            path = os.path.join(out_dir, f"spans-{name}-seed{seed}.npz")
            tracer.write(path)
            details["spans_file"] = os.path.relpath(path)
    details["ops"] = tally.attempted
    details["ops_failed"] = tally.failed
    details["failures"] = tally.messages
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    return result, details
