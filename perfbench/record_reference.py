"""Record the reference outputs the benchmark checks every run against.

    python3 perfbench/record_reference.py [workload ...]

Simulation workloads record every op and summary row of one pass at the
master seed; chain-s2x3 records each strategy's distribution.  Re-record
only when a change is meant to alter results, and say why.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import harness, workloads  # noqa: E402
from perfbench.checks import ChainOp, reference_path  # noqa: E402


def record(name: str) -> dict:
    workload = workloads.make(name)
    p = harness.run_pass(workload, harness.MASTER_SEED)
    bad = [f for f in p.failures if f is not None]
    if bad:
        raise SystemExit(f"{name}: outputs fail their checks: {bad[:3]}")
    ops = p.output.ops
    if isinstance(ops[0], ChainOp):
        return {"workload": name, "solves": {
            op.group: {"pi": op.pi.tolist()} for op in ops}}
    return {"workload": name, "seed": harness.MASTER_SEED,
            "ops": [op.to_json() for op in ops],
            "groups": [g.to_json() for g in p.output.groups]}


if __name__ == "__main__":
    for name in sys.argv[1:] or list(workloads.KINDS):
        with open(reference_path(name), "w", encoding="utf-8") as handle:
            json.dump(record(name), handle, separators=(",", ":"))
            handle.write("\n")
        print(f"recorded {reference_path(name)}")
