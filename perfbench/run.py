"""Run one benchmark workload; the last line of standard output is the result.

    python3 perfbench/run.py --workload sweep-s2 --seed 1234 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The program is imported from ``src/`` next to this
directory; without it the run exits with status 2 and prints no result.
Details (environment, every pass time, failures, spans) go to the lines
before the result and to ``.perfbench_out/`` at the repository root.
"""

import os
import sys

# One BLAS thread, set before numpy loads: a threaded BLAS made a 96x96
# least-squares solve 45x slower on a 2-core machine.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # recorded with every result

import argparse
import json

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("sweep-s2", "backlog-renege", "chain-s2x3", "fine-grid")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")

    package = os.path.join(SRC, "slicesim")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        print(f"error: the program is missing: no {package}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    import slicesim

    if os.path.dirname(os.path.abspath(slicesim.__file__)) != package:
        print(f"error: imported slicesim from {slicesim.__file__}, not {package}",
              file=sys.stderr)
        return 2
    from perfbench import harness

    os.makedirs(OUT_DIR, exist_ok=True)
    result, details = harness.measure(args.workload, args.seed, args.seconds,
                                      bool(args.trace), out_dir=OUT_DIR)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as handle:
        json.dump({"result": result, "details": details}, handle, indent=1, sort_keys=True)
    for message in details["failures"]:
        print(f"failed: {message}", file=sys.stderr)
    if details.get("missing_metrics"):
        print(f"missing: {', '.join(details['missing_metrics'])}", file=sys.stderr)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
