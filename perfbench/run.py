"""Host-cost benchmark of the FastBFS reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload cold-paper --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a run with timing wrappers installed (see README.md).  The last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only when every answer was correct.  ``--smoke`` runs
the same code on small inputs (the benchmark's own tests use it).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

WORKLOADS = ("cold-paper", "batch-warm", "serve-mixed")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    return parser.parse_args(argv)


def run(args: argparse.Namespace) -> dict:
    """Run one workload; returns the result object (last output line)."""
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import serving
    import workloads
    from common import END_TO_END, PER_LAYER, calibration

    scale = workloads.SMOKE if args.smoke else workloads.FULL
    host = calibration()
    fn = {
        "cold-paper": workloads.cold_paper,
        "batch-warm": workloads.batch_warm,
        "serve-mixed": serving.serve_mixed,
    }[args.workload]
    outcome = fn(args.seed, args.seconds, bool(args.trace), scale, SRC)
    outcome.failed = min(outcome.failed, outcome.attempted)
    if not args.trace:
        outcome.metrics["ok_frac"] = 1.0 - outcome.failed / outcome.attempted
    units = PER_LAYER if args.trace else END_TO_END
    for problem in outcome.problems[:20]:
        print(f"FAIL {problem}")
    if len(outcome.problems) > 20:
        print(f"FAIL ... and {len(outcome.problems) - 20} more")
    for name, unit in units.items():
        print(f"{args.workload:12s} {name:30s} {outcome.metrics[name]:14.6g} {unit}")
    print("host " + json.dumps(host, sort_keys=True))
    if outcome.notes:
        print("notes " + json.dumps(outcome.notes, sort_keys=True))
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: program source not found at {SRC}/repro; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
