"""Run one benchmark workload and print its metrics.

::

    python3 perfbench/run.py --workload profile-cold --seed 1 \\
        --seconds 22 --trace 0

``--trace 0`` measures the end-to-end metrics with the real CLI and
daemon; ``--trace 1`` runs the traced per-layer pipeline instead
(``perfbench/README.md`` lists both metric sets).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every output
matched its oracle and the run left the checkout unchanged.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

from perfbench import harness as h  # noqa: E402

WORKLOADS = ("profile-cold", "profile-hot", "serve-mixed")


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """``(metrics, tally, extras)`` of one run."""
    from perfbench import e2e
    if trace:
        from perfbench import traced
        return traced.run(workload, seed, seconds)
    if workload == "serve-mixed":
        return e2e.run_serve(seed, seconds)
    return e2e.run_profile(workload, seed, seconds)


def main(argv=None) -> int:
    args = parse_args(argv)
    h.ensure_importable()
    os.chdir(h.ROOT)
    shutil.rmtree(h.SCRATCH, ignore_errors=True)
    before = h.tree_state()
    try:
        metrics, tally, extras = measure(args.workload, args.seed,
                                         args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(h.SCRATCH, ignore_errors=True)
    tally.record(h.tree_state() == before,
                 "the run changed the checkout (git status differs)")
    host = h.host_record(args.workload, args.seed, bool(args.trace))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    os.makedirs(os.path.join(h.WORK, "results"), exist_ok=True)
    record = os.path.join(
        h.WORK, "results",
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as handle:
        json.dump({"host": host, "extras": extras, "problems":
                   tally.problems, **result}, handle, indent=2,
                  sort_keys=True)
    for problem in tally.problems:
        print(f"perfbench: FAILED: {problem}", file=sys.stderr)
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:<28} {value:>14.6g} {unit}")
    for name, (value, unit) in sorted(extras.get("latency", {}).items()):
        print(f"{name:<28} {value:>14.6g} {unit}")
    print(f"{'error_rate':<28} {tally.failed / tally.attempted:>14.6g} "
          f"ratio ({tally.failed}/{tally.attempted} operations failed)")
    print("host: " + json.dumps(host, sort_keys=True))
    print("extras: " + json.dumps(extras, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
