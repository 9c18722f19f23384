#!/usr/bin/env python
"""§4.1's overhead-reduction experiment: phase-restricted tracking.

The trade-analogue server has startup / steady / shutdown phases
(marked with ``Sys.phase``).  Tracking only the steady state — "the
load run" — preserves the findings about the transaction path while
skipping instrumentation of the rest, the paper's 5-10x overhead
reduction trick scaled to our workload shape.
"""

import time

from repro.analyses import analyze_cost_benefit
from repro.profiler import CostTracker
from repro.vm import VM
from repro.workloads import get_workload


def timed_run(program, tracker=None):
    vm = VM(program, tracer=tracker)
    start = time.perf_counter()
    vm.run()
    return vm, time.perf_counter() - start


def main():
    spec = get_workload("trade_like")
    program = spec.build("unopt")

    plain_vm, plain_s = timed_run(program)
    full_tracker = CostTracker(slots=16)
    full_vm, full_s = timed_run(program, full_tracker)
    steady_tracker = CostTracker(slots=16, phases={"steady"})
    steady_vm, steady_s = timed_run(program, steady_tracker)

    print(f"phases observed: {sorted(plain_vm.phase_counts)}")
    print(f"untracked:        {plain_s:.3f}s")
    print(f"whole-program:    {full_s:.3f}s "
          f"({full_s / plain_s:.1f}x overhead, "
          f"{full_tracker.graph.num_nodes} nodes)")
    print(f"steady-only:      {steady_s:.3f}s "
          f"({steady_s / plain_s:.1f}x overhead, "
          f"{steady_tracker.graph.num_nodes} nodes)")
    print()

    # The findings survive: the steady-phase graph still ranks the
    # transaction-path bloat at the top.
    reports = analyze_cost_benefit(steady_tracker.graph, program,
                                   alloc_counts=steady_vm.heap.site_counts)
    print("top sites from steady-only tracking:")
    for report in reports[:5]:
        print(f"  {report.what:<24} ratio={report.ratio} "
              f"rac={report.n_rac:.0f} in {report.method}")


if __name__ == "__main__":
    main()
