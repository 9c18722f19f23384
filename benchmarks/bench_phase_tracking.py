"""§4.1: phase-restricted tracking reduces overhead.

"For the two transaction-based applications tradebeans and tradesoap,
there is 5-10x overhead reduction when we enable tracking only for the
load runs (i.e., the application is not tracked for the server startup
and shutdown phases)."

The trade analogue is run with a startup-heavy load (a server spends
most of a short measurement window outside the steady state).  The
bench measures whole-program vs steady-only tracking and asserts:

* the tracked fraction of instruction instances drops sharply,
* the *added* overhead (traced minus untraced wall-clock) drops by a
  large factor,
* the steady-only profile still contains the transaction-path bloat
  (KeyBlock / Soap sites), so restricting tracking does not lose the
  findings.
"""

from conftest import emit

from repro.analyses import analyze_cost_benefit
from repro.observability import best_of_warm
from repro.profiler import CostTracker
from repro.vm import VM
from repro.workloads import get_workload

#: Startup-dominated load: a short steady window after a long warmup.
STARTUP_HEAVY = {"TXNS": 40, "WARMUP": 30000, "BLOCK": 10,
                 "SETTLE": 120}


def _experiment():
    spec = get_workload("trade_like")
    program = spec.build("unopt", STARTUP_HEAVY)

    walls, vms = best_of_warm({
        "plain": lambda: VM(program).run(),
        "full": lambda: VM(program, tracer=CostTracker(slots=16)).run(),
        "steady": lambda: VM(program, tracer=CostTracker(
            slots=16, phases={"steady"})).run()})
    plain_vm, full_vm, steady_vm = vms["plain"], vms["full"], vms["steady"]

    assert plain_vm.stdout() == full_vm.stdout() == steady_vm.stdout()
    return {
        "program": program,
        "plain_s": walls["plain"],
        "full_s": walls["full"],
        "steady_s": walls["steady"],
        "steady_vm": steady_vm,
        "full_tracked": full_vm.tracer.graph.total_frequency(),
        "steady_tracked": steady_vm.tracer.graph.total_frequency(),
        "steady_tracker": steady_vm.tracer,
        "instructions": plain_vm.instr_count,
        "phase_counts": dict(plain_vm.phase_counts),
    }


def test_phase_restricted_tracking(benchmark, results_dir):
    data = benchmark.pedantic(_experiment, rounds=1, iterations=1)

    tracked_fraction = data["steady_tracked"] / data["full_tracked"]
    added_full = max(data["full_s"] - data["plain_s"], 1e-9)
    added_steady = max(data["steady_s"] - data["plain_s"], 1e-9)
    added_reduction = added_full / added_steady

    # Steady-only tracking skips the (dominant) startup phase.
    assert tracked_fraction < 0.5
    # And the added instrumentation cost shrinks by a large factor
    # (the paper's 5-10x claim; wall-clock is noisy, so the assertion
    # is conservative).
    assert added_reduction > 1.5

    # The findings survive: the transaction-path bloat still ranks.
    steady_counts = data["steady_vm"].heap.site_counts
    reports = analyze_cost_benefit(data["steady_tracker"].graph,
                                   data["program"],
                                   alloc_counts=steady_counts)
    top_methods = " | ".join(r.method + " " + r.what
                             for r in reports[:8])
    assert ("KeyBlock" in top_methods or "Soap" in top_methods
            or "KeyIterator" in top_methods), top_methods

    lines = [
        "phase-restricted tracking (trade analogue, startup-heavy "
        "load)",
        "-" * 64,
        f"instruction instances: {data['instructions']}",
        f"phase breakdown:       {data['phase_counts']}",
        f"tracked instances:     whole-program="
        f"{data['full_tracked']}, steady-only="
        f"{data['steady_tracked']} "
        f"({tracked_fraction:.1%} of whole-program)",
        f"wall-clock:            untraced={data['plain_s']:.3f}s, "
        f"whole-program={data['full_s']:.3f}s, "
        f"steady-only={data['steady_s']:.3f}s",
        f"added-overhead reduction: {added_reduction:.1f}x "
        "(paper: 5-10x on total overhead)",
    ]
    emit(results_dir, "phase_tracking", "\n".join(lines))
