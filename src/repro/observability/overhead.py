"""Self-profiling: tracker overhead as a ratio of untracked execution.

Table 1 of the paper reports the instrumentation overhead of running
each DaCapo benchmark under the J9 tracking JVM next to the analysis
results; the overhead column is what told users whether always-on
profiling was affordable and when to reach for phase-restricted
tracking (§4.1).  This module is the reproduction's analogue: it times
the same program on the bare VM and under the
:class:`~repro.profiler.tracker.CostTracker` and reports the wall-time
ratio, plus the graph the tracked run paid for.  Its
:func:`best_of_warm` is the one timer of warm VM runs that every
overhead and run-time ratio of the repository goes through.

Exposed on the CLI as ``repro profile FILE --self-profile`` (the
resulting summary travels inside the saved profile's ``meta`` so
``repro report`` can render it offline).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .telemetry import current

#: Timed rounds of :func:`best_of_warm` unless a caller asks otherwise.
REPEATS = 3


@dataclass
class OverheadReport:
    """Tracked-vs-untracked cost of one profiled program."""

    untracked_wall: float      # seconds, bare VM
    tracked_wall: float        # seconds, VM + CostTracker
    instructions: int = 0      # per untracked run
    nodes: int = 0             # Gcost size bought by the overhead
    edges: int = 0
    repeats: int = 1           # measurements per mode (min is kept)

    @classmethod
    def of_runs(cls, walls: dict, vms: dict,
                repeats: int = REPEATS) -> "OverheadReport":
        """The report of a :func:`best_of_warm` over an ``untracked``
        and a ``tracked`` run (both returning the finished VM)."""
        tracked = vms["tracked"]
        graph = tracked.tracer.graph
        return cls(untracked_wall=walls["untracked"],
                   tracked_wall=walls["tracked"],
                   instructions=tracked.instr_count,
                   nodes=graph.num_nodes, edges=graph.num_edges,
                   repeats=max(repeats, 1))

    @property
    def overhead(self) -> float:
        """Tracked / untracked wall ratio (the Table-1 analogue)."""
        if self.untracked_wall <= 0:
            return float("inf") if self.tracked_wall > 0 else 1.0
        return self.tracked_wall / self.untracked_wall

    def as_dict(self) -> dict:
        """JSON-ready form (stored under profile ``meta["overhead"]``)."""
        return {"untracked_wall_s": round(self.untracked_wall, 6),
                "tracked_wall_s": round(self.tracked_wall, 6),
                "overhead": round(self.overhead, 3),
                "instructions": self.instructions,
                "nodes": self.nodes, "edges": self.edges,
                "repeats": self.repeats}

    def format(self) -> str:
        return (f"tracker overhead: {self.overhead:.1f}x "
                f"(tracked {self.tracked_wall:.3f}s vs untracked "
                f"{self.untracked_wall:.3f}s over "
                f"{self.instructions} instructions; graph "
                f"{self.nodes} nodes / {self.edges} edges)")


def overhead_from_dict(data: dict) -> OverheadReport:
    """Rebuild a report from :meth:`OverheadReport.as_dict` output."""
    return OverheadReport(
        untracked_wall=data.get("untracked_wall_s", 0.0),
        tracked_wall=data.get("tracked_wall_s", 0.0),
        instructions=data.get("instructions", 0),
        nodes=data.get("nodes", 0), edges=data.get("edges", 0),
        repeats=data.get("repeats", 1))


def best_of_warm(runs, repeats: int = REPEATS):
    """Warm best-of-``repeats`` walls of ``runs`` (name -> zero-arg
    callable, e.g. ``lambda: VM(...).run()``).

    Each callable runs once untimed, so lazy-tier compiles and allocator
    warm-up stay out; then ``repeats`` rounds time every callable back
    to back, so a slow patch of the host degrades one whole round and
    best-of discards it.  Returns ``(best_wall, last_result)``, two
    dicts keyed by name.
    """
    results = {name: run() for name, run in runs.items()}
    best = {name: float("inf") for name in runs}
    for _ in range(max(repeats, 1)):
        for name, run in runs.items():
            start = time.perf_counter()
            results[name] = run()
            best[name] = min(best[name], time.perf_counter() - start)
    return best, results


def measure_overhead(program, slots: int = 16, phases=None,
                     max_steps: int = 2_000_000_000,
                     repeats: int = 1,
                     telemetry=None) -> OverheadReport:
    """Warm overhead of ``program``: :func:`best_of_warm` over a bare
    and a tracked run (fresh VM and tracker each), ``repeats`` timed
    rounds.  Emits an ``overhead`` event on the active (or given) hub.
    """
    from ..profiler import CostTracker
    from ..vm import VM
    hub = telemetry if telemetry is not None else current()

    def run(tracer=None):
        return VM(program, tracer=tracer, max_steps=max_steps).run()

    walls, vms = best_of_warm(
        {"untracked": run,
         "tracked": lambda: run(CostTracker(slots=slots, phases=phases))},
        repeats)
    report = OverheadReport.of_runs(walls, vms, repeats)
    if hub.enabled:
        hub.event("overhead", **report.as_dict())
    return report
