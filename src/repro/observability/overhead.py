"""Self-profiling: tracker overhead as a ratio of untracked execution.

Table 1 of the paper reports the instrumentation overhead of running
each DaCapo benchmark under the J9 tracking JVM next to the analysis
results; the overhead column is what told users whether always-on
profiling was affordable and when to reach for phase-restricted
tracking (§4.1).  This module is the reproduction's analogue: it runs
the same program once on the bare interpreter and once under the
:class:`~repro.profiler.tracker.CostTracker` and reports the wall-time
ratio, plus the graph the tracked run paid for.

Exposed on the CLI as ``repro profile FILE --self-profile`` (the
resulting summary travels inside the saved profile's ``meta`` so
``repro report`` can render it offline).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .telemetry import current


@dataclass
class OverheadReport:
    """Tracked-vs-untracked cost of one profiled program."""

    untracked_wall: float      # seconds, bare VM
    tracked_wall: float        # seconds, VM + CostTracker
    instructions: int = 0      # per untracked run
    nodes: int = 0             # Gcost size bought by the overhead
    edges: int = 0
    repeats: int = 1           # measurements per mode (min is kept)

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


def time_untracked(program, max_steps: int = 2_000_000_000,
                   repeats: int = 1) -> float:
    """Minimum wall time of ``repeats`` bare (tracer-less) runs."""
    from ..vm import VM
    best = None
    for _ in range(max(repeats, 1)):
        vm = VM(program, max_steps=max_steps)
        start = time.perf_counter()
        vm.run()
        wall = time.perf_counter() - start
        if best is None or wall < best:
            best = wall
    return best


def measure_overhead(program, slots: int = 16, phases=None,
                     max_steps: int = 2_000_000_000,
                     repeats: int = 1,
                     telemetry=None) -> OverheadReport:
    """Run ``program`` untracked and tracked; report the overhead ratio.

    Each mode runs ``repeats`` times on a fresh VM (and a fresh
    :class:`CostTracker` for the tracked mode) and keeps the minimum
    wall — the standard noise-robust estimate for short deterministic
    runs.  Emits an ``overhead`` telemetry event on the active (or
    given) hub.
    """
    from ..profiler import CostTracker
    from ..vm import VM
    hub = telemetry if telemetry is not None else current()

    untracked_wall = time_untracked(program, max_steps, repeats)
    tracked_wall = None
    graph = None
    for _ in range(max(repeats, 1)):
        tracker = CostTracker(slots=slots, phases=phases)
        vm = VM(program, tracer=tracker, max_steps=max_steps)
        start = time.perf_counter()
        vm.run()
        wall = time.perf_counter() - start
        if tracked_wall is None or wall < tracked_wall:
            tracked_wall = wall
        graph = tracker.graph

    # The tracked run executes the same instructions as the bare one.
    report = OverheadReport(untracked_wall=untracked_wall,
                            tracked_wall=tracked_wall,
                            instructions=vm.instr_count,
                            nodes=graph.num_nodes,
                            edges=graph.num_edges,
                            repeats=max(repeats, 1))
    if hub.enabled:
        hub.event("overhead", **report.as_dict())
    return report
