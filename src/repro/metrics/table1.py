"""Table 1 harness: Gcost characteristics and bloat measurement.

Regenerates, for every workload in the suite and for s ∈ {8, 16}:

* part (a)/(b): #nodes (N), #edges (E), graph memory (M), run-time
  overhead of tracking (O, warm best-of-3 wall-clock ratio
  traced/untraced), and the context conflict ratio (CR);
* part (c), for s = 16: total instruction instances (I), IPD, IPP, NLD.

Absolute values differ from the paper (Python VM over synthetic
workloads vs. J9 over DaCapo); the *shape* properties asserted by
tests and recorded in EXPERIMENTS.md are: N and E are bounded and tiny
relative to I; memory is modest; CR is small and does not grow from
s=8 to s=16; tracking overhead is a significant multiple; IPD is
largest for the workloads whose case studies yield the biggest
speedups.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analyses import measure_bloat
from ..observability.overhead import best_of_warm
from ..profiler import CostTracker
from ..vm import VM
from ..workloads import all_workloads


@dataclass
class Table1Row:
    name: str
    slots: int
    nodes: int
    edges: int
    memory_bytes: int
    overhead: float        # traced wall-clock / untraced wall-clock
    cr: float
    instructions: int      # I
    ipd: float
    ipp: float
    nld: float


def profile_workload(spec, slots: int, variant: str = "unopt",
                     scale=None) -> Table1Row:
    """One Table-1 row: warm best-of untraced vs traced wall times
    (:func:`~repro.observability.overhead.best_of_warm`), the graph
    and bloat metrics of the last traced run."""
    program = spec.build(variant, scale)
    walls, vms = best_of_warm({
        "plain": lambda: VM(program).run(),
        "traced": lambda: VM(program,
                             tracer=CostTracker(slots=slots)).run()})
    plain_vm, traced_vm = vms["plain"], vms["traced"]

    if traced_vm.stdout() != plain_vm.stdout():
        raise AssertionError(
            f"{spec.name}: tracking changed program output")

    tracker = traced_vm.tracer
    graph = tracker.graph
    # Freeze once: measure_bloat runs over the CSR snapshot and
    # memory_bytes reports the flat-array accounting.
    graph.freeze()
    metrics = measure_bloat(graph, traced_vm.instr_count)
    overhead = walls["traced"] / walls["plain"] if walls["plain"] > 0 \
        else float("inf")
    return Table1Row(
        name=spec.name,
        slots=slots,
        nodes=graph.num_nodes,
        edges=graph.num_edges,
        memory_bytes=graph.memory_bytes(),
        overhead=overhead,
        cr=tracker.conflict_ratio(),
        instructions=traced_vm.instr_count,
        ipd=metrics.ipd,
        ipp=metrics.ipp,
        nld=metrics.nld,
    )


def generate_table1(slots_values=(8, 16), scale=None, specs=None):
    """All rows; ``scale`` overrides workload scales (for quick runs)."""
    if specs is None:
        specs = all_workloads()
    rows = []
    for spec in specs:
        for slots in slots_values:
            rows.append(profile_workload(spec, slots, scale=scale))
    return rows


def format_table1(rows) -> str:
    lines = [
        "program         s  #N     #E     M(KB)   O(x)  CR     "
        "I          IPD%   IPP%   NLD%",
        "-" * 92,
    ]
    for row in rows:
        lines.append(
            f"{row.name:<14}{row.slots:>3}  "
            f"{row.nodes:<6} {row.edges:<6} "
            f"{row.memory_bytes / 1024:<7.1f} "
            f"{row.overhead:<5.1f} {row.cr:<6.3f} "
            f"{row.instructions:<10} "
            f"{row.ipd * 100:<6.1f} {row.ipp * 100:<6.1f} "
            f"{row.nld * 100:<6.1f}")
    return "\n".join(lines)
