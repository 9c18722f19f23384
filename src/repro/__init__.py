"""repro — reproduction of "Finding Low-Utility Data Structures"
(Xu, Mitchell, Arnold, Rountev, Schonberg, Sevitsky; PLDI 2010).

The package provides:

* :mod:`repro.lang` — the MiniJ language frontend (the Java substitute),
* :mod:`repro.ir` — the three-address-code program representation,
* :mod:`repro.vm` — the interpreting virtual machine with tracer hooks,
* :mod:`repro.profiler` — abstract dynamic thin slicing / Gcost,
* :mod:`repro.analyses` — cost-benefit, dead-value, and the Figure-2
  client analyses,
* :mod:`repro.workloads` — the synthetic DaCapo-analogue suite,
* :mod:`repro.metrics` — the Table-1 and case-study harnesses.

Quickstart::

    from repro import compile_source, profile
    program = compile_source(source_text)
    result = profile(program)            # runs under the CostTracker
    for row in result.top_offenders(5):
        print(row.what, row.ratio)
"""

from __future__ import annotations

from dataclasses import dataclass

from .lang import compile_source
from .profiler import CostTracker
from .vm import VM

__version__ = "1.0.0"


@dataclass
class ProfileResult:
    """Everything produced by one profiled run."""

    vm: VM
    tracker: CostTracker
    program: object

    @property
    def graph(self):
        return self.tracker.graph

    @property
    def output(self) -> str:
        return self.vm.stdout()

    def top_offenders(self, top: int = 10, **kwargs):
        from .analyses import analyze_cost_benefit
        return analyze_cost_benefit(self.graph, self.program,
                                    alloc_counts=self.vm.heap.site_counts,
                                    **kwargs)[:top]

    def bloat_metrics(self):
        from .analyses import measure_bloat
        return measure_bloat(self.graph, self.vm.instr_count)

    def report(self, top: int = 10) -> str:
        from .analyses import format_cost_benefit_report
        return format_cost_benefit_report(self.top_offenders(top), top)


def profile(program, slots: int = 16, phases=None,
            max_steps: int = 2_000_000_000) -> ProfileResult:
    """Run ``program`` under the cost tracker and return the results."""
    tracker = CostTracker(slots=slots, phases=phases)
    vm = VM(program, tracer=tracker, max_steps=max_steps)
    vm.run()
    return ProfileResult(vm=vm, tracker=tracker, program=program)


def run(program, max_steps: int = 2_000_000_000) -> VM:
    """Run ``program`` without instrumentation."""
    vm = VM(program, max_steps=max_steps)
    vm.run()
    return vm


__all__ = ["compile_source", "profile", "run", "ProfileResult",
           "CostTracker", "VM", "__version__"]
