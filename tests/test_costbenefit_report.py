"""Tests for the top-level cost-benefit client (SiteReport ranking)."""

from conftest import run_main
from repro import compile_source, profile
from repro.analyses import INFINITE, analyze_cost_benefit, top_offenders
from repro.profiler import CostTracker

CHART_SOURCE = """
class Entry {
    int a;
    Entry(int x) { a = x * 7 + 3; }
}
class EntryList {
    Entry[] items;
    int size;
    EntryList() { items = new Entry[64]; size = 0; }
    void add(Entry e) { items[size] = e; size = size + 1; }
    int count() { return size; }
}
class Main {
    static void main() {
        EntryList list = new EntryList();
        for (int i = 0; i < 30; i++) { list.add(new Entry(i)); }
        Sys.printInt(list.count());
    }
}
"""


def chart_reports():
    program = compile_source(CHART_SOURCE)
    tracker = CostTracker(slots=16)
    from repro.vm import VM
    vm = VM(program, tracer=tracker)
    vm.run()
    return analyze_cost_benefit(tracker.graph, program,
                                alloc_counts=vm.heap.site_counts)


class TestRanking:
    def test_zero_benefit_sites_rank_first(self):
        reports = chart_reports()
        assert reports[0].ratio == INFINITE
        assert reports[0].what in ("new Entry", "new Entry[]")

    def test_useful_structure_ranks_last(self):
        reports = chart_reports()
        # The EntryList's size reaches output: benefit infinite.
        entry_list = next(r for r in reports if r.what == "new EntryList")
        assert entry_list.n_rab == INFINITE
        assert entry_list.ratio == 0.0
        assert reports[-1].what == "new EntryList"

    def test_site_metadata(self):
        reports = chart_reports()
        entry = next(r for r in reports if r.what == "new Entry")
        assert entry.method == "Main.main"
        assert entry.line > 0
        assert entry.allocations == 30
        assert entry.contexts >= 1

    def test_heap_optional(self):
        program = compile_source(CHART_SOURCE)
        tracker = CostTracker(slots=16)
        from repro.vm import VM
        VM(program, tracer=tracker).run()
        reports = analyze_cost_benefit(tracker.graph, program)
        assert all(r.allocations == 0 for r in reports)

    def test_include_zero_keeps_inactive_sites(self):
        extra = "class Idle {}"
        body = "Idle i = new Idle(); Sys.printInt(1);"
        tracker = CostTracker(slots=16)
        vm = run_main(body, extra=extra, tracer=tracker)
        with_zero = analyze_cost_benefit(tracker.graph, vm.program,
                                         include_zero=True)
        without = analyze_cost_benefit(tracker.graph, vm.program)
        assert len(with_zero) > len(without)

    def test_top_offenders_limits(self):
        program = compile_source(CHART_SOURCE)
        tracker = CostTracker(slots=16)
        from repro.vm import VM
        VM(program, tracer=tracker).run()
        assert len(top_offenders(tracker.graph, program, top=2)) <= 2


class TestProfileFacade:
    def test_profile_returns_everything(self):
        program = compile_source(CHART_SOURCE)
        result = profile(program)
        assert result.output == "30"
        assert result.graph.num_nodes > 0
        offenders = result.top_offenders(3)
        assert offenders
        metrics = result.bloat_metrics()
        assert metrics.total_instructions == result.vm.instr_count
        assert "rank" in result.report()

    def test_profile_slots_configurable(self):
        program = compile_source(CHART_SOURCE)
        result = profile(program, slots=8)
        assert result.tracker.slots == 8

    def test_run_facade(self):
        from repro import run
        vm = run(compile_source(CHART_SOURCE))
        assert vm.stdout() == "30"
