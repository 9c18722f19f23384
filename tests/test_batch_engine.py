"""Equivalence suite: batched slicing engine vs per-node references.

The batched engine (``repro.analyses.batch``) must be bit-identical to
the per-node reference functions on every workload — these tests sweep
every registered workload at s=8 and s=16 and compare every node's
abstract cost (Definition 4), HRAC (Definition 5), and HRAB
(Definition 6, both benefit modes), plus the field RAC/RAB aggregates,
the per-site cost-benefit ratios, consumer reachability, and the
method-local return costs.  The sweep necessarily crosses the special
paths: stop-flagged query starts (heap reads/writes are themselves
valid slice criteria) and the infinite-benefit native bit.
"""

import pytest

from conftest import run_main
from repro.analyses import (INFINITE, abstract_cost,
                            all_object_cost_benefits, analyze_caches,
                            cachecost, constant_predicates, hrab, hrac,
                            object_cost_benefit, predicates)
from repro.analyses.batch import (BatchSliceEngine, MethodLocalCostIndex,
                                  engine_for)
from repro.analyses.methodcost import _iid_to_method, _method_local_cost
from repro.profiler import (CostTracker, F_HEAP_READ, F_HEAP_WRITE,
                            F_NATIVE, F_PREDICATE)
from repro.profiler.graph import DependenceGraph
from repro.vm import VM
from repro.workloads import all_workloads, get_workload
from repro.workloads.stress import build_stress


def _profiled(spec, slots):
    program = spec.build("unopt", spec.small_scale)
    tracker = CostTracker(slots=slots)
    VM(program, tracer=tracker).run()
    return program, tracker.graph


def _ref_field_racs(graph):
    return {key: sum(hrac(graph, n) for n in stores) / len(stores)
            for key, stores in graph.field_stores().items()}


def _ref_field_rabs(graph, native_benefit="infinite"):
    rabs = {}
    for key, loads in graph.field_loads().items():
        total = 0.0
        saw_native = False
        for node in loads:
            benefit = hrab(graph, node, native_benefit)
            if benefit == INFINITE:
                saw_native = True
                break
            total += benefit
        rabs[key] = INFINITE if saw_native else total / len(loads)
    return rabs


def _ref_consumer_reachability(graph):
    """Per-node forward DFS oracle for natives/predicates."""
    n = graph.num_nodes
    flags = graph.flags
    succs = graph.succs
    native = bytearray(n)
    pred = bytearray(n)
    for start in range(n):
        stack = [start]
        seen = {start}
        while stack:
            node = stack.pop()
            if flags[node] & F_NATIVE:
                native[start] = 1
            if flags[node] & F_PREDICATE:
                pred[start] = 1
            if native[start] and pred[start]:
                break
            for succ in succs[node]:
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
    return native, pred


_CASES = [(spec.name, slots)
          for spec in all_workloads() for slots in (8, 16)]


@pytest.mark.parametrize("name,slots", _CASES)
def test_engine_matches_references_on_workload(name, slots):
    spec = next(s for s in all_workloads() if s.name == name)
    program, graph = _profiled(spec, slots)
    engine = BatchSliceEngine(graph)
    n = graph.num_nodes

    assert engine.abstract_costs() == \
        [abstract_cost(graph, v) for v in range(n)]
    for v in range(n):
        assert engine.hrac(v) == hrac(graph, v)
        assert engine.hrab(v, "infinite") == hrab(graph, v, "infinite")
        assert engine.hrab(v, "count") == hrab(graph, v, "count")

    assert engine.field_racs() == _ref_field_racs(graph)
    assert engine.field_rabs("infinite") == _ref_field_rabs(graph,
                                                            "infinite")
    assert engine.field_rabs("count") == _ref_field_rabs(graph, "count")


@pytest.mark.parametrize("name", [spec.name for spec in all_workloads()])
def test_site_ratios_match_reference_aggregation(name):
    """n-RAC/n-RAB per site computed through the engine equal the same
    aggregation over per-node reference RACs/RABs."""
    spec = next(s for s in all_workloads() if s.name == name)
    program, graph = _profiled(spec, 8)
    racs = _ref_field_racs(graph)
    rabs = _ref_field_rabs(graph)
    expected = [object_cost_benefit(graph, key, racs=racs, rabs=rabs)
                for key in graph.alloc_nodes()]
    actual = all_object_cost_benefits(graph)
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got.alloc_key == want.alloc_key
        assert got.n_rac == want.n_rac
        assert got.n_rab == want.n_rab


@pytest.mark.parametrize("name", [spec.name for spec in all_workloads()])
def test_consumer_reachability_matches_oracle(name):
    spec = next(s for s in all_workloads() if s.name == name)
    program, graph = _profiled(spec, 8)
    engine = BatchSliceEngine(graph)
    assert tuple(engine.consumer_reachability()) == \
        tuple(_ref_consumer_reachability(graph))


@pytest.mark.parametrize("name", [spec.name for spec in all_workloads()])
def test_method_local_costs_match_reference(name):
    spec = next(s for s in all_workloads() if s.name == name)
    program, graph = _profiled(spec, 8)
    mapping = _iid_to_method(program)
    index = MethodLocalCostIndex(graph, mapping)
    methods = sorted(set(mapping.values()))
    keys = graph.node_keys
    for v in range(graph.num_nodes):
        # The node's own method plus two fixed foreign ones covers the
        # same-method, foreign-method, and masked-start branches.
        own = mapping.get(keys[v][0])
        probes = {own, methods[v % len(methods)],
                  methods[(v * 7 + 3) % len(methods)]}
        for method in probes:
            if method is None:
                continue
            assert index.cost(v, method) == \
                _method_local_cost(graph, v, method, mapping), (v, method)


class _ReferenceEngine:
    """``engine_for`` stand-in whose ``hrac`` is the per-node reference
    BFS, so a report client can be rerun against the reference."""

    def __init__(self, graph):
        self.graph = graph

    def hrac(self, node):
        return hrac(self.graph, node)


@pytest.mark.parametrize(
    "name", [spec.name for spec in all_workloads()] + ["stress"])
def test_report_clients_match_per_node_hrac(name, monkeypatch):
    """``analyze_caches`` and ``constant_predicates`` read their HRACs
    from the batched engine; both equal a run over ``relative.hrac``."""
    if name == "stress":
        program = build_stress(stages=24, chain=8, rounds=2)
    else:
        spec = get_workload(name)
        program = spec.build("unopt", spec.small_scale)
    tracker = CostTracker(slots=16)
    VM(program, tracer=tracker).run()
    graph, outcomes = tracker.graph, tracker.branch_outcomes
    caches = analyze_caches(graph)
    constant = constant_predicates(graph, outcomes, program)
    monkeypatch.setattr(cachecost, "engine_for", _ReferenceEngine)
    monkeypatch.setattr(predicates, "engine_for", _ReferenceEngine)
    assert analyze_caches(graph) == caches
    assert constant_predicates(graph, outcomes, program) == constant


def test_sweep_covers_stop_flag_and_infinite_paths():
    """The workload sweep exercises masked starts and infinite HRABs —
    otherwise the per-node loops above prove less than they claim."""
    masked_hrac_starts = 0
    masked_hrab_starts = 0
    infinite_rabs = 0
    for spec in all_workloads():
        program, graph = _profiled(spec, 8)
        flags = graph.flags
        masked_hrac_starts += sum(1 for f in flags if f & F_HEAP_READ)
        masked_hrab_starts += sum(1 for f in flags if f & F_HEAP_WRITE)
        engine = BatchSliceEngine(graph)
        infinite_rabs += sum(1 for value in engine.field_rabs().values()
                             if value == INFINITE)
    assert masked_hrac_starts > 0
    assert masked_hrab_starts > 0
    assert infinite_rabs > 0


class TestEngineCache:
    def _graph(self):
        tracker = CostTracker(slots=8)
        run_main("""
        int[] xs = new int[4];
        xs[0] = 7;
        int y = xs[0] + 1;
        Sys.printInt(y);
        """, tracer=tracker)
        return tracker.graph

    def test_engine_for_reuses_until_graph_moves(self):
        graph = self._graph()
        first = engine_for(graph)
        assert engine_for(graph) is first

    def test_engine_for_rebuilds_on_new_nodes(self):
        graph = self._graph()
        first = engine_for(graph)
        a = graph.node(900, 0)
        b = graph.node(901, 0)
        graph.add_edge(a, b)
        second = engine_for(graph)
        assert second is not first
        assert second.abstract_cost(b) == abstract_cost(graph, b)

    def test_engine_for_rebuilds_on_freq_bump(self):
        """Frequency changes don't add nodes or edges, but stale
        engines would return stale costs — the checksum catches it."""
        graph = self._graph()
        first = engine_for(graph)
        graph.node(graph.node_keys[0][0], graph.node_keys[0][1])
        second = engine_for(graph)
        assert second is not first
        assert second.abstract_costs() == \
            [abstract_cost(graph, v) for v in range(graph.num_nodes)]

    def test_engine_for_rebuilds_on_flag_change(self):
        graph = self._graph()
        first = engine_for(graph)
        iid, dctx = graph.node_keys[0]
        graph.node(iid, dctx, F_HEAP_READ)
        second = engine_for(graph)
        assert second is not first
        assert second.hrac(0) == hrac(graph, 0)


class TestSyntheticShapes:
    def test_scc_cycle_not_double_counted(self):
        graph = DependenceGraph()
        a = graph.node(0, 0)
        b = graph.node(1, 0)
        c = graph.node(2, 0)
        graph.add_edge(a, b)
        graph.add_edge(b, a)       # 2-cycle
        graph.add_edge(b, c)
        for _ in range(4):
            graph.node(0, 0)       # freq(a) = 5
        engine = BatchSliceEngine(graph)
        for v in (a, b, c):
            assert engine.abstract_cost(v) == abstract_cost(graph, v)

    def test_masked_start_expands_despite_own_stop_flag(self):
        """A heap-read *criterion* still slices past itself — the stop
        flag only halts expansion at interior nodes."""
        graph = DependenceGraph()
        producer = graph.node(0, 0)
        load = graph.node(1, 0, F_HEAP_READ)
        graph.node(1, 0)           # freq(load) = 2
        graph.add_edge(producer, load)
        engine = BatchSliceEngine(graph)
        assert engine.hrac(load) == hrac(graph, load) == 3

    def test_infinite_benefit_behind_stop_flag_boundary(self):
        """A load whose only native consumer sits beyond a heap write
        must NOT be infinite; one reached directly must be."""
        graph = DependenceGraph()
        load = graph.node(1, 0, F_HEAP_READ)
        store = graph.node(2, 0, F_HEAP_WRITE)
        native = graph.node(3, -1, F_NATIVE)
        graph.add_edge(load, store)
        graph.add_edge(store, native)
        direct = graph.node(4, 0, F_HEAP_READ)
        graph.add_edge(direct, native)
        engine = BatchSliceEngine(graph)
        assert engine.hrab(load) == hrab(graph, load) == 1
        assert engine.hrab(direct) == hrab(graph, direct) == INFINITE
