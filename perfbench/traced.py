"""The traced run: each layer's public functions, called in pipeline
order by the benchmark itself, with one span around each call.

Spans go to a private :class:`repro.observability.Telemetry` hub with an
in-memory sink.  The hub is never installed as the process-current hub,
so the program's own instrumentation stays off and the layers run their
zero-cost path.  When the run ends the events are written as schema-v2
telemetry JSONL (``perfbench/.work/traces/``), which ``python -m repro
trace`` reads, and each layer's self time is derived from them: a span's
duration minus the part of it its child spans cover.

A span's name is ``<layer>.<operation>``; the layer is one of the
``src/repro`` modules on the request path or ``bench`` for the harness.
"""

from __future__ import annotations

import json
import os

from . import e2e
from . import harness as h

LAYERS = ("lang", "vm", "profiler", "analyses", "observability",
          "service", "bench")

#: Warm tracked runs of the in-process shard.  The shard is built and
#: its tier compiled once (the cold cost), then it runs this many times
#: so the tracked throughput is a steady median-free total and the
#: tracked run outweighs the one supervised map that follows it.
TRACKED_RUNS = 14

#: Every per-layer metric, with its unit.  Layers a workload does not
#: exercise report 0 (``serve-mixed`` runs no VM; only ``serve-mixed``
#: has a daemon stats snapshot and an open-loop generator).
PER_LAYER = {
    "lang.parse_s": "s", "lang.typecheck_s": "s", "lang.lower_s": "s",
    "lang.methods": "count",
    "vm.tier_compile_s": "s", "vm.tier_useful_ratio": "ratio",
    "vm.run_s": "s", "vm.tracked_minstr_s": "Minstr/s",
    "vm.untraced_minstr_s": "Minstr/s", "vm.tracking_overhead": "ratio",
    "profiler.graph_nodes": "count", "profiler.graph_edges": "count",
    "profiler.serialize_s": "s", "profiler.shard_bytes": "bytes",
    "profiler.fold_s": "s", "profiler.map_s": "s",
    "profiler.map_efficiency": "ratio", "profiler.attempts": "count",
    "profiler.retries": "count",
    "analyses.engine_s": "s", "analyses.cost_benefit_s": "s",
    "analyses.report_s": "s",
    "observability.render_s": "s", "observability.report_bytes": "bytes",
    "service.encode_s": "s", "service.decode_s": "s",
    "service.frame_bytes": "bytes", "service.ingest_s": "s",
    "service.report_cold_s": "s", "service.report_warm_s": "s",
    "service.busy_share": "ratio", "service.push_wait_ms": "ms",
    "service.query_wait_ms": "ms", "service.tenant_bytes": "bytes",
    "bench.gen_lag_p95_ms": "ms", "bench.unattributed_share": "ratio",
    "bench.traced_wall_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}

#: Metrics that are the total duration of the spans of one name.
SPAN_TOTALS = {
    "lang.parse_s": "lang.parse", "lang.typecheck_s": "lang.typecheck",
    "lang.lower_s": "lang.lower", "vm.tier_compile_s": "vm.tier_compile",
    "vm.run_s": "vm.run", "profiler.serialize_s": "profiler.serialize",
    "profiler.fold_s": "profiler.fold", "profiler.map_s": "profiler.map",
    "analyses.engine_s": "analyses.engine",
    "analyses.cost_benefit_s": "analyses.cost_benefit",
    "analyses.report_s": "analyses.report",
    "observability.render_s": "observability.render",
    "service.encode_s": "service.encode",
    "service.decode_s": "service.decode",
    "service.ingest_s": "service.ingest",
    "service.report_cold_s": "service.report_cold",
    "service.report_warm_s": "service.report_warm",
}


class Pipeline:
    """Spans plus the counts recorded at the same layer boundaries."""

    def __init__(self, tally):
        from repro.observability import MemorySink, Telemetry
        self.hub = Telemetry(sink=MemorySink())
        self.tally = tally
        self.counts = {}

    # -- layers shared by both pipelines ------------------------------------

    def frontend(self, source: str):
        """``compile_with_stdlib`` split into its three passes."""
        from repro.lang import build_class_table, check, parse
        from repro.lang.codegen import CodeGen
        from repro.stdlib import ALL_MODULES, stdlib_source
        text = source + "\n" + stdlib_source(*ALL_MODULES)
        with self.hub.span("lang.parse"):
            decl = parse(text)
        with self.hub.span("lang.typecheck"):
            table = build_class_table(decl)
            check(decl, table)
        with self.hub.span("lang.lower"):
            program = CodeGen(decl, table).generate()
            program.sources["<main>"] = text
            program.finalize("Main", "main")
        self.counts["lang.methods"] = max(
            self.counts.get("lang.methods", 0),
            sum(len(cls.methods) for cls in program.classes.values()))
        return program

    def analyses(self, graph, state, instructions: int, program) -> None:
        """Every analysis ``repro profile --report all`` runs."""
        from repro.analyses import (analyze_caches, analyze_cost_benefit,
                                    constant_predicates, dead_lines,
                                    engine_for, measure_bloat,
                                    method_costs, return_costs,
                                    write_read_imbalances)
        with self.hub.span("analyses.engine"):
            engine_for(graph)
        with self.hub.span("analyses.report"):
            with self.hub.span("analyses.cost_benefit"):
                analyze_cost_benefit(graph, program)
            measure_bloat(graph, instructions)
            dead_lines(graph, program, top=10)
            method_costs(graph, program)
            return_costs(graph, state.return_nodes, program, top=10)
            write_read_imbalances(graph)
            constant_predicates(graph, state.branch_outcomes, program)
            analyze_caches(graph)

    def render(self, graph, meta, state, program) -> str:
        from repro.observability import (bloat_report_data,
                                         render_bloat_report)
        with self.hub.span("observability.render"):
            data = bloat_report_data(graph, meta, state, program)
            render_bloat_report(graph, meta, state, program)
        text = json.dumps(data, sort_keys=True)
        self.counts["observability.report_bytes"] = len(text)
        return text

    def serialize(self, graph, meta, state) -> str:
        from repro.profiler.serialize import graph_to_dict
        with self.hub.span("profiler.serialize"):
            text = json.dumps(graph_to_dict(graph, meta=meta,
                                            tracker=state))
        self.counts["profiler.shard_bytes"] = len(text)
        return text

    def fold(self, shards):
        """Decode shard documents, then fold them as ``merge_graphs``
        does: into a fresh graph and state, in order."""
        from repro.profiler import fold_graph
        from repro.profiler.graph import DependenceGraph
        from repro.profiler.serialize import (graph_from_dict,
                                              tracker_state_from_dict)
        from repro.profiler.state import TrackerState
        with self.hub.span("profiler.load"):
            pairs = [(graph_from_dict(shard), tracker_state_from_dict(shard))
                     for shard in shards]
        merged, state = DependenceGraph(slots=h.SLOTS), TrackerState()
        with self.hub.span("profiler.fold"):
            for graph, shard_state in pairs:
                fold_graph(merged, graph, state, shard_state)
        self.counts["profiler.graph_nodes"] = merged.num_nodes
        self.counts["profiler.graph_edges"] = merged.num_edges
        return merged, state

    def service(self, pushes, programs, expected) -> None:
        """Push frames through the protocol and registry, then answer
        each tenant's report cold (right after its ingest) and warm."""
        from repro.service import TenantRegistry
        from repro.service.protocol import (HEADER_SIZE, decode_payload,
                                            encode_frame, parse_header)
        with self.hub.span("service.encode"):
            frames = [encode_frame({"type": "push", "tenant": tenant,
                                    "shard": shard})
                      for tenant, shard in pushes]
        self.counts["service.frame_bytes"] = max(map(len, frames))
        with self.hub.span("service.decode"):
            messages = []
            for frame in frames:
                length, digest = parse_header(frame[:HEADER_SIZE])
                messages.append(decode_payload(
                    frame[HEADER_SIZE:HEADER_SIZE + length], digest))
        registry = TenantRegistry()
        with self.hub.span("service.ingest"):
            for message in messages:
                registry.ingest(message["tenant"], message["shard"])
        for phase in ("cold", "warm"):
            for tenant_name, program in programs.items():
                with self.hub.span(f"service.report_{phase}"):
                    tenant = registry.tenant(tenant_name)
                    served = h.report_json(tenant.graph,
                                           tenant.report_meta(),
                                           tenant.state, program)
                self.tally.record(served == expected[tenant_name],
                           f"{phase} report of tenant {tenant_name} "
                           f"differs from the batch report")


# -- the two pipelines ------------------------------------------------------


def profile_pipeline(pipe: Pipeline, name: str, path: str, source: str,
                     oracle):
    from repro.profiler import SupervisedProfiler, canonical_form
    from repro.profiler.tracker import CostTracker
    from repro.vm import VM
    from repro.vm.compiled import compiled_tier
    program = pipe.frontend(source)
    with pipe.hub.span("vm.tier_compile"):
        tier = compiled_tier(program, "traced")
    runs = []  # (output, instructions) of every run
    for index in range(TRACKED_RUNS):
        run_tracker = CostTracker(slots=h.SLOTS)
        run_vm = VM(program, tracer=run_tracker)
        with pipe.hub.span("vm.run"):
            run_vm.run()
        runs.append((run_vm.stdout(), run_vm.instr_count))
        if index == 0:
            vm, tracker = run_vm, run_tracker
    with pipe.hub.span("vm.tier_compile_plain"):
        compiled_tier(program, "plain")
    plain = VM(program)
    with pipe.hub.span("vm.run_untraced"):
        plain.run()
    with pipe.hub.span("bench.check"):
        runs.append((plain.stdout(), plain.instr_count))
        pipe.tally.record(set(runs) == {(oracle.outputs[0], vm.instr_count)},
                   f"{name}: VM output or instruction count differs "
                   f"between runs")
        owners = _methods_with_nodes(program, tracker.graph)
        pipe.counts["vm.tier_useful_ratio"] = (
            len(owners & set(tier)) / len(tier) if tier else 0.0)
    meta = {"label": "run0", "instructions": vm.instr_count,
            "output": vm.stdout(), "exec_mode": vm.exec_tier}
    text = pipe.serialize(tracker.graph, meta, tracker)
    with pipe.hub.span("profiler.load"):
        shards = [json.loads(text) for _ in range(h.RUNS)]
    merged, state = pipe.fold(shards)
    with pipe.hub.span("profiler.map"):
        run = SupervisedProfiler(workers=h.JOBS, slots=h.SLOTS).profile(
            h.profile_jobs(path))
    with pipe.hub.span("bench.check"):
        form = canonical_form(merged, state)
        pipe.tally.record(run.profile is not None and not run.degraded
                   and canonical_form(run.profile.graph,
                                      run.profile.state) == form
                   and form == canonical_form(oracle.graph, oracle.state),
                   f"{name}: in-process fold, supervised map and "
                   f"sequential oracle disagree")
        pipe.counts["profiler.attempts"] = sum(
            shard.attempts for shard in run.report.shards)
        pipe.counts["profiler.retries"] = run.report.retries
    instructions = vm.instr_count * h.RUNS
    pipe.analyses(merged, state, instructions, program)
    merged_meta = h.merged_meta([meta] * h.RUNS, h.RUNS)
    batch = pipe.render(merged, merged_meta, state, program)
    pipe.service([("t", shard) for shard in shards], {"t": program},
                 {"t": batch})
    pipe.counts["vm.instructions"] = vm.instr_count


def serve_pipeline(pipe: Pipeline, inputs, per_cycle):
    """The daemon's request path without the daemon: frontend for the
    query programs, protocol, registry, fold, engine, report."""
    programs = {name: pipe.frontend(source)
                for name, source in inputs.tenants}
    pushes = [(name, inputs.shards[name])
              for name in inputs.sources
              for _ in range(1 + per_cycle[name])]
    reports = {}
    # The stress tenant goes last, so the graph counts describe it.
    for name, _ in inputs.tenants[::-1]:
        shards = [shard for tenant, shard in pushes if tenant == name]
        merged, state = pipe.fold(shards)
        meta = h.merged_meta([shard["meta"] for shard in shards],
                             len(shards))
        if name != "stress":
            reports[name] = h.report_json(merged, meta, state,
                                          programs[name])
    pipe.serialize(merged, meta, state)
    pipe.analyses(merged, state, meta["instructions"], programs["stress"])
    reports["stress"] = pipe.render(merged, meta, state, programs["stress"])
    pipe.service(pushes, programs, reports)


def _methods_with_nodes(program, graph):
    """Methods owning at least one Gcost node (by instruction iid)."""
    owner = {}
    for cls in program.classes.values():
        for method in cls.methods.values():
            for instr in method.body:
                owner[instr.iid] = method
    return {owner[iid] for iid, _ in graph.node_keys if iid in owner}


# -- span analysis ----------------------------------------------------------


def self_times(events):
    """``(per-layer self seconds, root span)`` from a span stream."""
    from repro.observability.trace import trace_from_events
    trace = trace_from_events(events)
    layers = {layer: 0.0 for layer in LAYERS}
    root = None
    for span in trace.spans.values():
        covered, cursor = 0.0, span.start
        for child in sorted(span.children, key=lambda c: c.start):
            start, end = max(child.start, cursor), min(child.end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        own = max(0.0, span.duration - covered)
        if span.parent_id is None:
            root = (span, own)
            continue
        layers[span.name.split(".", 1)[0]] += own
    return layers, root


def span_totals(events):
    totals = {}
    for event in events:
        if event.get("ev") == "span":
            totals[event["name"]] = totals.get(event["name"], 0.0) + \
                event["dur"]
    return totals


def run(workload: str, seed: int, seconds: float):
    # Imported before tracing starts, so no span carries import time.
    import repro.analyses  # noqa: F401
    import repro.service  # noqa: F401
    tally = e2e.Tally()
    metrics = {name: 0.0 for name in PER_LAYER}
    extras = {}
    if workload == "serve-mixed":
        inputs = e2e.ServeInputs(seed)
        _, served_tally, served = e2e.run_serve(seed, seconds, inputs)
        tally.attempted += served_tally.attempted
        tally.failed += served_tally.failed
        tally.problems += served_tally.problems
        metrics.update({k: v for k, (v, _) in served["layer"].items()})
        extras["samples"] = served["samples"]
        pipe = Pipeline(tally)
        with pipe.hub.span("bench.run", workload=workload, seed=seed):
            serve_pipeline(pipe, inputs, inputs.pushes_per_cycle())
    else:
        from repro.profiler import profile_jobs_sequential
        directory = h.fresh_dir("traced-")
        # The first program of the seeded order; its oracle is computed
        # before tracing starts.
        name, path, source = e2e.profile_inputs(workload, seed,
                                                directory)[0]
        oracle = profile_jobs_sequential(h.profile_jobs(path),
                                         slots=h.SLOTS)
        pipe = Pipeline(tally)
        with pipe.hub.span("bench.run", workload=workload, seed=seed):
            profile_pipeline(pipe, name, path, source, oracle)
    pipe.hub.close()
    events = pipe.hub.sink.events
    os.makedirs(os.path.join(h.WORK, "traces"), exist_ok=True)
    trace_path = os.path.join(h.WORK, "traces",
                              f"{workload}-seed{seed}.jsonl")
    with open(trace_path, "w") as handle:
        for event in events:
            handle.write(json.dumps(event, sort_keys=True) + "\n")
    extras["trace"] = os.path.relpath(trace_path, h.ROOT)

    totals = span_totals(events)
    for metric, span_name in SPAN_TOTALS.items():
        metrics[metric] = totals.get(span_name, 0.0)
    layers, (root, root_self) = self_times(events)
    for layer, seconds_ in layers.items():
        metrics[f"{layer}.self_s"] = seconds_
    metrics["bench.traced_wall_s"] = root.duration
    metrics["bench.unattributed_share"] = root_self / root.duration
    for name, value in pipe.counts.items():
        if name in metrics:
            metrics[name] = value
    instructions = pipe.counts.get("vm.instructions", 0)
    if metrics["vm.run_s"]:
        untraced = totals["vm.run_untraced"]
        per_run = metrics["vm.run_s"] / TRACKED_RUNS
        metrics["vm.tracked_minstr_s"] = instructions / per_run / 1e6
        metrics["vm.untraced_minstr_s"] = instructions / untraced / 1e6
        metrics["vm.tracking_overhead"] = per_run / untraced
        shard_work = (metrics["lang.parse_s"] + metrics["lang.typecheck_s"]
                      + metrics["lang.lower_s"]
                      + metrics["vm.tier_compile_s"] + per_run
                      + metrics["profiler.serialize_s"])
        metrics["profiler.map_efficiency"] = (
            shard_work * h.RUNS / (h.JOBS * metrics["profiler.map_s"]))
    extras["vm_share"] = metrics["vm.run_s"] / root.duration
    return ({name: (value, PER_LAYER[name])
             for name, value in metrics.items()}, tally, extras)
