"""Write the exec-mode / sampling benchmark matrix (``make bench-json``).

Produces ``BENCH_PR7.json`` at the repo root with the numbers the
compiled dispatch tier and adaptive burst sampling (PR 7) are
accountable for:

* **exec-tier matrix** — untraced ops/sec for the interpreter vs the
  compiled closure tier on the analysis-stress workload, plus the
  exact cost-tracked s16 throughput in both tiers.  Gate:
  ``compiled untraced >= 1.5x interp untraced``.
* **sampled gate** — tracked s16 with the default adaptive burst
  schedule vs untraced compiled throughput on a long stress run
  (``rounds=3000``), where the growing inter-window gap reaches its
  steady state.  Gate: ``tracked sampled >= 0.8x untraced``.
* **estimation accuracy** — sampled-and-scaled Gcost frequencies vs
  an exact run of the same seeded program: per-site relative error
  over the hottest sites, and the *IPD bias* stated explicitly —
  reachability-derived metrics (IPD/IPP) are not estimable from
  sampled graphs because untracked bursts sever the shadow heap, so
  the record shows the (large) bias instead of hiding it.
* **metrics overhead** (PR 10, ``make bench-json-pr10`` →
  ``BENCH_PR10.json``) — daemon ingest throughput with the live
  :class:`~repro.observability.metrics.MetricsRegistry` enabled vs
  the null registry, over a real unix-socket push/query session.
  Gate: ``<= 5%`` overhead.  (The *disabled* side must cost exactly
  zero extra work — that contract is structural and enforced by
  ``tests/test_service.py``, not timed here.)

All timing on this host is noisy (single core, 30%+ run-to-run
spread), so every VM ratio is computed from *interleaved best-of-N*
measurements through :func:`repro.observability.best_of_warm`: one
untimed warm-up run per configuration, then each repeat times every
configuration back to back, and the best wall time per configuration
wins.  The recorded gates
are ratios, not absolute ops/sec, so they transfer across hosts;
``tools/check_bench_regression.py`` consumes them.

Runs standalone: ``python benchmarks/bench_matrix.py [output.json]``
(add ``--quick`` for the reduced matrix the CI regression guard
re-measures).
"""

import json
import os
import platform
import sys
import time
from datetime import datetime, timezone

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))

from repro.analyses.deadvalues import measure_bloat        # noqa: E402
from repro.observability import best_of_warm              # noqa: E402
from repro.profiler import (CostTracker, apply_sampling_scale,  # noqa: E402
                            canonical_form, parse_sample_spec)
from repro.vm import EXEC_COMPILED, EXEC_INTERP, VM        # noqa: E402
from repro.workloads.stress import build_stress            # noqa: E402

#: Mid-size stress run for the tier matrix and exact tracked numbers.
TIER_STRESS = {"stages": 96, "chain": 24, "rounds": 300}
#: Long run for the sampled gate: the adaptive schedule's growing
#: inter-window gap only reaches steady state after tens of millions
#: of instructions, and short runs overstate warmup duty.
GATE_STRESS = {"stages": 96, "chain": 24, "rounds": 3000}
#: Small seeded run for exact-vs-estimated accuracy (exact tracked
#: runs are ~15x slower than untraced, so keep this modest).
ACCURACY_STRESS = {"stages": 96, "chain": 24, "rounds": 40, "seed": 7}
ACCURACY_SPEC = "1024:8192:1024:1.0"
REPEATS = 3
TOP_SITES = 20

QUICK = {"tier": {"stages": 96, "chain": 24, "rounds": 60},
         "gate": {"stages": 96, "chain": 24, "rounds": 600}}

#: Requests per metrics-overhead session (push-heavy, the ingest mix
#: the ≤5% gate is about) and the gate itself.
METRICS_PUSHES = 240
METRICS_QUERIES = 40
METRICS_QUICK = {"pushes": 60, "queries": 10}
METRICS_THRESHOLD = 0.05


def exec_tier_matrix(stress):
    program = build_stress(**stress)

    configs = {
        "interp_untraced": lambda: VM(program,
                                      exec_mode=EXEC_INTERP).run(),
        "compiled_untraced": lambda: VM(program,
                                        exec_mode=EXEC_COMPILED).run(),
        "interp_tracked_s16": lambda: VM(
            program, exec_mode=EXEC_INTERP,
            tracer=CostTracker(slots=16)).run(),
        "compiled_tracked_s16": lambda: VM(
            program, exec_mode=EXEC_COMPILED,
            tracer=CostTracker(slots=16)).run(),
    }
    best, vms = best_of_warm(configs, repeats=REPEATS)
    if vms["compiled_untraced"].exec_tier != EXEC_COMPILED:
        raise AssertionError("compiled tier fell back to the interpreter")
    exact_interp = canonical_form(vms["interp_tracked_s16"].tracer.graph)
    exact_compiled = canonical_form(
        vms["compiled_tracked_s16"].tracer.graph)
    if exact_interp != exact_compiled:
        raise AssertionError("compiled-tier Gcost diverged from the "
                             "interpreter (sampling off)")

    instrs = vms["interp_untraced"].instr_count
    ops = {name: instrs / seconds for name, seconds in best.items()}
    return {
        "workload": "stress",
        "scale": dict(stress),
        "instructions": instrs,
        "ops_per_sec": {name: round(v) for name, v in ops.items()},
        "compiled_vs_interp_untraced":
            round(ops["compiled_untraced"] / ops["interp_untraced"], 2),
        "compiled_vs_interp_tracked_s16":
            round(ops["compiled_tracked_s16"] / ops["interp_tracked_s16"],
                  2),
        "tracking_overhead_compiled":
            round(ops["compiled_untraced"] / ops["compiled_tracked_s16"],
                  2),
        "gcost_equivalent": True,
    }


def sampled_gate(stress):
    program = build_stress(**stress)
    schedule = parse_sample_spec("on")

    configs = {
        "untraced": lambda: VM(program, exec_mode=EXEC_COMPILED).run(),
        "tracked_s16_sampled": lambda: VM(
            program, exec_mode=EXEC_COMPILED,
            tracer=CostTracker(slots=16), sampling=schedule).run(),
    }
    # The gate ratio needs extra repeats: both sides run near the
    # host's memory-bandwidth noise floor, and CPython keeps
    # specializing the generated closures for a few runs.
    best, vms = best_of_warm(configs, repeats=5)
    instrs = vms["untraced"].instr_count
    untraced_ops = instrs / best["untraced"]
    sampled_ops = instrs / best["tracked_s16_sampled"]
    stats = vms["tracked_s16_sampled"].sampling_stats()
    return {
        "workload": "stress",
        "scale": dict(stress),
        "instructions": instrs,
        "schedule": schedule.spec(),
        "untraced_ops_per_sec": round(untraced_ops),
        "tracked_s16_sampled_ops_per_sec": round(sampled_ops),
        "tracked_sampled_vs_untraced":
            round(sampled_ops / untraced_ops, 3),
        "duty_cycle": round(stats["tracked_instructions"]
                            / stats["total_instructions"], 5),
        "sampling_factor": round(stats["factor"], 2),
        "window_toggles": stats["toggles"],
    }


def estimation_accuracy(stress, spec):
    program = build_stress(**stress)
    schedule = parse_sample_spec(spec)

    exact_vm = VM(program, exec_mode=EXEC_COMPILED,
                  tracer=CostTracker(slots=16)).run()
    sampled_vm = VM(program, exec_mode=EXEC_COMPILED,
                    tracer=CostTracker(slots=16), sampling=schedule).run()
    stats = sampled_vm.sampling_stats()

    exact = exact_vm.tracer.graph
    estimated = sampled_vm.tracer.graph
    apply_sampling_scale(estimated, stats["factor"])

    def site_freqs(graph):
        sites = {}
        for (iid, _), freq in zip(graph.node_keys, graph.freq):
            sites[iid] = sites.get(iid, 0) + freq
        return sites

    exact_sites = site_freqs(exact)
    est_sites = site_freqs(estimated)
    hottest = sorted(exact_sites, key=exact_sites.get,
                     reverse=True)[:TOP_SITES]
    errors = [abs(est_sites.get(iid, 0) - exact_sites[iid])
              / exact_sites[iid] for iid in hottest]

    exact_bloat = measure_bloat(exact, exact_vm.instr_count)
    est_bloat = measure_bloat(estimated, sampled_vm.instr_count)
    return {
        "workload": "stress",
        "scale": dict(stress),
        "schedule": schedule.spec(),
        "duty_cycle": round(stats["tracked_instructions"]
                            / stats["total_instructions"], 5),
        "sampling_factor": round(stats["factor"], 2),
        "top_sites": TOP_SITES,
        "mean_site_freq_error": round(sum(errors) / len(errors), 4),
        "max_site_freq_error": round(max(errors), 4),
        "ipd_exact": round(exact_bloat.ipd, 6),
        "ipd_estimated": round(est_bloat.ipd, 6),
        "note": ("frequency estimates are unbiased; IPD/IPP are "
                 "reachability-derived and NOT estimable from sampled "
                 "graphs (untracked bursts sever the shadow heap, so "
                 "the estimate over-approximates deadness regardless "
                 "of window size) — bloat classification requires an "
                 "exact run"),
    }


def metrics_overhead(pushes=METRICS_PUSHES, queries=METRICS_QUERIES,
                     repeats=5):
    """Daemon request throughput with metrics on vs off (best-of-N).

    Each measured session is a real daemon on a unix socket fed the
    same push/query mix by a blocking client; only the request loop is
    timed (daemon startup/teardown excluded).  On/off sessions are
    interleaved per repeat so host noise degrades both sides together.
    """
    import asyncio
    import tempfile
    import threading

    from repro.observability.metrics import MetricsRegistry
    from repro.profiler import graph_to_dict
    from repro.service import (AnalysisDaemon, ServiceClient,
                               TenantRegistry)

    program = build_stress(stages=8, chain=4, rounds=2)
    tracker = CostTracker(slots=16)
    vm = VM(program, exec_mode=EXEC_COMPILED, tracer=tracker).run()
    shard = graph_to_dict(tracker.graph,
                          meta={"label": "bench",
                                "instructions": vm.instr_count,
                                "output": vm.stdout(),
                                "exec_mode": vm.exec_tier},
                          tracker=tracker)

    def session(metrics):
        with tempfile.TemporaryDirectory() as tmp:
            addr = os.path.join(tmp, "svc.sock")
            daemon = AnalysisDaemon(TenantRegistry(), socket_path=addr,
                                    metrics=metrics)
            thread = threading.Thread(
                target=lambda: asyncio.run(daemon.run()), daemon=True)
            thread.start()
            deadline = time.time() + 10.0
            while True:
                try:
                    with ServiceClient(addr, timeout=2.0) as client:
                        client.ping()
                    break
                except (ConnectionError, OSError):
                    if time.time() > deadline:
                        raise RuntimeError("bench daemon never came up")
                    time.sleep(0.01)
            try:
                with ServiceClient(addr, timeout=30.0) as client:
                    start = time.perf_counter()
                    for _ in range(pushes):
                        client.push("bench", shard)
                    for _ in range(queries):
                        client.query("bench", "summary")
                    elapsed = time.perf_counter() - start
            finally:
                daemon.request_shutdown()
                thread.join(timeout=10.0)
            return elapsed

    session(MetricsRegistry())          # warmup (tiers, allocator)
    best = {"metrics_on": float("inf"), "metrics_off": float("inf")}
    for _ in range(repeats):
        best["metrics_on"] = min(best["metrics_on"],
                                 session(MetricsRegistry()))
        best["metrics_off"] = min(best["metrics_off"], session(None))
    requests = pushes + queries
    rps = {name: requests / seconds for name, seconds in best.items()}
    overhead = best["metrics_on"] / best["metrics_off"] - 1.0
    return {
        "pushes": pushes,
        "queries": queries,
        "repeats": repeats,
        "requests_per_sec": {name: round(v) for name, v in rps.items()},
        "overhead": round(overhead, 4),
        "threshold": METRICS_THRESHOLD,
        "pass": overhead <= METRICS_THRESHOLD,
        "note": ("overhead of the *enabled* MetricsRegistry on the "
                 "daemon request loop; the disabled registry "
                 "(NULL_METRICS) does exactly zero work by the "
                 "structural guard in tests/test_service.py"),
    }


def build_record(quick=False):
    tier = QUICK["tier"] if quick else TIER_STRESS
    gate = QUICK["gate"] if quick else GATE_STRESS
    record = {
        "generated": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
        "quick": quick,
        "exec_tiers": exec_tier_matrix(tier),
        "sampled_gate": sampled_gate(gate),
        "estimation_accuracy": estimation_accuracy(ACCURACY_STRESS,
                                                   ACCURACY_SPEC),
        "metrics_overhead":
            metrics_overhead(**(METRICS_QUICK if quick else {})),
    }
    if not quick:
        # Re-measure the two timing sections at the quick sizes too:
        # the CI regression guard re-runs only the quick matrix (CI
        # minutes), and comparing its ratios against full-size ones
        # would mix schedule-warmup regimes — this keeps the committed
        # baseline and the guard's fresh measurement apples-to-apples.
        record["quick_baseline"] = {
            "exec_tiers": exec_tier_matrix(QUICK["tier"]),
            "sampled_gate": sampled_gate(QUICK["gate"]),
        }
    record["gates"] = {
        # Thresholds are calibrated for the full-size matrix; the
        # quick matrix records the same ratios for trend comparison
        # but is too short for the adaptive schedule's steady state,
        # so gate enforcement (exit code) is full-size only.
        "compiled_vs_interp_untraced": {
            "value": record["exec_tiers"]["compiled_vs_interp_untraced"],
            "threshold": 1.5,
            "pass": record["exec_tiers"]["compiled_vs_interp_untraced"]
            >= 1.5,
        },
        "tracked_sampled_vs_untraced": {
            "value": record["sampled_gate"]["tracked_sampled_vs_untraced"],
            "threshold": 0.8,
            "pass": record["sampled_gate"]["tracked_sampled_vs_untraced"]
            >= 0.8,
        },
        "metrics_overhead": {
            "value": record["metrics_overhead"]["overhead"],
            "threshold": METRICS_THRESHOLD,
            "pass": record["metrics_overhead"]["pass"],
        },
    }
    return record


def build_metrics_record():
    """The standalone PR-10 record (``BENCH_PR10.json``): just the
    service metrics-overhead guard, cheap enough for every push."""
    record = {
        "generated": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
        "metrics_overhead": metrics_overhead(),
    }
    record["gates"] = {
        "metrics_overhead": {
            "value": record["metrics_overhead"]["overhead"],
            "threshold": METRICS_THRESHOLD,
            "pass": record["metrics_overhead"]["pass"],
        },
    }
    return record


def main(argv):
    flags = {a for a in argv[1:] if a.startswith("--")}
    args = [a for a in argv[1:] if not a.startswith("--")]
    quick = "--quick" in flags
    if "--metrics" in flags:
        out_path = args[0] if args else os.path.join(_ROOT,
                                                     "BENCH_PR10.json")
        record = build_metrics_record()
    else:
        out_path = args[0] if args else os.path.join(_ROOT,
                                                     "BENCH_PR7.json")
        record = build_record(quick=quick)
    with open(out_path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(json.dumps(record, indent=2))
    print(f"\nwrote {out_path}")
    if quick:
        return 0
    return 0 if all(g["pass"] for g in record["gates"].values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
