"""End-to-end runs: the real CLI and daemon as subprocesses, tracing off.

Each runner returns ``(metrics, tally, extras)``: ``metrics`` maps every
end-to-end metric name to ``(value, unit)``, ``tally`` counts attempted
and failed operations, and ``extras`` carries sample counts and, for
``serve-mixed``, the request latencies and the daemon-side numbers the
traced run reports as per-layer metrics.
"""

from __future__ import annotations

import gc
import json
import os
import random
import threading
import time

from . import harness as h

#: ``serve-mixed`` open-loop cycle.  At the start of each CYCLE_S the
#: push connection sends one stress shard and the query connection asks
#: for its report right behind it; from STRESS_PHASE of the cycle on,
#: SUITE_PUSHES shards per suite tenant follow on evenly spaced slots,
#: each followed half a slot later by a query of that tenant (SUITE_KINDS
#: in turn).  On 2 CPUs the stress pair costs the daemon about 0.3 s and
#: each suite request a few ms, so the daemon is busy about 40% of a
#: cycle, and the stress pair finishes before the suite slots even when
#: the host runs half as fast.  Keeping the stress pair apart, and
#: reports three in four suite queries, keeps each median among the
#: suite reports and each p95 among the stress requests (1 in 13),
#: instead of on the edge between two kinds of request.
CYCLE_S = 1.0
STRESS_PHASE = 0.5
SUITE_PUSHES = 4
SUITE_KINDS = ("report", "report", "rac", "report")
#: Launches of a fresh daemon (or ``--help`` run) per ``setup_s``.
SETUP_REPEATS = 5

#: The end-to-end metrics every workload reports, with their units
#: (``perfbench/README.md`` defines each per workload).
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
#: Request latencies of ``serve-mixed``.  They are printed with the
#: result but are not ``BENCHMARK.json`` metrics: the profile workloads
#: have no such requests, and every run must report every metric.
SERVE_LATENCY = {"push_p50_ms": "ms", "push_p95_ms": "ms",
                 "query_p50_ms": "ms", "query_p95_ms": "ms"}


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok


# -- profile-cold / profile-hot ---------------------------------------------


def cli_setup_s() -> float:
    """Median cold start of a no-op ``python -m repro --help``."""
    walls = []
    for attempt in range(SETUP_REPEATS + 1):
        directory = h.fresh_dir("help-")
        command = h.Command(["--help"], directory)
        if command.returncode != 0:
            raise RuntimeError("python -m repro --help failed")
        if attempt:  # the first run only warms the OS file cache
            walls.append(command.wall_s)
    return h.median(walls)


class ProfileOracle:
    """What every ``repro profile`` of one program must reproduce,
    computed once with ``profile_jobs_sequential`` outside the window."""

    def __init__(self, name: str, path: str):
        from repro.profiler import canonical_form, profile_jobs_sequential
        self.name = name
        self.path = path
        result = profile_jobs_sequential(h.profile_jobs(path),
                                         slots=h.SLOTS)
        self.output = result.outputs[0]
        self.form = canonical_form(result.graph, result.state)


def profile_inputs(workload: str, seed: int, directory: str):
    """``[(name, path, source)]`` in the order the window visits them."""
    if workload == "profile-cold":
        names = [("stress", h.cold_source(seed))]
    else:
        names = [(name, h.hot_source(name)) for name in h.hot_order(seed)]
    return [(name, h.write_source(directory, name, source), source)
            for name, source in names]


def run_profile(workload: str, seed: int, seconds: float):
    from repro.profiler import canonical_form, load_profile
    tally = Tally()
    inputs_dir = h.fresh_dir("inputs-")
    oracles = [ProfileOracle(name, path)
               for name, path, _ in profile_inputs(workload, seed,
                                                   inputs_dir)]
    setup_s = cli_setup_s()
    walls = {oracle.name: [] for oracle in oracles}
    rss = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        # Whole cycles only: every program is measured equally often,
        # so the result does not depend on where the window ended.
        for oracle in oracles:
            directory = h.fresh_dir("profile-")
            command = h.Command(
                ["profile", oracle.path, "--jobs", str(h.JOBS),
                 "--runs", str(h.RUNS), "--save-graph", "g.json",
                 "--flight-record", "flight.jsonl"], directory)
            saved = os.path.join(directory, "g.json")
            if not tally.record(command.returncode == 0
                                and os.path.exists(saved),
                                f"{oracle.name}: profile exit "
                                f"{command.returncode}"):
                continue
            graph, _, state = load_profile(saved)
            tally.record(f"output: {oracle.output!r}" in command.stdout
                         and canonical_form(graph, state) == oracle.form,
                         f"{oracle.name}: Gcost or output differs from "
                         f"profile_jobs_sequential")
            walls[oracle.name].append(command.wall_s)
            rss.append(command.peak_rss_mb)
    if not rss:
        raise RuntimeError("no profile command succeeded")
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (h.geomean([h.median(w) for w in walls.values() if w]),
                   "s"),
        "peak_rss_mb": (h.median(rss), "MB"),
    }
    return metrics, tally, {"samples": {"profile_commands": len(rss)}}


def quiet_gc() -> None:
    """Move the benchmark's own long-lived objects (inputs, frames) out
    of the collector's reach before a window, so its pauses do not land
    inside timed requests; ``gc.unfreeze`` undoes it."""
    gc.collect()
    gc.freeze()


def merged_report(docs, source: str) -> str:
    """The batch report over ``merge_graphs`` of pushed profile docs,
    reported with the meta a tenant built from them carries."""
    from repro.profiler import merge_graphs
    from repro.profiler.serialize import (graph_from_dict,
                                          tracker_state_from_dict)
    from repro.stdlib import compile_with_stdlib
    decoded = {}
    for doc in docs:  # identical documents are decoded once
        if id(doc) not in decoded:
            decoded[id(doc)] = (graph_from_dict(doc),
                                tracker_state_from_dict(doc))
    pairs = [decoded[id(doc)] for doc in docs]
    graph, state = merge_graphs([g for g, _ in pairs],
                                [st for _, st in pairs])
    runs = sum(int(doc["meta"].get("runs") or 1) for doc in docs)
    meta = h.merged_meta([doc["meta"] for doc in docs], runs)
    return h.report_json(graph, meta, state, compile_with_stdlib(source))


# -- serve-mixed ------------------------------------------------------------


class ServeInputs:
    """Tenants, their shards and pre-encoded request frames."""

    def __init__(self, seed: int):
        from repro.service.protocol import encode_frame
        self.tenants = h.serve_tenants(seed)
        self.sources = dict(self.tenants)
        self.shards = {name: h.make_shard(source)
                       for name, source in self.tenants}
        self.push_frames = {
            name: encode_frame({"type": "push", "tenant": name,
                                "shard": shard})
            for name, shard in self.shards.items()}
        self.query_frames = {
            (name, kind): encode_frame(
                {"type": "query", "tenant": name, "kind": kind, "top": 10,
                 "program": {"source": self.sources[name],
                             "use_stdlib": True}})
            for name in self.sources for kind in ("report", "rac")}

    def pushes_per_cycle(self):
        """Tenant -> shards pushed to it per open-loop cycle."""
        return {name: 1 if name == "stress" else SUITE_PUSHES
                for name in self.sources}

    def schedule(self, seed: int, seconds: float):
        """The seeded open-loop schedule: ``(pushes, queries)`` lists of
        ``(due offset s, tenant, frame kind)``."""
        rng = random.Random(seed)
        suite = [name for name, _ in self.tenants[1:]]
        slot_s = CYCLE_S * (1 - STRESS_PHASE) / (SUITE_PUSHES * len(suite))
        pushes, queries = [], []
        for cycle in range(max(1, round(seconds / CYCLE_S))):
            start = cycle * CYCLE_S
            due = start + rng.uniform(0, 0.01)
            pushes.append((due, "stress", "push"))
            queries.append((due + 0.01, "stress", "report"))
            order = suite * SUITE_PUSHES
            rng.shuffle(order)
            seen = {name: 0 for name in suite}
            for slot, tenant in enumerate(order):
                due = (start + CYCLE_S * STRESS_PHASE
                       + (slot + rng.uniform(0, 0.2)) * slot_s)
                kind = SUITE_KINDS[seen[tenant] % len(SUITE_KINDS)]
                seen[tenant] += 1
                pushes.append((due, tenant, "push"))
                queries.append((due + slot_s / 2, tenant, kind))
        return pushes, queries


def _drive(addr, frames, plan, origin, results, tally_lock, tally):
    """One generator thread: one connection, requests sent when due."""
    from repro.service.protocol import FrameError
    conn = h.FrameConnection(addr)
    try:
        for due, tenant, kind in plan:
            wait = origin + due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            response = conn.request(frames[(tenant, kind)])
            done = time.perf_counter()
            ok = response.get("type") == "ok"
            with tally_lock:
                tally.record(ok, f"{kind} {tenant}: "
                             f"{response.get('error', '')}")
            if ok:
                results.append((done - origin - due, sent - origin - due))
    except (OSError, FrameError) as error:
        # The connection is gone: the rest of the plan fails with it.
        with tally_lock:
            tally.record(False, f"generator connection lost: {error}")
    finally:
        conn.close()


def run_serve(seed: int, seconds: float, inputs=None):
    tally = Tally()
    inputs = inputs or ServeInputs(seed)
    setup = []
    for _ in range(SETUP_REPEATS - 1):
        probe = h.Daemon()
        setup.append(probe.setup_s)
        probe.stop()
    daemon = h.Daemon()
    setup.append(daemon.setup_s)
    pushed = {name: 0 for name in inputs.sources}
    frames = dict(inputs.query_frames)
    frames.update({(name, "push"): frame
                   for name, frame in inputs.push_frames.items()})
    walls, served = [], {}
    try:
        # Warm-up (untimed): every tenant exists and the daemon has
        # compiled every program before the first timed query.
        with daemon.client() as client:
            for name, shard in inputs.shards.items():
                client.push(name, shard)
                pushed[name] += 1
                client.query(name, "report",
                             program={"source": inputs.sources[name],
                                      "use_stdlib": True})
            before = client.stats()["stats"]
        pushes, queries = inputs.schedule(seed, seconds)
        push_results, query_results = [], []
        lock = threading.Lock()
        quiet_gc()
        origin = time.perf_counter() + 0.05
        threads = [
            threading.Thread(target=_drive, args=(
                daemon.addr, frames, plan, origin, results, lock, tally))
            for plan, results in ((pushes, push_results),
                                  (queries, query_results))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        gc.unfreeze()
        window_s = time.perf_counter() - origin
        for _, tenant, _ in pushes:
            pushed[tenant] += 1
        with daemon.client() as client:
            stats = client.stats()["stats"]
        # Final reports through the CLI, two per tenant: they feed
        # ``wall_s`` and the byte-identity check below.
        for name, source in inputs.tenants * 2:
            directory = h.fresh_dir("client-")
            path = h.write_source(directory, "program", source)
            addr = os.path.relpath(os.path.abspath(daemon.addr), directory)
            command = h.Command(
                ["client", "query", "report", path, "--addr", addr,
                 "--tenant", name, "--out", "served.json"], directory)
            if tally.record(command.returncode == 0,
                            f"client query report {name}: exit "
                            f"{command.returncode}"):
                walls.append(command.wall_s)
                with open(os.path.join(directory, "served.json")) as handle:
                    served.setdefault(name, []).append(
                        h.canonical_json(json.load(handle)))
    finally:
        daemon.stop()
    tally.record(daemon.returncode == 0, "repro serve exit code")
    # Oracle, outside every timed region: the batch merge of exactly
    # the shards each tenant received, reported by the batch code.
    for name, source in inputs.tenants:
        expected = merged_report([inputs.shards[name]] * pushed[name],
                                 source)
        tally.record(served.get(name) == [expected] * 2,
                     f"served report of {name} differs from the batch "
                     f"merge")
    push_ms = [latency * 1000 for latency, _ in push_results]
    query_ms = [latency * 1000 for latency, _ in query_results]
    lags_ms = [lag * 1000 for _, lag in push_results + query_results]
    if not push_ms or not query_ms:
        raise RuntimeError("no request succeeded")
    metrics = {
        "setup_s": (h.median(setup), "s"),
        "wall_s": (h.median(walls), "s"),
        "peak_rss_mb": (daemon.peak_rss_mb, "MB"),
    }
    extras = {
        "latency": {
            "push_p50_ms": (h.median(push_ms), "ms"),
            "push_p95_ms": (h.percentile(push_ms, 95), "ms"),
            "query_p50_ms": (h.median(query_ms), "ms"),
            "query_p95_ms": (h.percentile(query_ms, 95), "ms"),
        },
        "samples": {"pushes": len(push_ms), "queries": len(query_ms),
                    "client_commands": len(walls)},
        "layer": daemon_layer_metrics(before, stats, window_s, push_ms,
                                      query_ms, lags_ms),
    }
    return metrics, tally, extras


def daemon_layer_metrics(before, stats, window_s, push_ms, query_ms,
                         lags_ms):
    """Per-layer numbers from the daemon's own ``stats`` snapshots
    taken around the window: service time per request type (histogram
    ``sum_s``/``count`` deltas), waits as client latency minus service
    time, and resident tenant bytes at the end."""
    histograms = stats["metrics"].get("histograms", {})
    earlier = before["metrics"].get("histograms", {})

    def delta(name):
        now, then = histograms.get(name) or {}, earlier.get(name) or {}
        return (now.get("sum_s", 0.0) - then.get("sum_s", 0.0),
                now.get("count", 0) - then.get("count", 0))

    def service_ms(kind):
        total, count = delta(f"service.request[{kind}]")
        return total / count * 1000 if count else 0.0

    busy = sum(delta(name)[0] for name in histograms
               if name.startswith("service.request["))
    mean = (lambda values: sum(values) / len(values))
    return {
        "service.busy_share": (min(1.0, busy / window_s), "ratio"),
        "service.push_wait_ms": (max(0.0, mean(push_ms) - service_ms("push")),
                                 "ms"),
        "service.query_wait_ms": (max(0.0, mean(query_ms)
                                      - service_ms("query")), "ms"),
        "service.tenant_bytes": (sum(t.get("memory_bytes", 0)
                                     for t in stats["tenants"]), "bytes"),
        "bench.gen_lag_p95_ms": (h.percentile(lags_ms, 95), "ms"),
    }
