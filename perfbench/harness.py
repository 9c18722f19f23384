"""Shared plumbing of the benchmark: paths, inputs, processes, oracles.

Everything the benchmark writes lands under ``perfbench/.work`` of the
checkout it runs in; every CLI or daemon process it starts runs in a
fresh directory there, so the program's own side files (flight-recorder
dumps, spill directories, sockets, saved graphs) never reach the tree.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH_DIR, ".work")
#: Per-run scratch (process directories, inputs); emptied after a run.
SCRATCH = os.path.join(WORK, "tmp")

#: Slots of the context domain (the CLI default).
SLOTS = 16
#: Shards per ``repro profile`` command and its worker count.
RUNS = 2
JOBS = 2
#: ``profile-cold``: the seeded analysis-stress pipeline.  Its Gcost
#: (about 13.6K nodes) does not depend on ``rounds``; 20 rounds keep a
#: cold command near 6 s on 2 CPUs, so fixed per-shard work dominates.
COLD_SHAPE = (96, 24, 20)
#: ``profile-hot``: suite programs of similar cost (0.9-1.0M tracked
#: instructions per shard, under 400 Gcost nodes), so a seeded order
#: of them keeps the per-run median comparable across seeds.
HOT_POOL = ("derby_like", "lusearch_like", "sunflow_like")
#: ``serve-mixed``: one stress tenant (about 600 KB shards) and the
#: HOT_POOL programs at small scale as suite tenants (a few ms each).
SERVE_STRESS_SHAPE = (96, 24, 3)


def ensure_importable() -> None:
    """Put the checkout's ``src`` on ``sys.path``; fail if absent."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"perfbench: no program sources at {SRC!r}; "
                         f"run from a checkout of the repository")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def fresh_dir(prefix: str) -> str:
    os.makedirs(SCRATCH, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=SCRATCH)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.pop("REPRO_FAULT_PLAN", None)
    return env


# -- statistics -------------------------------------------------------------


def median(values) -> float:
    return statistics.median(values)


def percentile(values, pct: int) -> float:
    """Inclusive-method percentile (``statistics.quantiles``)."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def geomean(values) -> float:
    return statistics.geometric_mean(values)


# -- processes --------------------------------------------------------------


class Command:
    """One finished CLI process: exit code, wall, peak RSS, output."""

    def __init__(self, argv, cwd, timeout=170.0):
        start = time.perf_counter()
        out_path = os.path.join(cwd, "stdout.txt")
        with open(out_path, "w") as out, \
                open(os.path.join(cwd, "stderr.txt"), "w") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", *argv], cwd=cwd,
                env=child_env(), stdout=out, stderr=err)
            status, usage = wait_rusage(proc, timeout)
        self.wall_s = time.perf_counter() - start
        self.returncode = status
        # ru_maxrss (KiB on Linux) of the process, or of its largest
        # reaped descendant (the profiler's workers) if that is larger.
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        with open(out_path) as handle:
            self.stdout = handle.read()


def wait_rusage(proc, timeout):
    """Wait for ``proc`` and return ``(exit code, rusage)``; kills it
    past ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage
        time.sleep(0.002)


class Daemon:
    """A ``repro serve`` process in its own directory."""

    def __init__(self):
        self.dir = fresh_dir("serve-")
        # Relative: unix socket paths are length-limited.
        self.addr = os.path.join(os.path.relpath(self.dir), "d.sock")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", "d.sock",
             "--spill-dir", "spill", "--flight-record", "flight.jsonl"],
            cwd=self.dir, env=child_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        from repro.service import ServiceClient
        deadline = time.monotonic() + 60.0
        while True:
            try:
                with ServiceClient(self.addr, timeout=10.0) as client:
                    client.ping()
                break
            except OSError:
                if self.proc.poll() is not None or \
                        time.monotonic() > deadline:
                    self.stop()
                    raise RuntimeError("repro serve did not come up")
                time.sleep(0.002)
        #: Launch to first answered ``ping``.
        self.setup_s = time.perf_counter() - start
        self.peak_rss_mb = None
        self.returncode = None

    def client(self):
        from repro.service import ServiceClient
        return ServiceClient(self.addr, timeout=120.0)

    def stop(self) -> None:
        """Ask for shutdown, wait, record exit code and peak RSS."""
        if self.proc.returncode is None and self.proc.poll() is None:
            try:
                with self.client() as client:
                    client.shutdown()
            except OSError:
                self.proc.terminate()
        if self.returncode is None:
            status, usage = wait_rusage(self.proc, 60.0)
            self.returncode = status
            self.peak_rss_mb = usage.ru_maxrss / 1024.0
        shutil.rmtree(self.dir, ignore_errors=True)


class FrameConnection:
    """A raw daemon connection that sends pre-encoded frames, so the
    generator spends no time serializing inside the timed region."""

    def __init__(self, addr):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(120.0)
        self.sock.connect(addr)

    def request(self, frame: bytes) -> dict:
        from repro.service.client import read_frame_sync
        self.sock.sendall(frame)
        return read_frame_sync(self.sock)

    def close(self) -> None:
        self.sock.close()


# -- inputs -----------------------------------------------------------------


def cold_source(seed: int) -> str:
    from repro.workloads.stress import stress_source
    return stress_source(*COLD_SHAPE, seed=seed)


def hot_order(seed: int):
    """The seeded order in which ``profile-hot`` visits its programs."""
    order = list(HOT_POOL)
    random.Random(seed).shuffle(order)
    return order


def hot_source(name: str) -> str:
    from repro.workloads import get_workload
    return get_workload(name).source("unopt")


def serve_tenants(seed: int):
    """``[(tenant, source)]`` of ``serve-mixed``: the seeded stress
    tenant first, then the small-scale suite tenants."""
    from repro.workloads import get_workload
    from repro.workloads.stress import stress_source
    tenants = [("stress", stress_source(*SERVE_STRESS_SHAPE, seed=seed))]
    for name in HOT_POOL:
        spec = get_workload(name)
        tenants.append((name, spec.source("unopt", spec.small_scale)))
    return tenants


def write_source(directory: str, name: str, source: str) -> str:
    path = os.path.join(directory, f"{name}.mj")
    with open(path, "w") as handle:
        handle.write(source)
    return path


def profile_jobs(path: str):
    """The jobs ``repro profile PATH --runs RUNS`` builds."""
    from repro.profiler import ProfileJob
    return [ProfileJob.from_file(path, use_stdlib=True, label=f"run{i}")
            for i in range(RUNS)]


def make_shard(source: str) -> dict:
    """One serialized v2 shard of ``source`` (benchmark input, made
    before any timed region)."""
    from repro.profiler import ProfileJob, profile_jobs_sequential
    from repro.profiler.serialize import graph_to_dict
    job = ProfileJob.from_source(source, use_stdlib=True, label="run0")
    result = profile_jobs_sequential([job], slots=SLOTS)
    meta = dict(result.metas[0])
    return graph_to_dict(result.graph, meta=meta, tracker=result.state)


def merged_meta(metas, runs: int) -> dict:
    """The meta a merged profile is reported with (batch ``profile
    --save-graph`` and the daemon's tenants agree on it)."""
    meta = {"instructions": sum(m.get("instructions", 0) for m in metas),
            "slots": SLOTS, "output": metas[0].get("output"),
            "exec_mode": metas[0].get("exec_mode")}
    if runs > 1:
        meta["runs"] = runs
    return meta


def report_json(graph, meta, state, program) -> str:
    """Canonical bytes of a ``report`` document (served or batch)."""
    from repro.observability import bloat_report_data
    return json.dumps(bloat_report_data(graph, meta, state, program),
                      sort_keys=True)


def canonical_json(value) -> str:
    return json.dumps(value, sort_keys=True)


# -- provenance and hermeticity ---------------------------------------------


def host_record(workload: str, seed: int, trace: bool) -> dict:
    import platform
    return {"workload": workload, "seed": seed, "trace": trace,
            "cpus": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "commit": commit()}


def commit() -> str:
    """``git HEAD`` when run from a clone, else a digest of ``src``."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    import hashlib
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".mj")):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def tree_state():
    """What must not change across a run: ``git status --porcelain``
    in a clone, else the checkout's file list outside build caches."""
    try:
        out = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                             capture_output=True, text=True, timeout=60)
        if out.returncode == 0:
            return out.stdout
    except OSError:
        pass
    skip = {"__pycache__", ".work", ".bench_build", ".pytest_cache"}
    listing = []
    for base, dirs, files in os.walk(ROOT):
        dirs[:] = [d for d in dirs if d not in skip]
        listing.extend(os.path.relpath(os.path.join(base, name), ROOT)
                       for name in files)
    return sorted(listing)
