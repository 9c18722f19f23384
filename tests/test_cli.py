"""Tests for the command-line interface."""

import tempfile

import pytest

from repro.cli import (EXIT_BAD_INPUT, EXIT_DEGRADED, EXIT_RUNTIME,
                       main)

DEMO = """
class Entry {
    int a;
    Entry(int x) { a = x * 7 + 3; }
}
class Main {
    static void main() {
        Entry[] kept = new Entry[10];
        int n = 0;
        for (int i = 0; i < 10; i++) {
            kept[i] = new Entry(i);
            n = n + 1;
        }
        Sys.printInt(n);
    }
}
"""


@pytest.fixture(autouse=True)
def _isolated_cwd(tmp_path, monkeypatch):
    # Relative paths and the temp directory (the flight recorder's
    # default dump file) both resolve into the test's tmp dir.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", None)


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.mj"
    path.write_text(DEMO)
    return str(path)


def test_run(demo_file, capsys):
    assert main(["run", demo_file]) == 0
    out = capsys.readouterr().out
    assert "10" in out


def test_run_no_stdlib(demo_file, capsys):
    assert main(["run", demo_file, "--no-stdlib"]) == 0
    assert "10" in capsys.readouterr().out


def test_disasm(demo_file, capsys):
    assert main(["disasm", demo_file, "--no-stdlib"]) == 0
    out = capsys.readouterr().out
    assert "class Main" in out
    assert "new Entry" in out


def test_profile_all_reports(demo_file, capsys):
    assert main(["profile", demo_file, "--no-stdlib"]) == 0
    out = capsys.readouterr().out
    assert "object cost-benefit" in out
    assert "ultimately-dead" in out
    assert "method-level costs" in out
    assert "cache effectiveness" in out


def test_profile_single_report(demo_file, capsys):
    assert main(["profile", demo_file, "--no-stdlib",
                 "--report", "cost-benefit", "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert "object cost-benefit" in out
    assert "method-level costs" not in out


def test_profile_save_and_analyze(demo_file, tmp_path, capsys):
    graph_path = str(tmp_path / "g.json")
    assert main(["profile", demo_file, "--no-stdlib",
                 "--save-graph", graph_path]) == 0
    capsys.readouterr()
    assert main(["analyze", graph_path, demo_file,
                 "--no-stdlib"]) == 0
    out = capsys.readouterr().out
    assert "loaded graph" in out
    assert "new Entry" in out


def test_profile_with_phases(demo_file, capsys):
    assert main(["profile", demo_file, "--no-stdlib",
                 "--phases", "main"]) == 0
    assert "graph" in capsys.readouterr().out


def test_profile_parallel_runs(demo_file, capsys):
    """--jobs/--runs shard the profile and merge the Gcost."""
    assert main(["profile", demo_file, "--no-stdlib",
                 "--jobs", "2", "--runs", "4",
                 "--report", "bloat"]) == 0
    out = capsys.readouterr().out
    assert "shards: 4 runs over 2 worker(s)" in out
    assert "merged graph" in out
    assert "ultimately-dead" in out


def test_profile_parallel_matches_single(demo_file, capsys):
    """One run over one worker reports the same graph as the plain
    path (aggregation is the identity at runs=1)."""
    assert main(["profile", demo_file, "--no-stdlib",
                 "--report", "bloat"]) == 0
    single = capsys.readouterr().out
    assert main(["profile", demo_file, "--no-stdlib",
                 "--jobs", "1", "--runs", "2",
                 "--report", "bloat"]) == 0
    sharded = capsys.readouterr().out
    nodes = [line for line in single.splitlines()
             if "instructions:" in line][0]
    merged = [line for line in sharded.splitlines()
              if "instructions:" in line][0]
    # Same node/edge counts; instruction count and frequencies double.
    assert nodes.split("graph:")[1] == merged.split("graph:")[1]


def test_profile_parallel_save_and_analyze(demo_file, tmp_path, capsys):
    graph_path = str(tmp_path / "merged.json")
    assert main(["profile", demo_file, "--no-stdlib",
                 "--jobs", "2", "--save-graph", graph_path]) == 0
    capsys.readouterr()
    assert main(["analyze", graph_path, demo_file,
                 "--no-stdlib"]) == 0
    out = capsys.readouterr().out
    assert "loaded graph" in out
    assert "CR:" in out                      # v2 state travelled along
    # The `profile` report body, returns section included (v2 state).
    assert "== return-value costs ==" in out
    assert "== always-true/false predicates ==" in out


def test_workloads_list(capsys):
    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    assert "bloat_like" in out
    assert "luindex_like" in out


def test_workloads_run_small(capsys):
    assert main(["workloads", "chart_like", "--small"]) == 0
    out = capsys.readouterr().out
    assert "unopt" in out and "opt" in out


def test_max_steps_guard(demo_file, capsys):
    assert main(["run", demo_file, "--max-steps", "5"]) == 1
    err = capsys.readouterr().err
    assert "instruction budget" in err


def test_profile_telemetry_flag(demo_file, tmp_path, capsys):
    """--telemetry writes a JSONL event stream alongside the reports."""
    from repro.observability import NULL, current, read_jsonl
    events_path = str(tmp_path / "events.jsonl")
    assert main(["profile", demo_file, "--no-stdlib",
                 "--report", "bloat", "--telemetry", events_path]) == 0
    assert current() is NULL                 # hub restored afterwards
    events = read_jsonl(events_path)
    kinds = [e["ev"] for e in events]
    assert kinds[0] == "meta"
    assert "vm.run" in kinds
    assert "tracker" in kinds


def test_profile_self_profile_flag(demo_file, capsys):
    assert main(["profile", demo_file, "--no-stdlib",
                 "--report", "bloat", "--self-profile"]) == 0
    out = capsys.readouterr().out
    assert "tracker overhead:" in out
    assert "untracked" in out


def test_self_profile_times_the_profiles_own_tier(demo_file, monkeypatch,
                                                 capsys):
    """Both timed sides of ``--self-profile`` run the profile's
    configuration: ``--exec-mode interp`` times interp against interp."""
    from repro.vm import VM
    runs = []
    original = VM.run

    def recorded(vm):
        result = original(vm)
        runs.append((vm.tracer is not None, vm.exec_tier))
        return result

    monkeypatch.setattr(VM, "run", recorded)
    assert main(["profile", demo_file, "--no-stdlib", "--exec-mode",
                 "interp", "--report", "bloat", "--self-profile"]) == 0
    assert "tracker overhead:" in capsys.readouterr().out
    untracked = [tier for tracked, tier in runs if not tracked]
    assert untracked
    assert {tier for _, tier in runs} == {"interp"}


def _alloc_counts(out):
    """``{site: allocs}`` from a cost-benefit table on stdout."""
    counts = {}
    lines = out.split("== object cost-benefit")[1].splitlines()
    for line in lines[3:]:
        if not line.strip():
            break
        fields = line.split()
        counts[f"{fields[1]} {fields[2]}"] = int(fields[-4])
    return counts


def test_sharded_alloc_counts_sum_the_shards(demo_file, tmp_path,
                                             capsys):
    """Shard metas carry the heap's per-site counts, and the merged
    table sums them, also after a checkpoint's JSON round trip."""
    assert main(["profile", demo_file, "--no-stdlib",
                 "--report", "cost-benefit"]) == 0
    single = _alloc_counts(capsys.readouterr().out)
    assert single == {"new Entry[]": 1, "new Entry": 10}
    ckpt = str(tmp_path / "ckpt.json")
    for _ in range(2):   # the second run resumes both shards
        assert main(["profile", demo_file, "--no-stdlib",
                     "--jobs", "2", "--runs", "2", "--resume", ckpt,
                     "--report", "cost-benefit"]) == 0
        sharded = _alloc_counts(capsys.readouterr().out)
        assert sharded == {site: 2 * n for site, n in single.items()}


def test_sharded_salvage_prints_run_report(demo_file, capsys):
    """Shards salvaged from a VM fault are reported on stdout; the run
    still exits 0 (salvaged shards are not failures)."""
    assert main(["profile", demo_file, "--no-stdlib",
                 "--jobs", "2", "--runs", "2", "--max-steps", "50",
                 "--report", "bloat"]) == 0
    out = capsys.readouterr().out
    assert "2 salvaged" in out
    assert "shard 1 [run1]: salvaged" in out


def test_sharded_telemetry_has_one_tracker_event(demo_file, tmp_path):
    from repro.observability import read_jsonl
    events_path = str(tmp_path / "events.jsonl")
    assert main(["profile", demo_file, "--no-stdlib",
                 "--jobs", "2", "--runs", "2", "--report", "bloat",
                 "--telemetry", events_path]) == 0
    tracker = [e for e in read_jsonl(events_path) if e["ev"] == "tracker"]
    assert len(tracker) == 1
    assert tracker[0]["nodes"] > 0


def test_sharded_telemetry_relays_lazy_tier_compiles(tmp_path):
    """Each worker compiles only the methods its run calls, on first
    call, and relays one ``tier.compile`` observation per method."""
    import os

    from repro.observability import read_jsonl
    path = tmp_path / "probe.mj"
    # A source of its own: no earlier in-process run has compiled its
    # tier, which forked workers would otherwise inherit.
    path.write_text(DEMO + "// tier.compile probe\n")
    events_path = str(tmp_path / "events.jsonl")
    assert main(["profile", str(path), "--jobs", "2", "--runs", "2",
                 "--report", "bloat", "--telemetry", events_path]) == 0
    compiles = [e["timers"]["tier.compile"]
                for e in read_jsonl(events_path)
                if e["ev"] == "timers" and e["pid"] != os.getpid()]
    assert len(compiles) == 2
    for timer in compiles:
        assert timer["n"] == 2          # Main.main and the Entry ctor
        assert timer["total"] > 0


def test_single_run_save_matches_sequential_oracle(demo_file, tmp_path,
                                                   capsys):
    from repro.profiler import (ProfileJob, canonical_form, load_profile,
                                profile_jobs_sequential)
    graph_path = str(tmp_path / "g.json")
    assert main(["profile", demo_file, "--no-stdlib", "--report", "bloat",
                 "--save-graph", graph_path]) == 0
    assert "output: '10'" in capsys.readouterr().out
    graph, meta, state = load_profile(graph_path)
    oracle = profile_jobs_sequential(
        [ProfileJob.from_file(demo_file, use_stdlib=False, label="run0")])
    assert canonical_form(graph, state) == \
        canonical_form(oracle.graph, oracle.state)
    assert meta["instructions"] == oracle.instructions


def test_report_command(demo_file, tmp_path, capsys):
    """profile --save-graph --self-profile then report renders the
    full Markdown bloat report, overhead section included."""
    graph_path = str(tmp_path / "g.json")
    assert main(["profile", demo_file, "--no-stdlib",
                 "--report", "bloat", "--self-profile",
                 "--save-graph", graph_path]) == 0
    capsys.readouterr()
    assert main(["report", graph_path, demo_file,
                 "--no-stdlib", "--top", "5"]) == 0
    out = capsys.readouterr().out
    assert "# Bloat report" in out
    assert "## Run summary" in out
    assert "## Top cost-benefit offenders" in out
    assert "new Entry" in out
    assert "## Costliest fields (HRAC, Definition 5)" in out
    assert "## Least-beneficial fields (HRAB, Definition 6)" in out
    assert "## Tracker overhead" in out
    assert "context conflict ratio (CR)" in out


def test_report_command_out_file(demo_file, tmp_path, capsys):
    graph_path = str(tmp_path / "g.json")
    report_path = tmp_path / "report.md"
    assert main(["profile", demo_file, "--no-stdlib",
                 "--report", "bloat", "--save-graph", graph_path]) == 0
    capsys.readouterr()
    assert main(["report", graph_path, demo_file, "--no-stdlib",
                 "--out", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "report written to" in out
    text = report_path.read_text()
    assert text.startswith("# Bloat report")
    # No overhead data was recorded, so the report says how to get it.
    assert "--self-profile" in text


def test_report_parallel_profile(demo_file, tmp_path, capsys):
    """report also renders merged (multi-run) profiles."""
    graph_path = str(tmp_path / "merged.json")
    assert main(["profile", demo_file, "--no-stdlib",
                 "--jobs", "2", "--runs", "4",
                 "--report", "bloat", "--save-graph", graph_path]) == 0
    capsys.readouterr()
    assert main(["report", graph_path, demo_file,
                 "--no-stdlib"]) == 0
    out = capsys.readouterr().out
    assert "# Bloat report" in out
    assert "aggregated runs" in out
    assert "new Entry" in out


def test_report_format_json(demo_file, tmp_path, capsys):
    """report --format json emits the bloat report machine-readably."""
    import json
    graph_path = str(tmp_path / "g.json")
    assert main(["profile", demo_file, "--no-stdlib",
                 "--report", "bloat", "--save-graph", graph_path]) == 0
    capsys.readouterr()
    assert main(["report", graph_path, demo_file, "--no-stdlib",
                 "--format", "json", "--top", "5"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) >= {"summary", "cost_benefit", "hrac", "hrab",
                         "dead_values", "overhead"}
    assert data["summary"]["nodes"] > 0
    assert data["summary"]["conflict_ratio"] is not None
    assert any("Entry" in row["site"] for row in data["cost_benefit"])
    assert 0.0 <= data["dead_values"]["ipd"] <= 1.0


def test_trace_command(demo_file, tmp_path, capsys):
    """profile --telemetry then trace renders the critical-path report
    over the stitched cross-process stream."""
    import json
    events_path = str(tmp_path / "events.jsonl")
    assert main(["profile", demo_file, "--no-stdlib",
                 "--jobs", "2", "--runs", "3",
                 "--report", "bloat", "--telemetry", events_path]) == 0
    capsys.readouterr()
    assert main(["trace", events_path]) == 0
    out = capsys.readouterr().out
    assert "trace " in out
    assert "supervisor.map" in out
    assert "shard attempts (3" in out
    assert "critical path" in out
    assert "telemetry footprint" in out
    assert main(["trace", events_path, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["critical_path_s"] <= data["wall_s"] + 1e-6
    assert len(data["shard_attempts"]) == 3
    assert data["streams"] >= 2              # parent + worker hubs


def test_trace_command_out_file(demo_file, tmp_path, capsys):
    events_path = str(tmp_path / "events.jsonl")
    report_path = tmp_path / "trace.txt"
    assert main(["profile", demo_file, "--no-stdlib",
                 "--report", "bloat", "--telemetry", events_path]) == 0
    capsys.readouterr()
    assert main(["trace", events_path, "--out", str(report_path)]) == 0
    assert "trace report written to" in capsys.readouterr().out
    assert "phases" in report_path.read_text()


def test_trace_command_bad_input(tmp_path, capsys):
    assert main(["trace", str(tmp_path / "ghost.jsonl")]) == \
        EXIT_BAD_INPUT
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["trace", str(empty)]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert "no telemetry events" in err


class TestCleanErrors:
    """User mistakes produce one-line errors and the documented exit
    codes (bad input 2, runtime failure 1), not tracebacks."""

    def test_missing_file(self, capsys):
        assert main(["run", "ghost.mj"]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert "cannot open" in err

    def test_compile_error(self, tmp_path, capsys):
        path = tmp_path / "bad.mj"
        path.write_text("class Main { static void main() { int x = ; } }")
        assert main(["run", str(path)]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert "parse error" in err
        assert "Traceback" not in err

    def test_runtime_error(self, tmp_path, capsys):
        path = tmp_path / "npe.mj"
        path.write_text("class A { int v; }\nclass Main "
                        "{ static void main() { A a = null; "
                        "Sys.printInt(a.v); } }")
        assert main(["run", str(path), "--no-stdlib"]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "null dereference" in err
        assert "Main.main" in err

    def test_unknown_workload_clean(self, capsys):
        assert main(["workloads", "ghost_like"]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert "unknown workload" in err

    def test_corrupt_profile_is_bad_input(self, tmp_path, demo_file,
                                          capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"version": 2, "nodes": [[1,')
        assert main(["analyze", str(path), demo_file,
                     "--no-stdlib"]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert "truncated" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("top", ["0", "-2"])
    @pytest.mark.parametrize("argv", [
        ["profile", "x.mj"], ["analyze", "g.json", "x.mj"],
        ["report", "g.json", "x.mj"], ["trace", "t.jsonl"],
        ["client", "query", "summary", "--addr", "x.sock"],
        ["client", "stats", "--addr", "x.sock"]],
        ids=lambda argv: " ".join(argv[:2]))
    def test_top_below_one_is_bad_input(self, argv, top, capsys):
        """Every ``--top`` refuses a row count below 1, as the
        daemon's queries do, before any file or socket is touched."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--top", top])
        assert exit_info.value.code == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.splitlines()[-1].endswith(
            f"argument --top: top must be a positive integer, "
            f"got '{top}'")


class TestResilienceFlags:
    """Supervised sharding: fault plans, strict mode, degraded exit
    code, checkpoint-resume, and profile salvage at the CLI surface."""

    @pytest.fixture
    def fault_env(self, monkeypatch):
        def set_plan(plan_json):
            monkeypatch.setenv("REPRO_FAULT_PLAN", plan_json)
        return set_plan

    def test_crash_then_succeed_recovers(self, demo_file, fault_env,
                                         capsys):
        fault_env('{"faults": [{"shard": 1, "attempt": 0, '
                  '"kind": "crash"}]}')
        assert main(["profile", demo_file, "--no-stdlib",
                     "--jobs", "2", "--runs", "3",
                     "--report", "bloat"]) == 0
        out = capsys.readouterr().out
        assert "shards: 3 runs over 2 worker(s)" in out
        assert "1 retry" in out
        assert "ultimately-dead" in out

    def test_unrecoverable_shard_degrades(self, demo_file, fault_env,
                                          capsys):
        fault_env('{"faults": [{"shard": 1, "attempt": 0, '
                  '"kind": "crash"}]}')
        assert main(["profile", demo_file, "--no-stdlib",
                     "--jobs", "2", "--runs", "3",
                     "--max-retries", "0",
                     "--report", "bloat"]) == EXIT_DEGRADED
        out = capsys.readouterr().out
        assert "1 failed" in out
        assert "shard 1 [run1]: failed" in out
        assert "ultimately-dead" in out       # surviving shards merged

    def test_strict_mode_fails_fast(self, demo_file, fault_env, capsys):
        fault_env('{"faults": [{"shard": 0, "attempt": 0, '
                  '"kind": "crash"}]}')
        assert main(["profile", demo_file, "--no-stdlib",
                     "--jobs", "2", "--runs", "2", "--strict",
                     "--max-retries", "0"]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "strict run aborted" in err

    def test_retried_crash_dumps_into_temp_dir(self, demo_file, tmp_path,
                                               fault_env, monkeypatch,
                                               capsys):
        """A retried shard crash dumps the flight recorder under the
        temp directory, never into the working directory, and stderr
        says where the replayable dump is."""
        from repro.observability import load_trace
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        fault_env('{"faults": [{"shard": 0, "attempt": 0, '
                  '"kind": "crash"}]}')
        assert main(["profile", demo_file, "--no-stdlib",
                     "--jobs", "2", "--runs", "2"]) == 0
        err = capsys.readouterr().err
        assert list(cwd.iterdir()) == []
        dumps = list(tmp_path.glob("repro-flight-*.jsonl"))
        assert len(dumps) == 1
        assert err.count("flight recorder dumped to") == 1
        assert f"flight recorder dumped to {dumps[0]}" in err
        trace = load_trace(str(dumps[0]))
        assert 0 in {span.meta.get("shard")
                     for span in trace.shard_attempts()}

    def test_resume_checkpoint_roundtrip(self, demo_file, tmp_path,
                                         capsys):
        ckpt = str(tmp_path / "ckpt.json")
        g_resumed = str(tmp_path / "resumed.json")
        g_plain = str(tmp_path / "plain.json")
        assert main(["profile", demo_file, "--no-stdlib",
                     "--jobs", "2", "--runs", "3", "--resume", ckpt,
                     "--report", "bloat"]) == 0
        capsys.readouterr()
        # Second invocation resumes every shard from the checkpoint.
        assert main(["profile", demo_file, "--no-stdlib",
                     "--jobs", "2", "--runs", "3", "--resume", ckpt,
                     "--report", "bloat",
                     "--save-graph", g_resumed]) == 0
        assert "3 resumed" in capsys.readouterr().out
        assert main(["profile", demo_file, "--no-stdlib",
                     "--jobs", "2", "--runs", "3",
                     "--report", "bloat",
                     "--save-graph", g_plain]) == 0
        capsys.readouterr()
        from repro.profiler import canonical_form, load_profile
        resumed_graph, _, resumed_state = load_profile(g_resumed)
        plain_graph, _, plain_state = load_profile(g_plain)
        assert canonical_form(resumed_graph, resumed_state) == \
            canonical_form(plain_graph, plain_state)

    def test_analyze_salvage_flag(self, demo_file, tmp_path, capsys):
        graph_path = tmp_path / "g.json"
        assert main(["profile", demo_file, "--no-stdlib",
                     "--report", "bloat",
                     "--save-graph", str(graph_path)]) == 0
        capsys.readouterr()
        text = graph_path.read_text()
        graph_path.write_text(text[:int(len(text) * 0.7)])
        assert main(["analyze", str(graph_path), demo_file,
                     "--no-stdlib"]) == EXIT_BAD_INPUT
        capsys.readouterr()
        assert main(["analyze", str(graph_path), demo_file,
                     "--no-stdlib", "--salvage"]) == 0
        captured = capsys.readouterr()
        assert "salvage:" in captured.err
        assert "loaded graph" in captured.out
