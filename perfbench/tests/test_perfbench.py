"""Tests of the benchmark itself: names, tiny-size smoke, failure paths.

Run with ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from perfbench import e2e, harness, run, traced  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_names_match_benchmark_json():
    spec = benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == e2e.END_TO_END
    assert per_layer == traced.PER_LAYER
    names = (list(run.WORKLOADS) + list(end_to_end) + list(per_layer)
             + list(e2e.SERVE_LATENCY))
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name


def small_suite_source(name):
    from repro.workloads import get_workload
    spec = get_workload(name)
    return spec.source("unopt", spec.small_scale)


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every input so a run takes seconds."""
    monkeypatch.setattr(harness, "COLD_SHAPE", (4, 4, 2))
    monkeypatch.setattr(harness, "SERVE_STRESS_SHAPE", (4, 4, 2))
    monkeypatch.setattr(harness, "HOT_POOL", ("chart_like", "xalan_like"))
    monkeypatch.setattr(harness, "hot_source", small_suite_source)
    monkeypatch.setattr(e2e, "SETUP_REPEATS", 2)
    monkeypatch.setattr(traced, "TRACKED_RUNS", 2)


def last_result(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    return json.loads(out[-1]), out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke(tiny, capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3",
                     "--seconds", "0.3", "--trace", str(trace)])
    result, out = last_result(capsys)
    assert code == 0, out
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = traced.PER_LAYER if trace else e2e.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected
    if workload == "serve-mixed" and not trace:
        printed = {line.split()[0] for line in out}
        assert set(e2e.SERVE_LATENCY) <= printed
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name
    if trace:
        metrics = result["metrics"]
        assert metrics["bench.unattributed_share"]["value"] <= 0.10
        if workload == "serve-mixed":
            assert metrics["vm.run_s"]["value"] == 0
        else:
            assert metrics["vm.run_s"]["value"] > 0


def test_wrong_output_fails_the_run(tiny, capsys, monkeypatch):
    import repro.profiler
    monkeypatch.setattr(repro.profiler, "canonical_form",
                        lambda *args: object())
    code = run.main(["--workload", "profile-cold", "--seed", "1",
                     "--seconds", "0.1", "--trace", "0"])
    result, _ = last_result(capsys)
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1


def test_refuses_to_run_without_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "profile-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
