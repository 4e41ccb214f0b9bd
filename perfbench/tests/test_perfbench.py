"""Tests for the benchmark's own code: statistics, failure counting,
determinism, the traced run and the contract with BENCHMARK.json.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import trials
from conftest import BENCH
from syncluster import RecoveryResult
from tracing import SpanLog, TracedRun
from trials import check_outputs, run_loop, run_trial, summarize, supported_percentile
from workloads import SYNC_LOG_CEILING, WORKLOADS, Workload

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

CLEAN = Workload(
    name="clean",
    cells=(dict(n=40, K=2, d=2, p=0.6, q=0.05),),
    refine="both",
    warmup=dict(n=20, K=2, d=2, p=0.6, q=0.05),
    scored_trials=3,
    require_exact=True,
    sync_log_ceiling=SYNC_LOG_CEILING,
)

MIXED = Workload(
    name="mixed",
    cells=(dict(n=80, K=2, d=2, p=0.25, q=0.2), dict(n=80, K=2, d=2, p=0.4, q=0.1)),
    refine="clusters",
    warmup=dict(n=80, K=2, d=2, p=0.4, q=0.1),
    scored_trials=8,
)


def test_percentile_needs_ten_samples_beyond():
    assert supported_percentile([], 90) is None
    assert supported_percentile(list(range(1, 91)), 90) is None  # 9 samples above p90
    value = supported_percentile(list(range(1, 101)), 90)
    assert value == pytest.approx(90.1)
    assert sum(s > value for s in range(1, 101)) == 10


def test_clean_trials_pass_every_check():
    records, wall = run_loop(CLEAN, 7, 0.0, run_trial, 3)
    assert [r.failure for r in records] == [None, None, None]
    summary = summarize(CLEAN, records, wall)
    assert summary["exact_rate"] == 1.0
    assert summary["failed_ratio"] == 0.0 and summary["ok_ratio"] == 1.0


def test_failures_are_counted_and_the_run_continues(monkeypatch):
    calls = []
    real = trials.harness.run_pipeline

    def flaky(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise RuntimeError("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(trials.harness, "run_pipeline", flaky)
    records, wall = run_loop(CLEAN, 7, 0.0, run_trial, 4)
    assert len(records) == 4
    assert [r.failure is None for r in records] == [True, False, True, True]
    assert records[1].failure == "RuntimeError: injected"
    summary = summarize(CLEAN, records, wall)
    assert summary["failed_ratio"] == 0.25 and summary["ok_ratio"] == 0.75


def test_output_checks_flag_bad_results():
    good = RecoveryResult(labels=np.array([1, 2]), transforms=np.stack([np.eye(2)] * 2),
                          confidence=np.ones(2), cluster_count=2)
    assert check_outputs(CLEAN, 2, good, True, -20.0) is None
    assert check_outputs(CLEAN, 2, good, False, -20.0) == "inexact recovery"
    assert "ceiling" in check_outputs(CLEAN, 2, good, True, -1.0)
    bad_labels = RecoveryResult(labels=np.array([1, 3]), transforms=good.transforms,
                                confidence=good.confidence, cluster_count=2)
    assert check_outputs(CLEAN, 2, bad_labels, True, -20.0) == "labels leave 1..2"
    skewed = good.transforms.copy()
    skewed[1, 0, 0] = 1.01
    bad_transforms = RecoveryResult(labels=good.labels, transforms=skewed,
                                    confidence=good.confidence, cluster_count=2)
    assert "orthogonal" in check_outputs(CLEAN, 2, bad_transforms, True, -20.0)


def test_exact_rate_is_fixed_by_the_seed():
    first, wall = run_loop(MIXED, 3, 0.0, run_trial, MIXED.scored_trials)
    longer, longer_wall = run_loop(MIXED, 3, 0.0, run_trial, MIXED.scored_trials + 4)
    rate = summarize(MIXED, first, wall)["exact_rate"]
    assert 0.0 < rate < 1.0
    assert summarize(MIXED, longer, longer_wall)["exact_rate"] == rate
    for a, b in zip(first, longer):
        assert a.seed == b.seed and np.array_equal(a.labels, b.labels)


@pytest.mark.parametrize("workload", [CLEAN, MIXED], ids=lambda w: w.name)
def test_traced_run_matches_untraced_and_reports_every_layer(workload):
    run = TracedRun()
    records, _ = run_loop(workload, 5, 0.0, run.step, 2)
    assert [r.failure for r in records] == [None, None]
    values = run.metrics()
    assert {m["name"] for m in SPEC["per_layer"]} <= set(values)
    assert values["model.matvec_calls"] >= 1 and values["eigensolver.iterations"] >= 1
    assert 0.0 <= values["harness.glue_ratio"] < 0.05
    spans = run.log.spans
    roots = [s for s in spans if s["name"] == "harness.trial"]
    assert [s["trial"] for s in roots] == [0, 1]
    for s in spans:
        assert s["start"] <= s["end"]
        if s["name"] == "model.matvec":
            assert spans[s["parent"]]["name"] == "eigensolver.solve"


def test_span_log_nests_and_closes_on_error():
    log = SpanLog()
    with pytest.raises(ValueError):
        with log.span("outer", 0):
            with log.span("inner", 0, cols=3):
                raise ValueError
    outer, inner = log.spans
    assert outer["parent"] is None and inner["parent"] == outer["id"]
    assert inner["cols"] == 3 and inner["end"] is not None and outer["end"] >= inner["end"]


def test_benchmark_json_matches_the_code():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    records, wall = run_loop(CLEAN, 1, 0.0, run_trial, 3)
    produced = set(summarize(CLEAN, records, wall)) | {"peak_rss_mb", "setup_s"}
    assert {m["name"] for m in SPEC["end_to_end"]} <= produced
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "threshold-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
