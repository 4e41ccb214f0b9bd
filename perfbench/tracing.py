"""The traced run: the pipeline's stages called one by one, with spans.

A traced trial makes the calls of harness.run_pipeline in its order, each
inside a span named after the module it enters, and counts every matvec
through a wrapper set on the instance. After the trial span closes, side
probes time what the trial path does not isolate: connectivity_check on
each estimated cluster, polar_decompose on single d x d blocks, and any
refine pass the workload's refine mode skips. Per-layer figures are
medians over the run's traced trials.
"""

import statistics
import time
from contextlib import contextmanager

import numpy as np

from syncluster import (
    SolverConfig,
    assign_and_extract,
    blockwise_cpqr,
    connectivity_check,
    exact_recovery,
    generate_instance,
    polar_decompose,
    refine_clusters,
    refine_transforms,
    sync_error,
    top_eigenpairs,
)

from trials import TrialRecord, check_outputs, run_trial
from workloads import REFINE_FRACTION

# Blocks per trial for the isolated polar_decompose timing.
POLAR_PROBE_CALLS = 512

class SpanLog:
    """Spans (name, start, end, parent, trial) kept in memory until the run ends."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name, trial, **attrs):
        rec = {"id": len(self.spans), "name": name, "trial": trial,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


def _dur(span):
    return span["end"] - span["start"]


def _count_matvecs(a, log, trial):
    inner = a.matvec

    def matvec(x):
        with log.span("model.matvec", trial, cols=int(np.shape(x)[1]) if np.ndim(x) == 2 else 1):
            return inner(x)

    a.matvec = matvec


def _probe(log, trial, a, factors, assigned, clustered, refine, cfg):
    """Side timings outside the trial span.

    clustered is refine_clusters' output, or None when the refine mode
    skipped that pass. Returns (refine_clusters output, cluster components).
    """
    d = factors.d
    with log.span("harness.probe", trial):
        if clustered is None:
            with log.span("recovery.refine_clusters", trial):
                clustered = refine_clusters(factors, assigned, REFINE_FRACTION)
        with log.span("recovery.connectivity", trial):
            components = 0
            for k in range(1, clustered.cluster_count + 1):
                nodes = clustered.cluster_nodes(k)
                if nodes.size:
                    components += int(connectivity_check(a, nodes)[1].max()) + 1
        calls = min(POLAR_PROBE_CALLS, assigned.labels.size)
        blocks = [
            factors.r[(k - 1) * d : k * d, i * d : (i + 1) * d]
            for i, k in enumerate(assigned.labels[:calls])
        ]
        with log.span("linalg.polar", trial, calls=calls):
            for block in blocks:
                polar_decompose(block)
        if refine not in ("transforms", "both"):
            with log.span("recovery.refine_transforms", trial):
                refine_transforms(a, clustered, cfg)
    return clustered, components


def traced_trial(workload, index, seed, log):
    """One traced trial. Returns (TrialRecord, {layer metric: value} or None on failure)."""
    params = workload.params(index, seed)
    big_k, d = params.K, params.d
    cfg = SolverConfig(seed=seed)
    rec = TrialRecord(index=index, seed=seed)
    first = len(log.spans)
    try:
        with log.span("harness.trial", index) as root:
            with log.span("model.generate", index):
                gt, a = generate_instance(params)
            _count_matvecs(a, log, index)
            with log.span("eigensolver.solve", index):
                basis = top_eigenpairs(a, big_k * d, cfg)
            with log.span("cpqr.factor", index):
                factors = blockwise_cpqr(basis.vectors.T, d)
            with log.span("recovery.assign", index):
                assigned = assign_and_extract(factors, big_k, d)
            result, clustered = assigned, None
            if workload.refine in ("clusters", "both"):
                with log.span("recovery.refine_clusters", index):
                    result = clustered = refine_clusters(factors, result, REFINE_FRACTION)
            if workload.refine in ("transforms", "both"):
                with log.span("recovery.refine_transforms", index):
                    result = refine_transforms(a, result, cfg)
            with log.span("metrics.score", index):
                exact = exact_recovery(result.labels, gt.labels, big_k)
                sync_log = sync_error(result.transforms, gt)
        clustered, components = _probe(log, index, a, factors, assigned, clustered, workload.refine, cfg)
    except Exception as exc:  # a failing trial is counted, never fatal to the run
        rec.failure = f"{type(exc).__name__}: {exc}"
        return rec, None
    rec.trial_s = _dur(root)
    rec.exact, rec.sync_log, rec.labels = bool(exact), sync_log, result.labels
    rec.failure = check_outputs(workload, big_k, result, exact, sync_log)

    spans = log.spans[first:]
    named = {s["name"]: s for s in spans if s["name"] != "model.matvec"}
    matvecs = [s for s in spans if s["name"] == "model.matvec"]
    at_width = [s for s in matvecs if s["cols"] == big_k * d + 1] or matvecs
    matvec_s = sum(_dur(s) for s in matvecs)
    stage_s = sum(_dur(s) for s in spans if s["parent"] == root["id"])
    examined = max(1, int(round(REFINE_FRACTION * params.n)))
    layers = {
        "model.generate_s": _dur(named["model.generate"]),
        "model.pairs": a.pair_count,
        "model.matvec_calls": len(matvecs),
        "model.matvec_ms": 1e3 * statistics.fmean(_dur(s) for s in at_width),
        # 4 * pairs * d^2 * cols: each stored block is applied as (i, j) and
        # (j, i), each a d x d by d x cols product of 2 d^2 cols flops.
        "model.matvec_gflop_s": 4 * a.pair_count * d * d * sum(s["cols"] for s in matvecs) / matvec_s / 1e9,
        "eigensolver.solve_s": _dur(named["eigensolver.solve"]),
        "eigensolver.self_s": _dur(named["eigensolver.solve"]) - matvec_s,
        "eigensolver.iterations": basis.iterations,
        "cpqr.factor_s": _dur(named["cpqr.factor"]),
        "recovery.assign_s": _dur(named["recovery.assign"]),
        "linalg.polar_us": 1e6 * _dur(named["linalg.polar"]) / named["linalg.polar"]["calls"],
        "recovery.refine_clusters_s": _dur(named["recovery.refine_clusters"]),
        "recovery.relabel_ratio": int((clustered.labels != assigned.labels).sum()) / examined,
        "recovery.refine_transforms_s": _dur(named["recovery.refine_transforms"]),
        "recovery.connectivity_s": _dur(named["recovery.connectivity"]),
        "recovery.components": components,
        "metrics.score_s": _dur(named["metrics.score"]),
        "harness.glue_ratio": (rec.trial_s - stage_s) / rec.trial_s,
    }
    return rec, layers


class TracedRun:
    """Runs each trial untraced, then traced, and keeps what the per-layer figures need."""

    def __init__(self):
        self.log = SpanLog()
        self.layers = []
        self.plain_s = []
        self.traced_s = []

    def step(self, workload, index, seed):
        plain = run_trial(workload, index, seed)
        traced, layers = traced_trial(workload, index, seed, self.log)
        failure = plain.failure or traced.failure
        if failure is None and not np.array_equal(plain.labels, traced.labels):
            failure = "traced and untraced labels differ"
        if failure is None:
            self.layers.append(layers)
            self.plain_s.append(plain.trial_s)
            self.traced_s.append(traced.trial_s)
        traced.failure = failure
        return traced

    def metrics(self):
        """Per-layer medians over the traced trials that passed, plus the tracing overhead."""
        if not self.layers:
            return {}
        out = {name: statistics.median(row[name] for row in self.layers) for name in self.layers[0]}
        out["harness.trace_overhead_s"] = statistics.median(self.traced_s) - statistics.median(self.plain_s)
        return out
