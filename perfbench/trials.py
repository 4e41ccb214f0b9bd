"""Untraced trials, their output checks, the timed loop and its statistics.

A trial makes the same three calls as syncluster.harness._run_trial:
generate_instance, harness.run_pipeline, then exact_recovery and
sync_error. Any exception or failed output check marks the trial failed;
the loop records it and goes on.
"""

import statistics
import time
from dataclasses import dataclass

import numpy as np

from syncluster import RandomSource, SolverConfig, exact_recovery, generate_instance, harness, sync_error
from syncluster.linalg import ORTHOGONALITY_ATOL

from workloads import REFINE_FRACTION

# A percentile is reported only when at least this many samples lie above it.
TAIL_SUPPORT = 10


@dataclass
class TrialRecord:
    """What one trial did. failure is None for a trial that passed every check."""

    index: int
    seed: int
    trial_s: float = None
    solve_s: float = None
    exact: bool = False
    sync_log: float = None
    labels: np.ndarray = None
    failure: str = None


def trial_seed(run_seed, index):
    return RandomSource(run_seed).subseed(index)


def check_outputs(workload, big_k, result, exact, sync_log):
    """Return why the outputs are wrong, or None when every check passes."""
    labels = result.labels
    if labels.min() < 1 or labels.max() > big_k:
        return f"labels leave 1..{big_k}"
    t = result.transforms
    gram = np.matmul(t.transpose(0, 2, 1), t) - np.eye(t.shape[1])
    worst = float(np.linalg.norm(gram, axis=(1, 2)).max())
    if worst > ORTHOGONALITY_ATOL:
        return f"transform off orthogonal by {worst:.3e}"
    if workload.require_exact and not exact:
        return "inexact recovery"
    if workload.sync_log_ceiling is not None and sync_log > workload.sync_log_ceiling:
        return f"sync_error {sync_log:.2f} above ceiling {workload.sync_log_ceiling:.2f}"
    return None


def run_trial(workload, index, seed):
    """One untraced trial, timed end to end (generation and scoring included)."""
    params = workload.params(index, seed)
    rec = TrialRecord(index=index, seed=seed)
    t0 = time.perf_counter()
    try:
        gt, a = generate_instance(params)
        t1 = time.perf_counter()
        _, result, _, _ = harness.run_pipeline(
            a, params.K, params.d, SolverConfig(seed=seed), workload.refine, REFINE_FRACTION
        )
        t2 = time.perf_counter()
        exact = exact_recovery(result.labels, gt.labels, params.K)
        sync_log = sync_error(result.transforms, gt)
        t3 = time.perf_counter()
    except Exception as exc:  # a failing trial is counted, never fatal to the run
        rec.failure = f"{type(exc).__name__}: {exc}"
        return rec
    rec.trial_s, rec.solve_s = t3 - t0, t2 - t1
    rec.exact, rec.sync_log, rec.labels = bool(exact), sync_log, result.labels
    rec.failure = check_outputs(workload, params.K, result, exact, sync_log)
    return rec


def run_loop(workload, run_seed, seconds, step, min_trials):
    """Run step(workload, index, seed) back to back, closed loop, one client.

    Runs at least min_trials, then until `seconds` have passed; the last
    trial started always completes. Returns (records, loop wall seconds).
    """
    records = []
    start = time.perf_counter()
    while len(records) < min_trials or time.perf_counter() - start < seconds:
        index = len(records)
        records.append(step(workload, index, trial_seed(run_seed, index)))
    return records, time.perf_counter() - start


def supported_percentile(samples, q):
    """The q-th percentile, or None when fewer than TAIL_SUPPORT samples lie above it."""
    if not samples:
        return None
    value = float(np.percentile(samples, q))
    beyond = sum(1 for s in samples if s > value)
    return value if beyond >= TAIL_SUPPORT else None


def summarize(workload, records, wall):
    """End-to-end figures of one untraced run (setup and memory are added by the caller).

    Timings come from the trials that passed; a failed trial counts only
    against ok_ratio, trials_per_s and, when scored, exact_rate.
    """
    ok = [r for r in records if r.failure is None]
    trial_times = [r.trial_s for r in ok]
    scored = records[: workload.scored_trials]
    return {
        "trial_s.p50": statistics.median(trial_times) if ok else float("nan"),
        "trial_s.p90": supported_percentile(trial_times, 90),
        "trial_samples": len(trial_times),
        "solve_s.p50": statistics.median(r.solve_s for r in ok) if ok else float("nan"),
        "trials_per_s": len(ok) / wall,
        "exact_rate": sum(r.exact for r in scored) / len(scored),
        "failed_ratio": 1.0 - len(ok) / len(records),
        "ok_ratio": len(ok) / len(records),
    }
