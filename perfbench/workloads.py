"""The benchmark's workloads: which instances a trial draws, and what it must get right.

A trial is one `syncluster sweep` row: generate an instance, run the
pipeline, score it. Trial i of a run draws from cell i mod len(cells) with
the integer seed RandomSource(run seed).subseed(i), so a run's inputs are
fixed by its seed alone.
"""

import math
from dataclasses import dataclass

from syncluster import ModelParams
from syncluster.metrics import alpha_for_eta

# Share of least-confident nodes refine_clusters re-examines, as in
# `syncluster sweep` (SweepSpec.fraction).
REFINE_FRACTION = 0.10

# Noiseless refine=both recovers transforms up to the solver tolerance
# (1e-8, which lands near log 1e-8 = -18.4); a scaled worst-node error above
# 1e-6 means the transform refinement went wrong.
SYNC_LOG_CEILING = math.log(1e-6)


@dataclass(frozen=True)
class Workload:
    """One named workload.

    cells are ModelParams keyword sets without the seed. scored_trials is
    the fixed prefix of trials every run completes and exact_rate is taken
    over, so two runs with the same seed report the same rate. warmup is the
    small discarded trial run during set-up.
    """

    name: str
    cells: tuple
    refine: str
    warmup: dict
    scored_trials: int
    require_exact: bool = False
    sync_log_ceiling: float = None

    def params(self, index, seed):
        return ModelParams(seed=seed, **self.cells[index % len(self.cells)])


def _log_density(coef, n):
    return coef * math.log(n) / n


def _sparse_large():
    n = 6400
    p = _log_density(10.0, n)
    small = 400
    return Workload(
        name="sparse-large",
        cells=(dict(n=n, K=2, d=2, p=p, q=p),),
        refine="both",
        warmup=dict(n=small, K=2, d=2, p=_log_density(10.0, small), q=_log_density(10.0, small)),
        scored_trials=3,
        require_exact=True,
        sync_log_ceiling=SYNC_LOG_CEILING,
    )


def _threshold_sweep():
    # Same cells as scripts/configs/eta_threshold.conf restricted to the
    # transition: beta fixed at 2, alpha solved per target eta.
    #
    # Runnable by name and under `--workload all`, but not listed in
    # BENCHMARK.json: its ~50 ms trials are bound by interpreter and per-call
    # overhead, which on a shared 2-vCPU host swings 1.5x for minutes at a
    # time with load on the sibling hyperthreads. Ten-seed sets of 30 s runs
    # gave an IQR/median of trial_s.p50 from 0.12 to 0.33, past the largest
    # regression bound (0.25) the comparison accepts.
    n, d, beta = 400, 2, 2.0
    q = _log_density(beta, n)
    cells = tuple(
        dict(n=n, K=2, d=d, p=_log_density(alpha_for_eta(target, beta, n, d), n), q=q)
        for target in (0.4, 0.5, 0.6, 0.7, 0.8)
    )
    return Workload(
        name="threshold-sweep",
        cells=cells,
        refine="clusters",
        warmup=cells[0],
        scored_trials=200,
    )


def _noisy_dense():
    return Workload(
        name="noisy-dense",
        cells=(dict(n=500, K=3, d=8, p=0.5, q=0.1, sigma=0.3),),
        refine="clusters",
        warmup=dict(n=30, K=3, d=8, p=0.5, q=0.1, sigma=0.3),
        scored_trials=3,
        require_exact=True,
    )


WORKLOADS = {w.name: w for w in (_sparse_large(), _threshold_sweep(), _noisy_dense())}
