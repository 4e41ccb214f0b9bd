"""Sweep resolution, CSV output, determinism, config parsing, benching."""

import csv
import dataclasses
import itertools
import json
import math
import os
import platform
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oracles
import syncluster
from syncluster import harness
from syncluster.errors import (
    NoConvergenceError,
    NonFiniteError,
    ParseError,
    SynclusterError,
    ValidationError,
)
from syncluster.harness import (
    BENCH_COLUMNS,
    CSV_COLUMNS,
    CSV_SCHEMA_VERSION,
    FLAG_DEGENERATE_GAP,
    FLAG_RANK_DEFICIENT,
    SweepSpec,
    fit_loglog_slope,
    load_config,
    load_model_config,
    resolve_cells,
    run_runtime_bench,
    run_sweep,
)
from syncluster.metrics import eta
from syncluster.recovery import FLAG_DISCONNECTED_CLUSTER


def _small_spec(**kw):
    base = dict(
        mode="grid",
        n=(32,),
        K=2,
        d=(1,),
        alpha=(8.0,),
        beta=(0.5,),
        trials=2,
        seed=7,
        zero_timings=True,
    )
    base.update(kw)
    return SweepSpec(**base)


# --- cell resolution --------------------------------------------------------


def test_grid_cells_row_major_with_derived_probabilities():
    spec = _small_spec(alpha=(6.0, 8.0), beta=(0.5, 1.0, 1.5))
    cells = resolve_cells(spec)
    assert len(cells) == 6
    assert [c["alpha"] for c in cells] == [6.0, 6.0, 6.0, 8.0, 8.0, 8.0]
    assert [c["beta"] for c in cells] == [0.5, 1.0, 1.5] * 2
    logn = math.log(32)
    for c in cells:
        assert c["p"] == pytest.approx(c["alpha"] * logn / 32)
        assert c["q"] == pytest.approx(c["beta"] * logn / 32)
        assert c["eta"] == pytest.approx(eta(32, c["p"], c["q"], 1))


def test_noise_grid_crosses_sigmas():
    spec = _small_spec(mode="noise-grid", sigma=(0.0, 0.25, 0.5))
    cells = resolve_cells(spec)
    assert [c["sigma"] for c in cells] == [0.0, 0.25, 0.5]
    single = _small_spec(mode="noise-grid", sigma=(0.3,))
    assert [c["sigma"] for c in resolve_cells(single)] == [0.3]
    grid = _small_spec(alpha=(6.0, 8.0), sigma=(0.0, 0.5))
    cells = resolve_cells(grid)
    assert [(c["alpha"], c["sigma"]) for c in cells] == [(6.0, 0.0), (6.0, 0.5), (8.0, 0.0), (8.0, 0.5)]
    assert {c["mode"] for c in cells} == {"grid"}


def test_cells_are_the_product_of_n_d_density_and_sigma_in_order():
    spec = _small_spec(n=(32, 48), d=(1, 2), alpha=(6.0, 8.0), sigma=(0.0, 0.1))
    cells = resolve_cells(spec)
    assert [(c["n"], c["d"], c["alpha"], c["beta"], c["sigma"]) for c in cells] == list(
        itertools.product((32, 48), (1, 2), (6.0, 8.0), (0.5,), (0.0, 0.1))
    )
    for c in cells:
        assert c["p"] == pytest.approx(c["alpha"] * math.log(c["n"]) / c["n"])
        assert c["params"] == syncluster.ModelParams(n=c["n"], K=2, d=c["d"], p=c["p"],
                                                     q=c["q"], sigma=c["sigma"])


def test_every_mode_resolves_the_same_cells():
    # mode names the study; the axes alone pick the cells.
    spec = _small_spec(n=(32, 48), sigma=(0.0, 0.1))
    want = [dict(c, mode=None) for c in resolve_cells(spec)]
    for mode in harness.MODES:
        cells = resolve_cells(replace(spec, mode=mode))
        assert {c["mode"] for c in cells} == {mode}
        assert [dict(c, mode=None) for c in cells] == want


def test_eta_sweep_solves_the_free_axis():
    spec = _small_spec(
        mode="eta-sweep", n=(200,), beta=(1.0,), alpha=(), eta=(0.3, 0.6)
    )
    cells = resolve_cells(spec)
    assert len(cells) == 2
    for cell, target in zip(cells, (0.3, 0.6)):
        assert cell["beta"] == 1.0
        assert cell["eta"] == pytest.approx(target, rel=1e-12)
    flipped = _small_spec(
        mode="eta-sweep", n=(200,), alpha=(20.0,), beta=(), eta=(0.25,)
    )
    (cell,) = resolve_cells(flipped)
    assert cell["alpha"] == 20.0
    assert cell["eta"] == pytest.approx(0.25, rel=1e-12)


def test_eta_targets_are_solved_per_block_size():
    # A d axis gives one cell per (d, target), each on its target.
    spec = _small_spec(mode="eta-sweep", n=(200,), d=(3, 5), alpha=(), beta=(1.0,),
                       eta=(0.3, 0.6), sigma=(0.0, 0.1))
    cells = resolve_cells(spec)
    axes = list(itertools.product((3, 5), (0.3, 0.6), (0.0, 0.1)))
    assert [(c["d"], c["sigma"]) for c in cells] == [(d, sigma) for d, _, sigma in axes]
    for c, (_, target, _) in zip(cells, axes):
        assert abs(c["eta"] - target) <= 1e-12
        assert c["beta"] == 1.0


_DENSITY_FORMS = (
    "^density must take one form: p and q together; alpha x beta; "
    "or eta with one value on exactly one of alpha and beta$"
)


def test_eta_sweep_needs_exactly_one_fixed_value():
    # The one density axis given is the fixed one: both axes, neither, or
    # two values on one axis leave it ambiguous.
    for alpha, beta in [((8.0,), (1.0,)), ((), ()), ((), (1.0, 2.0)), ((6.0, 8.0), ())]:
        spec = _small_spec(mode="eta-sweep", alpha=alpha, beta=beta, eta=(0.5,))
        with pytest.raises(ValidationError, match=_DENSITY_FORMS):
            resolve_cells(spec)


@pytest.mark.parametrize("settings", [
    pytest.param(dict(mode="grid", p=0.9, q=0.9, eta=(0.5,)), id="grid-p-q-eta-alpha-beta"),
    pytest.param(dict(mode="snr", p=0.9, q=0.9), id="snr-p-q-alpha-beta"),
    pytest.param(dict(mode="snr", alpha=(), beta=(), p=0.5), id="p-without-q"),
    pytest.param(dict(mode="snr", alpha=(), beta=(), q=0.5), id="q-without-p"),
    pytest.param(dict(mode="eta-sweep", alpha=(), p=0.5, eta=(0.5,)), id="eta-with-p"),
    pytest.param(dict(mode="grid", beta=()), id="alpha-alone"),
    pytest.param(dict(mode="grid", alpha=()), id="beta-alone"),
    pytest.param(dict(mode="runtime", alpha=(), beta=()), id="runtime-no-density"),
])
def test_density_takes_exactly_one_form(settings):
    with pytest.raises(ValidationError, match=_DENSITY_FORMS):
        _small_spec(**settings).validate()


def test_snr_cells_have_no_default_probabilities():
    # snr has no density of its own: p and q come from the spec.
    spec = _small_spec(mode="snr", n=(40,), d=(2, 10), alpha=(), beta=(), p=0.5, q=0.5,
                       sigma=(0.0, 0.2))
    cells = resolve_cells(spec)
    assert [(c["d"], c["sigma"]) for c in cells] == [(2, 0.0), (2, 0.2), (10, 0.0), (10, 0.2)]
    assert all(c["p"] == 0.5 and c["q"] == 0.5 for c in cells)
    assert all(c["alpha"] is None and c["beta"] is None for c in cells)
    with pytest.raises(ValidationError, match=_DENSITY_FORMS):
        resolve_cells(replace(spec, p=None, q=None))


def test_cells_without_within_cluster_edges_have_infinite_eta():
    spec = _small_spec(mode="snr", alpha=(), beta=(), p=0.0, q=0.5)
    assert resolve_cells(spec)[0]["eta"] == math.inf


def test_runtime_cells_sit_at_the_bench_density():
    # The bundled bench config gives its density, p = q = 10 log(n)/n, as
    # alpha = beta = 10; every other axis a runtime spec sets is used too.
    configs = Path(__file__).resolve().parents[1] / "scripts" / "configs"
    cells = resolve_cells(load_config(configs / "runtime_bench.conf"))
    assert [c["n"] for c in cells] == [200, 400, 800, 1600]
    for c in cells:
        assert (c["K"], c["d"], c["alpha"], c["beta"]) == (2, 2, 10.0, 10.0)
        assert c["p"] == c["q"] == 10.0 * math.log(c["n"]) / c["n"]
    spec = SweepSpec(mode="runtime", n=(999,), alpha=(4.0, 6.0), beta=(1.0,), sigma=(0.1, 0.2))
    assert [(c["n"], c["alpha"], c["beta"], c["sigma"]) for c in resolve_cells(spec)] == [
        (999, 4.0, 1.0, 0.1), (999, 4.0, 1.0, 0.2), (999, 6.0, 1.0, 0.1), (999, 6.0, 1.0, 0.2)
    ]


def test_derived_probability_out_of_range():
    spec = _small_spec(alpha=(50.0,))  # p = 50 log(32)/32 > 1
    with pytest.raises(ValidationError, match="outside"):
        resolve_cells(spec)


def test_spec_validation_messages():
    with pytest.raises(ValidationError, match="mode"):
        SweepSpec(mode="bogus").validate()
    with pytest.raises(ValidationError, match="refine"):
        _small_spec(refine="sometimes").validate()
    with pytest.raises(ValidationError, match="trials"):
        _small_spec(trials=0).validate()
    with pytest.raises(ValidationError, match="workers"):
        _small_spec(workers=0).validate()
    with pytest.raises(ValidationError, match="^n must list at least one size$"):
        SweepSpec(mode="grid", alpha=(1.0,), beta=(1.0,)).validate()
    with pytest.raises(ValidationError, match="^n must list at least one size$"):
        SweepSpec(mode="runtime", alpha=(10.0,), beta=(10.0,)).validate()
    with pytest.raises(ValidationError, match="sigma"):
        _small_spec(sigma=(-0.5,)).validate()


def test_validate_returns_the_resolved_cells():
    spec = _small_spec(alpha=(6.0, 8.0), beta=(0.5, 1.0))
    assert spec.validate() == resolve_cells(spec)


def test_dense_noise_spec_over_budget_fails_before_allocating():
    # sigma > 0 at n=20000, d=2 would need 6.4 GB of noise blocks.
    spec = SweepSpec(mode="grid", n=(20000,), K=2, d=(2,), alpha=(8.0,), beta=(1.0,),
                     sigma=(0.1,), trials=1)
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="over the 1 GiB budget"):
            spec.validate()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


_GRID = dict(mode="grid", n=(40,), K=2, d=(2,), alpha=(8.0,), beta=(1.0,), trials=1)


@pytest.mark.parametrize(
    "spec, message",
    [
        (SweepSpec(**_GRID, sizes=(10, 20)), "sum to n"),
        (SweepSpec(**_GRID, sizes=(10, 10, 20)), "exactly K"),
        (SweepSpec(**dict(_GRID, mode="runtime", n=(100, 200)), sizes=(50, 50)), "sum to n"),
        (SweepSpec(**_GRID, sigma=(float("nan"),)), "sigma must be finite"),
        (SweepSpec(**_GRID, sigma=(float("inf"),)), "sigma must be finite"),
        (SweepSpec(**dict(_GRID, mode="noise-grid"), sigma=(0.1, float("nan"))),
         "sigma must be finite"),
        (SweepSpec(**dict(_GRID, mode="noise-grid"), sigma=(float("inf"),)),
         "sigma must be finite"),
        (SweepSpec(**dict(_GRID, d=(2, 0))), "d must be at least 1"),
        (SweepSpec(**dict(_GRID, n=(40, 1))), "n must be at least 2"),
        (SweepSpec(mode="eta-sweep", n=(400,), d=(0,), beta=(2.0,), eta=(0.5,)), "d must be"),
        (SweepSpec(mode="eta-sweep", n=(1,), beta=(1.0,), eta=(0.5,)), "n must be"),
    ],
)
def test_bad_model_settings_fail_in_validate(spec, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=message):
            spec.validate()


# --- sweeps -----------------------------------------------------------------


def test_sweep_rows_and_summaries(tmp_path):
    out = tmp_path / "sweep.csv"
    spec = _small_spec(alpha=(6.0, 8.0), trials=3)
    results, summaries = run_sweep(spec, out)
    assert len(results) == 6 and len(summaries) == 2
    assert [v["trial"] for v in results] == [0, 1, 2, 0, 1, 2]

    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 1 + 6 + 2
    trial_col = CSV_COLUMNS.index("trial")
    assert [r[trial_col] for r in rows[1:]] == ["0", "1", "2", "0", "1", "2", "mean", "mean"]
    subseed_col = CSV_COLUMNS.index("subseed")
    assert all(r[subseed_col] for r in rows[1:7])
    assert all(r[subseed_col] == "" for r in rows[7:])

    # Mean rows restate per-cell means of the trial rows.
    exact_col = CSV_COLUMNS.index("exact")
    sync_col = CSV_COLUMNS.index("sync_error_log")
    for ci in range(2):
        block = rows[1 + 3 * ci : 1 + 3 * (ci + 1)]
        mean_row = rows[7 + ci]
        assert float(mean_row[exact_col]) == pytest.approx(
            np.mean([float(r[exact_col]) for r in block])
        )
        assert float(mean_row[sync_col]) == pytest.approx(
            np.mean([float(r[sync_col]) for r in block])
        )

    # Timing columns honor zero_timings in every row.
    for r in rows[1:]:
        for col in ("t_eigen_ms", "t_cpqr_ms", "t_recover_ms", "t_refine_ms"):
            assert r[CSV_COLUMNS.index(col)] == "0.000"


def test_sweep_csv_is_reproducible(tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    run_sweep(_small_spec(), first)
    run_sweep(_small_spec(), second)
    assert first.read_bytes() == second.read_bytes()


def test_sweep_independent_of_worker_count(tmp_path):
    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    run_sweep(_small_spec(alpha=(6.0, 8.0), trials=2, workers=1), serial)
    run_sweep(_small_spec(alpha=(6.0, 8.0), trials=2, workers=2), parallel)
    assert serial.read_bytes() == parallel.read_bytes()


def test_sweep_runs_trials_round_robin_and_returns_them_by_cell(monkeypatch):
    # Round t runs every cell before round t + 1; rows, summaries and
    # sub-seeds still follow (cell, trial).
    order = []
    real = harness._run_trial

    def recording(task):
        cell, trial, _, _ = task
        order.append((cell["alpha"], trial))
        return real(task)

    monkeypatch.setattr(harness, "_run_trial", recording)
    alphas, trials = (6.0, 7.0, 8.0), 3
    results, summaries = run_sweep(_small_spec(alpha=alphas, trials=trials))
    assert order == [(a, t) for t in range(trials) for a in alphas]
    master = syncluster.RandomSource(7)
    assert [(v["alpha"], v["trial"], v["subseed"]) for v in results] == [
        (a, t, master.subseed(ci, t)) for ci, a in enumerate(alphas) for t in range(trials)
    ]
    assert [s["alpha"] for s in summaries] == list(alphas)


def test_transform_refinement_sweeps_recover_and_time_every_phase(tmp_path):
    out = tmp_path / "sweep.csv"
    for refine in ("transforms", "both"):
        run_sweep(_small_spec(n=(40,), d=(2,), beta=(0.0,), refine=refine, zero_timings=False), out)
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        for row in rows:
            assert float(row["exact"]) == 1
            assert float(row["sync_error_log"]) <= math.log(1e-6)
            assert row["flags"] == ""
            for col in ("t_eigen_ms", "t_cpqr_ms", "t_recover_ms", "t_refine_ms"):
                assert re.fullmatch(r"\d+\.\d{3}", row[col]), (refine, col, row[col])
            assert float(row["t_refine_ms"]) > 0


def test_snr_column_present_only_for_two_clusters(tmp_path):
    two, _ = run_sweep(_small_spec(trials=1))
    assert two[0]["snr_min"] is not None
    three, _ = run_sweep(_small_spec(K=3, n=(33,), trials=1))
    assert three[0]["snr_min"] is None


def _stalled(a, k, cfg=None):
    raise NoConvergenceError("no convergence after 1 iterations")


def test_nonconvergent_trials_become_flagged_rows(tmp_path, monkeypatch):
    out = tmp_path / "fail.csv"
    monkeypatch.setattr(harness, "top_eigenpairs", _stalled)
    results, summaries = run_sweep(_small_spec(trials=2), out)
    assert all(v["flags"] == ["NoConvergence"] for v in results)
    assert all(v["exact"] == 0 for v in results)
    assert all(v["sync_error_log"] is None for v in results)
    assert summaries[0]["exact"] == 0.0
    assert summaries[0]["sync_error_log"] is None
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    flag_col = CSV_COLUMNS.index("flags")
    sync_col = CSV_COLUMNS.index("sync_error_log")
    assert rows[1][flag_col] == "NoConvergence"
    assert rows[1][sync_col] == ""


@pytest.mark.parametrize(
    "stage, error, flag",
    [("run_pipeline", NonFiniteError, "NonFinite"), ("sync_error", ValidationError, "Validation")],
)
def test_any_library_error_in_a_trial_becomes_a_flagged_row(monkeypatch, stage, error, flag):
    def broken(*args, **kwargs):
        raise error("planted")

    monkeypatch.setattr(harness, stage, broken)
    results, summaries = run_sweep(_small_spec(trials=2, workers=1))
    assert all(v["flags"] == [flag] for v in results)
    assert all(v["exact"] == 0 for v in results)
    assert all(v["sync_error_log"] is None for v in results)
    assert summaries[0]["exact"] == 0.0


def test_manifest_describes_the_run(tmp_path):
    out = tmp_path / "sweep.csv"
    spec = _small_spec()
    run_sweep(spec, out)
    manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
    assert manifest["csv_schema_version"] == CSV_SCHEMA_VERSION
    assert manifest["csv_columns"] == list(CSV_COLUMNS)
    assert manifest["spec"]["mode"] == "grid"
    assert manifest["spec"]["seed"] == 7
    assert manifest["cells"] == 1
    assert "package_version" in manifest
    assert manifest["timing"] == "monotonic clock, per-phase wall time"


def test_manifest_records_the_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = tmp_path / "sweep.csv"
    run_sweep(_small_spec(trials=1), out)
    env = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())["environment"]
    assert set(env) == {"python", "numpy", "blas", "thread_variables", "cpu_count", "affinity_cpus"}
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
    assert set(env["blas"]) == {"name", "version"}
    assert env["thread_variables"]["OMP_NUM_THREADS"] == "3"
    assert env["thread_variables"]["MKL_NUM_THREADS"] is None
    assert set(env["thread_variables"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
    assert env["cpu_count"] == os.cpu_count()
    assert 1 <= env["affinity_cpus"] <= env["cpu_count"]


def test_refine_grid_never_degrades_mean_recovery(tmp_path):
    # The cluster refinement pass may only help (within noise) on a grid
    # straddling the recovery threshold.
    base = dict(
        mode="grid", n=(64,), K=2, d=(2,), alpha=(3.5, 4.5), beta=(0.5, 1.2),
        trials=10, seed=11, zero_timings=True,
    )
    _, plain = run_sweep(SweepSpec(refine="none", **base))
    _, refined = run_sweep(SweepSpec(refine="clusters", **base))
    for p_cell, r_cell in zip(plain, refined):
        assert r_cell["exact"] >= p_cell["exact"] - 0.1


# --- runtime bench ----------------------------------------------------------


def test_loglog_slope_recovers_exact_power_law():
    ns = [100, 200, 400, 800]
    ts = [3.5 * n**1.7 for n in ns]
    assert fit_loglog_slope(ns, ts) == pytest.approx(1.7, abs=1e-12)
    with pytest.raises(ValidationError):
        fit_loglog_slope([100], [1.0])


def test_quadratic_control_slope_reads_near_two():
    slope = oracles.quadratic_control_slope((500, 1000, 2000), seed=3)
    assert 1.5 <= slope <= 2.5


_BENCH = SweepSpec(mode="runtime", n=(48, 96), K=2, d=(1,), alpha=(10.0,), beta=(10.0,), seed=5)


def test_runtime_bench_rows_and_manifest(tmp_path):
    out = tmp_path / "bench.csv"
    spec = replace(_BENCH, trials=1)
    rows, slopes = run_runtime_bench(spec, out)
    phases = ("eigen", "cpqr", "recover", "refine", "excl_eigen", "total")
    assert len(rows) == 2 * len(phases)
    assert {r[1] for r in rows} == set(phases)
    assert all(r[2] >= 0.0 for r in rows)
    assert set(slopes) == {"excl_eigen", "total"}

    with open(out, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == list(BENCH_COLUMNS)
    assert len(got) == 1 + len(rows)
    manifest = json.loads((tmp_path / "bench.csv.manifest.json").read_text())
    assert set(manifest["slopes"]) == {"excl_eigen", "total"}
    assert manifest["csv_columns"] == list(BENCH_COLUMNS)
    # The manifest records the repetitions that ran, not the spec's trials.
    assert (manifest["spec"]["trials"], manifest["spec"]["workers"]) == (6, 1)
    assert "median of 5 repetitions after one discarded warm-up" in manifest["timing"]


def test_runtime_bench_takes_medians_after_the_warm_up(monkeypatch):
    # Every phase of the k-th pipeline call reads k ms, and every call
    # carries a science flag, which must not stop the bench.
    calls = iter(range(100))
    real = harness.run_pipeline

    def counted(*args):
        factors, result, timings, flags = real(*args)
        k = float(next(calls))
        return factors, result, dict.fromkeys(timings, k), flags + [FLAG_DEGENERATE_GAP]

    monkeypatch.setattr(harness, "run_pipeline", counted)
    rows, _ = run_runtime_bench(_BENCH)
    got = {(n, phase): ms for n, phase, ms in rows}
    # The repetitions run round-robin over n: even calls 0-10 are n=48 and
    # odd calls 1-11 are n=96; calls 0 and 1, round 0, are the warm-ups.
    for n, k in ((48, 6.0), (96, 7.0)):
        assert got[n, "eigen"] == got[n, "refine"] == k
        assert (got[n, "excl_eigen"], got[n, "total"]) == (3 * k, 4 * k)


def test_runtime_bench_raises_on_a_failed_trial(monkeypatch):
    monkeypatch.setattr(harness, "top_eigenpairs", _stalled)
    with pytest.raises(SynclusterError, match="^runtime bench trial 0 at n=48 failed: NoConvergence$"):
        run_runtime_bench(_BENCH)


def test_runtime_bench_requires_runtime_mode():
    with pytest.raises(ValidationError):
        run_runtime_bench(_small_spec())


@pytest.mark.parametrize("settings", [
    pytest.param(dict(n=(100,)), id="one-size"),
    pytest.param(dict(n=(100, 100)), id="repeated-size"),
    pytest.param(dict(d=(1, 2)), id="two-cells-per-size"),
    pytest.param(dict(alpha=(8.0, 10.0)), id="two-densities-per-size"),
])
def test_runtime_bench_needs_one_cell_at_each_of_two_sizes(monkeypatch, settings):
    # A slope needs two sizes, and a size with two cells has no one timing.
    # The check comes before any trial runs.
    monkeypatch.setattr(harness, "run_sweep", None)
    with pytest.raises(ValidationError, match="^the runtime bench needs one cell at each of "
                                              "at least two distinct n$"):
        run_runtime_bench(replace(_BENCH, **settings))


# --- configuration files ----------------------------------------------------


def test_config_round_trip(tmp_path):
    path = tmp_path / "sweep.conf"
    path.write_text(
        "# comment line\n"
        "mode = grid\n"
        "n = 32\n"
        "K = 2\n"
        "d = 1\n"
        "alpha = 6:8:3   # inclusive range\n"
        "beta = 0.5,1.0\n"
        "trials = 4\n"
        "refine = clusters\n"
        "seed = 9\n"
        "zero_timings = 1\n"
    )
    spec = load_config(path)
    assert spec.mode == "grid"
    assert spec.alpha == (6.0, 7.0, 8.0)
    assert spec.beta == (0.5, 1.0)
    assert spec.trials == 4
    assert spec.refine == "clusters"
    assert spec.zero_timings is True


def test_config_list_fields_map_to_spec_names(tmp_path):
    # Every key is its field's name; the axes take comma lists.
    path = tmp_path / "sweep.conf"
    path.write_text(
        "mode = snr\nn = 40,80\nK = 2\nd = 2,10,20\np = 0.5\nq = 0.5\n"
        "sigma = 0.0,0.1\neta = 0.5\ntrials = 1\n"
    )
    spec = load_config(path)
    assert (spec.n, spec.d, spec.sigma, spec.eta) == ((40, 80), (2, 10, 20), (0.0, 0.1), (0.5,))
    assert set(harness._SWEEP_KEYS) == {f.name for f in dataclasses.fields(SweepSpec)}


def test_config_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("mode = grid\nn = 32\nbogus = 3\n")
    with pytest.raises(ParseError, match=r"bad\.conf:3: unknown key 'bogus'"):
        load_config(path)

    for line in ("fixed_axis = beta", "solver_tolerance = 1e-8", "solver_max_iterations = 9",
                 "fraction = 0.10", "n_list = 200,400", "d_list = 2,5", "sigma_list = 0.0,0.5"):
        path.write_text(f"mode = eta-sweep\nn = 32\n{line}\n")
        key = line.split(" ")[0]
        with pytest.raises(ParseError, match=rf"bad\.conf:3: unknown key '{key}'"):
            load_config(path)

    path.write_text("mode = grid\nmode = grid\n")
    with pytest.raises(ParseError, match=r"bad\.conf:2: duplicate key 'mode'"):
        load_config(path)

    path.write_text("mode grid\n")
    with pytest.raises(ParseError, match=r"bad\.conf:1: expected key=value"):
        load_config(path)

    path.write_text("mode = grid\nn = sixteen\n")
    with pytest.raises(ParseError, match=r"bad\.conf:2: invalid value for 'n'"):
        load_config(path)

    path.write_text("mode = grid\nalpha = 1:2\n")
    with pytest.raises(ParseError, match="lo:hi:steps"):
        load_config(path)

    for line, reason in [
        ("n = 200,4x0", "invalid literal for int"),
        ("d = 2.5", "invalid literal for int"),
        ("sigma = 0.0,lots", "could not convert string to float"),
        ("eta = 0.5,half", "could not convert string to float"),
        ("beta = 0:1:0", "steps must be at least 1"),
        ("zero_timings = yes", "invalid literal for int"),
        ("zero_timings = 2", "expected 0 or 1, got 2"),
        ("zero_timings = -1", "expected 0 or 1, got -1"),
    ]:
        path.write_text(f"mode = runtime\n{line}\n")
        key = line.split(" ")[0]
        with pytest.raises(ParseError, match=rf"bad\.conf:2: invalid value for '{key}': {reason}"):
            load_config(path)


def test_config_requires_mode(tmp_path):
    path = tmp_path / "empty.conf"
    path.write_text("n = 32\n")
    with pytest.raises(ValidationError, match="missing required key 'mode'"):
        load_config(path)


def test_config_overrides_win(tmp_path):
    path = tmp_path / "sweep.conf"
    path.write_text("mode = grid\nn = 32\nK = 2\nd = 1\nalpha = 8\nbeta = 0.5\ntrials = 4\n")
    spec = load_config(path, overrides={"trials": 9, "seed": None})
    assert spec.trials == 9
    assert spec.seed == 0  # None override ignored


def test_model_config(tmp_path):
    path = tmp_path / "model.conf"
    path.write_text("n = 12\nK = 3\nd = 2\np = 0.9\nq = 0.1\nsigma = 0.0\nseed = 4\n")
    params = load_model_config(path)
    assert (params.n, params.K, params.d) == (12, 3, 2)
    path.write_text("n = 12\nK = 3\nd = 2\np = 0.9\n")
    with pytest.raises(ValidationError, match="missing required key 'q'"):
        load_model_config(path)


def test_bundled_configs_load_and_resolve():
    configs = Path(__file__).resolve().parents[1] / "scripts" / "configs"
    params = load_model_config(configs / "instance.conf")
    assert (params.n, params.K, params.d, params.seed) == (400, 2, 3, 7)
    expected = {
        "phase_grid": 25, "eta_threshold": 10, "eta_threshold_n": 21, "refine_boundary": 9,
        "noise_grid": 6, "snr_vs_d": 4, "runtime_bench": 4,
    }
    found = {path.stem for path in configs.glob("*.conf")} - {"instance"}
    assert found == set(expected)
    for name, count in expected.items():
        assert len(load_config(configs / f"{name}.conf").validate()) == count, name


def test_run_pipeline_rejects_an_unknown_refine_mode():
    # An unknown mode used to skip both refinements without a word.
    params = syncluster.ModelParams(n=12, K=2, d=2, p=1.0, q=0.0, seed=1)
    _, a = syncluster.generate_instance(params)
    with pytest.raises(ValidationError, match="^refine must be one of none/clusters/transforms/both"):
        harness.run_pipeline(a, 2, 2, syncluster.SolverConfig(seed=1), "Both")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_run_pipeline_flags_its_own_degeneracies_in_stage_order(monkeypatch, seed):
    # Three clean clusters of 10 solved as two: the top 4 = K*d eigenvalues
    # cut a 6-fold eigenvalue, and one estimated cluster joins two true
    # ones with no pair between them. A CPQR made rank deficient must be
    # flagged once, after the solver's flag and before refinement's.
    params = syncluster.ModelParams(n=30, K=3, d=2, p=1.0, q=0.0, seed=seed)
    _, a = syncluster.generate_instance(params)
    cfg = syncluster.SolverConfig(seed=seed)
    assert harness.run_pipeline(a, 2, 2, cfg)[3] == [FLAG_DEGENERATE_GAP]
    real = harness.blockwise_cpqr
    monkeypatch.setattr(harness, "blockwise_cpqr",
                        lambda x, d: replace(real(x, d), rank_deficient=True))
    _, result, _, flags = harness.run_pipeline(a, 2, 2, cfg, "transforms")
    assert result.flags == (FLAG_DISCONNECTED_CLUSTER,)
    assert flags == [FLAG_DEGENERATE_GAP, FLAG_RANK_DEFICIENT, FLAG_DISCONNECTED_CLUSTER]


@pytest.mark.parametrize("big_k", [0, -1, 41])
def test_run_pipeline_rejects_big_k_outside_one_to_n(big_k):
    # These used to surface from the eigensolver as "k must lie in 1..80".
    _, a = syncluster.generate_instance(syncluster.ModelParams(n=40, K=2, d=2, p=0.6, q=0.1, seed=1))
    with pytest.raises(ValidationError, match=f"^big_k must lie in 1..40, got {big_k}$"):
        harness.run_pipeline(a, big_k, 2, syncluster.SolverConfig(seed=1))


@pytest.mark.parametrize("refine", harness.REFINE_CHOICES)
def test_run_pipeline_without_a_config_solves_at_the_defaults(refine):
    # None under transforms and both used to end in replace(None, ...).
    _, a = syncluster.generate_instance(syncluster.ModelParams(n=40, K=2, d=2, p=0.6, q=0.1, seed=1))
    _, result, _, flags = harness.run_pipeline(a, 2, 2, None, refine)
    _, want, _, want_flags = harness.run_pipeline(a, 2, 2, syncluster.SolverConfig(), refine)
    np.testing.assert_array_equal(result.labels, want.labels)
    np.testing.assert_array_equal(result.transforms, want.transforms)
    assert flags == want_flags


@pytest.mark.parametrize("d", [1, 3])
def test_run_pipeline_rejects_d_unequal_to_the_matrix_block_size(d):
    # d = 1 on a d = 2 matrix used to return labels for twice its nodes.
    _, a = syncluster.generate_instance(syncluster.ModelParams(n=40, K=2, d=2, p=0.6, q=0.1, seed=1))
    with pytest.raises(ValidationError, match=f"^d must equal the matrix's block size 2, got {d}$"):
        harness.run_pipeline(a, 2, d, syncluster.SolverConfig(seed=1))


@pytest.mark.parametrize("refine, loose", [
    ("none", False), ("clusters", False), ("transforms", True), ("both", True),
])
def test_global_solve_is_loose_only_when_transforms_are_resolved(monkeypatch, refine, loose):
    # The global basis feeds the output transforms under none and clusters,
    # so it keeps the configured tolerance; under transforms and both it
    # only feeds labels and runs to 1e-2, or to a looser configured
    # tolerance. Restricted solves keep the configured tolerance either way.
    params = syncluster.ModelParams(n=24, K=2, d=2, p=1.0, q=0.0, seed=1)
    _, a = syncluster.generate_instance(params)

    def recording(kind):
        def solve(a, k, cfg=None, start=None):
            seen[kind].append(cfg.tolerance)
            return syncluster.top_eigenpairs(a, k, cfg, start)
        return solve

    monkeypatch.setattr(harness, "top_eigenpairs", recording("global"))
    monkeypatch.setattr(syncluster.recovery, "top_eigenpairs", recording("restricted"))
    for tolerance in (1e-6, 5e-2):
        cfg = syncluster.SolverConfig(tolerance=tolerance, seed=1)
        seen = {"global": [], "restricted": []}
        harness.run_pipeline(a, 2, 2, cfg, refine)
        assert seen["global"] == [max(tolerance, 1e-2) if loose else tolerance]
        assert seen["restricted"] == ([tolerance] * 2 if loose else [])


def test_import_and_solve_never_load_scipy():
    # scipy is a test-only extra; loading it would add its import time to
    # every process start.
    script = (
        "import sys\n"
        "from syncluster import ModelParams, SolverConfig, generate_instance, harness\n"
        "gt, a = generate_instance(ModelParams(n=40, K=2, d=2, p=0.6, q=0.1, seed=1))\n"
        "harness.run_pipeline(a, 2, 2, SolverConfig(seed=1), 'both')\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(syncluster.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


def test_every_exported_name_resolves():
    missing = [name for name in syncluster.__all__ if not hasattr(syncluster, name)]
    assert missing == []
