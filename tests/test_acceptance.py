"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single "ACCEPTANCE n: PASS/FAIL (...)" line with the
measured numbers before asserting, so a plain ``pytest tests/test_acceptance.py -s``
doubles as the acceptance report. Criteria with a stated wall-clock budget
assert on elapsed time as well. Everything here is seeded; reruns are exact.
"""

import math
import time
from pathlib import Path

import numpy as np
from hypothesis import settings

import oracles
from syncluster.cpqr import blockwise_cpqr
from syncluster.eigensolver import SolverConfig, top_eigenpairs
from syncluster.harness import SweepSpec, run_runtime_bench, run_sweep
from syncluster.metrics import exact_recovery, sync_error
from syncluster.model import ModelParams, RandomSource, generate_instance
from syncluster.recovery import assign_and_extract, refine_clusters, refine_transforms


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({detail})")


def _gen(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _pipeline(params, solver_seed):
    """generate -> eigensolve -> blockwise CPQR -> assignment."""
    gt, a = generate_instance(params)
    basis = top_eigenpairs(a, params.K * params.d, SolverConfig(seed=solver_seed))
    factors = blockwise_cpqr(basis.vectors.T, params.d)
    return gt, a, factors, assign_and_extract(factors, params.K, params.d)


def test_criterion_01_clean_case_exactness():
    t0 = time.perf_counter()
    hits = 0
    worst_align = 0.0
    for d in (2, 3):
        for seed in range(10):
            params = ModelParams(n=200, K=2, d=d, p=1.0, q=0.0, seed=seed)
            gt, _, _, result = _pipeline(params, seed)
            hits += int(exact_recovery(result.labels, gt.labels, 2))
            for k in (1, 2):
                nodes = gt.cluster_nodes(k)
                err = oracles.gauge_align_error(
                    gt.transforms[nodes], result.transforms[nodes]
                )
                worst_align = max(worst_align, err)
    elapsed = time.perf_counter() - t0
    ok = hits == 20 and worst_align <= 1e-6 and elapsed < 10.0
    _report(1, ok, f"exact {hits}/20, worst aligned error {worst_align:.2e}, {elapsed:.1f}s")
    assert hits == 20
    assert worst_align <= 1e-6
    assert elapsed < 10.0


def test_criterion_02_eta_threshold():
    # The free axis is alpha here (beta pinned at 2.0): with alpha fixed
    # instead, no single value reaches both eta=0.1 and eta=1.5 with q in
    # [0, 1] at n=400.
    t0 = time.perf_counter()
    targets = (0.1, 0.3, 0.5, 1.0, 1.5)
    spec = SweepSpec(
        mode="eta-sweep", n=(400,), K=2, d=(2,), beta=(2.0,),
        eta=targets, trials=20, seed=0,
    )
    _, summaries = run_sweep(spec)
    means = {}
    for target, row in zip(targets, summaries):
        assert abs(row["eta"] - target) <= 1e-9
        means[target] = row["exact"]
    elapsed = time.perf_counter() - t0
    low_ok = all(means[t] >= 0.9 for t in targets if t <= 0.3)
    high_ok = all(means[t] <= 0.1 for t in targets if t >= 1.5)
    ok = low_ok and high_ok and elapsed < 300.0
    detail = " ".join(f"eta={t:g}:{means[t]:.2f}" for t in targets)
    _report(2, ok, f"{detail}, {elapsed:.1f}s")
    assert low_ok, means
    assert high_ok, means
    assert elapsed < 300.0


def test_criterion_03_phase_transition_monotonicity():
    t0 = time.perf_counter()
    alphas = (2.0, 4.0, 6.0, 8.0)
    betas = (0.5, 1.5, 2.5, 3.5)
    spec = SweepSpec(
        mode="grid", n=(400,), K=2, d=(2,), alpha=alphas, beta=betas,
        trials=5, seed=4,
    )
    _, summaries = run_sweep(spec)
    grid = np.array([row["exact"] for row in summaries]).reshape(len(alphas), len(betas))
    alpha_means = grid.mean(axis=1)
    beta_means = grid.mean(axis=0)
    alpha_inversions = int(np.sum(np.diff(alpha_means) < -1e-12))
    beta_inversions = int(np.sum(np.diff(beta_means) > 1e-12))
    elapsed = time.perf_counter() - t0
    ok = alpha_inversions <= 1 and beta_inversions <= 1 and elapsed < 600.0
    _report(
        3, ok,
        f"alpha means {np.round(alpha_means, 3).tolist()} ({alpha_inversions} inv), "
        f"beta means {np.round(beta_means, 3).tolist()} ({beta_inversions} inv), "
        f"{elapsed:.0f}s",
    )
    assert alpha_inversions <= 1, alpha_means
    assert beta_inversions <= 1, beta_means
    assert elapsed < 600.0


def test_criterion_04_refinement_improvement():
    # Both arms share the instance, eigensolve, and CPQR per trial, so the
    # comparison isolates the refinement pass itself.
    t0 = time.perf_counter()
    cells = [(a, b) for a in (3.5, 4.0, 4.5) for b in (1.0, 2.0)]
    n, trials = 400, 10
    master = RandomSource(6)
    plain_hits = refined_hits = total = 0
    for ci, (alpha, beta) in enumerate(cells):
        p = alpha * math.log(n) / n
        q = beta * math.log(n) / n
        for t in range(trials):
            subseed = master.subseed(ci, t)
            params = ModelParams(n=n, K=2, d=2, p=p, q=q, seed=subseed)
            gt, _, factors, base = _pipeline(params, subseed)
            refined = refine_clusters(factors, base, 0.10)
            plain_hits += int(exact_recovery(base.labels, gt.labels, 2))
            refined_hits += int(exact_recovery(refined.labels, gt.labels, 2))
            total += 1
    elapsed = time.perf_counter() - t0
    plain_mean = plain_hits / total
    refined_mean = refined_hits / total
    ok = refined_mean >= plain_mean and elapsed < 600.0
    _report(
        4, ok,
        f"refined {refined_mean:.3f} vs plain {plain_mean:.3f} over {total} trials, "
        f"{elapsed:.0f}s",
    )
    assert refined_mean >= plain_mean
    assert elapsed < 600.0


def test_criterion_05_orthogonal_refinement_perfection():
    t0 = time.perf_counter()
    params = ModelParams(n=200, K=2, d=3, p=0.5, q=0.1, seed=7)
    gt, a, _, result = _pipeline(params, 7)
    exact = exact_recovery(result.labels, gt.labels, 2)
    polished = refine_transforms(a, result)
    sync = sync_error(polished.transforms, gt)
    elapsed = time.perf_counter() - t0
    bound = math.log(1e-6)
    ok = exact and not polished.flags and sync <= bound
    _report(5, ok, f"exact={exact}, sync log {sync:.2f} <= {bound:.2f}, {elapsed:.1f}s")
    assert exact
    assert not polished.flags
    assert sync <= bound


def test_criterion_06_eigensolver_matches_dense_oracle():
    t0 = time.perf_counter()
    worst_val = worst_proj = 0.0
    for i in range(50):
        rng = _gen(1000 + i)
        d = int(rng.integers(1, 4))
        n = int(rng.integers(max(4, 8 // d), 200 // d + 1))
        big_k = int(rng.integers(1, min(4, n // 2) + 1))
        p = float(rng.uniform(0.3, 1.0))
        q = float(rng.uniform(0.0, 0.3))
        sigma = float(rng.uniform(0.05, 0.5))
        params = ModelParams(n=n, K=big_k, d=d, p=p, q=q, sigma=sigma, seed=1000 + i)
        _, a = generate_instance(params)
        k = big_k * d
        basis = top_eigenpairs(a, k, SolverConfig(seed=i))
        want_vals, want_vecs = oracles.dense_top_eigenpairs(oracles.dense(a), k)
        scale = max(1.0, float(np.abs(want_vals).max()))
        worst_val = max(worst_val, float(np.abs(basis.values - want_vals).max()) / scale)
        worst_proj = max(worst_proj, oracles.projector_distance(basis.vectors, want_vecs))
    elapsed = time.perf_counter() - t0
    ok = worst_val <= 1e-6 and worst_proj <= 1e-6
    _report(
        6, ok,
        f"worst value error {worst_val:.2e}, worst projector {worst_proj:.2e}, "
        f"{elapsed:.1f}s",
    )
    assert worst_val <= 1e-6
    assert worst_proj <= 1e-6


def test_criterion_07_cpqr_matches_scalar_oracle():
    t0 = time.perf_counter()
    worst_scalar = 0.0
    for i in range(100):
        rng = _gen(2000 + i)
        big_k = int(rng.integers(2, 6))
        nb = big_k + int(rng.integers(0, 11))
        x = rng.standard_normal((big_k, nb))
        # Distinct column norms by construction; random gaussians alone
        # leave near-ties the two pivot rules could break differently.
        x = x * (1.0 + 0.05 * rng.permutation(nb))
        factors = blockwise_cpqr(x, 1)
        assert factors.pivots.tolist() == oracles.scalar_cpqr_pivots(x)[:big_k]
        worst_scalar = max(
            worst_scalar, float(np.linalg.norm(factors.q @ factors.r - x))
        )
    worst_block = 0.0
    for i in range(100):
        rng = _gen(3000 + i)
        d = int(rng.integers(2, 5))
        big_k = int(rng.integers(2, 5))
        nb = big_k + int(rng.integers(0, 9))
        x = rng.standard_normal((big_k * d, nb * d))
        factors = blockwise_cpqr(x, d)
        worst_block = max(
            worst_block, float(np.linalg.norm(factors.q @ factors.r - x))
        )
        # The column reordering must be exactly a block permutation tensored
        # with the d x d identity, and the permuted R upper-triangular.
        perm = oracles.block_permutation(factors)
        perm_matrix = np.eye(nb)[:, perm]
        permuted = oracles.permute_blocks(factors.r, perm)
        assert np.array_equal(permuted, factors.r @ np.kron(perm_matrix, np.eye(d)))
        lead = permuted[:, : big_k * d]
        assert float(np.abs(np.tril(lead, k=-1)).max()) <= 1e-10 * max(
            1.0, float(np.linalg.norm(x))
        )
    elapsed = time.perf_counter() - t0
    ok = worst_scalar <= 1e-10 and worst_block <= 1e-8
    _report(
        7, ok,
        f"d=1 reconstruction {worst_scalar:.2e}, d>=2 {worst_block:.2e}, {elapsed:.1f}s",
    )
    assert worst_scalar <= 1e-10
    assert worst_block <= 1e-8


def test_criterion_08_runtime_slope_excluding_eigensolve():
    t0 = time.perf_counter()
    spec = SweepSpec(
        mode="runtime", K=2, d=(2,), n=(200, 400, 800, 1600), alpha=(10.0,), beta=(10.0,),
        seed=8,
    )
    _, slopes = run_runtime_bench(spec)
    elapsed = time.perf_counter() - t0
    slope = slopes["excl_eigen"]
    ok = 0.8 <= slope <= 1.3 and elapsed < 900.0
    _report(8, ok, f"slope {slope:.3f} in [0.8, 1.3], total {slopes['total']:.3f}, {elapsed:.0f}s")
    assert 0.8 <= slope <= 1.3, slopes
    assert elapsed < 900.0


def test_criterion_09_snr_increases_with_d():
    t0 = time.perf_counter()
    spec = SweepSpec(
        mode="snr", n=(400,), K=2, d=(2, 10, 20), p=0.5, q=0.5,
        trials=20, seed=0,
    )
    _, summaries = run_sweep(spec)
    means = [row["snr_min"] for row in summaries]
    elapsed = time.perf_counter() - t0
    increasing = all(lo < hi for lo, hi in zip(means, means[1:]))
    _report(
        9, increasing,
        "means " + " < ".join(f"{m:.3f}" for m in means) + f", {elapsed:.0f}s",
    )
    assert increasing, means


def test_criterion_10_additive_noise_robustness():
    t0 = time.perf_counter()
    n = 400
    alpha = 0.5 * n / math.log(n)  # p = 0.5
    beta = 0.1 * n / math.log(n)  # q = 0.1
    spec = SweepSpec(
        mode="noise-grid", n=(n,), K=2, d=(2,), alpha=(alpha,), beta=(beta,),
        sigma=(0.5, 2.5), trials=20, seed=10,
    )
    _, summaries = run_sweep(spec)
    by_sigma = {row["sigma"]: row["exact"] for row in summaries}
    elapsed = time.perf_counter() - t0
    ok = by_sigma[0.5] >= 0.9 and by_sigma[2.5] <= 0.1
    _report(
        10, ok,
        f"success {by_sigma[0.5]:.2f} at sigma=0.5, {by_sigma[2.5]:.2f} at sigma=2.5, "
        f"{elapsed:.0f}s",
    )
    assert by_sigma[0.5] >= 0.9, by_sigma
    assert by_sigma[2.5] <= 0.1, by_sigma


def test_criterion_11_property_suites_cover_all_families():
    families = ("orthogonality", "reconstruction", "gauge", "partition", "determinism")
    sources = ""
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        if path.name != Path(__file__).name:
            sources += path.read_text()
    counts = {
        fam: sources.count("def test_property_" + fam + "_") for fam in families
    }
    examples = settings().max_examples
    ok = examples >= 200 and all(counts[fam] >= 1 for fam in families)
    detail = " ".join(f"{fam}={counts[fam]}" for fam in families)
    _report(11, ok, f"{detail}, examples={examples}")
    assert settings.get_profile("bulk").max_examples >= 200
    assert examples >= 200
    for fam in families:
        assert counts[fam] >= 1, counts
