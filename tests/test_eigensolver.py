"""Block Lanczos solver against the dense LAPACK oracle."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from syncluster import eigensolver
from syncluster.cpqr import blockwise_cpqr
from syncluster.eigensolver import EigenBasis, SolverConfig, top_eigenpairs
from syncluster.errors import NoConvergenceError, ValidationError
from syncluster.metrics import exact_recovery
from syncluster.model import ModelParams, SparseBlockMatrix, generate_instance
from syncluster.recovery import assign_and_extract

seeds = st.integers(min_value=0, max_value=2**63 - 1)
cases = st.tuples(
    seeds,
    st.integers(min_value=4, max_value=16),  # n
    st.integers(min_value=1, max_value=3),  # K
    st.integers(min_value=1, max_value=3),  # d
    st.integers(min_value=2, max_value=9),  # p in tenths
    st.integers(min_value=0, max_value=5),  # q in tenths
)


def _instance(seed, n, big_k, d, p10, q10, sigma=0.0):
    params = ModelParams(
        n=n, K=min(big_k, n), d=d, p=p10 / 10.0, q=q10 / 10.0, sigma=sigma, seed=seed
    )
    return generate_instance(params)


@given(cases, st.integers(min_value=1, max_value=6))
def test_property_values_match_dense_oracle(case, k):
    seed, n, big_k, d, p10, q10 = case
    gt, a = _instance(seed, n, big_k, d, p10, q10, sigma=0.3 if seed % 3 == 0 else 0.0)
    k = min(k, a.nd)
    basis = top_eigenpairs(a, k, SolverConfig(seed=seed % 1000))
    want_vals, want_vecs = oracles.dense_top_eigenpairs(oracles.dense(a), k)
    scale = max(1.0, abs(want_vals[0]))
    assert np.abs(basis.values - want_vals).max() <= 1e-6 * scale
    # Subspace agreement unless the cut itself is degenerate.
    if not basis.degenerate_gap:
        assert oracles.projector_distance(basis.vectors, want_vecs) <= 1e-6


@given(cases)
def test_property_orthogonality_eigenbasis(case):
    seed, n, big_k, d, p10, q10 = case
    gt, a = _instance(seed, n, big_k, d, p10, q10)
    k = min(3, a.nd)
    basis = top_eigenpairs(a, k, SolverConfig(seed=1))
    defect = np.linalg.norm(basis.vectors.T @ basis.vectors - np.eye(k))
    assert defect <= 1e-8
    assert basis.residual <= 1e-8
    assert (np.diff(basis.values) <= 1e-12).all()


@given(cases)
def test_property_determinism_eigensolver(case):
    seed, n, big_k, d, p10, q10 = case
    gt, a = _instance(seed, n, big_k, d, p10, q10)
    k = min(2, a.nd)
    b1 = top_eigenpairs(a, k, SolverConfig(seed=7))
    b2 = top_eigenpairs(a, k, SolverConfig(seed=7))
    assert np.array_equal(b1.vectors, b2.vectors)
    assert np.array_equal(b1.values, b2.values)


def test_clean_two_cluster_spectrum_and_gap():
    m = 12
    gt, a = _instance(3, 2 * m, 2, 2, 10, 0)
    dense_vals = np.linalg.eigvalsh(oracles.dense(a))[::-1]
    want = oracles.clean_spectrum(gt.sizes, gt.d)
    assert np.abs(dense_vals - want).max() <= 1e-9

    basis = top_eigenpairs(a, 2 * gt.d, SolverConfig(seed=5))
    assert np.abs(basis.values - (m - 1.0)).max() <= 1e-8
    # The value just past the cut is -1, so the gap is m = p * n / 2.
    wider = top_eigenpairs(a, 2 * gt.d + 1, SolverConfig(seed=5))
    assert wider.values[-1] == pytest.approx(-1.0, abs=1e-8)
    gap = basis.values[-1] - wider.values[-1]
    assert gap == pytest.approx(m, abs=1e-8)


def test_degenerate_gap_flagged_inside_clean_plateau():
    gt, a = _instance(4, 16, 2, 2, 10, 0)
    # Top 4 values are all m - 1: cutting at 2 splits a degenerate group.
    inside = top_eigenpairs(a, 2, SolverConfig(seed=2))
    assert inside.degenerate_gap
    # Cutting at 4 sits on the real gap (m - 1 vs -1).
    clean_cut = top_eigenpairs(a, 4, SolverConfig(seed=2))
    assert not clean_cut.degenerate_gap


def test_full_width_request_is_exact():
    gt, a = _instance(5, 6, 2, 2, 8, 2)
    basis = top_eigenpairs(a, a.nd, SolverConfig(seed=3))
    want = np.sort(np.linalg.eigvalsh(oracles.dense(a)))[::-1]
    assert np.abs(basis.values - want).max() <= 1e-8


def test_zero_matrix_converges_to_zero_values():
    a = SparseBlockMatrix(4, 2, np.empty((0, 2), dtype=np.int64), np.empty((0, 2, 2)))
    basis = top_eigenpairs(a, 3, SolverConfig(seed=0))
    assert np.abs(basis.values).max() == 0.0
    assert basis.residual == 0.0


def _scaled(a, factor):
    return SparseBlockMatrix(a.n, a.d, a.pairs, a.data * factor)


@pytest.mark.parametrize("power", [-600, -3, 5, 600])
def test_power_of_two_scaling_is_exact(power):
    _, a = _instance(8, 14, 2, 2, 7, 3, sigma=0.2)
    base = top_eigenpairs(a, 4, SolverConfig(seed=1))
    scaled = top_eigenpairs(_scaled(a, 2.0**power), 4, SolverConfig(seed=1))
    assert np.array_equal(scaled.vectors, base.vectors)
    assert np.array_equal(scaled.values, base.values * 2.0**power)
    assert scaled.iterations == base.iterations


def test_huge_finite_blocks_recover_exactly():
    # Entries of 1e300 square to inf; the solver must not see them unscaled.
    gt, a = _instance(4, 12, 2, 2, 10, 0)
    huge = _scaled(a, 1e300)
    basis = top_eigenpairs(huge, 4, SolverConfig(seed=2))
    assert np.isfinite(basis.values).all()
    assert np.allclose(basis.values, top_eigenpairs(a, 4, SolverConfig(seed=2)).values * 1e300)
    result = assign_and_extract(blockwise_cpqr(basis.vectors.T, 2), 2, 2)
    assert exact_recovery(result.labels, gt.labels, 2)


def test_restricted_solver_matches_dense_submatrix():
    gt, a = _instance(6, 12, 2, 2, 9, 3)
    nodes = np.array([1, 3, 4, 7, 9])
    basis = top_eigenpairs(oracles.principal_submatrix(a, nodes), 2, SolverConfig(seed=4))
    rows = np.concatenate([np.arange(i * 2, (i + 1) * 2) for i in nodes])
    want_vals, _ = oracles.dense_top_eigenpairs(oracles.dense(a)[np.ix_(rows, rows)], 2)
    assert np.abs(basis.values - want_vals).max() <= 1e-6 * max(1.0, abs(want_vals[0]))


def test_no_convergence_carries_best_iterate(monkeypatch):
    monkeypatch.setattr(eigensolver, "_MAX_ITERATIONS", 3)
    gt, a = _instance(7, 20, 2, 2, 8, 2, sigma=0.4)
    cfg = SolverConfig(tolerance=1e-300, seed=1)
    with pytest.raises(NoConvergenceError) as err:
        top_eigenpairs(a, 2, cfg)
    best = err.value.best
    assert isinstance(best, EigenBasis)
    assert np.isfinite(best.residual)
    assert best.vectors.shape == (a.nd, 2)


def test_full_width_miss_raises_immediately():
    gt, a = _instance(8, 5, 2, 1, 8, 2)
    cfg = SolverConfig(tolerance=1e-300, seed=1)
    with pytest.raises(NoConvergenceError, match="full-width"):
        top_eigenpairs(a, a.nd, cfg)


def test_exact_eigenbasis_start_converges_at_once():
    # A start that already spans the top eigenspace leaves the solver only
    # the pair past the cut to certify; from a random block it takes 12
    # iterations.
    gt, a = _instance(4, 40, 2, 2, 8, 1)
    want_vals, want_vecs = oracles.dense_top_eigenpairs(oracles.dense(a), 4)
    cold = top_eigenpairs(a, 4, SolverConfig(seed=1))
    warm = top_eigenpairs(a, 4, SolverConfig(seed=1), start=want_vecs)
    assert cold.iterations > 2
    assert warm.iterations <= 2
    assert np.abs(warm.values - want_vals).max() <= 1e-12 * abs(want_vals[0])
    assert oracles.projector_distance(warm.vectors, want_vecs) <= 1e-12


def test_partial_start_still_finds_the_whole_eigenspace():
    # A start of j < k columns leaves the other k - j to the random padding.
    gt, a = _instance(4, 40, 2, 2, 8, 1)
    want_vals, want_vecs = oracles.dense_top_eigenpairs(oracles.dense(a), 4)
    warm = top_eigenpairs(a, 4, SolverConfig(seed=1), start=want_vecs[:, :1])
    assert np.abs(warm.values - want_vals).max() <= 1e-8 * abs(want_vals[0])
    assert oracles.projector_distance(warm.vectors, want_vecs) <= 1e-6


def test_k_out_of_range_rejected():
    gt, a = _instance(9, 6, 2, 2, 8, 0)
    with pytest.raises(ValidationError):
        top_eigenpairs(a, 0)
    with pytest.raises(ValidationError):
        top_eigenpairs(a, a.nd + 1)


def test_solver_config_validation():
    with pytest.raises(ValidationError):
        SolverConfig(tolerance=0.0)
    with pytest.raises(ValidationError, match="seed must be non-negative"):
        SolverConfig(seed=-1)


def test_infinite_tolerance_is_rejected():
    # An infinite tolerance would stop at once on an unconverged basis.
    with pytest.raises(ValidationError, match="positive and finite"):
        SolverConfig(tolerance=float("inf"))
    with pytest.raises(ValidationError, match="positive and finite"):
        SolverConfig(tolerance=float("nan"))


def test_never_materializes_dense_matrix():
    # Dense would need (n*d)^2 * 8 bytes = 128 MB; the solver must stay
    # well under that while multiplying through stored blocks only.
    params = ModelParams(n=4000, K=2, d=1, p=0.01, q=0.005, seed=11)
    gt, a = generate_instance(params)
    tracemalloc.start()
    top_eigenpairs(a, 2, SolverConfig(seed=2, tolerance=1e-6))
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 40 * 1024 * 1024
