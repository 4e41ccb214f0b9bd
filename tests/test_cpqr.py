"""Blockwise column-pivoted QR against scalar and projection oracles."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from syncluster.cpqr import blockwise_cpqr
from syncluster.errors import NonFiniteError, ValidationError
from syncluster.linalg import haar_from_normals

seeds = st.integers(min_value=0, max_value=2**63 - 1)
shapes = st.tuples(
    st.integers(min_value=1, max_value=5),  # K block rows
    st.integers(min_value=1, max_value=10),  # extra block columns beyond K
    st.integers(min_value=1, max_value=3),  # d
)


def _gen(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _random_input(seed, big_k, extra, d):
    n = big_k + extra
    return _gen(seed).standard_normal((big_k * d, n * d)), n


def _leading_square_upper_triangular(w, tol):
    m = w.shape[0]
    lower = np.tril(w[:, :m], k=-1)
    return np.abs(lower).max(initial=0.0) <= tol


@given(seeds, st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10))
def test_scalar_pivots_match_both_oracles(seed, big_k, extra):
    x, n = _random_input(seed, big_k, extra, 1)
    factors = blockwise_cpqr(x, 1)
    assert list(factors.pivots) == oracles.scalar_cpqr_pivots(x)
    assert list(factors.pivots) == oracles.lapack_cpqr_pivots(x)


@given(seeds, shapes)
def test_property_reconstruction_cpqr(seed, shape):
    big_k, extra, d = shape
    x, n = _random_input(seed, big_k, extra, d)
    factors = blockwise_cpqr(x, d)
    err = np.linalg.norm(factors.q @ factors.r - x)
    assert err <= 1e-8 * max(1.0, np.linalg.norm(x))
    tol = 1e-10 if d == 1 else 1e-8
    assert err <= tol * max(1.0, np.linalg.norm(x))


@given(seeds, shapes)
def test_property_orthogonality_cpqr_q(seed, shape):
    big_k, extra, d = shape
    x, _ = _random_input(seed, big_k, extra, d)
    factors = blockwise_cpqr(x, d)
    m = big_k * d
    assert np.linalg.norm(factors.q.T @ factors.q - np.eye(m)) <= 1e-10


@given(seeds, shapes)
def test_permuted_r_is_upper_triangular(seed, shape):
    big_k, extra, d = shape
    x, _ = _random_input(seed, big_k, extra, d)
    factors = blockwise_cpqr(x, d)
    w = oracles.permute_blocks(factors.r, oracles.block_permutation(factors))
    assert _leading_square_upper_triangular(w, 1e-10 * max(1.0, np.linalg.norm(x)))


@given(seeds, shapes)
def test_pivot_residuals_dominate_each_round(seed, shape):
    big_k, extra, d = shape
    x, _ = _random_input(seed, big_k, extra, d)
    factors = blockwise_cpqr(x, d)
    chosen = []
    for t in range(big_k):
        norms = oracles.block_residual_norms(x, chosen, d)
        pivot = factors.pivots[t]
        assert norms[pivot] >= norms.max() - 1e-9 * max(1.0, norms.max())
        chosen.append(int(pivot))


@given(seeds, shapes)
def test_orthogonal_invariance_of_pivots(seed, shape):
    big_k, extra, d = shape
    x, _ = _random_input(seed, big_k, extra, d)
    m = big_k * d
    left = haar_from_normals(_gen(seed + 1).standard_normal((m, m)))
    base = blockwise_cpqr(x, d)
    rotated = blockwise_cpqr(left @ x, d)
    assert np.array_equal(base.pivots, rotated.pivots)
    # The two r factors differ by the orthogonal block-diagonal factor
    # q_rot^T L q_base; off-diagonal d x d blocks vanish.
    relate = rotated.q.T @ left @ base.q
    assert np.linalg.norm(relate.T @ relate - np.eye(m)) <= 1e-9
    for br in range(big_k):
        for bc in range(big_k):
            if br != bc:
                block = relate[br * d : (br + 1) * d, bc * d : (bc + 1) * d]
                assert np.linalg.norm(block) <= 1e-7


def test_block_structure_survives_permutation():
    # Tag each column by (block index, offset); the permutation must move
    # whole blocks and keep the within-block column order.
    d, n = 3, 5
    tags = np.empty((2, n * d))
    for j in range(n):
        for t in range(d):
            tags[0, j * d + t] = j
            tags[1, j * d + t] = t
    perm = np.array([3, 0, 4, 1, 2])
    moved = oracles.permute_blocks(tags, perm)
    for pos in range(n):
        seg = moved[:, pos * d : (pos + 1) * d]
        assert (seg[0] == perm[pos]).all()
        assert list(seg[1]) == [0, 1, 2]


def test_tie_break_prefers_smallest_index():
    # Two identical block columns: the first must be chosen.
    x = np.array([[2.0, 2.0, 1.0]])
    factors = blockwise_cpqr(x, 1)
    assert factors.pivots[0] == 0
    # Equal norms across a swap boundary behave the same after a swap put
    # a fresh column first.
    y = np.array([[1.0, 3.0, 3.0], [0.0, 0.0, 0.0]])
    f2 = blockwise_cpqr(y, 1)
    assert f2.pivots[0] == 1


def test_rank_deficient_input_flagged_and_still_reconstructs():
    rng = _gen(17)
    d, big_k, n = 2, 2, 6
    row = rng.standard_normal((d, n * d))
    x = np.vstack([row, row])  # block rank 1 < K = 2
    factors = blockwise_cpqr(x, d)
    assert factors.rank_deficient
    err = np.linalg.norm(factors.q @ factors.r - x)
    assert err <= 1e-8 * max(1.0, np.linalg.norm(x))
    assert np.linalg.norm(factors.q.T @ factors.q - np.eye(big_k * d)) <= 1e-10


def test_zero_matrix_is_rank_deficient_identity_q():
    x = np.zeros((2, 8))
    factors = blockwise_cpqr(x, 2)
    assert factors.rank_deficient
    assert np.array_equal(factors.q, np.eye(2))
    assert not factors.r.any()


def test_input_validation():
    with pytest.raises(ValidationError):
        blockwise_cpqr(np.ones((2, 3)), 2)
    with pytest.raises(ValidationError):
        blockwise_cpqr(np.ones((4, 2)), 2)  # fewer block columns than rows
    with pytest.raises(ValidationError):
        blockwise_cpqr(np.ones(4), 1)
    with pytest.raises(NonFiniteError):
        blockwise_cpqr(np.array([[1.0, np.inf]]), 1)


def test_factors_expose_block_shape():
    x = _gen(3).standard_normal((4, 12))
    factors = blockwise_cpqr(x, 2)
    assert (factors.r.shape, factors.d) == ((4, 12), 2)
    # Two distinct pivot blocks, each one of the six block columns.
    assert factors.pivots.shape == (2,)
    assert sorted(oracles.block_permutation(factors)) == list(range(6))
