"""Polar decomposition and Haar sampling."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from syncluster.errors import NonFiniteError, ValidationError
from syncluster.linalg import (
    ORTHOGONALITY_ATOL,
    POLAR_RECONSTRUCTION_RTOL,
    haar_from_normals,
    polar_decompose,
)

seeds = st.integers(min_value=0, max_value=2**63 - 1)
dims = st.integers(min_value=1, max_value=8)
scale_exponents = st.integers(min_value=-6, max_value=6)


def _gen(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _ortho_defect(q):
    return np.linalg.norm(q.T @ q - np.eye(q.shape[0]))


def _conditioned_matrix(rng, d, smin=0.5, smax=2.0):
    """Random square matrix with singular values inside [smin, smax]."""
    u = haar_from_normals(rng.standard_normal((d, d)))
    v = haar_from_normals(rng.standard_normal((d, d)))
    s = rng.uniform(smin, smax, size=d)
    return (u * s) @ v.T


def _psd_factor(u, x):
    """The PSD factor P = U^T x of x = U P, slice by slice."""
    return u.swapaxes(-1, -2) @ x


def _assert_polar_pair(u, x, psd_atol):
    """U orthogonal, P = U^T x symmetric PSD, and U @ P reconstructing x."""
    p = _psd_factor(u, x)
    scale = max(1.0, np.linalg.norm(x))
    assert _ortho_defect(u) <= ORTHOGONALITY_ATOL
    assert np.linalg.norm(p - p.T) <= POLAR_RECONSTRUCTION_RTOL * scale
    assert np.linalg.eigvalsh((p + p.T) / 2.0).min() >= -psd_atol
    assert np.linalg.norm(u @ p - x) <= POLAR_RECONSTRUCTION_RTOL * scale


@given(seeds, dims, scale_exponents)
def test_property_orthogonality_polar(seed, d, expo):
    rng = _gen(seed)
    x = rng.standard_normal((d, d)) * 10.0**expo
    u = polar_decompose(x)
    assert u.shape == x.shape
    assert _ortho_defect(u) <= ORTHOGONALITY_ATOL


@given(seeds, dims, scale_exponents)
def test_property_reconstruction_polar(seed, d, expo):
    rng = _gen(seed)
    x = rng.standard_normal((d, d)) * 10.0**expo
    _assert_polar_pair(polar_decompose(x), x, psd_atol=1e-8 * max(1.0, 10.0**expo))


@given(seeds, dims, st.integers(min_value=0, max_value=5))
def test_polar_matches_scipy_oracle(seed, d, slices):
    # slices == 0 is a single matrix; otherwise a stack of that many.
    rng = _gen(seed)
    xs = [_conditioned_matrix(rng, d) for _ in range(max(slices, 1))]
    x = np.stack(xs) if slices else xs[0]
    mine = polar_decompose(x)
    assert mine.shape == x.shape
    for x_t, u_t in zip(xs, mine.reshape(-1, d, d)):
        u_ref, p_ref = oracles.polar_oracle(x_t)
        assert np.linalg.norm(u_t - u_ref) <= 1e-9
        assert np.linalg.norm(_psd_factor(u_t, x_t) - p_ref) <= 1e-9


@given(seeds, dims)
def test_polar_minimizer_among_orthogonal(seed, d):
    rng = _gen(seed)
    x = _conditioned_matrix(rng, d)
    best = np.linalg.norm(x - polar_decompose(x))
    for _ in range(100):
        y = haar_from_normals(rng.standard_normal((d, d)))
        assert best <= np.linalg.norm(x - y) + 1e-12


@given(seeds, dims)
def test_polar_fixes_orthogonal_input(seed, d):
    rng = _gen(seed)
    o = haar_from_normals(rng.standard_normal((d, d)))
    u = polar_decompose(o)
    assert np.linalg.norm(u - o) <= 1e-10
    assert np.linalg.norm(_psd_factor(u, o) - np.eye(d)) <= 1e-10


@given(seeds, st.integers(min_value=2, max_value=8))
def test_polar_rank_deficient_still_valid(seed, d):
    rng = _gen(seed)
    u = haar_from_normals(rng.standard_normal((d, d)))
    v = haar_from_normals(rng.standard_normal((d, d)))
    s = rng.uniform(0.5, 2.0, size=d)
    s[-1] = 0.0
    x = (u * s) @ v.T
    _assert_polar_pair(polar_decompose(x), x, psd_atol=1e-8)


def test_polar_one_by_one_negative():
    u = polar_decompose(np.array([[-3.0]]))
    assert u[0, 0] == pytest.approx(-1.0)
    assert _psd_factor(u, np.array([[-3.0]]))[0, 0] == pytest.approx(3.0)


def test_polar_rejects_bad_input():
    with pytest.raises(ValidationError):
        polar_decompose(np.zeros((2, 3)))
    with pytest.raises(NonFiniteError):
        polar_decompose(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValidationError):
        polar_decompose(np.zeros(4))
    with pytest.raises(ValidationError):
        polar_decompose(np.zeros((3, 2, 3)))
    with pytest.raises(ValidationError):
        polar_decompose(np.zeros((3, 0, 0)))
    stack = np.stack([np.eye(2)] * 4)
    stack[2, 1, 0] = np.nan
    with pytest.raises(NonFiniteError):
        polar_decompose(stack)


@given(seeds, dims)
def test_property_orthogonality_haar(seed, d):
    sample = haar_from_normals(_gen(seed).standard_normal((d, d)))
    assert _ortho_defect(sample) <= ORTHOGONALITY_ATOL


@given(seeds, dims)
def test_property_determinism_haar(seed, d):
    a = haar_from_normals(_gen(seed).standard_normal((d, d)))
    b = haar_from_normals(_gen(seed).standard_normal((d, d)))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("d", range(1, 9))
def test_haar_gram_schmidt_matches_sign_corrected_qr_oracle(rng, d):
    for shape in ((d, d), (500, d, d)):
        z = rng.standard_normal(shape)
        q = haar_from_normals(z)
        assert q.shape == shape
        assert np.abs(q - oracles.haar_qr_oracle(z)).max() <= 1e-12


def test_haar_sign_convention_nonnegative_r_diagonal(rng):
    z = rng.standard_normal((50, 4, 4))
    q = haar_from_normals(z)
    # q r = z with r = q^T z; the sign fix must leave diag(r) >= 0.
    r = np.matmul(q.transpose(0, 2, 1), z)
    diags = np.diagonal(r, axis1=1, axis2=2)
    assert diags.min() >= -1e-12


def test_haar_left_invariance_monte_carlo(rng):
    d = 3
    left = haar_from_normals(rng.standard_normal((d, d)))
    samples = haar_from_normals(rng.standard_normal((10000, d, d)))
    rotated = left @ samples
    assert np.abs(rotated.mean(axis=0)).max() < 0.05


def test_haar_hits_both_determinant_signs(rng):
    dets = np.linalg.det(haar_from_normals(rng.standard_normal((2000, 2, 2))))
    negative = (dets < 0).mean()
    assert 0.4 < negative < 0.6

