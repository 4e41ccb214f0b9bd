"""Evaluation quantities against Decimal, scipy, and loop oracles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import oracles
from syncluster.cpqr import BlockCpqrFactors
from syncluster.errors import ValidationError
from syncluster.linalg import haar_from_normals
from syncluster.metrics import (
    LOG_ZERO_FLOOR,
    alpha_for_eta,
    beta_for_eta,
    eta,
    exact_recovery,
    snr_ratio,
    sync_error,
)
from syncluster.model import GroundTruth

seeds = st.integers(min_value=0, max_value=2**63 - 1)


def _gen(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _random_truth(seed, n=12, big_k=3, d=2):
    rng = _gen(seed)
    labels = np.concatenate(
        [np.full(n - big_k + 1, 1), np.arange(2, big_k + 1)]
    ).astype(np.int64)
    labels = rng.permutation(labels)
    # Re-anchor so every cluster is non-empty regardless of shuffling.
    transforms = haar_from_normals(rng.standard_normal((n, d, d)))
    return GroundTruth(labels=labels, transforms=transforms)


def _factors_from_r(r, d):
    m = r.shape[0]
    return BlockCpqrFactors(
        q=np.eye(m),
        r=np.asarray(r, dtype=np.float64),
        pivots=np.arange(m // d),
        d=d,
    )


# --- exact recovery -------------------------------------------------------


def test_exact_recovery_hand_cases():
    assert exact_recovery([1, 1, 2], [2, 2, 1], 2)
    assert not exact_recovery([1, 2, 1], [1, 1, 2], 2)
    assert exact_recovery([1, 2, 3], [3, 1, 2], 3)


@given(seeds, st.integers(min_value=2, max_value=6))
def test_property_partition_relabel_invariance(seed, big_k):
    rng = _gen(seed)
    n = int(rng.integers(big_k, 30))
    labels = rng.integers(1, big_k + 1, size=n)
    labels[:big_k] = np.arange(1, big_k + 1)
    renames = rng.permutation(big_k) + 1
    renamed = renames[labels - 1]
    assert exact_recovery(renamed, labels, big_k)
    # Merging node 0 into a different non-empty cluster always changes
    # the partition.
    moved = labels.copy()
    target = labels[1] if labels[1] != labels[0] else labels[big_k - 1]
    assume(target != moved[0])
    moved[0] = target
    assert not exact_recovery(moved, labels, big_k)


@given(seeds, st.integers(min_value=1, max_value=5))
def test_property_partition_matches_oracle(seed, big_k):
    rng = _gen(seed)
    n = int(rng.integers(0, 25))
    true = rng.integers(1, big_k + 1, size=n)
    # Half the cases are relabelings of the truth, some with a node moved,
    # so equal partitions are drawn as often as unequal ones.
    if rng.random() < 0.5:
        est = (rng.permutation(big_k) + 1)[true - 1]
        if n and rng.random() < 0.5:
            est[rng.integers(n)] = rng.integers(1, big_k + 1)
    else:
        est = rng.integers(1, big_k + 1, size=n)
    assert exact_recovery(est, true, big_k) == oracles.same_partition_oracle(est, true)


def test_exact_recovery_validation():
    with pytest.raises(ValidationError):
        exact_recovery([1, 2], [1, 2, 2], 2)
    with pytest.raises(ValidationError):
        exact_recovery([0, 1], [1, 1], 2)
    with pytest.raises(ValidationError):
        exact_recovery([1, 3], [1, 2], 2)


# --- synchronization error ------------------------------------------------


@given(seeds)
def test_property_gauge_invariance_sync_error(seed):
    # One orthogonal factor per true cluster is invisible to the error.
    gt = _random_truth(seed)
    rng = _gen(seed + 1)
    est = gt.transforms.copy()
    for k in range(1, gt.K + 1):
        nodes = gt.cluster_nodes(k)
        est[nodes] = est[nodes] @ haar_from_normals(rng.standard_normal((gt.d, gt.d)))
    assert sync_error(est, gt) <= np.log(1e-12)


@given(seeds)
def test_property_gauge_routes_agree_on_noisy_estimates(seed):
    gt = _random_truth(seed)
    rng = _gen(seed + 2)
    est = gt.transforms + 1e-3 * rng.standard_normal(gt.transforms.shape)
    ours = sync_error(est, gt)
    reference = oracles.sync_error_oracle(est, gt)
    assert math.isclose(ours, reference, rel_tol=0, abs_tol=1e-9)


def test_sync_error_exact_match_hits_floor():
    # Identity transforms reproduce exactly (the alignment factor is the
    # exact identity), so the error is literal zero and the floor applies.
    n, d = 6, 2
    gt = GroundTruth(labels=np.array([1, 1, 1, 2, 2, 2]), transforms=np.stack([np.eye(d)] * n))
    assert sync_error(gt.transforms, gt) == LOG_ZERO_FLOOR
    # Haar transforms reproduce to rounding only, far below any real error.
    hgt = _random_truth(3)
    assert sync_error(hgt.transforms, hgt) <= np.log(1e-14)


def test_sync_error_monotone_in_perturbation():
    # Rotate one node progressively; the aligned worst-case error grows.
    n, d = 6, 2
    labels = np.ones(n, dtype=np.int64)
    gt = GroundTruth(labels=labels, transforms=np.stack([np.eye(d)] * n))
    values = []
    for theta in (1e-6, 1e-3, 1e-1):
        c, s = np.cos(theta), np.sin(theta)
        est = np.stack([np.eye(d)] * n)
        est[0] = np.array([[c, -s], [s, c]])
        values.append(sync_error(est, gt))
    assert values[0] < values[1] < values[2]


def test_sync_error_validates_shape():
    gt = _random_truth(4)
    with pytest.raises(ValidationError):
        sync_error(np.eye(gt.d), gt)


# --- threshold statistic ---------------------------------------------------


@given(seeds)
def test_property_eta_matches_decimal_oracle(seed):
    rng = _gen(seed)
    n = int(rng.integers(2, 1_000_000))
    p = float(rng.uniform(1e-6, 1.0))
    q = float(rng.uniform(0.0, 1.0))
    d = int(rng.integers(1, 50))
    assert math.isclose(eta(n, p, q, d), oracles.eta_decimal(n, p, q, d), rel_tol=1e-12)


def test_eta_hand_values():
    assert eta(100, 1.0, 0.0, 1) == 0.0
    assert eta(4, 0.5, 0.75, 1) == pytest.approx(np.sqrt(np.log(4.0)), rel=1e-15)


def test_eta_domain():
    # The statistic diverges at p = 0, with or without cross-cluster edges.
    assert eta(100, 0.0, 0.5, 2) == math.inf
    assert eta(100, 0.0, 0.0, 2) == math.inf
    for bad in (
        dict(n=1, p=0.5, q=0.5, d=2),
        dict(n=100, p=1.5, q=0.5, d=2),
        dict(n=100, p=0.5, q=-0.1, d=2),
        dict(n=100, p=0.5, q=0.5, d=0),
    ):
        with pytest.raises(ValidationError):
            eta(bad["n"], bad["p"], bad["q"], bad["d"])


@given(seeds)
def test_property_eta_inversion_round_trips(seed):
    rng = _gen(seed)
    n = int(rng.integers(50, 5000))
    d = int(rng.integers(1, 20))
    log_n = np.log(n)
    alpha = float(rng.uniform(0.1, 0.8 * n / log_n))
    target = float(rng.uniform(0.05, 2.0))
    try:
        beta = beta_for_eta(target, alpha, n, d)
    except ValidationError:
        beta = None
    if beta is not None:
        p = alpha * log_n / n
        q = beta * log_n / n
        assert math.isclose(eta(n, p, q, d), target, rel_tol=1e-12)

    beta_fixed = float(rng.uniform(0.0, 0.5 * n / log_n))
    try:
        alpha_solved = alpha_for_eta(target, beta_fixed, n, d)
    except ValidationError:
        return
    p = alpha_solved * log_n / n
    q = beta_fixed * log_n / n
    assert math.isclose(eta(n, p, q, d), target, rel_tol=1e-12)


def test_eta_inversion_rejects_unreachable_targets():
    with pytest.raises(ValidationError):
        beta_for_eta(-0.5, 1.0, 100, 2)
    with pytest.raises(ValidationError):
        beta_for_eta(50.0, 1.0, 100, 2)  # implied q above 1
    with pytest.raises(ValidationError):
        beta_for_eta(0.0, 400.0, 100, 2)  # implied p above 1
    with pytest.raises(ValidationError):
        alpha_for_eta(0.0, 1.0, 100, 2)
    with pytest.raises(ValidationError):
        alpha_for_eta(0.5, 400.0, 100, 2)  # implied q above 1


@pytest.mark.parametrize("n, d, message", [
    (400, 0, "d must be"), (1, 2, "n must be"), (0, 2, "n must be"),
    (math.nan, 2, "n must be finite"), (math.inf, 2, "n must be finite"),
    (400, math.inf, "d must be finite"),
])
def test_eta_inversion_checks_n_and_d_before_dividing(n, d, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=message):
            eta(n, 0.5, 0.1, d)
        with pytest.raises(ValidationError, match=message):
            alpha_for_eta(0.5, 2.0, n, d)
        with pytest.raises(ValidationError, match=message):
            beta_for_eta(0.5, 2.0, n, d)


# --- two-cluster separation -------------------------------------------------


@given(seeds, st.integers(min_value=1, max_value=3))
def test_property_snr_matches_loop_oracle(seed, d):
    rng = _gen(seed)
    n = int(rng.integers(2, 12))
    r = rng.standard_normal((2 * d, n * d))
    labels = rng.integers(1, 3, size=n)
    labels[0] = 1
    ours = snr_ratio(_factors_from_r(r, d), labels)
    reference = oracles.snr_min_oracle(r, labels, d)
    if math.isinf(reference):
        assert math.isinf(ours)
    else:
        assert math.isclose(ours, reference, rel_tol=1e-12)


def test_snr_hand_cases():
    r = np.array([[2.0, 0.0], [0.0, 1.0]])
    assert snr_ratio(_factors_from_r(r, 1), [1, 2]) == np.inf
    assert snr_ratio(_factors_from_r(r, 1), [1, 1]) == 0.0


def test_snr_validation():
    r3 = np.zeros((3, 6))
    with pytest.raises(ValidationError, match="^the ratio is defined for exactly two clusters$"):
        snr_ratio(_factors_from_r(r3, 1), [1, 2, 1, 1, 2, 2])
    r2 = np.zeros((2, 4))
    with pytest.raises(ValidationError):
        snr_ratio(_factors_from_r(r2, 1), [1, 2, 1])
    with pytest.raises(ValidationError):
        snr_ratio(_factors_from_r(r2, 1), [2, 2, 2, 2])
