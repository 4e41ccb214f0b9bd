"""Evaluation quantities: exact recovery, synchronization error, the
recovery-threshold statistic, and the two-cluster signal-to-noise ratio.

The synchronization error aligns estimates to the truth per TRUE cluster
(one orthogonal Procrustes factor each, which absorbs the inherent gauge
freedom) and reports the natural log of the worst per-node Frobenius error
scaled by 1 / sqrt(d). Exact matches floor at LOG_ZERO_FLOOR to keep the
value numeric in CSV output.
"""

import numpy as np

from .errors import ValidationError, as_floats, as_index, as_indices, as_real
from .linalg import polar_decompose

# Stand-in for log(0): below the log of the smallest positive double.
LOG_ZERO_FLOOR = -746.0

# Denominators below this make the two-cluster ratio +inf.
_RATIO_ZERO_CUTOFF = 1e-300


def exact_recovery(est_labels, true_labels, big_k):
    """Whether two labelings induce the same partition of the nodes.

    Cluster indices carry no meaning, so the comparison is between the
    partitions as sets of node sets. They are equal iff the labels pair up
    one to one: the distinct (est, true) pairs are as many as the distinct
    est labels and as the distinct true labels.

    Args:
        est_labels: length-n array of values in 1..big_k.
        true_labels: same.
        big_k: number of clusters both labelings may use.

    Returns:
        bool.
    """
    big_k = as_index(big_k, "big_k")
    est = as_indices(est_labels, "est_labels")
    true = as_indices(true_labels, "true_labels")
    if est.shape != true.shape or est.ndim != 1:
        raise ValidationError("label arrays must be 1-d and the same length")
    for arr in (est, true):
        if arr.size and (arr.min() < 1 or arr.max() > big_k):
            raise ValidationError("labels must lie in 1..K")
    pairs = np.unique(est * (big_k + 1) + true).size
    return pairs == np.unique(est).size == np.unique(true).size


def sync_error(est_transforms, gt):
    """Log worst-case aligned transform error over the true clusters.

    Per true cluster, the Procrustes alignment G = polar(sum_i O_i^T Ohat_i)
    is applied and the max per-node Frobenius error ||Ohat_i - O_i G||_F is
    taken over all nodes in all clusters, scaled by 1/sqrt(d); the natural
    log is returned, floored at LOG_ZERO_FLOOR for exact matches.

    Args:
        est_transforms: (n, d, d) estimates, all orthogonal.
        gt: GroundTruth supplying true clusters and transforms.

    Returns:
        float.
    """
    est = as_floats(est_transforms, "est_transforms")
    if est.shape != gt.transforms.shape:
        raise ValidationError("estimates must be an (n, d, d) stack matching the truth")
    worst = 0.0
    for k in range(1, gt.K + 1):
        nodes = gt.cluster_nodes(k)
        true_k = gt.transforms[nodes]
        est_k = est[nodes]
        # Stacked Procrustes: polar factor of (O^(k))^T Ohat^(k).
        cross = np.einsum("nij,nik->jk", true_k, est_k)
        g = polar_decompose(cross)
        errs = np.linalg.norm(est_k - true_k @ g, axis=(1, 2))
        worst = max(worst, float(errs.max()))
    if worst == 0.0:
        return LOG_ZERO_FLOOR
    return max(float(np.log(worst / np.sqrt(gt.d))), LOG_ZERO_FLOOR)


def _check_arguments(n, d, **reals):
    """Every argument a finite real number, n >= 2 and d >= 1, as every form of the statistic needs."""
    for name, value in dict(n=n, d=d, **reals).items():
        if not np.isfinite(as_real(value, name)):
            raise ValidationError(f"{name} must be finite, got {value!r}")
    if n < 2:
        raise ValidationError("n must be at least 2")
    if d < 1:
        raise ValidationError("d must be at least 1")


def eta(n, p, q, d):
    """The recovery-threshold statistic of the random block model.

    sqrt((p(1-p) + q) * log(n d)) / (p * sqrt(n)), natural log. Small
    values put the instance deep inside the exactly-recoverable regime;
    at p = 0 the statistic diverges, and the value is +inf (q = 0 too).

    Args:
        n: node count, >= 2.
        p: within-cluster probability in [0, 1].
        q: cross-cluster probability in [0, 1].
        d: block dimension, >= 1.

    Returns:
        float, +inf at p = 0.

    Raises:
        ValidationError: any argument outside its range.
    """
    _check_arguments(n, d, p=p, q=q)
    if not 0.0 <= q <= 1.0:
        raise ValidationError("q must lie in [0, 1]")
    if not 0.0 <= p <= 1.0:
        raise ValidationError("p must lie in [0, 1]")
    if p == 0.0:
        return float("inf")
    return float(np.sqrt((p * (1.0 - p) + q) * np.log(n * d)) / (p * np.sqrt(n)))


def beta_for_eta(target, alpha, n, d):
    """Solve for beta so that (alpha, beta) hits the target statistic.

    With p = alpha * log(n) / n fixed, inverts the statistic for
    q = beta * log(n) / n. Round-trips through eta() to within 1e-12.

    Returns:
        beta as a float.

    Raises:
        ValidationError: n < 2, d < 1, or the implied q leaves [0, 1] or
            p leaves (0, 1].
    """
    _check_arguments(n, d, target=target, alpha=alpha)
    if target < 0:
        raise ValidationError("target statistic must be non-negative")
    log_n = np.log(n)
    p = alpha * log_n / n
    if not 0.0 < p <= 1.0:
        raise ValidationError("alpha implies p outside (0, 1]")
    big_l = np.log(n * d)
    q = (target * target * p * p * n) / big_l - p * (1.0 - p)
    if not 0.0 <= q <= 1.0:
        raise ValidationError(
            f"target {target} with alpha {alpha} implies q {q:.6f} outside [0, 1]"
        )
    return float(q * n / log_n)


def alpha_for_eta(target, beta, n, d):
    """Solve for alpha so that (alpha, beta) hits the target statistic.

    With q = beta * log(n) / n fixed, inverts the statistic for
    p = alpha * log(n) / n, taking the positive root of the quadratic.
    Round-trips through eta() to within 1e-12.

    Returns:
        alpha as a float.

    Raises:
        ValidationError: n < 2, d < 1, or no p in (0, 1] attains the
            target.
    """
    _check_arguments(n, d, target=target, beta=beta)
    if target <= 0:
        raise ValidationError("target statistic must be positive")
    log_n = np.log(n)
    q = beta * log_n / n
    if not 0.0 <= q <= 1.0:
        raise ValidationError("beta implies q outside [0, 1]")
    big_l = np.log(n * d)
    # (target^2 n + L) p^2 - L p - q L = 0, positive root.
    a2 = target * target * n + big_l
    disc = big_l * big_l + 4.0 * a2 * q * big_l
    p = (big_l + np.sqrt(disc)) / (2.0 * a2)
    if not 0.0 < p <= 1.0:
        raise ValidationError(f"target {target} with beta {beta} implies p {p:.6f} outside (0, 1]")
    return float(p * n / log_n)


def snr_ratio(factors, true_labels):
    """Two-cluster separation: min over the first true cluster of the
    signal-to-impostor block-row norm ratio.

    The block row carrying the first true cluster is identified as the one
    with the larger total mass on that cluster's block columns; the ratio
    ||R_signal,i||_F / ||R_other,i||_F is minimized over i in the first
    true cluster. A vanishing denominator gives +inf.

    Args:
        factors: BlockCpqrFactors with exactly two block rows of factors.d.
        true_labels: true cluster labels, values in {1, 2}.

    Returns:
        float, possibly +inf.

    Raises:
        ValidationError: the factorization does not have exactly 2 block
            rows, or true_labels does not give each node a label in {1, 2}
            with at least one node in cluster 1.
    """
    r, d = factors.r, factors.d
    if r.shape[0] != 2 * d:
        raise ValidationError("the ratio is defined for exactly two clusters")
    labels = as_indices(true_labels, "true_labels")
    if labels.shape != (r.shape[1] // d,):
        raise ValidationError("true_labels must have one entry per node")
    if not np.isin(labels, (1, 2)).all():
        raise ValidationError("true_labels must lie in {1, 2}")
    norms = factors.block_row_norms()
    first = labels == 1
    if not first.any():
        raise ValidationError("true_labels must place at least one node in cluster 1")
    signal_row = int(np.argmax(norms[:, first].sum(axis=1)))
    other_row = 1 - signal_row
    num = norms[signal_row, first]
    den = norms[other_row, first]
    with np.errstate(divide="ignore"):
        ratios = np.where(den < _RATIO_ZERO_CUTOFF, np.inf, num / np.maximum(den, _RATIO_ZERO_CUTOFF))
    return float(ratios.min())
