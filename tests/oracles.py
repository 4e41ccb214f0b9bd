"""Independent reference implementations used to cross-check the package.

Every routine here deliberately takes a different computational route from
the code under test: Gram-Schmidt projection instead of Householder
reflections for CPQR and the reverse for the Haar map, dense LAPACK
eigendecompositions instead of iterative Lanczos, scipy's polar/Procrustes
instead of our SVD assembly, scipy's graph search instead of our label
propagation, np.isin and np.searchsorted cuts instead of a mask and a
split of the stored pairs, per-node cross-grams instead of Gram GEMMs
against cluster sums, Decimal arithmetic instead of float64.
Tests compare the two routes; neither is derived from the other. The one
exception is quadratic_control_slope, a known-quadratic kernel that
calibrates the runtime bench's slope fitter.
"""

import time
from decimal import Decimal, getcontext

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.sparse.csgraph import connected_components

from syncluster.harness import _BENCH_REPS, fit_loglog_slope
from syncluster.model import SparseBlockMatrix


def scalar_cpqr_pivots(x):
    """Greedy max-residual-norm pivot order for a scalar (d=1) CPQR.

    Classic Golub-Businger pivoting, realized with modified Gram-Schmidt
    projections rather than Householder updates: at each of the m = rows
    steps, pick the not-yet-chosen column whose residual (after projecting
    out the span of all previously chosen columns) has the largest 2-norm.

    Returns:
        List of original column indices, length min(m, n).
    """
    work = np.array(x, dtype=np.float64)
    m, n = work.shape
    basis = np.zeros((m, 0))
    chosen = []
    for _ in range(min(m, n)):
        resid = work - basis @ (basis.T @ work)
        norms = np.linalg.norm(resid, axis=0)
        norms[chosen] = -1.0
        j = int(np.argmax(norms))
        chosen.append(j)
        v = resid[:, j]
        nv = np.linalg.norm(v)
        if nv > 0:
            v = v / nv
            # Second projection pass for orthogonality at float precision.
            v = v - basis @ (basis.T @ v)
            v = v / np.linalg.norm(v)
            basis = np.hstack([basis, v[:, None]])
    return chosen


def lapack_cpqr_pivots(x):
    """First min(m, n) pivots chosen by LAPACK's column-pivoted QR."""
    m, n = x.shape
    _, _, piv = scipy.linalg.qr(x, pivoting=True)
    return list(piv[: min(m, n)])


def block_residual_norms(x, chosen_blocks, d):
    """Residual Frobenius norm of every block column of x.

    Projects out the span of the already-chosen block columns (via a dense
    QR of their concatenation), then reports the Frobenius norm of what is
    left of each block column. Mirrors what one CPQR round measures, by
    subtracting the projection from x instead of reading x's coordinates
    in the orthogonal complement.

    Returns:
        Array of length n_blocks; chosen blocks report -1.
    """
    x = np.asarray(x, dtype=np.float64)
    nb = x.shape[1] // d
    if chosen_blocks:
        cols = np.concatenate([np.arange(b * d, (b + 1) * d) for b in chosen_blocks])
        q, _ = np.linalg.qr(x[:, cols])
        resid = x - q @ (q.T @ x)
    else:
        resid = x
    out = np.empty(nb)
    for b in range(nb):
        out[b] = np.linalg.norm(resid[:, b * d : (b + 1) * d])
    for b in chosen_blocks:
        out[b] = -1.0
    return out


def block_permutation(factors):
    """The block permutation of a blockwise CPQR: its pivots in selection
    order, then the unchosen blocks in ascending order."""
    n = factors.r.shape[1] // factors.d
    return np.concatenate([factors.pivots, np.setdiff1d(np.arange(n), factors.pivots)])


def permute_blocks(m, perm):
    """Copy of m whose block column j is block column perm[j] of m, d from the widths."""
    d = m.shape[1] // len(perm)
    return m[:, (np.asarray(perm)[:, None] * d + np.arange(d)).ravel()]


def refine_clusters_labels_oracle(r, d, labels, confidence, cluster_count, fraction):
    """Labels after the refine_clusters vote, one examined node at a time.

    Each of the round(fraction * n) least-confident nodes (stable order)
    takes the cluster maximizing sum_j ||R_.i^T R_.j||_F^2 / |C_k| over
    the frozen input clusters, skipping empty ones, ties to the smallest k.
    """
    r = np.asarray(r, dtype=np.float64)
    n = r.shape[1] // d
    examined = np.argsort(confidence, kind="stable")[: int(round(fraction * n))]
    members = [np.flatnonzero(labels == k) for k in range(1, cluster_count + 1)]
    out = np.array(labels, copy=True)
    for i in examined:
        # d x (n*d) cross-gram of node i's block column with every other.
        cross = r[:, i * d : (i + 1) * d].T @ r
        sq_sims = (cross * cross).reshape(d, n, d).sum(axis=(0, 2))
        best_k, best_score = int(labels[i]), -np.inf
        for k, nodes in enumerate(members, start=1):
            if nodes.size == 0:
                continue
            score = sq_sims[nodes].sum() / nodes.size
            if score > best_score:
                best_k, best_score = k, score
        out[i] = best_k
    return out


def same_partition_oracle(est_labels, true_labels):
    """Whether two labelings induce the same partition, as sets of node sets."""

    def partition(labels):
        clusters = {}
        for node, lab in enumerate(labels):
            clusters.setdefault(int(lab), []).append(node)
        return frozenset(frozenset(members) for members in clusters.values())

    return partition(est_labels) == partition(true_labels)


def haar_qr_oracle(z):
    """The Haar map through LAPACK's batched QR with a sign fix.

    QR-factorizes each (d, d) slice of z and flips the columns of Q whose R
    diagonal entry is negative, so R's diagonal is non-negative: the
    sign-corrected QR map, exact Haar measure for standard-normal z.
    """
    q, r = np.linalg.qr(np.asarray(z, dtype=np.float64))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * np.where(diag < 0, -1.0, 1.0)[..., None, :]


def dense_top_eigenpairs(dense, k):
    """Top-k algebraic eigenpairs of a dense symmetric matrix via LAPACK.

    Returns:
        (values, vectors): values non-increasing, vectors column-stacked.
    """
    vals, vecs = np.linalg.eigh(dense)
    order = np.argsort(vals)[::-1][:k]
    return vals[order], vecs[:, order]


def projector_distance(u, v):
    """Spectral-norm distance between the column spans of u and v."""
    pu = u @ u.T
    pv = v @ v.T
    return float(np.linalg.norm(pu - pv, 2))


def polar_oracle(x):
    """scipy's polar decomposition, (orthogonal, psd)."""
    return scipy.linalg.polar(np.asarray(x, dtype=np.float64))


def gauge_align_error(true_stack, est_stack):
    """Best single orthogonal gauge aligning est to true; max node error.

    Solves min_G ||vstack(true_i) G - vstack(est_i)||_F with scipy's
    orthogonal Procrustes and reports the largest per-node Frobenius error
    under that G.
    """
    true_stack = np.asarray(true_stack, dtype=np.float64)
    est_stack = np.asarray(est_stack, dtype=np.float64)
    n, d, _ = true_stack.shape
    g, _ = scipy.linalg.orthogonal_procrustes(
        true_stack.reshape(n * d, d), est_stack.reshape(n * d, d)
    )
    errs = np.linalg.norm(est_stack - true_stack @ g, axis=(1, 2))
    return float(errs.max())


def sync_error_oracle(est_transforms, gt):
    """Reference synchronization error via scipy Procrustes per cluster."""
    worst = 0.0
    for k in range(1, gt.K + 1):
        nodes = gt.cluster_nodes(k)
        worst = max(worst, gauge_align_error(gt.transforms[nodes], est_transforms[nodes]))
    if worst == 0.0:
        return -746.0
    return max(float(np.log(worst / np.sqrt(gt.d))), -746.0)


def eta_decimal(n, p, q, d, digits=50):
    """The threshold statistic evaluated in 50-digit decimal arithmetic."""
    getcontext().prec = digits
    n_ = Decimal(int(n))
    p_ = Decimal(p)
    q_ = Decimal(q)
    d_ = Decimal(int(d))
    num = ((p_ * (1 - p_) + q_) * (n_ * d_).ln()).sqrt()
    return float(num / (p_ * n_.sqrt()))


def snr_min_oracle(r, true_labels, d):
    """Loop-based two-cluster separation ratio from a raw R factor."""
    r = np.asarray(r, dtype=np.float64)
    labels = np.asarray(true_labels)
    n = r.shape[1] // d
    norms = np.zeros((2, n))
    for row in range(2):
        for i in range(n):
            block = r[row * d : (row + 1) * d, i * d : (i + 1) * d]
            norms[row, i] = np.linalg.norm(block)
    first = [i for i in range(n) if labels[i] == 1]
    mass = [sum(norms[row, i] for i in first) for row in range(2)]
    signal = 0 if mass[0] >= mass[1] else 1
    best = np.inf
    for i in first:
        den = norms[1 - signal, i]
        ratio = np.inf if den < 1e-300 else norms[signal, i] / den
        best = min(best, ratio)
    return float(best)


def clean_spectrum(sizes, d):
    """Expected eigenvalue multiset of the noiseless observation matrix.

    Each cluster of size m contributes the eigenvalue m - 1 with
    multiplicity d and the eigenvalue -1 with multiplicity (m - 1) * d,
    because the cluster's block is a rank-d projector scaled by m minus the
    identity (the zeroed diagonal).

    Returns:
        Sorted (descending) array of length sum(sizes) * d.
    """
    vals = []
    for m in sizes:
        vals.extend([m - 1.0] * d)
        vals.extend([-1.0] * ((m - 1) * d))
    return np.sort(np.array(vals))[::-1]


def dense(a):
    """The full (n*d, n*d) array of a SparseBlockMatrix."""
    out = np.zeros((a.nd, a.nd))
    d = a.d
    for r, (i, j) in enumerate(a.pairs):
        out[i * d : (i + 1) * d, j * d : (j + 1) * d] = a.data[r]
        out[j * d : (j + 1) * d, i * d : (i + 1) * d] = a.data[r].T
    return out


def dense_matvec(dense, x):
    return dense @ x


def principal_submatrix(a, nodes):
    """Principal block sub-matrix of a on nodes, re-indexed 0..len-1 ascending.

    Cuts the pairs as components_oracle does: np.isin keeps the pairs with
    both ends in nodes and np.searchsorted renumbers their ends.
    """
    nodes = np.unique(np.asarray(nodes, dtype=np.int64))
    keep = np.isin(a.pairs, nodes).all(axis=1)
    return SparseBlockMatrix(nodes.size, a.d, np.searchsorted(nodes, a.pairs[keep]), a.data[keep])


def components_oracle(a, nodes):
    """Component ids of the block graph on `nodes` via scipy's graph search.

    Ids label each entry of sorted(nodes), renumbered in first-seen order.
    """
    nodes = np.unique(np.asarray(nodes, dtype=np.int64))
    keep = np.isin(a.pairs, nodes).all(axis=1)
    rows, cols = np.searchsorted(nodes, a.pairs[keep]).T
    graph = scipy.sparse.coo_array(
        (np.ones(rows.size), (rows, cols)), shape=(nodes.size, nodes.size)
    )
    count, raw = connected_components(graph, directed=False)
    first_seen = {}
    for label in raw:
        first_seen.setdefault(int(label), len(first_seen))
    return count == 1, np.array([first_seen[int(label)] for label in raw])


def quadratic_control_slope(n_values, seed=0):
    """Slope of a deliberately quadratic all-pairs kernel, same fitter.

    Calibrates the log-log fit of the runtime bench: the kernel computes
    all pairwise squared distances of n planar points, which is
    Theta(n^2) work, so the fitted slope should come out near 2. Timed
    with the bench's protocol: round r times each n once, round-robin, so
    a slow spell of the machine is spread over every n rather than landing
    on one; round 0 is the discarded warm-up, and each n takes the median
    of the _BENCH_REPS rounds after it. The kernel writes into one buffer
    per n, allocated before any timing, so the page faults of fresh
    multi-megabyte temporaries do not blur the n^2 work.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    points = [rng.standard_normal((int(n), 2)) for n in n_values]
    buffers = [np.empty((int(n), int(n), 2)) for n in n_values]
    samples = [[] for _ in n_values]
    for rep in range(_BENCH_REPS + 1):
        for x, diff, times in zip(points, buffers, samples):
            t0 = time.perf_counter()
            np.subtract(x[:, None, :], x[None, :, :], out=diff)
            np.multiply(diff, diff, out=diff)
            diff.sum()
            elapsed = (time.perf_counter() - t0) * 1e3
            if rep:
                times.append(elapsed)
    return fit_loglog_slope(n_values, [float(np.median(times)) for times in samples])
