"""Cluster assignment, transform extraction, and the refinement passes.

From the R factor of the blockwise CPQR: node i's block column concentrates
its mass in one block row in the noiseless case, so the row of largest
Frobenius norm names the cluster and the polar factor of that block (then
transposed) gives the orthogonal transform estimate. Refinement passes
re-assign low-confidence labels by averaged block-column similarity, and
re-estimate transforms from per-cluster restricted eigenvectors, which is
exact on noiseless connected clusters.
"""

from dataclasses import dataclass, replace

import numpy as np

from .eigensolver import top_eigenpairs
from .errors import ValidationError
from .linalg import polar_decompose

# Block columns with total norm below this are treated as all-zero: the
# node gets cluster 1, the identity transform, and confidence 0.
_ZERO_COLUMN_CUTOFF = 1e-12

# Similarities held at once by refine_clusters: examined nodes per chunk
# times n.
_SIMS_CHUNK_ELEMS = 2**20

FLAG_ZERO_COLUMN = "ZeroColumn"
FLAG_EMPTY_CLUSTER = "EmptyCluster"
FLAG_DISCONNECTED_CLUSTER = "DisconnectedCluster"


@dataclass(frozen=True)
class RecoveryResult:
    """Estimated labels (1-based), transforms, and per-node confidence.

    confidence[i] is the mass fraction of node i's strongest block row,
    max_k ||R_ki||_F / ||R_.i||_F, in (0, 1] except for all-zero columns
    where it is 0. cluster_count is the number of clusters the assignment
    ran with (labels may use fewer when some cluster won no node). flags
    collects degeneracies seen along the way.
    """

    labels: np.ndarray
    transforms: np.ndarray
    confidence: np.ndarray
    cluster_count: int
    flags: tuple = ()

    def cluster_nodes(self, k):
        """Node indices assigned to cluster k (1-based), ascending."""
        return np.flatnonzero(self.labels == k)


def _block_row_norms(r, big_k, d):
    """Frobenius norms of the (k, i) blocks of r, shape (K, n)."""
    n = r.shape[1] // d
    sq = (r * r).reshape(big_k, d, n, d)
    return np.sqrt(sq.sum(axis=(1, 3)))


def assign_and_extract(factors, big_k, d):
    """Read labels, transforms, and confidences off the R factor.

    Per node i: the label is the block row of largest Frobenius norm (ties
    to the smallest row), and the transform is the transposed polar factor
    of that block. All-zero block columns are flagged and default to
    cluster 1 with the identity transform.

    Args:
        factors: BlockCpqrFactors from blockwise_cpqr.
        big_k: number of clusters (block rows of R).
        d: block dimension.

    Returns:
        RecoveryResult.
    """
    r = factors.r
    if d != factors.d:
        raise ValidationError("d disagrees with the factorization's block size")
    if r.shape[0] != big_k * d:
        raise ValidationError("big_k disagrees with the R factor's block rows")
    n = r.shape[1] // d
    norms = _block_row_norms(r, big_k, d)
    totals = np.sqrt((norms * norms).sum(axis=0))
    labels = np.argmax(norms, axis=0) + 1
    with np.errstate(invalid="ignore", divide="ignore"):
        confidence = np.where(totals > 0, norms.max(axis=0) / totals, 0.0)

    zero_cols = totals < _ZERO_COLUMN_CUTOFF
    labels[zero_cols] = 1
    confidence[zero_cols] = 0.0

    transforms = np.empty((n, d, d))
    for i in range(n):
        if zero_cols[i]:
            transforms[i] = np.eye(d)
            continue
        k = labels[i] - 1
        block = r[k * d : (k + 1) * d, i * d : (i + 1) * d]
        transforms[i] = polar_decompose(block).orthogonal.T
    flags = (FLAG_ZERO_COLUMN,) if zero_cols.any() else ()
    return RecoveryResult(
        labels=labels.astype(np.int64),
        transforms=transforms,
        confidence=confidence,
        cluster_count=big_k,
        flags=flags,
    )


def refine_clusters(factors, result, fraction=0.10):
    """Re-assign the least-confident fraction of nodes by block similarity.

    The `fraction` quantile of the confidence distribution picks the
    re-examined set (lowest-confidence nodes, about fraction * n of them).
    Each such node moves to the cluster maximizing the size-normalized
    similarity sum over the frozen input clusters,
    (1 / sqrt(|C_k|)) * sum_j ||R_.i^T R_.j||_F, ties to the smallest k.
    Labels outside the set and all transforms are unchanged.

    The similarities come from ||R_.i^T R_.j||_F^2 = <R_.i R_.i^T,
    R_.j R_.j^T>: one GEMM of the flattened (K*d)^2 Gram rows per chunk
    of examined nodes. That costs O(f * n^2 * (K*d)^2) flops in total,
    with memory bounded per chunk by _SIMS_CHUNK_ELEMS similarities.

    Args:
        factors: the same BlockCpqrFactors the result came from.
        result: RecoveryResult from assign_and_extract.
        fraction: share of nodes to re-examine, in [0, 1].

    Returns:
        New RecoveryResult.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValidationError("fraction must lie in [0, 1]")
    r = factors.r
    d = factors.d
    n = r.shape[1] // d
    count = int(round(fraction * n))
    if count == 0:
        return result

    order = np.argsort(result.confidence, kind="stable")
    examined = order[:count]

    onehot = result.labels[:, None] == np.arange(1, result.cluster_count + 1)
    sizes = onehot.sum(axis=0)
    flags = tuple(result.flags)
    if (sizes == 0).any() and FLAG_EMPTY_CLUSTER not in flags:
        flags = flags + (FLAG_EMPTY_CLUSTER,)

    blocks = r.reshape(-1, n, d).transpose(1, 0, 2)
    gram = (blocks @ blocks.transpose(0, 2, 1)).reshape(n, -1)
    weights = onehot / np.sqrt(np.maximum(sizes, 1))
    labels = result.labels.copy()
    step = max(1, _SIMS_CHUNK_ELEMS // n)
    for lo in range(0, count, step):
        chunk = examined[lo : lo + step]
        sims = np.sqrt(np.maximum(gram[chunk] @ gram.T, 0.0))
        scores = np.where(sizes > 0, sims @ weights, -np.inf)
        labels[chunk] = np.argmax(scores, axis=1) + 1
    return replace(result, labels=labels, flags=flags)


def connectivity_check(a, nodes):
    """Whether the observed-block graph restricted to `nodes` is connected.

    Args:
        a: SparseBlockMatrix.
        nodes: non-empty subset of 0..a.n-1.

    Returns:
        (connected, components): components labels each entry of
        sorted(nodes) with its component id, 0-based, in first-seen order.
    """
    nodes = np.unique(np.asarray(nodes, dtype=np.int64))
    if nodes.size == 0:
        raise ValidationError("nodes must be non-empty")
    if nodes.min() < 0 or nodes.max() >= a.n:
        raise ValidationError("nodes out of range")
    lookup = np.full(a.n, -1, dtype=np.int64)
    lookup[nodes] = np.arange(nodes.size)

    # Label propagation over trees: every root hooks to the smallest root
    # it shares an edge with, then pointers jump until each node points at
    # its root. Hooks always go to a smaller index, so a root is the
    # smallest node of its tree, and within two rounds every tree with an
    # outside edge merges, so the rounds are logarithmic in the node count.
    parent = np.arange(nodes.size)
    if a.pair_count:
        mapped = lookup[a.pairs]
        u, v = mapped[(mapped >= 0).all(axis=1)].T
        while u.size:
            ru, rv = parent[u], parent[v]
            cross = ru != rv
            u, v, ru, rv = u[cross], v[cross], ru[cross], rv[cross]
            np.minimum.at(parent, np.maximum(ru, rv), np.minimum(ru, rv))
            while True:
                jumped = parent[parent]
                if np.array_equal(jumped, parent):
                    break
                parent = jumped
    # Roots are component minima, so ranking them numbers the components
    # in first-seen order.
    roots, components = np.unique(parent, return_inverse=True)
    return roots.size == 1, components


def refine_transforms(a, result, cfg=None):
    """Re-estimate transforms from per-cluster restricted eigenvectors.

    For each estimated cluster, the top-d eigenvectors of the observation
    matrix restricted to that cluster are computed and each node's d x d
    eigenvector block is replaced by its polar factor. On a noiseless
    instance with correctly recovered, connected clusters this recovers
    every transform exactly (up to the inherent per-cluster global factor).
    Disconnected clusters are flagged and refined per connected component,
    each component keeping its own arbitrary global factor.

    Args:
        a: the observation matrix the factors came from.
        result: RecoveryResult whose labels partition the nodes.
        cfg: SolverConfig for the restricted eigensolves.

    Returns:
        New RecoveryResult with updated transforms. Labels and confidence
        carry over.

    Raises:
        NoConvergenceError: propagated from the eigensolver.
        NonFiniteError: a restricted eigenvector block is not finite.
    """
    d = a.d
    transforms = result.transforms.copy()
    flags = tuple(result.flags)
    for k in range(1, result.cluster_count + 1):
        nodes = result.cluster_nodes(k)
        if nodes.size == 0:
            if FLAG_EMPTY_CLUSTER not in flags:
                flags = flags + (FLAG_EMPTY_CLUSTER,)
            continue
        connected, components = connectivity_check(a, nodes)
        if not connected and FLAG_DISCONNECTED_CLUSTER not in flags:
            flags = flags + (FLAG_DISCONNECTED_CLUSTER,)
        for c in range(int(components.max()) + 1):
            comp_nodes = nodes[components == c]
            blocks = top_eigenpairs(a.restrict(comp_nodes), d, cfg).vectors.reshape(-1, d, d)
            transforms[comp_nodes] = polar_decompose(blocks).orthogonal
    return replace(result, transforms=transforms, flags=flags)
