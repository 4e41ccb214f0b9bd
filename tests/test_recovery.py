"""Assignment, confidence, and the two refinement passes."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from syncluster.cpqr import BlockCpqrFactors, blockwise_cpqr
from syncluster.eigensolver import top_eigenpairs
from syncluster.errors import ValidationError
from syncluster.model import ModelParams, SparseBlockMatrix, generate_instance
from syncluster.recovery import (
    FLAG_DISCONNECTED_CLUSTER,
    FLAG_EMPTY_CLUSTER,
    FLAG_ZERO_COLUMN,
    RecoveryResult,
    assign_and_extract,
    connectivity_check,
    refine_clusters,
    refine_transforms,
)

seeds = st.integers(min_value=0, max_value=2**63 - 1)


def _gen(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _factors_from_r(r, d):
    """Wrap a hand-built R with Q = I so the block reads are literal."""
    m = r.shape[0]
    nb = r.shape[1] // d
    return BlockCpqrFactors(
        q=np.eye(m),
        r=np.asarray(r, dtype=np.float64),
        pivots=np.arange(m // d),
        perm=np.arange(nb),
        d=d,
    )


def _clean_recovery(n, big_k, d, seed, p=1.0, q=0.0, sigma=0.0):
    params = ModelParams(n=n, K=big_k, d=d, p=p, q=q, sigma=sigma, seed=seed)
    gt, a = generate_instance(params)
    basis = top_eigenpairs(a, big_k * d)
    factors = blockwise_cpqr(basis.vectors.T, d)
    return gt, a, factors, assign_and_extract(factors, big_k, d)


def test_hand_case_confidence_and_label():
    # One node whose block column is [2I; I]: row 1 wins, confidence
    # 2 / sqrt(5), transform is the transposed polar factor of 2I.
    d = 2
    r = np.zeros((2 * d, d))
    r[0:2, :] = 2.0 * np.eye(2)
    r[2:4, :] = np.eye(2)
    result = assign_and_extract(_factors_from_r(r, d), 2, d)
    assert result.labels[0] == 1
    assert result.confidence[0] == pytest.approx(2.0 / np.sqrt(5.0), abs=1e-15)
    assert np.allclose(result.transforms[0], np.eye(2))


def test_tie_goes_to_smallest_row():
    r = np.zeros((2, 3))
    r[0, 0] = 1.0
    r[1, 0] = 1.0
    r[1, 1] = 1.0
    r[0, 2] = 1.0
    result = assign_and_extract(_factors_from_r(r, 1), 2, 1)
    assert list(result.labels) == [1, 2, 1]
    assert result.confidence[0] == pytest.approx(1.0 / np.sqrt(2.0))


def test_zero_column_defaults():
    r = np.zeros((2, 2))
    r[0, 0] = 3.0
    result = assign_and_extract(_factors_from_r(r, 1), 2, 1)
    assert result.labels[1] == 1
    assert result.confidence[1] == 0.0
    assert FLAG_ZERO_COLUMN in result.flags
    assert result.transforms[1] == pytest.approx(np.ones((1, 1)))


def test_shape_validation():
    r = np.zeros((4, 8))
    factors = _factors_from_r(r, 2)
    with pytest.raises(ValidationError):
        assign_and_extract(factors, 2, 1)  # d mismatch
    with pytest.raises(ValidationError):
        assign_and_extract(factors, 3, 2)  # K mismatch


@given(seeds)
def test_property_partition_equivariance_under_row_swap(seed):
    # Swapping the two block rows of R swaps the labels and leaves
    # confidence untouched; transforms come from the same winning block.
    d = 2
    r = _gen(seed).standard_normal((2 * d, 6 * d))
    base = assign_and_extract(_factors_from_r(r, d), 2, d)
    swapped_r = np.vstack([r[d:], r[:d]])
    swapped = assign_and_extract(_factors_from_r(swapped_r, d), 2, d)
    ties = np.abs(
        np.linalg.norm(r[:d].reshape(d, 6, d), axis=(0, 2))
        - np.linalg.norm(r[d:].reshape(d, 6, d), axis=(0, 2))
    ) < 1e-12
    free = ~ties
    assert np.array_equal(swapped.labels[free], 3 - base.labels[free])
    assert np.allclose(swapped.confidence, base.confidence)
    assert np.allclose(swapped.transforms[free], base.transforms[free])


def test_clean_pipeline_recovers_partition_and_transforms():
    gt, a, factors, result = _clean_recovery(30, 3, 2, seed=5)
    est = {frozenset(np.flatnonzero(result.labels == k)) for k in set(result.labels)}
    true = {frozenset(gt.cluster_nodes(k)) for k in range(1, 4)}
    assert est == true
    # Transforms are exact per cluster up to one orthogonal gauge factor.
    for k in range(1, 4):
        nodes = gt.cluster_nodes(k)
        err = oracles.gauge_align_error(gt.transforms[nodes], result.transforms[nodes])
        assert err <= 1e-7


def test_refine_clusters_fraction_zero_is_identity():
    _, _, factors, result = _clean_recovery(20, 2, 2, seed=1)
    assert refine_clusters(factors, result, fraction=0.0) is result


def test_refine_clusters_validates_fraction():
    _, _, factors, result = _clean_recovery(20, 2, 2, seed=1)
    with pytest.raises(ValidationError):
        refine_clusters(factors, result, fraction=1.5)
    with pytest.raises(ValidationError):
        refine_clusters(factors, result, fraction=-0.1)


def test_refine_clusters_repairs_planted_mistakes():
    # Corrupt three labels and zero their confidence: the similarity vote
    # over the frozen clusters must put each node back where it belongs.
    gt, _, factors, result = _clean_recovery(30, 2, 2, seed=9)
    labels = result.labels.copy()
    confidence = result.confidence.copy()
    wrong = [0, 7, 19]
    for i in wrong:
        labels[i] = 1 + (labels[i] % result.cluster_count)
        confidence[i] = 0.0
    corrupted = RecoveryResult(
        labels=labels,
        transforms=result.transforms,
        confidence=confidence,
        cluster_count=result.cluster_count,
    )
    refined = refine_clusters(factors, corrupted, fraction=0.10)
    assert np.array_equal(refined.labels, result.labels)
    assert refined.transforms is result.transforms


def test_refine_clusters_touches_only_the_examined_set():
    _, _, factors, result = _clean_recovery(40, 2, 2, seed=3, p=0.8, q=0.3)
    fraction = 0.15
    refined = refine_clusters(factors, result, fraction=fraction)
    count = int(round(fraction * 40))
    examined = np.argsort(result.confidence, kind="stable")[:count]
    outside = np.setdiff1d(np.arange(40), examined)
    assert np.array_equal(refined.labels[outside], result.labels[outside])
    assert np.allclose(refined.confidence, result.confidence)


def test_refine_clusters_flags_empty_cluster():
    r = np.zeros((4, 6))
    r[0, 0] = r[0, 2] = r[0, 4] = 1.0
    r[1, 1] = r[1, 3] = r[1, 5] = 1.0
    factors = _factors_from_r(r, 1)
    result = assign_and_extract(factors, 4, 1)
    assert set(result.labels) == {1, 2}
    refined = refine_clusters(factors, result, fraction=0.5)
    assert FLAG_EMPTY_CLUSTER in refined.flags


@given(
    seeds,
    st.integers(min_value=1, max_value=4),  # K
    st.integers(min_value=1, max_value=3),  # d
    st.integers(min_value=1, max_value=40),  # block columns
    st.floats(min_value=0.0, max_value=1.0),
)
def test_refine_clusters_matches_per_node_oracle(seed, big_k, d, n, fraction):
    rng = _gen(seed)
    r = rng.standard_normal((big_k * d, n * d))
    # Labels come from a random subset of the clusters, so some may be empty.
    used = rng.choice(big_k, size=int(rng.integers(1, big_k + 1)), replace=False) + 1
    labels = rng.choice(used, size=n)
    confidence = rng.random(n)
    result = RecoveryResult(
        labels=labels,
        transforms=np.broadcast_to(np.eye(d), (n, d, d)),
        confidence=confidence,
        cluster_count=big_k,
    )
    refined = refine_clusters(_factors_from_r(r, d), result, fraction)
    want = oracles.refine_clusters_labels_oracle(r, d, labels, confidence, big_k, fraction)
    assert np.array_equal(refined.labels, want)
    examined_any = int(round(fraction * n)) > 0
    assert (FLAG_EMPTY_CLUSTER in refined.flags) == (examined_any and np.unique(labels).size < big_k)


def _ring_matrix(n, d, seed):
    """Clean single-cluster ring: pairs (i, i+1) and (0, n-1)."""
    rng = _gen(seed)
    from syncluster.linalg import sample_haar_orthogonal

    transforms = np.stack([sample_haar_orthogonal(d, rng) for _ in range(n)])
    pairs = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    pairs = sorted(pairs)
    data = np.stack([transforms[i] @ transforms[j].T for i, j in pairs])
    a = SparseBlockMatrix(n=n, d=d, pairs=np.array(pairs, dtype=np.int64), data=data)
    return transforms, a


def test_connectivity_check_connected_and_split():
    _, a = _ring_matrix(6, 1, seed=2)
    connected, components = connectivity_check(a, np.arange(6))
    assert connected
    assert set(components) == {0}
    # Restricting to {0, 1, 3, 4} cuts the ring into two arcs.
    connected, components = connectivity_check(a, np.array([0, 1, 3, 4]))
    assert not connected
    assert list(components) == [0, 0, 1, 1]
    with pytest.raises(ValidationError):
        connectivity_check(a, np.array([], dtype=np.int64))
    for nodes in ([-1, 0], [0, 9], [6]):
        with pytest.raises(ValidationError, match="range"):
            connectivity_check(a, np.array(nodes))


def _edge_matrix(n, edges):
    """d=1 matrix whose stored blocks are exactly the given undirected edges."""
    edges = np.sort(np.asarray(edges, dtype=np.int64).reshape(-1, 2), axis=1)
    edges = np.unique(edges[edges[:, 0] != edges[:, 1]], axis=0)
    return SparseBlockMatrix(n, 1, edges, np.ones((edges.shape[0], 1, 1)))


def _graph_cases():
    rng = _gen(31)
    for n, m in ((40, 15), (40, 30), (200, 150), (200, 400), (1000, 700)):
        yield "random", _edge_matrix(n, rng.integers(0, n, size=(m, 2)))
    # Path visiting nodes in scrambled order: the worst case for hooking.
    n = 20_000
    walk = rng.permutation(n)
    yield "scrambled path", _edge_matrix(n, np.column_stack((walk[:-1], walk[1:])))
    yield "star", _edge_matrix(50, [(17, k) for k in range(50)])
    yield "isolated nodes", _edge_matrix(30, [(3, 9), (9, 27), (12, 13)])
    yield "no edges", _edge_matrix(12, np.empty((0, 2)))
    yield "single node", _edge_matrix(1, np.empty((0, 2)))


def test_connectivity_check_matches_graph_search_oracle():
    rng = _gen(32)
    for name, a in _graph_cases():
        subsets = [np.arange(a.n)]
        if a.n > 1:
            subsets.append(rng.choice(a.n, size=max(1, a.n // 3), replace=False))
        for nodes in subsets:
            connected, components = connectivity_check(a, nodes)
            want_connected, want = oracles.components_oracle(a, nodes)
            assert connected == want_connected, name
            assert np.array_equal(components, want), name


def test_refine_transforms_exact_on_clean_instance():
    gt, a, factors, result = _clean_recovery(24, 2, 3, seed=11)
    refined = refine_transforms(a, result)
    assert oracles.sync_error_oracle(refined.transforms, gt) <= np.log(1e-8)
    assert np.array_equal(refined.labels, result.labels)
    assert refined.flags == result.flags


def test_refine_transforms_handles_disconnection_per_component():
    # One declared cluster that is actually two disjoint cliques: the pass
    # flags it and still refines each component on its own.
    d = 2
    rng = _gen(21)
    from syncluster.linalg import sample_haar_orthogonal

    transforms = np.stack([sample_haar_orthogonal(d, rng) for _ in range(8)])
    pairs = []
    for lo, hi in ((0, 4), (4, 8)):
        for i in range(lo, hi):
            for j in range(i + 1, hi):
                pairs.append((i, j))
    pairs = sorted(pairs)
    data = np.stack([transforms[i] @ transforms[j].T for i, j in pairs])
    a = SparseBlockMatrix(n=8, d=d, pairs=np.array(pairs, dtype=np.int64), data=data)
    seed_result = RecoveryResult(
        labels=np.ones(8, dtype=np.int64),
        transforms=np.stack([np.eye(d)] * 8),
        confidence=np.ones(8),
        cluster_count=1,
    )
    refined = refine_transforms(a, seed_result)
    assert FLAG_DISCONNECTED_CLUSTER in refined.flags
    for lo, hi in ((0, 4), (4, 8)):
        err = oracles.gauge_align_error(
            transforms[lo:hi], refined.transforms[lo:hi]
        )
        assert err <= 1e-7


def test_refine_transforms_flags_empty_cluster_and_keeps_rest():
    gt, a, factors, result = _clean_recovery(20, 2, 2, seed=4)
    widened = RecoveryResult(
        labels=result.labels,
        transforms=result.transforms,
        confidence=result.confidence,
        cluster_count=3,  # cluster 3 exists on paper but owns no node
    )
    refined = refine_transforms(a, widened)
    assert FLAG_EMPTY_CLUSTER in refined.flags
    assert oracles.sync_error_oracle(refined.transforms, gt) <= np.log(1e-8)


def test_pipeline_invariant_under_node_relabeling():
    # Renaming the nodes renames the recovered partition and nothing else.
    n, big_k, d = 24, 2, 2
    params = ModelParams(n=n, K=big_k, d=d, p=1.0, q=0.0, seed=13)
    gt, a = generate_instance(params)
    pi = _gen(99).permutation(n)

    pairs = pi[a.pairs]
    data = a.data.copy()
    flip = pairs[:, 0] > pairs[:, 1]
    pairs[flip] = pairs[flip][:, ::-1]
    data[flip] = np.transpose(data[flip], (0, 2, 1))
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    permuted = SparseBlockMatrix(n=n, d=d, pairs=pairs[order], data=data[order])

    base = assign_and_extract(blockwise_cpqr(top_eigenpairs(a, big_k * d).vectors.T, d), big_k, d)
    moved = assign_and_extract(
        blockwise_cpqr(top_eigenpairs(permuted, big_k * d).vectors.T, d), big_k, d
    )
    part_base = {frozenset(pi[np.flatnonzero(base.labels == k)]) for k in set(base.labels)}
    part_moved = {frozenset(np.flatnonzero(moved.labels == k)) for k in set(moved.labels)}
    assert part_base == part_moved
    for k in range(1, big_k + 1):
        nodes = gt.cluster_nodes(k)
        err = oracles.gauge_align_error(base.transforms[nodes], moved.transforms[pi[nodes]])
        assert err <= 1e-6
