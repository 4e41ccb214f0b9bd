"""Assignment, confidence, and the two refinement passes."""

import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from syncluster import recovery
from syncluster.cpqr import BlockCpqrFactors, blockwise_cpqr
from syncluster.eigensolver import SolverConfig, top_eigenpairs
from syncluster.errors import NonFiniteError, ValidationError
from syncluster.linalg import ORTHOGONALITY_ATOL, haar_from_normals, polar_decompose
from syncluster.metrics import exact_recovery
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
    run_pipeline,
)

seeds = st.integers(min_value=0, max_value=2**63 - 1)


def _gen(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _factors_from_r(r, d):
    """Wrap a hand-built R with Q = I so the block reads are literal."""
    m = r.shape[0]
    return BlockCpqrFactors(
        q=np.eye(m),
        r=np.asarray(r, dtype=np.float64),
        pivots=np.arange(m // d),
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


def test_clusters_are_numbered_by_their_lowest_node():
    # Node 0 lies in block row 3 and node 1 in block row 1; block row 2
    # wins no node, so the labels use 1 and 2 of the three clusters.
    r = np.zeros((3, 4))
    r[2, 0] = r[2, 3] = 1.0
    r[0, 1] = 1.0
    r[0, 2] = 2.0
    result = assign_and_extract(_factors_from_r(r, 1), 3, 1)
    assert list(result.labels) == [1, 2, 2, 1]
    assert result.cluster_count == 3


@given(seeds)
def test_property_partition_equivariance_under_row_swap(seed):
    # Permuting the block rows of R, as a CPQR that pivots the same
    # partition in another order does, leaves labels, confidence and
    # transforms as they were: clusters are numbered by their lowest node.
    d = 2
    r = _gen(seed).standard_normal((3 * d, 8 * d))
    base = assign_and_extract(_factors_from_r(r, d), 3, d)
    _, first = np.unique(base.labels, return_index=True)
    assert np.all(np.diff(first) > 0)
    for order in ([1, 0, 2], [2, 0, 1]):
        permuted_r = np.vstack([r[k * d : (k + 1) * d] for k in order])
        permuted = assign_and_extract(_factors_from_r(permuted_r, d), 3, d)
        assert np.array_equal(permuted.labels, base.labels)
        assert np.allclose(permuted.confidence, base.confidence)
        assert np.allclose(permuted.transforms, base.transforms)


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
    assert np.array_equal(refined.transforms, result.transforms)


def test_refine_clusters_rereads_the_transforms_of_moved_nodes():
    # Three labels put in the wrong cluster, with low but non-zero confidence
    # and a wrong transform: each moved node takes the polar factor of its
    # block in its new cluster's row of R, and no other transform changes.
    _, _, factors, result = _clean_recovery(30, 2, 2, seed=9)
    labels = result.labels.copy()
    confidence = result.confidence.copy()
    transforms = result.transforms.copy()
    wrong = [0, 7, 19]
    for i in wrong:
        labels[i] = 1 + (labels[i] % result.cluster_count)
        confidence[i] = 0.5
        transforms[i] = np.diag([1.0, -1.0])
    corrupted = replace(result, labels=labels, confidence=confidence, transforms=transforms)
    refined = refine_clusters(factors, corrupted, fraction=0.10)
    assert np.array_equal(refined.labels, result.labels)
    np.testing.assert_allclose(refined.transforms[wrong], result.transforms[wrong], atol=1e-12)
    kept = np.setdiff1d(np.arange(30), wrong)
    assert np.array_equal(refined.transforms[kept], transforms[kept])
    assert np.array_equal(corrupted.transforms, transforms)


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


def test_refine_clusters_scores_mean_squared_similarity():
    # d = 1, so the similarity of nodes i and j is |r_i . r_j|. Node 0,
    # r_0 = (0.6, 0.8), is examined in cluster 1 = {0, 1, 2, 3, 4}, whose
    # other members r_j = (1, 0) give 0.6 each; cluster 2 = {5}, with
    # r_5 = (0, 1.2), gives 0.96. Mean squared similarity picks cluster 2,
    # (1 + 4 * 0.36) / 5 = 0.488 < 0.9216, where a plain sum over
    # sqrt(|C_k|) would keep cluster 1, (1 + 4 * 0.6) / sqrt(5) = 1.52 > 0.96.
    r = np.zeros((2, 6))
    r[:, 0] = (0.6, 0.8)
    r[0, 1:5] = 1.0
    r[1, 5] = 1.2
    result = RecoveryResult(
        labels=np.array([1, 1, 1, 1, 1, 2]),
        transforms=np.ones((6, 1, 1)),
        confidence=np.array([0.0, 1.0, 1.0, 1.0, 1.0, 1.0]),
        cluster_count=2,
    )
    refined = refine_clusters(_factors_from_r(r, 1), result, fraction=1 / 6)
    assert list(refined.labels) == [2, 1, 1, 1, 1, 2]


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
    transforms = haar_from_normals(rng.standard_normal((n, d, d)))
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


def test_connectivity_check_rejects_non_integral_nodes():
    _, a = _ring_matrix(6, 1, seed=2)
    for nodes in ([0.5, 1.7], ["0", "1"], [None, 1]):
        with pytest.raises(ValidationError, match="^node indices must be integers"):
            connectivity_check(a, nodes)
    # Integral floats name the same nodes as their integers.
    assert connectivity_check(a, np.array([0.0, 1.0, 3.0]))[1].tolist() == [0, 0, 1]


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


def test_pipeline_with_loose_global_solve_still_refines_to_tolerance():
    # run_pipeline solves the global basis only to 1e-2 when it re-solves
    # transforms; the restricted solves restore full accuracy.
    gt, a, _, _ = _clean_recovery(24, 2, 3, seed=11)
    _, result, _, flags = run_pipeline(a, 2, 3, SolverConfig(), "both")
    assert exact_recovery(result.labels, gt.labels, 2)
    assert oracles.sync_error_oracle(result.transforms, gt) <= np.log(1e-8)
    assert flags == []


def test_readme_quick_start_runs_as_written(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    exact, error_log = capsys.readouterr().out.split()
    assert exact == "True"
    assert float(error_log) <= math.log(1e-6)


@pytest.mark.parametrize("refine", ["none", "clusters", "transforms", "both"])
@pytest.mark.parametrize("n, big_k, d, seed", [(400, 2, 2, 1), (400, 2, 2, 2), (450, 3, 3, 3)])
def test_pipeline_matches_the_old_composition_without_per_node_polars(refine, n, big_k, d, seed):
    # Only refine none takes one polar factor per node (assign_and_extract);
    # every other mode takes all n in one stacked call, then one per
    # restricted solve. Against assign_and_extract and the refine passes on
    # the same factors, labels and flags are equal and transforms agree to
    # rounding, up to one orthogonal factor per cluster where
    # refine_transforms re-solves them. Every pass hands on orthogonal
    # transforms.
    p = 10 * math.log(n) / n
    _, a = generate_instance(ModelParams(n=n, K=big_k, d=d, p=p, q=p, seed=seed))
    cfg = SolverConfig(seed=seed)
    shapes = []
    passes = []

    def counted(x):
        shapes.append(np.shape(x))
        return polar_decompose(x)

    def kept(step):
        def run(*args):
            # The stacked assignment runs inside run_pipeline, so its result
            # is read as the first refine pass's input.
            if not passes:
                passes.extend(arg for arg in args if isinstance(arg, RecoveryResult))
            passes.append(step(*args))
            return passes[-1]
        return run

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(recovery, "polar_decompose", counted)
        for name in ("assign_and_extract", "refine_clusters", "refine_transforms"):
            patch.setattr(recovery, name, kept(getattr(recovery, name)))
        factors, new, _, _ = run_pipeline(a, big_k, d, cfg, refine)
    old = assign_and_extract(factors, big_k, d)
    if refine in ("clusters", "both"):
        old = refine_clusters(factors, old)
    if refine in ("transforms", "both"):
        old = refine_transforms(a, old, cfg)

    assert np.array_equal(new.labels, old.labels)
    assert new.flags == old.flags == ()
    assert len(passes) == 1 + (refine != "none") * (1 + (refine == "both"))
    for result in passes:
        gram = result.transforms.transpose(0, 2, 1) @ result.transforms - np.eye(d)
        assert np.linalg.norm(gram, axis=(1, 2)).max() <= ORTHOGONALITY_ATOL
    if refine == "none":
        assert shapes == [(d, d)] * n
        assert np.array_equal(new.transforms, old.transforms)
        return
    # The re-vote moves no node on these instances, so it takes no polar.
    assert shapes == [(n, d, d)] + [(np.count_nonzero(old.labels == k), d, d)
                                    for k in range(1, big_k + 1)] * (refine != "clusters")
    if refine == "clusters":
        np.testing.assert_allclose(new.transforms, old.transforms, rtol=0, atol=1e-13)
    for k in range(1, big_k + 1):
        nodes = old.cluster_nodes(k)
        assert oracles.gauge_align_error(old.transforms[nodes], new.transforms[nodes]) <= 1e-12


def _clique_matrix(n, d, cliques, seed, cross=()):
    """Clean matrix holding every pair inside each clique, plus Haar cross pairs."""
    rng = _gen(seed)
    transforms = haar_from_normals(rng.standard_normal((n, d, d)))
    within = {(int(i), int(j)) for c in cliques for i in c for j in c if i < j}
    pairs = sorted(within | set(cross))
    data = np.stack([
        transforms[i] @ transforms[j].T if (i, j) in within
        else haar_from_normals(rng.standard_normal((d, d)))
        for i, j in pairs
    ])
    return transforms, SparseBlockMatrix(n=n, d=d, pairs=np.array(pairs), data=data)


def _assert_solved_per_component(a, given, refined, truth, components):
    # Each component's transforms equal a solve on exactly its own nodes'
    # principal sub-matrix, cut independently of refine_transforms' split and
    # started from their input transforms, and match the truth up to one
    # gauge. A single node keeps its input.
    d = a.d
    for nodes in components:
        if nodes.size == 1:
            assert np.array_equal(refined.transforms[nodes], given.transforms[nodes])
            continue
        sub = oracles.principal_submatrix(a, nodes)
        start = given.transforms[nodes].reshape(-1, d)
        blocks = top_eigenpairs(sub, d, start=start).vectors.reshape(-1, d, d)
        assert np.array_equal(refined.transforms[nodes], polar_decompose(blocks))
        assert oracles.gauge_align_error(truth[nodes], refined.transforms[nodes]) <= 1e-7


def _identity_result(labels, d, cluster_count):
    n = len(labels)
    return RecoveryResult(
        labels=np.asarray(labels, dtype=np.int64),
        transforms=np.stack([np.eye(d)] * n),
        confidence=np.ones(n),
        cluster_count=cluster_count,
    )


def test_refine_transforms_handles_disconnection_per_component():
    # One declared cluster that is actually two disjoint cliques: the pass
    # flags it and still refines each component on its own.
    d = 2
    cliques = (np.arange(4), np.arange(4, 8))
    transforms, a = _clique_matrix(8, d, cliques, seed=21)
    given = _identity_result(np.ones(8), d, 1)
    refined = refine_transforms(a, given)
    assert refined.flags == (FLAG_DISCONNECTED_CLUSTER,)
    _assert_solved_per_component(a, given, refined, transforms, cliques)


def test_refine_transforms_maps_interleaved_components_back_to_their_nodes(monkeypatch):
    # Cluster 1 holds two interleaved cliques, {1, 4, 7, 10} and
    # {2, 5, 8, 11}, and the isolated node 9; cluster 2 is the clique
    # {0, 3, 6}. Node 9 has no pair to solve: it keeps its input transform
    # bit for bit and costs no eigensolve.
    d = 2
    cliques = (np.array([1, 4, 7, 10]), np.array([2, 5, 8, 11]), np.array([0, 3, 6]))
    transforms, a = _clique_matrix(12, d, cliques, seed=22)
    labels = np.ones(12, dtype=np.int64)
    labels[cliques[2]] = 2
    given = _identity_result(labels, d, 2)
    given.transforms[9] = np.diag([1.0, -1.0])
    sizes = []

    def counted(sub, k, cfg=None, start=None):
        sizes.append(sub.n)
        return top_eigenpairs(sub, k, cfg, start)

    monkeypatch.setattr(recovery, "top_eigenpairs", counted)
    refined = refine_transforms(a, given)
    monkeypatch.undo()
    assert sorted(sizes) == [3, 4, 4]
    assert refined.flags == (FLAG_DISCONNECTED_CLUSTER,)
    _assert_solved_per_component(a, given, refined, transforms, cliques + (np.array([9]),))


def _split_clusters_case():
    # Clusters 1 and 2 each hold two interleaved cliques, cluster 3 owns no
    # node, and cross-cluster pairs chain all four cliques together: only
    # the pairs inside a cluster may join a component.
    d = 2
    cliques = (np.array([0, 4, 8]), np.array([2, 6, 10]), np.array([1, 5, 9]), np.array([3, 7, 11]))
    cross = ((0, 1), (1, 2), (2, 3), (7, 8))
    transforms, a = _clique_matrix(12, d, cliques, seed=23, cross=cross)
    labels = np.where(np.arange(12) % 2, 2, 1)
    return a, _identity_result(labels, d, 3), transforms, cliques


def test_refine_transforms_splits_every_cluster_and_flags_empty_first():
    a, result, transforms, cliques = _split_clusters_case()
    refined = refine_transforms(a, result)
    assert refined.flags == (FLAG_EMPTY_CLUSTER, FLAG_DISCONNECTED_CLUSTER)
    _assert_solved_per_component(a, result, refined, transforms, cliques)


def test_refine_transforms_frees_each_component_before_the_next():
    # Two clusters, two restricted solves. When the second matrix is built,
    # the first one (its pairs, blocks and matvec plan) and its vectors must
    # be gone: traced memory at both builds is the same up to a slack far
    # below one component's share of the stored bytes.
    n = 1600
    p = 10 * math.log(n) / n
    gt, a = generate_instance(ModelParams(n=n, K=2, d=2, p=p, q=p, seed=1))
    given = RecoveryResult(labels=gt.labels, transforms=gt.transforms,
                           confidence=np.ones(n), cluster_count=2)
    traced = []

    def build(*args, **kwargs):
        traced.append(tracemalloc.get_traced_memory()[0])
        return SparseBlockMatrix(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(recovery, "SparseBlockMatrix", build)
        tracemalloc.start()
        try:
            refine_transforms(a, given)
        finally:
            tracemalloc.stop()
    assert len(traced) == 2
    assert traced[1] - traced[0] < 0.02 * (a.data.nbytes + a.pairs.nbytes)


def test_components_peak_stays_near_its_input():
    # Random edges, nearly all joining two roots in the first round: the
    # cut of each round's live edges replaces the previous one array at a
    # time, so the pass never holds two generations of them at once.
    rng = np.random.default_rng(3)
    n, m = 6400, 140_000
    ends = rng.integers(0, n, (m, 2))
    pairs = np.column_stack((ends.min(axis=1), ends.max(axis=1)))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        recovery._components(n, pairs)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * pairs.nbytes


@pytest.mark.parametrize("count", [6, 13])
def test_refinements_reject_labels_not_one_per_node(count):
    _, a, factors, _ = _clean_recovery(12, 2, 2, seed=5)
    wrong = _identity_result(np.ones(count), 2, 2)
    with pytest.raises(ValidationError, match="^labels must give each node of a a cluster"):
        refine_transforms(a, wrong)
    with pytest.raises(ValidationError, match="^labels must give each block column a cluster"):
        refine_clusters(factors, wrong)


@pytest.mark.parametrize("stray", [0, 3])
def test_refinements_reject_labels_outside_the_clusters(stray):
    _, a, factors, result = _clean_recovery(12, 2, 2, seed=5)
    labels = result.labels.copy()
    labels[4] = stray
    wrong = _identity_result(labels, 2, 2)
    with pytest.raises(ValidationError, match="1..cluster_count"):
        refine_transforms(a, wrong)
    with pytest.raises(ValidationError, match="1..cluster_count"):
        refine_clusters(factors, wrong)


def _misfit(field, value):
    _, a, factors, result = _clean_recovery(40, 2, 2, seed=1, p=0.5, q=0.05)
    return a, factors, replace(result, **{field: value})


@pytest.mark.parametrize("length", [10, 80])
def test_refine_clusters_rejects_confidence_not_one_per_node(length):
    # Length 80 with zeros past node 39 used to index out of range; length
    # 10 used to re-vote 10 nodes where fraction 0.5 asks for 20.
    confidence = np.ones(length)
    confidence[length * 3 // 4 :] = 0.0
    _, factors, wrong = _misfit("confidence", confidence)
    with pytest.raises(ValidationError, match=r"^confidence must hold one value per block column"):
        refine_clusters(factors, wrong, 0.5)


@pytest.mark.parametrize("shape", [(39, 2, 2), (41, 2, 2), (40, 2, 3), (40, 4)],
                         ids=["39-nodes", "41-nodes", "2x3-blocks", "flat"])
def test_refine_transforms_rejects_transforms_not_one_block_per_node(shape):
    # (39, 2, 2) used to end in an IndexError from the last component.
    a, _, wrong = _misfit("transforms", np.zeros(shape))
    with pytest.raises(ValidationError, match=r"^transforms must be one block per node"):
        refine_transforms(a, wrong)


@pytest.mark.parametrize("shape", [(39, 2, 2), (40, 2, 3)], ids=["39-nodes", "2x3-blocks"])
def test_refine_clusters_rejects_transforms_not_one_block_per_node(shape):
    # The re-vote writes the transforms of the nodes it moves.
    _, factors, wrong = _misfit("transforms", np.zeros(shape))
    with pytest.raises(ValidationError, match=r"^transforms must be one block per node"):
        refine_clusters(factors, wrong, 0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_refine_transforms_rejects_non_finite_transforms(bad):
    _, a, _, result = _clean_recovery(40, 2, 2, seed=1, p=0.5, q=0.05)
    transforms = result.transforms.copy()
    transforms[5, 1, 0] = bad
    with pytest.raises(NonFiniteError, match="^transforms contain NaN or Inf"):
        refine_transforms(a, replace(result, transforms=transforms))


def test_refinements_read_labels_through_the_index_check():
    # A list of labels used to end in AttributeError: no .shape.
    _, a, factors, result = _clean_recovery(40, 2, 2, seed=1, p=0.5, q=0.05)
    listed = replace(result, labels=list(result.labels))
    np.testing.assert_array_equal(refine_transforms(a, listed).transforms,
                                  refine_transforms(a, result).transforms)
    np.testing.assert_array_equal(refine_clusters(factors, listed, 0.5).labels,
                                  refine_clusters(factors, result, 0.5).labels)
    fractional = replace(result, labels=result.labels + 0.5)
    with pytest.raises(ValidationError, match="^labels must be integers"):
        refine_transforms(a, fractional)
    with pytest.raises(ValidationError, match="^labels must be integers"):
        refine_clusters(factors, fractional)


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
