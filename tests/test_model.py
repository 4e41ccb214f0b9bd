"""Random-model generation, the block-sparse matrix, and serialization."""

import io
import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from syncluster import model
from syncluster.errors import NonFiniteError, ParseError, ValidationError
from syncluster.model import (
    GroundTruth,
    ModelParams,
    RandomSource,
    SparseBlockMatrix,
    _unrank_triangle,
    add_gaussian_noise,
    generate_ground_truth,
    generate_instance,
    generate_observation,
    load_ground_truth,
    load_labeling,
    load_matrix,
    save_ground_truth,
    save_labeling,
    save_matrix,
)

seeds = st.integers(min_value=0, max_value=2**63 - 1)
small_models = st.tuples(
    seeds,
    st.integers(min_value=4, max_value=20),  # n
    st.integers(min_value=1, max_value=3),  # K
    st.integers(min_value=1, max_value=3),  # d
    st.integers(min_value=0, max_value=10),  # p in tenths
    st.integers(min_value=0, max_value=10),  # q in tenths
)


def _params(seed, n, big_k, d, p10, q10, sigma=0.0):
    big_k = min(big_k, n)
    return ModelParams(n=n, K=big_k, d=d, p=p10 / 10.0, q=q10 / 10.0, sigma=sigma, seed=seed)


def test_params_validation_messages():
    with pytest.raises(ValidationError, match="p must lie"):
        ModelParams(n=4, K=2, d=2, p=1.5, q=0.0)
    with pytest.raises(ValidationError, match="sigma"):
        ModelParams(n=4, K=2, d=2, p=0.5, q=0.0, sigma=-1.0)
    with pytest.raises(ValidationError, match="sum to n"):
        ModelParams(n=4, K=2, d=2, p=0.5, q=0.0, sizes=(3, 2))
    with pytest.raises(ValidationError, match="at least K"):
        ModelParams(n=2, K=3, d=1, p=0.5, q=0.0)
    with pytest.raises(ValidationError, match="at least 1"):
        ModelParams(n=4, K=2, d=0, p=0.5, q=0.0)


def test_equal_split_puts_extras_first():
    assert ModelParams(n=10, K=3, d=1, p=1.0, q=0.0).sizes == (4, 3, 3)
    assert ModelParams(n=9, K=3, d=1, p=1.0, q=0.0).sizes == (3, 3, 3)


def test_ground_truth_labels_contiguous():
    params = ModelParams(n=7, K=3, d=2, p=1.0, q=0.0, sizes=(3, 2, 2), seed=1)
    gt = generate_ground_truth(params)
    assert list(gt.labels) == [1, 1, 1, 2, 2, 3, 3]
    assert list(gt.cluster_nodes(2)) == [3, 4]
    defects = np.linalg.norm(
        np.matmul(gt.transforms.transpose(0, 2, 1), gt.transforms) - np.eye(2), axis=(1, 2)
    )
    assert defects.max() <= 1e-10


def test_ground_truth_rejects_bad_shapes():
    with pytest.raises(ValidationError, match="^every cluster index in 1..K must appear"):
        GroundTruth(labels=np.array([1, 1, 3]), transforms=np.ones((3, 1, 1)))
    for labels in ([0, 1, 1], [1, 1, 4]):
        with pytest.raises(ValidationError, match=r"^labels must lie in 1\.\.n$"):
            GroundTruth(labels=np.array(labels), transforms=np.ones((3, 1, 1)))
    for transforms in (np.ones((2, 1, 1)), np.ones((3, 1, 2)), np.ones((3, 1))):
        with pytest.raises(ValidationError, match=r"^transforms must be an \(n, d, d\) stack$"):
            GroundTruth(labels=np.array([1, 1, 2]), transforms=transforms)
    with pytest.raises(ValidationError, match="^labels must be a non-empty 1-d array$"):
        GroundTruth(labels=np.zeros(0, np.int64), transforms=np.zeros((0, 1, 1)))


def test_ground_truth_derives_its_counts():
    gt = GroundTruth(labels=np.array([2, 1, 3, 2, 2]), transforms=np.ones((5, 2, 2)))
    assert (gt.n, gt.K, gt.d) == (5, 3, 2)
    assert gt.sizes.tolist() == [1, 3, 1]
    assert not gt.sizes.flags.writeable
    with pytest.raises(TypeError):
        GroundTruth(labels=np.array([1]), transforms=np.ones((1, 1, 1)), K=1)


@pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
def test_non_finite_sigma_is_rejected(sigma):
    with pytest.raises(ValidationError, match="sigma must be finite and non-negative"):
        ModelParams(n=4, K=2, d=2, p=0.5, q=0.0, sigma=sigma)
    _, a = generate_instance(ModelParams(n=4, K=2, d=2, p=1.0, q=0.0, seed=1))
    with pytest.raises(ValidationError, match="sigma must be finite and non-negative"):
        add_gaussian_noise(a, sigma, RandomSource(1))


@given(small_models)
def test_property_determinism_generation(case):
    seed, n, big_k, d, p10, q10 = case
    params = _params(seed, n, big_k, d, p10, q10, sigma=0.5 if seed % 2 else 0.0)
    gt1, a1 = generate_instance(params)
    gt2, a2 = generate_instance(params)
    assert np.array_equal(gt1.labels, gt2.labels)
    assert np.array_equal(gt1.transforms, gt2.transforms)
    assert np.array_equal(a1.pairs, a2.pairs)
    assert np.array_equal(a1.data, a2.data)


@given(small_models)
def test_generated_matrix_symmetric_zero_diagonal(case):
    seed, n, big_k, d, p10, q10 = case
    gt, a = generate_instance(_params(seed, n, big_k, d, p10, q10))
    dense = oracles.dense(a)
    assert np.array_equal(dense, dense.T)
    for i in range(n):
        assert not dense[i * d : (i + 1) * d, i * d : (i + 1) * d].any()


@given(small_models)
def test_stored_blocks_orthogonal_and_within_exact(case):
    seed, n, big_k, d, p10, q10 = case
    gt, a = generate_instance(_params(seed, n, big_k, d, p10, q10))
    for (i, j), block in zip(a.pairs, a.data):
        defect = np.linalg.norm(block.T @ block - np.eye(d))
        assert defect <= 1e-10
        if gt.labels[i] == gt.labels[j]:
            assert np.array_equal(block, gt.transforms[i] @ gt.transforms[j].T)


@given(seeds, st.integers(min_value=4, max_value=16), st.integers(min_value=1, max_value=3))
def test_clean_observation_equals_full_probability_draw(seed, n, d):
    params = ModelParams(n=n, K=2, d=d, p=1.0, q=0.0, seed=seed)
    gt = generate_ground_truth(params)
    src = RandomSource(seed)
    drawn = generate_observation(gt, 1.0, 0.0, src)
    i_arr, j_arr = np.triu_indices(n, k=1)
    same = gt.labels[i_arr] == gt.labels[j_arr]
    i_arr, j_arr = i_arr[same], j_arr[same]
    assert np.array_equal(drawn.pairs, np.column_stack((i_arr, j_arr)))
    want = gt.transforms[i_arr] @ gt.transforms[j_arr].transpose(0, 2, 1)
    assert np.array_equal(drawn.data, want)


def test_presence_rates_track_probabilities():
    params = ModelParams(n=120, K=2, d=1, p=0.7, q=0.2, seed=9)
    gt, a = generate_instance(params)
    labels = gt.labels
    same = np.array([labels[i] == labels[j] for i, j in a.pairs])
    same_total = sum(
        1 for i in range(params.n) for j in range(i + 1, params.n) if labels[i] == labels[j]
    )
    cross_total = params.n * (params.n - 1) // 2 - same_total
    assert same.sum() / same_total == pytest.approx(0.7, abs=0.1)
    assert (~same).sum() / cross_total == pytest.approx(0.2, abs=0.1)


def test_triangle_unranking_inverts_the_pair_rank():
    for s in range(1, 60):
        i, j = _unrank_triangle(np.arange(s * (s - 1) // 2), s)
        want_i, want_j = np.triu_indices(s, k=1)
        assert np.array_equal(i, want_i) and np.array_equal(j, want_j)
    # At a cluster of 3e5 nodes, check random pairs plus the first and last
    # pair of every row, where rounding the float root could move the row.
    s = 300_000
    rng = np.random.default_rng(8)
    rows = np.arange(s - 1)
    i = np.concatenate((rng.integers(0, s - 1, 100_000), rows, rows))
    j = np.concatenate((i[:100_000] + 1 + rng.integers(0, s - 1 - i[:100_000]),
                        rows + 1, np.full(s - 1, s - 1)))
    ranks = i * (2 * s - i - 1) // 2 + (j - i - 1)
    got_i, got_j = _unrank_triangle(ranks, s)
    assert np.array_equal(got_i, i) and np.array_equal(got_j, j)


def _all_pairs(labels, same):
    i_arr, j_arr = np.triu_indices(labels.size, k=1)
    keep = (labels[i_arr] == labels[j_arr]) == same
    return np.column_stack((i_arr[keep], j_arr[keep]))


@pytest.mark.parametrize("sizes", [(40, 25, 7), (60,), (1, 1, 1, 5), (1, 30)])
@pytest.mark.parametrize("interleaved", [False, True])
def test_sampled_pairs_are_distinct_and_in_their_blocks(sizes, interleaved):
    n = sum(sizes)
    gt = generate_ground_truth(ModelParams(n=n, K=len(sizes), d=2, p=1.0, q=0.0,
                                           sizes=sizes, seed=3))
    if interleaved:
        # Labels need not be contiguous; cross pairs then unrank to either
        # orientation and must come back as i < j.
        perm = np.random.default_rng(0).permutation(n)
        gt = GroundTruth(labels=gt.labels[perm], transforms=gt.transforms)
    # p and q at 0 or 1 pin each block's pair set exactly.
    for p, q in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)):
        a = generate_observation(gt, p, q, RandomSource(3))
        want = np.concatenate([_all_pairs(gt.labels, same)
                               for same, prob in ((True, p), (False, q)) if prob])
        want = want[np.lexsort((want[:, 1], want[:, 0]))]
        assert np.array_equal(a.pairs, want)
    a = generate_observation(gt, 0.4, 0.1, RandomSource(4))
    i, j = a.pairs.T
    assert (i < j).all()
    assert np.unique(i * n + j).size == a.pair_count
    same = gt.labels[i] == gt.labels[j]
    exact = np.matmul(gt.transforms[i], gt.transforms[j].transpose(0, 2, 1))
    assert np.array_equal(a.data[same], exact[same])
    assert not np.isclose(a.data[~same], exact[~same]).all(axis=(1, 2)).any()


def _one_pass_observation(gt, p, q, source):
    """(pairs, data) of generate_observation built in one pass, QR oracle Haar map.

    Reads the presence stream block by block, a <= b, and the cross stream
    in one draw for all cross pairs in key order.
    """
    n, d, sizes = gt.n, gt.d, gt.sizes.tolist()
    members = [gt.cluster_nodes(k) for k in range(1, gt.K + 1)]
    rng = source.stream(model._STREAM_PRESENCE)
    keys = []
    for a in range(gt.K):
        for b in range(a, gt.K):
            total = sizes[a] * (sizes[a] - 1) // 2 if a == b else sizes[a] * sizes[b]
            ranks = rng.choice(total, rng.binomial(total, p if a == b else q), replace=False)
            x, y = _unrank_triangle(ranks, sizes[a]) if a == b else np.divmod(ranks, sizes[b])
            u, v = members[a][x], members[b][y]
            keys.append(np.minimum(u, v) * n + np.maximum(u, v))
    i_arr, j_arr = np.divmod(np.sort(np.concatenate(keys)), n)
    within = gt.labels[i_arr] == gt.labels[j_arr]
    data = np.matmul(gt.transforms[i_arr], gt.transforms[j_arr].transpose(0, 2, 1))
    z = source.stream(model._STREAM_CROSS).standard_normal((int((~within).sum()), d, d))
    data[~within] = oracles.haar_qr_oracle(z)
    return np.column_stack((i_arr, j_arr)), data


@pytest.mark.parametrize("d", [2, 3])
def test_sliced_generation_matches_one_pass_reference(monkeypatch, d):
    # Four pairs per slice cuts the instance into dozens of slices, each
    # holding within-cluster and cross pairs in varying mixes.
    monkeypatch.setattr(model, "_SLICE_ELEMS", 4 * d * d)
    params = ModelParams(n=40, K=3, d=d, p=0.5, q=0.3, seed=11)
    gt = generate_ground_truth(params)
    a = generate_observation(gt, params.p, params.q, RandomSource(params.seed))
    pairs, data = _one_pass_observation(gt, params.p, params.q, RandomSource(params.seed))
    assert a.pair_count >= 4 * 24
    within = gt.labels[pairs[:, 0]] == gt.labels[pairs[:, 1]]
    assert within.any() and not within.all()
    assert a.pairs.dtype == pairs.dtype and np.array_equal(a.pairs, pairs)
    assert np.abs(a.data - data).max() <= 1e-12


def test_generation_peak_is_bounded_by_the_stored_bytes():
    # The sparse-large benchmark cell. With the blocks filled and checked
    # slice by slice the peak is 1.31x the stored bytes; whole-range
    # gathers and Haar draws took it to 2.9x, and whole-range checks 1.43x.
    n = 6400
    p = 10 * math.log(n) / n
    params = ModelParams(n=n, K=2, d=2, p=p, q=p, seed=1)
    tracemalloc.start()
    try:
        _, a = generate_instance(params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * (a.data.nbytes + a.pairs.nbytes)


def test_sparse_generation_memory_is_linear_in_stored_blocks():
    # 4.5e8 pairs: drawing per pair would take gigabytes, while ~4.5k stored
    # blocks and the O(n) ground truth take a few MiB.
    params = ModelParams(n=30000, K=2, d=2, p=1e-5, q=1e-5, seed=5)
    tracemalloc.start()
    try:
        _, a = generate_instance(params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 3000 < a.pair_count < 6000
    assert peak < 16 * 2**20


def test_dense_noise_over_budget_fails_typed():
    # d=2 noise blocks take 32 bytes per pair: n=8192 fits in 1 GiB, 8193
    # does not.
    ModelParams(n=8192, K=2, d=2, p=0.1, q=0.1, sigma=0.1)
    with pytest.raises(ValidationError, match="over the 1 GiB budget"):
        ModelParams(n=8193, K=2, d=2, p=0.1, q=0.1, sigma=0.1)
    ModelParams(n=20000, K=2, d=2, p=0.1, q=0.1)  # sigma = 0 stays sparse
    empty = SparseBlockMatrix(20000, 2, np.empty((0, 2), np.int64), np.empty((0, 2, 2)))
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="over the 1 GiB budget"):
            add_gaussian_noise(empty, 0.1, RandomSource(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# Operand shapes beyond the matrix rows: () is a 1-D vector.
operand_shapes = st.sampled_from(((), (1,), (3,), (25,)))


def _star(seed, n, d):
    """Hub n // 3 joined to every other node below 2n/3; the rest isolated.

    The hub is as wide as a node gets in both directions, the leaves have
    degree 1 in one direction and 0 in the other.
    """
    hub = n // 3
    leaves = np.setdiff1d(np.arange(max(2 * n // 3, hub + 2)), [hub])
    pairs = np.column_stack((np.minimum(leaves, hub), np.maximum(leaves, hub)))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    return SparseBlockMatrix(n, d, pairs, rng.standard_normal((leaves.size, d, d)))


@given(small_models, operand_shapes, st.sampled_from(("model", "restricted", "star")))
@example((5, 25, 1, 8, 10, 10), (25,), "model")  # every pair stored, d=8, 25 columns
@example((6, 200, 2, 2, 10, 10), (5,), "model")  # 19,900 blocks: several tiles
@example((7, 60, 3, 2, 1, 0), (3,), "model")  # sparse: isolated and one-sided nodes
@example((8, 30, 2, 3, 6, 2), (), "restricted")  # 1-D operand on a restricted matrix
@example((9, 600, 1, 3, 0, 0), (4,), "star")  # one hub of degree 399, 200 isolated nodes
@example((10, 100, 1, 16, 10, 0), (7,), "model")  # every pair: lone-node runs and batched tiles
@example((11, 140, 1, 16, 10, 0), (3,), "restricted")  # every pair among 70 kept nodes
def test_matvec_matches_dense_oracle(case, extra, kind):
    seed, n, big_k, d, p10, q10 = case
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    if kind == "star":
        a = _star(seed, n, d)
    else:
        gt, a = generate_instance(_params(seed, n, big_k, d, p10, q10))
    if kind == "restricted":
        a = oracles.principal_submatrix(a, rng.choice(n, size=max(1, n // 2), replace=False))
    x = rng.standard_normal((a.nd,) + extra)
    want = oracles.dense_matvec(oracles.dense(a), x)
    got = a.matvec(x)
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= 1e-10 * max(1.0, np.linalg.norm(want))


def test_every_pair_matvec_reads_source_runs_in_place():
    # Stored every pair, each node's source rows form one contiguous run of
    # the operand, read as a view. One product then allocates the padded
    # operand and the result (about 2 x.nbytes) and less than the widest
    # node's (n - 1) * d * c floats of gathered rows on top.
    n, d, c = 32, 64, 256
    i, j = np.triu_indices(n, k=1)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(12)))
    a = SparseBlockMatrix(n, d, np.column_stack((i, j)), rng.standard_normal((i.size, d, d)))
    x = rng.standard_normal((a.nd, c))
    a.matvec(x[:, :1])  # builds the plan outside the traced call
    tracemalloc.start()
    try:
        got = a.matvec(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    want = oracles.dense_matvec(oracles.dense(a), x)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
    assert peak < 2 * x.nbytes + (n - 1) * d * c * 8


def test_matvec_plan_feeds_each_node_in_stable_j_order():
    # The transposed direction feeds node j the stored pairs (i, j) in the
    # stable argsort order of j, which the plan gets by sorting the keys
    # j*n + i. Random pairs, given unsorted, with many repeated j.
    n, d = 40, 2
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(21)))
    i, j = np.triu_indices(n, k=1)
    keep = rng.permutation(i.size)[:300]
    a = SparseBlockMatrix(n, d, np.column_stack((i[keep], j[keep])),
                          rng.standard_normal((keep.size, d, d)))
    i, j = a.pairs.T
    assert np.bincount(j).max() > 5

    def expand(idx):
        return np.arange(idx.start, idx.stop) if isinstance(idx, slice) else idx

    fed = {}
    for transposed, nodes, width, src, blk in a._matvec_tiles():
        if not transposed:
            continue
        src, blk = expand(src).reshape(-1, width), expand(blk).reshape(-1, width)
        for node, node_src, node_blk in zip(expand(nodes), src, blk):
            fed[int(node)] = node_blk[node_src < n]
    got = np.concatenate([fed[node] for node in sorted(fed)])
    want = np.argsort(j, kind="stable")
    assert np.array_equal(got, want)
    assert np.array_equal(i[got], i[want])


def test_matvec_single_vector_and_empty_matrix():
    a = SparseBlockMatrix(3, 2, np.empty((0, 2), dtype=np.int64), np.empty((0, 2, 2)))
    x = np.ones(6)
    assert np.array_equal(a.matvec(x), np.zeros(6))
    gt, b = generate_instance(ModelParams(n=6, K=2, d=2, p=1.0, q=0.0, seed=0))
    y = b.matvec(np.ones(12))
    assert y.shape == (12,)


def test_matvec_rejects_operands_of_the_wrong_shape():
    _, a = generate_instance(ModelParams(n=40, K=2, d=2, p=0.5, q=0.1, seed=0))
    for shape in ((80, 2, 2), (79,), (81, 3)):
        with pytest.raises(ValidationError, match="operand"):
            a.matvec(np.ones(shape))


def test_sparse_matrix_validates_pairs():
    with pytest.raises(ValidationError):
        SparseBlockMatrix(3, 1, np.array([[1, 0]]), np.zeros((1, 1, 1)))
    with pytest.raises(ValidationError):
        SparseBlockMatrix(3, 1, np.array([[0, 1], [0, 1]]), np.zeros((2, 1, 1)))
    # Sorted but not strictly increasing, and unsorted: both duplicates fail.
    with pytest.raises(ValidationError, match="duplicate"):
        SparseBlockMatrix(4, 1, np.array([[0, 1], [1, 2], [1, 2], [2, 3]]), np.zeros((4, 1, 1)))
    with pytest.raises(ValidationError, match="duplicate"):
        SparseBlockMatrix(4, 1, np.array([[1, 2], [0, 1], [1, 2]]), np.zeros((3, 1, 1)))
    with pytest.raises(ValidationError):
        SparseBlockMatrix(3, 1, np.array([[0, 3]]), np.zeros((1, 1, 1)))
    with pytest.raises(ValidationError, match="pairs"):
        SparseBlockMatrix(3, 1, np.array([0, 1, 2]), np.zeros(1))
    with pytest.raises(ValidationError, match="data"):
        SparseBlockMatrix(3, 2, np.array([[0, 1]]), np.zeros(5))
    with pytest.raises(ValidationError, match="data"):
        SparseBlockMatrix(3, 2, np.array([[0, 1], [1, 2]]), np.zeros((1, 2, 2)))
    # Rows that are not pairs, and indices that are not integers.
    with pytest.raises(ValidationError, match="pairs"):
        SparseBlockMatrix(6, 1, np.array([[0, 1, 2], [3, 4, 5]]), np.zeros(3))
    with pytest.raises(ValidationError, match="integers"):
        SparseBlockMatrix(3, 1, np.array([[0.5, 1.7]]), np.zeros(1))
    # Flat arrays of the right sizes, and integral floats, are accepted.
    a = SparseBlockMatrix(3, 2, np.array([0, 1, 1, 2]), np.arange(8.0))
    assert np.array_equal(a.pairs, [[0, 1], [1, 2]])
    assert np.array_equal(a.data, np.arange(8.0).reshape(2, 2, 2))
    assert np.array_equal(SparseBlockMatrix(3, 1, [[0.0, 2.0]], np.ones(1)).pairs, [[0, 2]])
    # Unsorted pairs are sorted, their blocks with them.
    a = SparseBlockMatrix(3, 1, np.array([[1, 2], [0, 2], [0, 1]]), np.arange(3.0))
    assert np.array_equal(a.pairs, [[0, 1], [0, 2], [1, 2]])
    assert np.array_equal(a.data.ravel(), [2.0, 1.0, 0.0])
    # Interleaved i columns sort by the key i*n + j: (0, 4) before (1, 2),
    # though 4 > 2, and (2, 3) last.
    pairs = np.array([[1, 2], [0, 4], [2, 3], [0, 1], [1, 4]])
    a = SparseBlockMatrix(5, 1, pairs, np.arange(5.0))
    assert np.array_equal(a.pairs, [[0, 1], [0, 4], [1, 2], [1, 4], [2, 3]])
    assert np.array_equal(a.data.ravel(), [3.0, 1.0, 0.0, 4.0, 2.0])


def test_sparse_matrix_checks_across_slice_boundaries(monkeypatch):
    # Two pairs per slice: each fault below sits in a later slice than the
    # first, and the key faults straddle a boundary, where only the check
    # against the previous slice's last key can see them.
    monkeypatch.setattr(model, "_SLICE_ELEMS", 2)
    ones = np.ones((4, 1, 1))
    with pytest.raises(ValidationError, match="duplicate"):
        SparseBlockMatrix(4, 1, np.array([[0, 1], [0, 2], [0, 2], [1, 3]]), ones)
    a = SparseBlockMatrix(4, 1, np.array([[0, 1], [1, 2], [0, 2], [1, 3]]), np.arange(4.0))
    assert np.array_equal(a.pairs, [[0, 1], [0, 2], [1, 2], [1, 3]])
    assert np.array_equal(a.data.ravel(), [0.0, 2.0, 1.0, 3.0])
    with pytest.raises(ValidationError, match="^every stored pair must satisfy i < j$"):
        SparseBlockMatrix(4, 1, np.array([[0, 1], [0, 2], [1, 3], [3, 2]]), ones)
    with pytest.raises(ValidationError, match="^pair indices must lie in 0..n-1$"):
        SparseBlockMatrix(4, 1, np.array([[0, 1], [0, 2], [3, 2], [1, 4]]), ones)
    bad = ones.copy()
    bad[3] = np.nan
    with pytest.raises(NonFiniteError, match="^block data contains NaN or Inf entries$"):
        SparseBlockMatrix(4, 1, np.array([[0, 1], [0, 2], [3, 2], [1, 4]]), bad)
    # Sorted input over many slices is kept as is.
    pairs = np.column_stack(np.triu_indices(6, k=1))
    a = SparseBlockMatrix(6, 1, pairs, np.arange(15.0), copy=False)
    assert np.shares_memory(a.pairs, pairs)


def test_sparse_matrix_checks_peak_far_below_the_stored_bytes():
    # The sparse-large benchmark cell, sorted and kept without a copy. The
    # checks' masks and keys are cut per slice of the pairs; over the whole
    # pair range they took the constructor 0.35x the stored bytes above
    # its start.
    n = 6400
    p = 10 * math.log(n) / n
    _, a = generate_instance(ModelParams(n=n, K=2, d=2, p=p, q=p, seed=1))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        SparseBlockMatrix(n, 2, a.pairs, a.data, copy=False)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * (a.data.nbytes + a.pairs.nbytes)


def test_sparse_matrix_bounds_n_so_pair_keys_fit_int64():
    top = 3_037_000_499  # isqrt(2**63 - 1)
    with pytest.raises(ValidationError, match="^n must be at most 3037000499"):
        SparseBlockMatrix(top + 1, 1, np.array([[0, 1]]), np.zeros(1))
    pairs = np.array([[top - 3, top - 1], [top - 2, top - 1], [0, top - 2], [top - 3, top - 2]])
    a = SparseBlockMatrix(top, 1, pairs, np.arange(4.0))
    assert np.array_equal(a.pairs, [[0, top - 2], [top - 3, top - 2], [top - 3, top - 1],
                                    [top - 2, top - 1]])
    assert np.array_equal(a.data.ravel(), [2.0, 3.0, 0.0, 1.0])


def test_sparse_matrix_copies_sorted_input_unless_told_not_to():
    pairs = np.array([[0, 1], [1, 2]])
    data = np.ones((2, 2, 2))
    a = SparseBlockMatrix(3, 2, pairs, data)
    pairs[0, 1] = 2
    data[:] = 5.0
    assert np.array_equal(a.pairs, [[0, 1], [1, 2]])
    assert (a.data == 1.0).all()
    assert not a.pairs.flags.writeable and not a.data.flags.writeable
    b = SparseBlockMatrix(3, 2, pairs, data, copy=False)
    assert np.shares_memory(b.pairs, pairs) and np.shares_memory(b.data, data)
    assert not b.pairs.flags.writeable and not b.data.flags.writeable


def test_sparse_matrix_rejects_non_finite_blocks():
    pairs = np.array([[0, 1], [1, 2]])
    for bad in (np.nan, np.inf, -np.inf):
        data = np.zeros((2, 2, 2))
        data[1, 0, 1] = bad
        with pytest.raises(NonFiniteError, match="NaN or Inf"):
            SparseBlockMatrix(3, 2, pairs, data)


def test_loader_rejects_non_finite_block(nan_block_container):
    with pytest.raises(NonFiniteError):
        load_matrix(nan_block_container)


def test_add_noise_zero_sigma_is_identity():
    gt, a = generate_instance(ModelParams(n=6, K=2, d=2, p=0.8, q=0.1, seed=4))
    assert add_gaussian_noise(a, 0.0, RandomSource(4)) is a


def test_add_noise_densifies_and_shifts_stored_blocks():
    params = ModelParams(n=8, K=2, d=2, p=0.8, q=0.1, seed=11)
    gt = generate_ground_truth(params)
    src = RandomSource(11)
    a = generate_observation(gt, params.p, params.q, src)
    noisy = add_gaussian_noise(a, 0.5, src)
    assert noisy.pair_count == 8 * 7 // 2
    diff = oracles.dense(noisy) - oracles.dense(a)
    assert np.array_equal(diff, diff.T)
    for i in range(8):
        assert not diff[i * 2 : (i + 1) * 2, i * 2 : (i + 1) * 2].any()
    # The perturbation really is level sigma: sample std within loose bounds.
    offdiag = diff[np.triu_indices_from(diff, k=2)]
    values = offdiag[offdiag != 0]
    assert 0.3 < values.std() < 0.7


def test_add_noise_determinism_same_stream_key():
    params = ModelParams(n=8, K=2, d=2, p=0.8, q=0.1, sigma=0.5, seed=11)
    _, n1 = generate_instance(params)
    _, n2 = generate_instance(params)
    assert np.array_equal(n1.data, n2.data)


def test_matrix_serialization_round_trip(tmp_path):
    path = tmp_path / "matrix.bin"
    for d in (1, 2, 3):
        gt, a = generate_instance(ModelParams(n=10, K=3, d=d, p=0.7, q=0.2, seed=5))
        empty = SparseBlockMatrix(4, d, np.zeros((0, 2), dtype=np.int64), np.zeros((0, d, d)))
        for matrix in (a, empty):
            save_matrix(path, matrix, 3)
            loaded, big_k = load_matrix(path)
            assert big_k == 3
            assert (loaded.n, loaded.d) == (matrix.n, matrix.d)
            assert np.array_equal(loaded.pairs, matrix.pairs)
            assert np.array_equal(loaded.data, matrix.data)
            assert loaded.data.shape == (matrix.pair_count, d, d)
    # The path is used as given; np.savez would add .npz to a bare name.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["matrix.bin"]


def test_ground_truth_serialization_round_trip(tmp_path):
    path = tmp_path / "truth.bin"
    for d in (1, 2, 3):
        gt, _ = generate_instance(ModelParams(n=9, K=2, d=d, p=1.0, q=0.0, seed=6))
        save_ground_truth(path, gt)
        loaded = load_ground_truth(path)
        assert np.array_equal(loaded.labels, gt.labels)
        assert np.array_equal(loaded.transforms, gt.transforms)
        assert np.array_equal(loaded.sizes, gt.sizes)
        assert loaded.K == gt.K


def test_labeling_tolerates_empty_cluster(tmp_path):
    path = tmp_path / "est.bin"
    labels = np.array([1, 1, 1])
    transforms = np.stack([np.eye(2)] * 3)
    save_labeling(path, 2, labels, transforms)
    got_labels, got_transforms, big_k = load_labeling(path)
    assert big_k == 2
    assert np.array_equal(got_labels, labels)
    assert np.array_equal(got_transforms, transforms)
    # The labels alone name one cluster; the stored K names a second, empty one.
    with pytest.raises(ParseError, match=r"every cluster index in 1\.\.2 must appear"):
        load_ground_truth(path)


def test_save_labeling_rejects_malformed_shapes(tmp_path):
    path = tmp_path / "est.bin"
    with pytest.raises(ValidationError, match="transforms"):
        save_labeling(path, 2, np.array([1, 2]), np.eye(2))
    with pytest.raises(ValidationError, match="transforms"):
        save_labeling(path, 2, np.array([1, 2]), np.zeros((2, 2, 3)))
    with pytest.raises(ValidationError, match="labels"):
        save_labeling(path, 2, np.array(1), np.zeros((1, 2, 2)))
    assert not path.exists()


def test_loader_rejects_corruption(tmp_path):
    gt, a = generate_instance(ModelParams(n=6, K=2, d=2, p=1.0, q=0.0, seed=7))
    path = tmp_path / "m.bin"
    save_matrix(path, a, 2)
    raw = path.read_bytes()
    npy = io.BytesIO()
    np.save(npy, a.data)

    with pytest.raises(OSError):
        load_matrix(tmp_path / "ghost.bin")
    bad = tmp_path / "bad.bin"
    # A truncated archive loses the directory at its end, whatever the cut.
    cuts = (1, 4, 30, len(raw) // 2, len(raw) - 22, len(raw) - 1)
    for content in (b"", b"this is not an archive", pickle.dumps({"K": 2}), npy.getvalue(),
                    *(raw[:cut] for cut in cuts)):
        bad.write_bytes(content)
        for loader in (load_matrix, load_labeling, load_ground_truth):
            with pytest.raises(ParseError, match=f"^{re.escape(str(bad))}: "):
                loader(bad)

    with pytest.raises(ParseError, match="matrix"):
        truth = tmp_path / "t.bin"
        save_ground_truth(truth, gt)
        load_matrix(truth)


_MATRIX = dict(n=3, K=2, pairs=np.array([[0, 1], [1, 2]]), data=np.ones((2, 1, 1)))
_LABELING = dict(K=2, labels=np.array([1, 2]), transforms=np.ones((2, 1, 1)))


@pytest.mark.parametrize("loader, arrays, message", [
    pytest.param(load_labeling, {**_LABELING, "O": np.eye(2)}, "expected a labeling record",
                 id="kind"),
    pytest.param(load_matrix, dict(n=3, K=2, pairs=_MATRIX["pairs"]), "expected a matrix record",
                 id="missing-array"),
    pytest.param(load_matrix, {**_MATRIX, "n": 0}, "n and d must be at least 1", id="zero-n"),
    pytest.param(load_labeling, {**_LABELING, "transforms": np.ones((2, 0, 0))},
                 r"transforms must be an \(n, d, d\) stack with d >= 1", id="zero-d"),
    pytest.param(load_labeling, {**_LABELING, "labels": np.ones(0, dtype=int),
                                 "transforms": np.ones((0, 1, 1))},
                 "labels must be a non-empty 1-d array", id="short-labels"),
    pytest.param(load_labeling, {**_LABELING, "transforms": np.ones((3, 1, 1))},
                 r"transforms must be an \(n, d, d\) stack", id="count-not-n"),
    pytest.param(load_labeling, {**_LABELING, "transforms": np.ones((1, 1, 1))},
                 r"transforms must be an \(n, d, d\) stack", id="short-blocks"),
    pytest.param(load_labeling, {**_LABELING, "K": [2]}, "K must be an integer", id="K-vector"),
    pytest.param(load_labeling, {**_LABELING, "K": 2.5}, "K must be an integer", id="K-float"),
    pytest.param(load_matrix, {**_MATRIX, "K": 0}, "K must be at least 1", id="K-zero"),
    pytest.param(load_matrix, {**_MATRIX, "n": [3]}, "n must be an integer", id="n-vector"),
    pytest.param(load_matrix, {**_MATRIX, "pairs": np.ones((2, 3), dtype=int)},
                 r"pairs must hold \(i, j\) index pairs", id="pairs-shape"),
    pytest.param(load_matrix, {**_MATRIX, "data": np.ones((2, 1))},
                 r"data must be an \(m, d, d\) stack", id="blocks-not-3d"),
    pytest.param(load_matrix, {**_MATRIX, "data": np.ones((2, 1, 2))},
                 "data must hold one d x d block per pair", id="blocks-not-square"),
    pytest.param(load_matrix, {**_MATRIX, "pairs": np.array([[0, 1], [1, 3]])},
                 r"pair indices must lie in 0\.\.n-1", id="pair-out-of-range"),
    pytest.param(load_labeling, {**_LABELING, "labels": np.array([1, None])},
                 "not a readable .npz archive", id="object-array"),
    pytest.param(load_labeling, {**_LABELING, "labels": np.array([1, 3])},
                 r"labels must lie in 1\.\.K", id="label-over-K"),
    pytest.param(load_labeling, {**_LABELING, "labels": np.array([0, 2])},
                 r"labels must lie in 1\.\.K", id="label-zero"),
])
def test_loaders_reject_crafted_containers(tmp_path, loader, arrays, message):
    path = tmp_path / "crafted.bin"
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(ParseError, match=message):
        loader(path)


def test_kind_mismatch_rejected(tmp_path):
    gt, a = generate_instance(ModelParams(n=6, K=2, d=2, p=1.0, q=0.0, seed=8))
    m = tmp_path / "m.bin"
    save_matrix(m, a, 2)
    with pytest.raises(ParseError, match="labeling"):
        load_labeling(m)


def test_random_source_streams_are_independent():
    src = RandomSource(42)
    a = src.stream(0).standard_normal(8)
    b = src.stream(1).standard_normal(8)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, RandomSource(42).stream(0).standard_normal(8))
    assert src.subseed(3, 1) == RandomSource(42).subseed(3, 1)
    assert src.subseed(3, 1) != src.subseed(1, 3)
    with pytest.raises(ValidationError):
        RandomSource(-1)
