"""Random-model generation, the block-sparse matrix, and serialization."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from syncluster.errors import NonFiniteError, ParseError, ValidationError
from syncluster.model import (
    GroundTruth,
    ModelParams,
    RandomSource,
    SparseBlockMatrix,
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
    with pytest.raises(ValidationError):
        GroundTruth(n=3, K=2, d=1, labels=np.array([1, 1, 3]),
                    transforms=np.ones((3, 1, 1)), sizes=np.array([2, 1]))
    with pytest.raises(ValidationError):
        GroundTruth(n=3, K=2, d=1, labels=np.array([1, 1, 1]),
                    transforms=np.ones((3, 1, 1)), sizes=np.array([3, 0]))


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
    dense = a.to_dense()
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


# Operand shapes beyond the matrix rows: () is a 1-D vector.
operand_shapes = st.sampled_from(((), (1,), (3,), (25,)))


@given(small_models, operand_shapes, st.booleans())
@example((5, 25, 1, 8, 10, 10), (25,), False)  # every pair stored, d=8, 25 columns
@example((6, 200, 2, 2, 10, 10), (5,), False)  # 19,900 blocks: several tiles
@example((7, 60, 3, 2, 1, 0), (3,), False)  # sparse: isolated and one-sided nodes
@example((8, 30, 2, 3, 6, 2), (), True)  # 1-D operand on a restricted matrix
def test_matvec_matches_dense_oracle(case, extra, restricted):
    seed, n, big_k, d, p10, q10 = case
    gt, a = generate_instance(_params(seed, n, big_k, d, p10, q10))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    if restricted:
        a = a.restrict(rng.choice(n, size=max(1, n // 2), replace=False))
    x = rng.standard_normal((a.nd,) + extra)
    want = oracles.dense_matvec(a.to_dense(), x)
    got = a.matvec(x)
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= 1e-10 * max(1.0, np.linalg.norm(want))


def test_matvec_single_vector_and_empty_matrix():
    a = SparseBlockMatrix(3, 2, np.empty((0, 2), dtype=np.int64), np.empty((0, 2, 2)))
    x = np.ones(6)
    assert np.array_equal(a.matvec(x), np.zeros(6))
    gt, b = generate_instance(ModelParams(n=6, K=2, d=2, p=1.0, q=0.0, seed=0))
    y = b.matvec(np.ones(12))
    assert y.shape == (12,)


@given(small_models)
def test_restrict_matches_dense_submatrix(case):
    seed, n, big_k, d, p10, q10 = case
    gt, a = generate_instance(_params(seed, n, big_k, d, max(p10, 5), q10))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed + 1)))
    nodes = np.sort(rng.choice(n, size=max(2, n // 2), replace=False))
    sub = a.restrict(nodes)
    rows = np.concatenate([np.arange(i * d, (i + 1) * d) for i in nodes])
    assert np.allclose(sub.to_dense(), a.to_dense()[np.ix_(rows, rows)], atol=0)


def test_sparse_matrix_validates_pairs():
    with pytest.raises(ValidationError):
        SparseBlockMatrix(3, 1, np.array([[1, 0]]), np.zeros((1, 1, 1)))
    with pytest.raises(ValidationError):
        SparseBlockMatrix(3, 1, np.array([[0, 1], [0, 1]]), np.zeros((2, 1, 1)))
    with pytest.raises(ValidationError):
        SparseBlockMatrix(3, 1, np.array([[0, 3]]), np.zeros((1, 1, 1)))
    with pytest.raises(ValidationError, match="pairs"):
        SparseBlockMatrix(3, 1, np.array([0, 1, 2]), np.zeros(1))
    with pytest.raises(ValidationError, match="data"):
        SparseBlockMatrix(3, 2, np.array([[0, 1]]), np.zeros(5))
    with pytest.raises(ValidationError, match="data"):
        SparseBlockMatrix(3, 2, np.array([[0, 1], [1, 2]]), np.zeros((1, 2, 2)))
    # Flat arrays of the right sizes are accepted.
    a = SparseBlockMatrix(3, 2, np.array([0, 1, 1, 2]), np.arange(8.0))
    assert np.array_equal(a.pairs, [[0, 1], [1, 2]])
    assert np.array_equal(a.data, np.arange(8.0).reshape(2, 2, 2))


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
    diff = noisy.to_dense() - a.to_dense()
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
    gt, a = generate_instance(ModelParams(n=10, K=3, d=2, p=0.7, q=0.2, seed=5))
    path = tmp_path / "matrix.bin"
    save_matrix(path, a, 3)
    loaded, big_k = load_matrix(path)
    assert big_k == 3
    assert loaded.n == a.n and loaded.d == a.d
    assert np.array_equal(loaded.pairs, a.pairs)
    assert np.array_equal(loaded.data, a.data)


def test_ground_truth_serialization_round_trip(tmp_path):
    gt, _ = generate_instance(ModelParams(n=9, K=2, d=3, p=1.0, q=0.0, seed=6))
    path = tmp_path / "truth.bin"
    save_ground_truth(path, gt)
    loaded = load_ground_truth(path)
    assert np.array_equal(loaded.labels, gt.labels)
    assert np.array_equal(loaded.transforms, gt.transforms)
    assert np.array_equal(loaded.sizes, gt.sizes)


def test_labeling_tolerates_empty_cluster(tmp_path):
    path = tmp_path / "est.bin"
    labels = np.array([1, 1, 1])
    transforms = np.stack([np.eye(2)] * 3)
    save_labeling(path, 2, labels, transforms)
    got_labels, got_transforms, big_k = load_labeling(path)
    assert big_k == 2
    assert np.array_equal(got_labels, labels)
    assert np.array_equal(got_transforms, transforms)
    with pytest.raises(ParseError):
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

    bad_magic = tmp_path / "bad_magic.bin"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ParseError, match="magic"):
        load_matrix(bad_magic)

    truncated = tmp_path / "short.bin"
    truncated.write_bytes(raw[: len(raw) - 8])
    with pytest.raises(ParseError, match="truncated"):
        load_matrix(truncated)

    with pytest.raises(ParseError, match="matrix"):
        truth = tmp_path / "t.bin"
        save_ground_truth(truth, gt)
        load_matrix(truth)


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
