"""Typed errors at the boundaries: integer and real arguments are checked, never truncated."""

import os

import numpy as np
import pytest

from syncluster.cpqr import blockwise_cpqr
from syncluster.eigensolver import SolverConfig, top_eigenpairs
from syncluster.errors import NonFiniteError, ValidationError
from syncluster.harness import SweepSpec, run_pipeline, run_sweep
from syncluster.linalg import polar_decompose
from syncluster.metrics import (
    alpha_for_eta, beta_for_eta, eta, exact_recovery, snr_ratio, sync_error,
)
from syncluster.model import (
    GroundTruth,
    ModelParams,
    RandomSource,
    SparseBlockMatrix,
    generate_instance,
    save_labeling,
    save_matrix,
)
from syncluster.recovery import assign_and_extract, refine_clusters, refine_transforms


def _instance():
    return generate_instance(ModelParams(n=12, K=2, d=2, p=1.0, q=0.0, seed=1))[1]


def _spec(**kw):
    base = dict(mode="grid", n=(32,), K=2, d=(1,), alpha=(8.0,), beta=(0.5,))
    return SweepSpec(**{**base, **kw})


def _factors():
    return blockwise_cpqr(top_eigenpairs(_instance(), 4).vectors.T, 2)


def _truth():
    return generate_instance(ModelParams(n=12, K=2, d=2, p=1.0, q=0.0, seed=1))[0]


def _ground_truth(**kw):
    base = dict(labels=[1, 2, 1], transforms=np.ones((3, 1, 1)))
    return GroundTruth(**{**base, **kw})


def _refine_clusters(fraction):
    factors = _factors()
    return refine_clusters(factors, assign_and_extract(factors, 2, 2), fraction)


@pytest.mark.parametrize("name, call", [
    ("n", lambda: generate_instance(ModelParams(n=10.5, K=2, d=2, p=0.5, q=0.1))),
    ("trials", lambda: run_sweep(_spec(trials=1.5))),
    ("workers", lambda: run_sweep(_spec(trials=1, workers=2.5))),
    ("d", lambda: blockwise_cpqr(np.eye(4, 8), 2.0)),
    ("big_k", lambda: assign_and_extract(_factors(), 2.0, 2)),
    ("seed", lambda: RandomSource(1.5)),
    ("key", lambda: RandomSource(1).stream(1.5)),
    ("k", lambda: top_eigenpairs(_instance(), 2.7)),
    pytest.param("n", lambda: _spec(n=("20",)).validate(), id="n-SweepSpec"),
    pytest.param("d", lambda: _spec(d=(2.0,)).validate(), id="d-SweepSpec"),
    pytest.param("big_k", lambda: exact_recovery([1, 2], [1, 2], "2"), id="big_k-exact_recovery"),
    pytest.param("big_k", lambda: run_pipeline(_instance(), "2", 2, SolverConfig()),
                 id="big_k-run_pipeline"),
    pytest.param("big_k", lambda: run_pipeline(_instance(), 2.0, 2, SolverConfig()),
                 id="float-big_k-run_pipeline"),
    pytest.param("d", lambda: run_pipeline(_instance(), 2, 2.0, SolverConfig()),
                 id="d-run_pipeline"),
    pytest.param("K", lambda: save_matrix(os.devnull, _instance(), "x"), id="K-save_matrix"),
    pytest.param("K", lambda: save_matrix(os.devnull, _instance(), 2.7), id="K-float-save_matrix"),
    pytest.param("K", lambda: save_labeling(os.devnull, "2", [1, 2], np.ones((2, 1, 1))),
                 id="K-save_labeling"),
])
def test_non_integer_arguments_fail_typed_and_named(name, call):
    with pytest.raises(ValidationError, match=f"^{name} must be an integer"):
        call()


@pytest.mark.parametrize("name, call", [
    ("p", lambda: ModelParams(n=10, K=2, d=2, p="0.5", q=0.1)),
    ("q", lambda: ModelParams(n=10, K=2, d=2, p=0.5, q=None)),
    ("sigma", lambda: ModelParams(n=10, K=2, d=2, p=0.5, q=0.1, sigma="0.3")),
    ("tolerance", lambda: SolverConfig(tolerance="1e-8")),
    ("p", lambda: SweepSpec(mode="snr", n=(32,), d=(1,), p="0.5", q=0.5).validate()),
    ("q", lambda: SweepSpec(mode="snr", n=(32,), d=(1,), p=0.5, q=[0.5]).validate()),
    ("sigma", lambda: _spec(sigma=("0.3",)).validate()),
    ("alpha", lambda: _spec(alpha=(8.0, "9")).validate()),
    ("beta", lambda: _spec(beta=("0.5",)).validate()),
    ("eta", lambda: _spec(mode="eta-sweep", eta=("0.4",)).validate()),
    ("sigma", lambda: _spec(sigma=(0.0, "0.1")).validate()),
    pytest.param("fraction", lambda: _refine_clusters("0.1"), id="fraction-refine_clusters"),
    pytest.param("n", lambda: eta("400", 0.1, 0.1, 2), id="n-eta"),
    pytest.param("q", lambda: eta(400, 0.1, [0.1], 2), id="q-eta"),
    pytest.param("d", lambda: beta_for_eta(0.5, 8.0, 400, "2"), id="d-beta_for_eta"),
    pytest.param("alpha", lambda: beta_for_eta(0.5, "8", 400, 2), id="alpha-beta_for_eta"),
    pytest.param("target", lambda: alpha_for_eta("0.5", 2.0, 400, 2), id="target-alpha_for_eta"),
    pytest.param("beta", lambda: alpha_for_eta(0.5, None, 400, 2), id="beta-alpha_for_eta"),
    # Integers past the float range.
    pytest.param("n", lambda: eta(10**400, 0.5, 0.1, 2), id="huge-n-eta"),
    pytest.param("sigma", lambda: ModelParams(n=10, K=2, d=2, p=0.5, q=0.5, sigma=10**400),
                 id="huge-sigma-ModelParams"),
    pytest.param("tolerance", lambda: SolverConfig(tolerance=10**400), id="huge-tolerance"),
])
def test_non_real_settings_fail_typed_and_named(name, call):
    with pytest.raises(ValidationError, match=f"^{name} must be a real number"):
        call()


@pytest.mark.parametrize("name, call", [
    ("alpha", lambda: SweepSpec(mode="grid", n=(32,), alpha=8.0, beta=(0.5,)).validate()),
    ("n", lambda: SweepSpec(mode="runtime", n=400).validate()),
    ("d", lambda: SweepSpec(mode="snr", n=(32,), d=2).validate()),
    ("eta", lambda: _spec(mode="eta-sweep", eta=0.5).validate()),
    ("sigma", lambda: _spec(sigma=0.3).validate()),
    ("sizes", lambda: _spec(sizes=16).validate()),
    ("sizes", lambda: ModelParams(n=12, K=1, d=2, p=0.5, q=0.1, sizes=12)),
])
def test_bare_numbers_on_axis_fields_fail_typed_and_named(name, call):
    with pytest.raises(ValidationError, match=f"^{name} must be a sequence of values"):
        call()


@pytest.mark.parametrize("name, call", [
    pytest.param("x", lambda: polar_decompose("abc"), id="polar_decompose"),
    pytest.param("x", lambda: polar_decompose(np.eye(2) * (1 + 1j)), id="complex-polar_decompose"),
    pytest.param("x", lambda: blockwise_cpqr([["a", "b"]], 1), id="blockwise_cpqr"),
    pytest.param("data", lambda: SparseBlockMatrix(3, 1, [[0, 1]], ["one"]),
                 id="SparseBlockMatrix"),
    pytest.param("operand", lambda: _instance().matvec(["x"] * 24), id="matvec"),
    pytest.param("est_transforms", lambda: sync_error(np.full((12, 2, 2), "a"), _truth()),
                 id="sync_error"),
    pytest.param("transforms", lambda: _ground_truth(transforms=[[["a"]]] * 3), id="GroundTruth"),
    pytest.param("transforms", lambda: save_labeling(os.devnull, 2, [1, 2], "abc"),
                 id="save_labeling"),
    pytest.param("start", lambda: top_eigenpairs(_instance(), 4, start=np.ones((24, 2)) * 1j),
                 id="complex-start-top_eigenpairs"),
])
def test_non_numeric_arrays_fail_typed_and_named(name, call):
    with pytest.raises(ValidationError, match=f"^{name} must hold real numbers"):
        call()


@pytest.mark.parametrize("name, call", [
    pytest.param("est_labels", lambda: exact_recovery([1.5, 2.7, 1.2], [1, 2, 1], 2),
                 id="est_labels-exact_recovery"),
    pytest.param("true_labels", lambda: exact_recovery([1, 2, 1], [1.5, 2.7, 1.2], 2),
                 id="true_labels-exact_recovery"),
    pytest.param("labels", lambda: _ground_truth(labels=[1.5, 2.0, 1.0]), id="labels-GroundTruth"),
    pytest.param("labels", lambda: save_labeling(os.devnull, 2, [1.5, 2.0], np.ones((2, 1, 1))),
                 id="labels-save_labeling"),
    pytest.param("est_labels", lambda: exact_recovery([[1, 2], [1]], [1, 2], 2),
                 id="ragged-est_labels-exact_recovery"),
    pytest.param("true_labels", lambda: snr_ratio(_factors(), [1.4] * 6 + [2] * 6),
                 id="true_labels-snr_ratio"),
])
def test_non_integral_labels_fail_typed_and_named(name, call):
    with pytest.raises(ValidationError, match=f"^{name} must be integers"):
        call()


@pytest.mark.parametrize("k", [0, -1])
@pytest.mark.parametrize("save", [
    pytest.param(lambda path, k: save_matrix(path, _instance(), k), id="save_matrix"),
    pytest.param(lambda path, k: save_labeling(path, k, [1, 1], np.ones((2, 1, 1))),
                 id="save_labeling"),
])
def test_writers_reject_counts_the_header_cannot_hold(tmp_path, save, k):
    # K is stored beside the arrays and a loader hands it back as the
    # cluster count, so it must be at least 1; nothing is written otherwise.
    path = tmp_path / "out.bin"
    with pytest.raises(ValidationError, match=r"^K must be at least 1"):
        save(path, k)
    assert not path.exists()


def test_snr_ratio_rejects_labels_outside_two_clusters():
    # A label of 3 used to be read silently as "not cluster 1".
    with pytest.raises(ValidationError, match=r"^true_labels must lie in \{1, 2\}"):
        snr_ratio(_factors(), [1] * 6 + [2] * 5 + [3])


@pytest.mark.parametrize("call", [
    pytest.param(lambda: top_eigenpairs(_instance(), 4, 5), id="top_eigenpairs"),
    pytest.param(lambda: run_pipeline(_instance(), 2, 2, 5), id="run_pipeline"),
    pytest.param(lambda: refine_transforms(_instance(), assign_and_extract(_factors(), 2, 2), 5),
                 id="refine_transforms"),
])
def test_a_solver_config_of_another_type_fails_typed(call):
    # Each used to end in AttributeError: 'int' object has no attribute 'seed'.
    with pytest.raises(ValidationError, match="^cfg must be a SolverConfig or None, got 5$"):
        call()


@pytest.mark.parametrize("shape", [(23, 2), (24, 5), (24, 0), (24,), (24, 2, 1)])
def test_misshapen_start_blocks_fail_typed(shape):
    # A start must be an (n*d, j) block with 1 <= j <= k = 4.
    with pytest.raises(ValidationError, match=r"^start must be an \(24, j\) block"):
        top_eigenpairs(_instance(), 4, start=np.ones(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_start_blocks_fail_typed(bad):
    start = np.ones((24, 2))
    start[3, 1] = bad
    with pytest.raises(NonFiniteError, match="^start contains NaN or Inf"):
        top_eigenpairs(_instance(), 4, start=start)
