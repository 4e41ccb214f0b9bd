"""Typed errors at the boundaries: integer and real arguments are checked, never truncated."""

import numpy as np
import pytest

from syncluster.cpqr import blockwise_cpqr
from syncluster.eigensolver import SolverConfig, top_eigenpairs
from syncluster.errors import ValidationError
from syncluster.harness import SweepSpec, run_sweep
from syncluster.model import (
    ModelParams,
    RandomSource,
    add_gaussian_noise,
    generate_ground_truth,
    generate_instance,
    generate_observation,
)
from syncluster.recovery import assign_and_extract, refine_clusters


def _instance():
    return generate_instance(ModelParams(n=12, K=2, d=2, p=1.0, q=0.0, seed=1))[1]


def _spec(**kw):
    base = dict(mode="grid", n=32, K=2, d=1, alpha=(8.0,), beta=(0.5,))
    return SweepSpec(**{**base, **kw})


def _factors():
    return blockwise_cpqr(top_eigenpairs(_instance(), 4).vectors.T, 2)


def _truth():
    return generate_ground_truth(ModelParams(n=12, K=2, d=2, p=1.0, q=0.0, seed=1))


def _refine_clusters(fraction):
    factors = _factors()
    return refine_clusters(factors, assign_and_extract(factors, 2, 2), fraction)


@pytest.mark.parametrize("name, call", [
    ("n", lambda: generate_instance(ModelParams(n=10.5, K=2, d=2, p=0.5, q=0.1))),
    ("max_iterations", lambda: top_eigenpairs(_instance(), 4, SolverConfig(max_iterations=2.5))),
    ("trials", lambda: run_sweep(_spec(trials=1.5))),
    ("workers", lambda: run_sweep(_spec(trials=1, workers=2.5))),
    ("d", lambda: blockwise_cpqr(np.eye(4, 8), 2.0)),
    ("big_k", lambda: assign_and_extract(_factors(), 2.0, 2)),
    ("seed", lambda: RandomSource(1.5)),
    ("key", lambda: RandomSource(1).stream(1.5)),
    ("k", lambda: top_eigenpairs(_instance(), 2.7)),
])
def test_non_integer_arguments_fail_typed_and_named(name, call):
    with pytest.raises(ValidationError, match=f"^{name} must be an integer"):
        call()


@pytest.mark.parametrize("name, call", [
    ("p", lambda: ModelParams(n=10, K=2, d=2, p="0.5", q=0.1)),
    ("q", lambda: ModelParams(n=10, K=2, d=2, p=0.5, q=None)),
    ("sigma", lambda: ModelParams(n=10, K=2, d=2, p=0.5, q=0.1, sigma="0.3")),
    ("tolerance", lambda: SolverConfig(tolerance="1e-8")),
    ("fraction", lambda: _spec(fraction="0.1").validate()),
    ("p", lambda: SweepSpec(mode="snr", n=32, d_values=(1,), p="0.5").validate()),
    ("q", lambda: SweepSpec(mode="snr", n=32, d_values=(1,), q=[0.5]).validate()),
    ("sigma", lambda: _spec(sigma="0.3").validate()),
    ("solver_tolerance", lambda: _spec(solver_tolerance="1e-8").validate()),
    ("alpha", lambda: _spec(alpha=(8.0, "9")).validate()),
    ("beta", lambda: _spec(beta=("0.5",)).validate()),
    ("eta_values", lambda: _spec(mode="eta-sweep", eta_values=("0.4",)).validate()),
    ("sigma_values", lambda: _spec(sigma_values=(0.0, "0.1")).validate()),
    pytest.param("fraction", lambda: _refine_clusters("0.1"), id="fraction-refine_clusters"),
    pytest.param("p", lambda: generate_observation(_truth(), "0.5", 0.1, RandomSource(1)),
                 id="p-generate_observation"),
    pytest.param("q", lambda: generate_observation(_truth(), 0.5, "0.1", RandomSource(1)),
                 id="q-generate_observation"),
    pytest.param("sigma", lambda: add_gaussian_noise(_instance(), "0.3", RandomSource(1)),
                 id="sigma-add_gaussian_noise"),
])
def test_non_real_settings_fail_typed_and_named(name, call):
    with pytest.raises(ValidationError, match=f"^{name} must be a real number"):
        call()


@pytest.mark.parametrize("name, call", [
    ("alpha", lambda: SweepSpec(mode="grid", n=32, alpha=8.0, beta=(0.5,)).validate()),
    ("n_values", lambda: SweepSpec(mode="runtime", n_values=400).validate()),
    ("d_values", lambda: SweepSpec(mode="snr", n=32, d_values=2).validate()),
    ("eta_values", lambda: _spec(mode="eta-sweep", eta_values=0.5).validate()),
    ("sigma_values", lambda: _spec(sigma_values=0.3).validate()),
    ("sizes", lambda: _spec(sizes=16).validate()),
    ("sizes", lambda: ModelParams(n=12, K=1, d=2, p=0.5, q=0.1, sizes=12)),
])
def test_bare_numbers_on_axis_fields_fail_typed_and_named(name, call):
    with pytest.raises(ValidationError, match=f"^{name} must be a sequence of values"):
        call()
