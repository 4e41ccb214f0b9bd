"""Typed errors at the boundaries: integer and real arguments are checked, never truncated."""

import numpy as np
import pytest

from syncluster.cpqr import blockwise_cpqr
from syncluster.eigensolver import SolverConfig, top_eigenpairs
from syncluster.errors import ValidationError
from syncluster.harness import SweepSpec, run_sweep
from syncluster.model import ModelParams, RandomSource, generate_instance
from syncluster.recovery import assign_and_extract


def _instance():
    return generate_instance(ModelParams(n=12, K=2, d=2, p=1.0, q=0.0, seed=1))[1]


def _spec(**kw):
    base = dict(mode="grid", n=32, K=2, d=1, alpha=(8.0,), beta=(0.5,))
    return SweepSpec(**{**base, **kw})


def _factors():
    return blockwise_cpqr(top_eigenpairs(_instance(), 4).vectors.T, 2)


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
])
def test_non_real_settings_fail_typed_and_named(name, call):
    with pytest.raises(ValidationError, match=f"^{name} must be a real number"):
        call()
