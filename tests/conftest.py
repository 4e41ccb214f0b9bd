"""Shared pytest configuration.

The hypothesis profile pins every property suite at 200 examples (the
acceptance bar) with no deadline, since numeric cases have long tails, and
derandomized runs so failures reproduce without shrink-seed hunting.
"""

import os
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, os.path.dirname(__file__))

PROPERTY_EXAMPLES = 200

settings.register_profile(
    "bulk",
    max_examples=PROPERTY_EXAMPLES,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("bulk")


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(20240817)))


@pytest.fixture
def nan_block_container(tmp_path):
    """A matrix archive whose second block holds a NaN.

    n=3, K=1, d=2, blocks at (0, 1) and (1, 2), under the array names
    save_matrix writes; np.savez writes it, since no SparseBlockMatrix
    holds a NaN.
    """
    path = tmp_path / "nan_block.bin"
    data = np.array([np.eye(2), [[0.0, np.nan], [1.0, 0.0]]])
    with open(path, "wb") as fh:
        np.savez(fh, n=3, K=1, pairs=np.array([[0, 1], [1, 2]]), data=data)
    return path
