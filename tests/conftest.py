"""Shared pytest configuration.

The hypothesis profile pins every property suite at 200 examples (the
acceptance bar) with no deadline, since numeric cases have long tails, and
derandomized runs so failures reproduce without shrink-seed hunting.
"""

import os
import struct
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
    """A matrix container written byte by byte whose second block holds a NaN.

    n=3, K=1, d=2, blocks at (0, 1) and (1, 2), in the documented layout:
    magic, six u32 header fields, then (i u32, j u32, d*d f64) triplets.
    """
    path = tmp_path / "nan_block.bin"
    blocks = ((0, 1, (1.0, 0.0, 0.0, 1.0)), (1, 2, (0.0, float("nan"), 1.0, 0.0)))
    with open(path, "wb") as fh:
        fh.write(b"JSYN" + struct.pack("<6I", 1, 3, 1, 2, 0, len(blocks)))
        for i, j, block in blocks:
            fh.write(struct.pack("<2I4d", i, j, *block))
    return path
