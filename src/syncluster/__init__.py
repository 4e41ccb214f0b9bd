"""Joint community detection and orthogonal-transform synchronization.

The pipeline: eigendecompose the block observation matrix, run a blockwise
column-pivoted QR on the transposed eigenvector matrix, then read cluster
labels and per-node orthogonal transforms off the R factor. Optional
refinement passes improve boundary-regime labels and make the transforms
exact on noiseless instances.
"""

__version__ = "0.1.0"

from .cpqr import BlockCpqrFactors, apply_block_permutation, blockwise_cpqr
from .eigensolver import EigenBasis, SolverConfig, top_eigenpairs
from .errors import (
    DomainError,
    NoConvergenceError,
    NonFiniteError,
    ParseError,
    SynclusterError,
    ValidationError,
    WrongKError,
)
from .linalg import PolarFactors, polar_decompose, sample_haar_orthogonal
from .metrics import (
    alpha_for_eta,
    beta_for_eta,
    eta,
    exact_recovery,
    snr_ratio,
    sync_error,
)
from .model import (
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
from .recovery import (
    RecoveryResult,
    assign_and_extract,
    connectivity_check,
    refine_clusters,
    refine_transforms,
)

__all__ = [
    "BlockCpqrFactors",
    "DomainError",
    "EigenBasis",
    "GroundTruth",
    "ModelParams",
    "NoConvergenceError",
    "NonFiniteError",
    "ParseError",
    "PolarFactors",
    "RandomSource",
    "RecoveryResult",
    "SolverConfig",
    "SparseBlockMatrix",
    "SynclusterError",
    "ValidationError",
    "WrongKError",
    "add_gaussian_noise",
    "alpha_for_eta",
    "apply_block_permutation",
    "assign_and_extract",
    "beta_for_eta",
    "blockwise_cpqr",
    "connectivity_check",
    "eta",
    "exact_recovery",
    "generate_ground_truth",
    "generate_instance",
    "generate_observation",
    "load_ground_truth",
    "load_labeling",
    "load_matrix",
    "polar_decompose",
    "refine_clusters",
    "refine_transforms",
    "sample_haar_orthogonal",
    "save_ground_truth",
    "save_labeling",
    "save_matrix",
    "snr_ratio",
    "sync_error",
    "top_eigenpairs",
]
