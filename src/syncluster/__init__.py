"""Joint community detection and orthogonal-transform synchronization.

The pipeline: eigendecompose the block observation matrix, run a blockwise
column-pivoted QR on the transposed eigenvector matrix, then read cluster
labels and per-node orthogonal transforms off the R factor. Optional
refinement passes improve boundary-regime labels and make the transforms
exact on noiseless instances. run_pipeline runs it all in one call.
"""

__version__ = "0.1.0"

from .cpqr import BlockCpqrFactors, blockwise_cpqr
from .eigensolver import EigenBasis, SolverConfig, top_eigenpairs
from .errors import (
    NoConvergenceError,
    NonFiniteError,
    ParseError,
    SynclusterError,
    ValidationError,
)
from .linalg import polar_decompose
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
    generate_instance,
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
    run_pipeline,
)

__all__ = [
    "BlockCpqrFactors",
    "EigenBasis",
    "GroundTruth",
    "ModelParams",
    "NoConvergenceError",
    "NonFiniteError",
    "ParseError",
    "RandomSource",
    "RecoveryResult",
    "SolverConfig",
    "SparseBlockMatrix",
    "SynclusterError",
    "ValidationError",
    "alpha_for_eta",
    "assign_and_extract",
    "beta_for_eta",
    "blockwise_cpqr",
    "connectivity_check",
    "eta",
    "exact_recovery",
    "generate_instance",
    "load_ground_truth",
    "load_labeling",
    "load_matrix",
    "polar_decompose",
    "refine_clusters",
    "refine_transforms",
    "run_pipeline",
    "save_ground_truth",
    "save_labeling",
    "save_matrix",
    "snr_ratio",
    "sync_error",
    "top_eigenpairs",
]
