"""Dense small-matrix kernels shared by every other module.

Polar decomposition and Haar-orthogonal sampling, all on plain float64
ndarrays. Functions are pure: randomness comes in as an explicit generator
and nothing mutates its inputs. Verification tolerances are module
constants so tests never restate magic numbers.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, ValidationError

# Relative Frobenius bound for orthogonal * psd reconstructing the input.
POLAR_RECONSTRUCTION_RTOL = 1e-8
# Frobenius bound on Q^T Q - I for anything claimed orthogonal.
ORTHOGONALITY_ATOL = 1e-10


@dataclass(frozen=True)
class PolarFactors:
    """Orthogonal factor times symmetric-PSD factor of a square matrix.

    ``orthogonal @ psd`` reconstructs the decomposed matrix; for a stack of
    matrices both factors are stacks of the same shape. For full-rank
    input the orthogonal factor is the unique closest orthogonal matrix in
    Frobenius norm; for singular input it is one valid (non-unique) choice.
    """

    orthogonal: np.ndarray
    psd: np.ndarray


def polar_decompose(x):
    """Split a square matrix, or a stack of them, into orthogonal times PSD.

    Computed through the SVD: x = U S V^T gives the orthogonal part U V^T
    and the PSD part V S V^T, slice by slice for a (..., d, d) stack.
    Singular x is handled the same way; the factor pair is then not unique
    but still reconstructs x.

    Args:
        x: square float array, or a stack of them with shape (..., d, d).

    Returns:
        PolarFactors whose product reconstructs x up to rounding, each
        factor with the shape of x.

    Raises:
        NonFiniteError: x contains NaN or Inf.
        ValidationError: the trailing two dimensions of x are not square.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2 or x.shape[-1] != x.shape[-2] or x.shape[-1] < 1:
        raise ValidationError(f"x must be square in its last two dimensions, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise NonFiniteError("x contains NaN or Inf entries")
    u, s, vt = np.linalg.svd(x)
    orthogonal = u @ vt
    psd = (vt.swapaxes(-1, -2) * s[..., None, :]) @ vt
    psd = (psd + psd.swapaxes(-1, -2)) / 2.0
    return PolarFactors(orthogonal=orthogonal, psd=psd)


def haar_from_normals(z):
    """Map a stack of i.i.d. standard-normal matrices to Haar orthogonal ones.

    QR-factorizes each (d, d) slice and flips column signs so the R factor
    has a non-negative diagonal, which corrects the raw QR distribution to
    exact Haar measure on the orthogonal group. Deterministic in z, so the
    caller controls reproducibility by controlling the normal draws.

    Args:
        z: array of shape (..., d, d) with standard-normal entries.

    Returns:
        Array of the same shape with each slice orthogonal.
    """
    z = np.asarray(z, dtype=np.float64)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    signs = np.where(diag < 0, -1.0, 1.0)
    return q * signs[..., None, :]


def sample_haar_orthogonal(d, rng):
    """Draw one Haar-distributed d x d orthogonal matrix.

    Args:
        d: matrix dimension, at least 1.
        rng: numpy Generator supplying the normal draws.

    Returns:
        (d, d) orthogonal array, deterministic given the generator state.
    """
    if int(d) < 1:
        raise ValidationError("d must be at least 1")
    z = rng.standard_normal((int(d), int(d)))
    return haar_from_normals(z)
