"""Dense small-matrix kernels shared by every other module.

Polar decomposition and the Haar map of normal draws, all on plain
float64 ndarrays. The Haar map is Gram-Schmidt, one column at a time and
vectorized over the stack, so a stack of any length costs one working copy
and a few column-sized temporaries. Functions are pure: randomness comes in
as the caller's normal draws and nothing mutates its inputs. Verification
tolerances are module constants so tests never restate magic numbers.
"""

import numpy as np

from .errors import NonFiniteError, ValidationError, as_floats

# Relative Frobenius bound for the orthogonal factor times the PSD factor
# reconstructing the input.
POLAR_RECONSTRUCTION_RTOL = 1e-8
# Frobenius bound on Q^T Q - I for anything claimed orthogonal.
ORTHOGONALITY_ATOL = 1e-10


def polar_decompose(x):
    """Orthogonal polar factor of a square matrix, or of a stack of them.

    Computed through the SVD: x = U S V^T gives the orthogonal factor
    U V^T, slice by slice for a (..., d, d) stack; the PSD factor of
    x = (U V^T) P is P = V S V^T. For full-rank input the orthogonal
    factor is the unique closest orthogonal matrix in Frobenius norm; for
    singular input it is one valid (non-unique) choice.

    Args:
        x: square float array, or a stack of them with shape (..., d, d).

    Returns:
        Array of the shape of x, each slice orthogonal.

    Raises:
        NonFiniteError: x contains NaN or Inf.
        ValidationError: the trailing two dimensions of x are not square.
    """
    x = as_floats(x, "x")
    if x.ndim < 2 or x.shape[-1] != x.shape[-2] or x.shape[-1] < 1:
        raise ValidationError(f"x must be square in its last two dimensions, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise NonFiniteError("x contains NaN or Inf entries")
    u, _, vt = np.linalg.svd(x)
    return u @ vt


def haar_from_normals(z):
    """Map a stack of i.i.d. standard-normal matrices to Haar orthogonal ones.

    Gram-Schmidt on the columns of each (d, d) slice: column k is
    orthogonalized twice against columns 0..k-1 (the second pass restores
    orthogonality to rounding) and then normalized. That is the Q factor of
    the QR factorization whose R has a positive diagonal, the sign-corrected
    map that gives exact Haar measure on the orthogonal group (Mezzadri,
    Notices AMS 54(5), 2007). The work runs in place on one copy of z,
    vectorized over the stack with einsum, one path for every d. A slice
    of rank below d, a null event for normal draws, gives NaN columns.
    Deterministic in z, so the caller controls reproducibility by
    controlling the normal draws.

    Args:
        z: array of shape (..., d, d) with standard-normal entries.

    Returns:
        Array of the same shape with each slice orthogonal.
    """
    q = np.array(z, dtype=np.float64)
    for k in range(q.shape[-1]):
        col = q[..., k]
        if k:
            done = q[..., :k]
            for _ in range(2):
                coef = np.einsum("...ij,...i->...j", done, col)
                col -= np.einsum("...ij,...j->...i", done, coef)
        col /= np.sqrt(np.einsum("...i,...i->...", col, col))[..., None]
    return q
