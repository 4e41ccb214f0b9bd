"""Blockwise column-pivoted QR of the transposed eigenvector matrix.

The pivot unit is a block of d consecutive columns, so the permutation has
Kronecker structure (block permutation times identity) and the relative
order of columns inside each block survives. Exactly K greedy rounds pick
the pivots: round t projects every block column onto the complement of
the t pivot blocks already chosen (the trailing columns of a complete QR
of those blocks) and takes the block with the largest residual Frobenius
norm. One QR of the K pivot blocks then gives Q, and R = Q^T x is formed
directly in input column order, so no reflector is built by hand and no
permutation has to be undone.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, ValidationError, as_floats, as_index

# A pivot column whose R diagonal falls below this absolute value marks
# the input as rank deficient.
_RANK_CUTOFF = 1e-14


@dataclass(frozen=True)
class BlockCpqrFactors:
    """Q, R, and the pivot blocks of a blockwise CPQR.

    r is in input column order (block column j corresponds to node j), so
    q @ r reconstructs the input directly and downstream block reads need
    no index translation. pivots lists the K block columns chosen, in
    selection order; r's pivot block columns, taken in that order, form an
    upper-triangular K*d square. rank_deficient flags a pivot column whose
    residual vanished, i.e. a diagonal entry of that square below 1e-14 in
    magnitude.
    """

    q: np.ndarray
    r: np.ndarray
    pivots: np.ndarray
    d: int
    rank_deficient: bool = False

    def block_row_norms(self):
        """Frobenius norms of the d x d blocks (k, i) of r, shape (K, n)."""
        d = self.d
        sq = (self.r * self.r).reshape(-1, d, self.r.shape[1] // d, d)
        return np.sqrt(sq.sum(axis=(1, 3)))


def blockwise_cpqr(x, d):
    """Factor x = q @ r with greedy blockwise column pivoting.

    Args:
        x: (K*d, n*d) array with n >= K, entries finite.
        d: block dimension.

    Returns:
        BlockCpqrFactors. q is (K*d, K*d) orthogonal; r is (K*d, n*d) in
        input column order, and its pivot block columns, in pivot order,
        form an upper-triangular K*d square. Ties between equal residuals
        go to the smallest block index.

    Raises:
        NonFiniteError: x contains NaN or Inf.
        ValidationError: shapes incompatible with the block dimension.
    """
    x = as_floats(x, "x")
    d = as_index(d, "d")
    if x.ndim != 2:
        raise ValidationError("x must be a 2-d array")
    if d < 1 or x.shape[0] % d or x.shape[1] % d:
        raise ValidationError("both dimensions of x must be multiples of d")
    if not np.isfinite(x).all():
        raise NonFiniteError("x contains NaN or Inf entries")
    big_k = x.shape[0] // d
    n = x.shape[1] // d
    if n < big_k:
        raise ValidationError("x must have at least as many block columns as block rows")

    q = np.eye(big_k * d)
    chosen = np.zeros(n, dtype=bool)
    cols = np.empty(0, dtype=np.int64)
    for t in range(big_k):
        # Residual Frobenius norm of every block column in the complement
        # of the pivot blocks chosen so far.
        resid = q[:, t * d :].T @ x
        rho_sq = (resid * resid).reshape(-1, n, d).sum(axis=(0, 2))
        rho_sq[chosen] = -np.inf
        j_star = int(np.argmax(rho_sq))
        chosen[j_star] = True
        cols = np.concatenate([cols, np.arange(j_star * d, (j_star + 1) * d)])
        q, _ = np.linalg.qr(x[:, cols], mode="complete")

    r = q.T @ x
    return BlockCpqrFactors(
        q=q,
        r=r,
        pivots=cols[::d] // d,
        d=d,
        rank_deficient=bool((np.abs(np.diag(r[:, cols])) < _RANK_CUTOFF).any()),
    )
