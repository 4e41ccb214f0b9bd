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

from .errors import NonFiniteError, ValidationError

# A pivot column whose R diagonal falls below this absolute value marks
# the input as rank deficient.
_RANK_CUTOFF = 1e-14


@dataclass(frozen=True)
class BlockCpqrFactors:
    """Q, R, and the block permutation of a blockwise CPQR.

    r is in input column order (block column j corresponds to node j), so
    q @ r reconstructs the input directly and downstream block reads need
    no index translation. perm lists, per pivot position, the original
    block-column index placed there: the K pivots in selection order, then
    the unchosen blocks in ascending order. pivots is its leading K
    entries. rank_deficient flags a pivot column whose residual vanished,
    i.e. a diagonal entry of the pivoted R below 1e-14 in magnitude.
    """

    q: np.ndarray
    r: np.ndarray
    pivots: np.ndarray
    perm: np.ndarray
    d: int
    rank_deficient: bool = False


def apply_block_permutation(m, perm):
    """Permute a matrix by blocks of d columns, d inferred from widths.

    Block column j of the output is block column perm[j] of the input.

    Args:
        m: array whose column count is a multiple of len(perm).
        perm: permutation of 0..n-1 as an integer array.

    Returns:
        Permuted copy of m.

    Raises:
        ValidationError: perm is not a bijection on 0..n-1, or the column
            count of m is not divisible by len(perm).
    """
    m = np.asarray(m)
    perm = np.asarray(perm, dtype=np.int64)
    n = perm.size
    if n < 1 or m.ndim != 2 or m.shape[1] % n != 0:
        raise ValidationError("column count must be a positive multiple of len(perm)")
    if not np.array_equal(np.sort(perm), np.arange(n)):
        raise ValidationError("perm must be a bijection on 0..n-1")
    d = m.shape[1] // n
    cols = (perm[:, None] * d + np.arange(d)[None, :]).ravel()
    return m[:, cols].copy()


def blockwise_cpqr(x, d):
    """Factor x = q @ r with greedy blockwise column pivoting.

    Args:
        x: (K*d, n*d) array with n >= K, entries finite.
        d: block dimension.

    Returns:
        BlockCpqrFactors. q is (K*d, K*d) orthogonal; r is (K*d, n*d) in
        input column order; applying factors.perm to r's block columns
        gives the pivoted form whose leading K*d square is upper
        triangular. Ties between equal residuals go to the smallest block
        index.

    Raises:
        NonFiniteError: x contains NaN or Inf.
        ValidationError: shapes incompatible with the block dimension.
    """
    x = np.asarray(x, dtype=np.float64)
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
    pivots = cols[::d] // d
    return BlockCpqrFactors(
        q=q,
        r=r,
        pivots=pivots,
        perm=np.concatenate([pivots, np.flatnonzero(~chosen)]),
        d=d,
        rank_deficient=bool((np.abs(np.diag(r[:, cols])) < _RANK_CUTOFF).any()),
    )
