"""Largest-algebraic eigenpairs of a symmetric block-sparse matrix.

Block Lanczos with full reorthogonalization and thick restarts. The matrix
is touched only through SparseBlockMatrix.matvec, one call per expansion
of b = k + 1 columns for k requested eigenpairs, so each product costs
O(d^2 * pair_count * b) flops in batched GEMMs and the square matrix is
never materialized; auxiliary memory is one basis of at most a few
b-width panels.

"Top" means largest algebraic eigenvalues throughout: the signal part of
the observation model is positive semi-definite, while noise can push
eigenvalues far negative, and those must not be selected.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergenceError, ValidationError

# Stream key for the deterministic pseudo-random starting basis.
_STREAM_SOLVER = 4

# Ritz gap below this multiple of the largest magnitude flags a basis
# that is defined only up to rotation at the requested cut.
_DEGENERATE_GAP_RTOL = 1e-10

# The pair just past the cut only feeds the gap check, so its residual
# gate is the looser of the configured tolerance and this fraction of the
# measured gap; as the gap collapses toward degeneracy the gate tightens
# back to full tolerance.
_GAP_GATE_FRACTION = 0.25

# Columns whose R-factor diagonal falls below this during expansion are
# treated as linearly dependent and replaced with fresh random directions.
_BREAKDOWN_CUTOFF = 1e-10


@dataclass(frozen=True)
class SolverConfig:
    """Iteration controls for the block Lanczos solver.

    tolerance is relative to the operator-norm estimate taken from the
    Ritz values. seed drives the random starting basis, keeping runs
    reproducible.
    """

    tolerance: float = 1e-8
    max_iterations: int = 5000
    seed: int = 0

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValidationError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be at least 1")


@dataclass(frozen=True)
class EigenBasis:
    """Column-orthonormal eigenvector estimates with their eigenvalues.

    values are sorted non-increasing. residual is the achieved
    ||A V - V diag(values)||_F relative to the operator-norm estimate,
    matching the SolverConfig.tolerance semantics. degenerate_gap marks
    |values[-1] - lambda_{k+1}| at or below 1e-10 * |values[0]|, where the
    basis is well-defined only as a subspace; before the flag is read off,
    the value past the cut is converged to a quarter of the measured gap
    (or to full tolerance when the gap itself is small), which pins the
    flag's verdict without polishing a bulk eigenvalue nobody asked for.
    """

    vectors: np.ndarray
    values: np.ndarray
    residual: float
    degenerate_gap: bool = False
    iterations: int = 0


def _orthonormal_columns(z):
    q, _ = np.linalg.qr(z)
    return q


def _expand_basis(v, candidate, width, rng):
    """Append up to `width` new orthonormal columns built from `candidate`.

    Candidate directions are projected against the current basis twice
    (full reorthogonalization) and QR-factorized; directions lost to linear
    dependence are replaced by fresh random ones. Returns the new columns,
    possibly fewer than `width` when the space is exhausted.
    """
    nd = v.shape[0]
    room = nd - v.shape[1]
    width = min(width, room)
    if width <= 0:
        return np.empty((nd, 0))
    z = candidate[:, :width] if candidate.shape[1] >= width else np.hstack(
        [candidate, rng.standard_normal((nd, width - candidate.shape[1]))]
    )
    for _ in range(3):
        z = z - v @ (v.T @ z)
        z = z - v @ (v.T @ z)
        q, r = np.linalg.qr(z)
        scale = max(np.abs(np.diag(r)).max(), 1.0)
        dead = np.abs(np.diag(r)) < _BREAKDOWN_CUTOFF * scale
        if not dead.any():
            return q
        z = q
        z[:, dead] = rng.standard_normal((nd, int(dead.sum())))
    # Persistent breakdown: keep whatever independent directions remain.
    return q[:, ~dead]


def top_eigenpairs(a, k, cfg=None):
    """Eigenpairs of the k largest algebraic eigenvalues.

    Args:
        a: SparseBlockMatrix (symmetric by construction).
        k: number of eigenpairs, 1 <= k <= n*d.
        cfg: SolverConfig; defaults apply when omitted.

    Returns:
        EigenBasis with vectors (n*d, k) and values sorted non-increasing.

    Raises:
        NoConvergenceError: the residual is still above tolerance after
            max_iterations; the error carries the best iterate in .best.
        ValidationError: k out of range or bad config.
    """
    if cfg is None:
        cfg = SolverConfig()
    nd = a.nd
    k = int(k)
    if not 1 <= k <= nd:
        raise ValidationError(f"k must lie in 1..{nd}")
    # A block Krylov space resolves at most b directions of any one
    # eigenvalue, so one column past the requested count keeps the value
    # past the cut (and with it the degenerate-gap certificate) visible even
    # when the cut lands inside a multiple eigenvalue.
    b = min(k + 1, nd)
    # Keep enough width after a restart to look one value past the cut, so
    # the degenerate-gap check sees lambda_{k+1}.
    cap = min(nd, max(4 * b, k + 2 * b, k + 2))
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(cfg.seed, spawn_key=(_STREAM_SOLVER,)))
    )
    # Iterate on A / 2^e, with 2^e the power of two just above the largest
    # stored entry, so huge finite blocks cannot overflow the residual
    # norms. Power-of-two scaling is exact: the iterates are those of any
    # 2^k multiple of A, and the values are scaled back on the way out.
    peak = max(a.data.max(initial=0.0), -a.data.min(initial=0.0))
    exponent = int(np.frexp(peak)[1])
    v = _orthonormal_columns(rng.standard_normal((nd, b)))
    av = np.ldexp(a.matvec(v), -exponent)
    best = None
    for iteration in range(1, cfg.max_iterations + 1):
        h = v.T @ av
        h = (h + h.T) / 2.0
        theta, y = np.linalg.eigh(h)
        theta = theta[::-1]
        y = y[:, ::-1]
        s = v.shape[1]
        norm_est = max(abs(theta[0]), abs(theta[-1]))
        if s >= b:
            # The pair past the cut joins the convergence check only as far
            # as the degenerate-gap flag needs it: resolved to a fraction of
            # the measured gap when the gap is wide, to full tolerance when
            # the gap collapses (where it converges quickly anyway, the
            # block being wide enough to cover the cluster at the cut).
            x = v @ y[:, :b]
            ax = av @ y[:, :b]
            rmat = ax - x * theta[:b]
            scale = max(norm_est, 1e-300)
            rel = np.linalg.norm(rmat[:, :k]) / scale
            overall = np.linalg.norm(rmat) / scale
            if b > k:
                gap = abs(theta[k - 1] - theta[k])
                degenerate = gap <= _DEGENERATE_GAP_RTOL * abs(theta[0])
                tail = float(np.linalg.norm(rmat[:, k:])) / scale
                certified = tail <= max(cfg.tolerance, _GAP_GATE_FRACTION * gap / scale)
            else:
                degenerate = False
                certified = True
            basis = EigenBasis(
                vectors=x[:, :k].copy(),
                values=np.ldexp(theta[:k], exponent),
                residual=float(rel),
                degenerate_gap=bool(degenerate),
                iterations=iteration,
            )
            if rel <= cfg.tolerance and certified:
                return basis
            if best is None or basis.residual < best.residual:
                best = basis
            if s == nd:
                # The subspace is the whole space, so the Rayleigh-Ritz
                # values are exact; if that still misses the tolerance the
                # request is unsatisfiable in this precision.
                raise NoConvergenceError(
                    f"residual {overall:.3e} above tolerance {cfg.tolerance:.3e} "
                    f"with a full-width basis",
                    best=best,
                )
        if s + b > cap and s < nd:
            keep = min(s, k + b)
            v = v @ y[:, :keep]
            av = av @ y[:, :keep]
        new = _expand_basis(v, av[:, -b:], b, rng)
        if new.shape[1]:
            v = np.hstack([v, new])
            av = np.hstack([av, np.ldexp(a.matvec(new), -exponent)])
    raise NoConvergenceError(
        f"no convergence after {cfg.max_iterations} iterations "
        f"(best residual {best.residual if best else float('inf'):.3e})",
        best=best,
    )
