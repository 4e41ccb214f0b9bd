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

from .errors import (
    NoConvergenceError, NonFiniteError, ValidationError, as_floats, as_index, as_real,
)
from .model import _STREAM_SOLVER, RandomSource

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

# Iteration cap: a solve still above tolerance after this many iterations
# raises NoConvergenceError with its best iterate.
_MAX_ITERATIONS = 5000


@dataclass(frozen=True)
class SolverConfig:
    """Controls for the block Lanczos solver.

    tolerance is relative to the operator-norm estimate taken from the
    Ritz values. seed drives the random starting basis, keeping runs
    reproducible. The iteration cap is fixed at 5000 (_MAX_ITERATIONS).
    """

    tolerance: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", as_index(self.seed, "seed"))
        if not 0 < as_real(self.tolerance, "tolerance") < np.inf:
            raise ValidationError("tolerance must be positive and finite")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")


def _solver_config(cfg):
    """cfg itself, or SolverConfig() for None; anything else raises ValidationError."""
    if cfg is None:
        return SolverConfig()
    if not isinstance(cfg, SolverConfig):
        raise ValidationError(f"cfg must be a SolverConfig or None, got {cfg!r}")
    return cfg


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


def _expand_basis(v, candidate, rng):
    """New orthonormal columns that extend the basis `v`, built from `candidate`.

    Only as many candidate columns are used as the space has free
    dimensions left. They are projected against the current basis twice
    (full reorthogonalization) and QR-factorized; directions lost to linear
    dependence are replaced by fresh random ones. Fewer columns come back
    only under persistent breakdown.
    """
    nd = v.shape[0]
    z = candidate[:, : nd - v.shape[1]]
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


def top_eigenpairs(a, k, cfg=None, start=None):
    """Eigenpairs of the k largest algebraic eigenvalues.

    The starting block is drawn from the seeded stream. A warm start
    overwrites its first j columns, and the rest stay random padding, so
    the stream is consumed the same way with or without one.

    Args:
        a: SparseBlockMatrix (symmetric by construction).
        k: number of eigenpairs, 1 <= k <= n*d.
        cfg: SolverConfig, or None for the defaults.
        start: optional (n*d, j) block, 1 <= j <= k, whose columns span a
            guess at the wanted eigenspace.

    Returns:
        EigenBasis with vectors (n*d, k) and values sorted non-increasing.

    Raises:
        NoConvergenceError: the residual is still above tolerance after
            _MAX_ITERATIONS; the error carries the best iterate in .best.
        ValidationError: k out of range, cfg neither None nor a
            SolverConfig, or a start block of the wrong shape.
        NonFiniteError: start contains NaN or Inf.
    """
    cfg = _solver_config(cfg)
    nd = a.nd
    k = as_index(k, "k")
    if not 1 <= k <= nd:
        raise ValidationError(f"k must lie in 1..{nd}")
    if start is not None:
        start = as_floats(start, "start")
        if start.ndim != 2 or start.shape[0] != nd or not 1 <= start.shape[1] <= k:
            raise ValidationError(f"start must be an ({nd}, j) block with 1 <= j <= {k}")
        if not np.isfinite(start).all():
            raise NonFiniteError("start contains NaN or Inf entries")
    # A block Krylov space resolves at most b directions of any one
    # eigenvalue, so one column past the requested count keeps the value
    # past the cut (and with it the degenerate-gap certificate) visible even
    # when the cut lands inside a multiple eigenvalue.
    b = min(k + 1, nd)
    # Restart before a fourth block; a restart keeps k + b columns, which
    # hold the pair past the cut that the degenerate-gap check reads.
    cap = min(nd, 4 * b)
    rng = RandomSource(cfg.seed).stream(_STREAM_SOLVER)
    # Iterate on A / 2^e, with 2^e the power of two just above the largest
    # stored entry, so huge finite blocks cannot overflow the residual
    # norms. Power-of-two scaling is exact: the iterates are those of any
    # 2^k multiple of A, and the values are scaled back on the way out.
    peak = max(a.data.max(initial=0.0), -a.data.min(initial=0.0))
    exponent = int(np.frexp(peak)[1])
    block = rng.standard_normal((nd, b))
    if start is not None:
        block[:, : start.shape[1]] = start
    v, _ = np.linalg.qr(block)
    av = np.ldexp(a.matvec(v), -exponent)
    best = None
    for iteration in range(1, _MAX_ITERATIONS + 1):
        h = v.T @ av
        h = (h + h.T) / 2.0
        theta, y = np.linalg.eigh(h)
        theta = theta[::-1]
        y = y[:, ::-1]
        s = v.shape[1]
        norm_est = max(abs(theta[0]), abs(theta[-1]))
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
        if s + b > cap:
            keep = min(s, k + b)
            v = v @ y[:, :keep]
            av = av @ y[:, :keep]
        new = _expand_basis(v, av[:, -b:], rng)
        if new.shape[1]:
            v = np.hstack([v, new])
            av = np.hstack([av, np.ldexp(a.matvec(new), -exponent)])
    raise NoConvergenceError(
        f"no convergence after {_MAX_ITERATIONS} iterations "
        f"(best residual {best.residual:.3e})",
        best=best,
    )
