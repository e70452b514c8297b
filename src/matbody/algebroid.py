"""Fibers of the material algebroid as nullspaces of the linearized membership test.

An infinitesimal material automorphism at x is a pair (v, A): a velocity of
the base point and a velocity of the matrix part.  Linearizing the sampled
membership condition W-hat(F P, x) = W-hat(F, y) along the flow
(x, F) -> (x + t v, F (I + t A)) gives, per sample gradient F, one scalar
constraint

    <dW/dF(F, x), F A>  -  <dW/dx(F, x), v>  =  0.

Stacking the constraints over a sample set and extracting the numerical
nullspace yields the fiber.  The rank decision is the fragile step of the
whole pipeline, so every fiber carries its full singular-value spectrum and
the gap at the cut for auditing.

The central-difference stencils of every sample gradient at a chunk of points
are evaluated as two batches (F-stencils, x-stencils), and the chunk's
nullspaces come from one stacked SVD.

Pairs (v, A) are flattened to 12-vectors as [v | A row-major] throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bodies import Body, SampleSet, evaluate
from .errors import MatbodyError, OutOfDomain, first_true, with_index
from .jets import as_point

DEFAULT_FD_STEP = 1e-5
DEFAULT_RANK_TOL = 1e-6
# Anchor/isotropy rank tolerance: fiber bases are orthonormal, so the
# v-projection's singular values are O(1) when translations are present.
DEFAULT_V_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class FiberBasis:
    """Orthonormal basis of a computed fiber plus its singular-value audit trail.

    ``anchor_svd`` is the SVD (U, sv, Vh) of the anchor block basis[:, :3]^T
    (3 x dim), which anchor rank, isotropy algebra and minimal lift cut at v_tol;
    ``fibers_at`` takes it from one stacked SVD per fiber dim, ``isotropy_algebra`` its own.
    """

    point: np.ndarray
    basis: np.ndarray       # (dim, 12): orthonormal basis vectors [v | A row-major]
    dim: int
    singular_values: np.ndarray
    anchor_svd: tuple


def sv_gaps(singular_values: np.ndarray, dims: np.ndarray) -> np.ndarray:
    """Smallest kept over largest dropped singular value (inf if clean), per row.

    ``singular_values`` holds one spectrum (12,) per row and ``dims`` the fiber
    dim of each row, so the cut sits at rank 12 - dim.
    """
    rank = 12 - np.asarray(dims)
    rows, cut = np.arange(len(rank)), np.clip(rank, 1, 11)
    kept, dropped = singular_values[rows, cut - 1], singular_values[rows, cut]
    clean = (rank == 0) | (rank == 12) | (dropped == 0.0)
    return np.divide(kept, dropped, out=np.full(len(rank), np.inf), where=~clean)


# About this many (F, x) pairs go into one evaluate call of the fibre stencils:
# chunks of grid points of this size keep the stencil and response
# temporaries near a megabyte at any grid size.
STENCIL_PAIRS = 4096

# Unit steps of the 9 entries of F (E_ij, row-major) and of the 3 coordinates of x.
_F_STEPS = np.eye(9).reshape(9, 3, 3)
_X_STEPS = np.eye(3)


def response_gradients(body: Body, x, F, fd_step: float = DEFAULT_FD_STEP):
    """Central-difference gradients (dW/dF, dW/dx) at every pair of points x and gradients F.

    For x of shape (..., 3) and F of shape (..., 3, 3) the results have shapes
    x.shape[:-1] + F.shape[:-2] + (3, 3) and (..., 3): point axes first,
    then gradient axes.  Each of the two stencil blocks (F, x) is one evaluate
    call.  The x-stencil must stay inside the body's box; the F-stencil has no
    such restriction.
    """
    x = np.asarray(x, dtype=float)
    F = np.asarray(F, dtype=float)
    near = ~body.box.inset(fd_step).mask(x)
    if near.any():
        i = first_true(near, near.shape)
        raise with_index(OutOfDomain(
            f"x = {x[i].tolist()} closer than fd_step {fd_step:g} to the domain boundary"), i)
    steps = np.array([fd_step, -fd_step])
    pts = x.reshape(x.shape[:-1] + (1,) * (F.ndim - 2) + (1, 1, 3))
    Fc = F[..., None, None, :, :]
    # values on axes (points..., gradients..., sign of the step, stepped entry)
    W_F = evaluate(body, Fc + steps[:, None, None, None] * _F_STEPS, pts)
    W_x = evaluate(body, Fc, pts + steps[:, None, None] * _X_STEPS)
    dWdF, dWdx = ((W[..., 0, :] - W[..., 1, :]) / (2 * fd_step) for W in (W_F, W_x))
    return dWdF.reshape(dWdF.shape[:-1] + (3, 3)), dWdx


def constraint_rows(body: Body, x, F, fd_step: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Linearized membership constraints, one 12-row per pair of points x and gradients F.

    The row applied to [v | A] is <dW/dF, F A> - <dW/dx, v>; the A-block
    coefficients are therefore F^T dW/dF (row-major) and the v-block is
    -dW/dx.  Shapes batch as in ``response_gradients``, so the gradients of a
    sample set give each point its (count, 12) constraint matrix.
    """
    dWdF, dWdx = response_gradients(body, x, F, fd_step)
    A = np.ascontiguousarray(np.swapaxes(np.asarray(F, dtype=float), -1, -2)) @ dWdF
    return np.concatenate([-dWdx, A.reshape(A.shape[:-2] + (9,))], axis=-1)


def fibers_at(body: Body, points, samples: SampleSet,
              rank_tol: float = DEFAULT_RANK_TOL,
              fd_step: float = DEFAULT_FD_STEP) -> list:
    """Fibers at each of ``points`` (n, 3): nullspaces of their stacked constraints.

    Keeps singular values above rank_tol * sigma_max as range directions; the
    remaining right-singular vectors span the fiber.  The full spectrum is
    retained on each result so callers can audit the gap at the cut.  Points
    go through in chunks of about STENCIL_PAIRS stencil pairs, each chunk
    with one stacked SVD; then the anchor blocks of all points with the same
    fiber dim go through one more.  A failing evaluation raises with the
    offending point's index in ``points`` as the error's ``index``.
    """
    points = np.array(points, dtype=float).reshape(-1, 3)
    points.setflags(write=False)
    chunk = max(1, STENCIL_PAIRS // (18 * samples.count))
    sv, Vh = np.zeros((len(points), 12)), np.empty((len(points), 12, 12))
    for start in range(0, len(points), chunk):
        try:
            L = constraint_rows(body, points[start:start + chunk], samples.matrices, fd_step)
        except MatbodyError as exc:
            exc.index = (start + int(exc.index[0]),)
            raise
        _, s, Vh[start:start + chunk] = np.linalg.svd(L, full_matrices=L.shape[-2] < 12)
        sv[start:start + chunk, :s.shape[-1]] = s
    sv.setflags(write=False)
    ranks = np.sum(sv > rank_tol * sv[:, :1], axis=1)
    out = [None] * len(points)
    for rank in np.unique(ranks).tolist():
        idx = np.flatnonzero(ranks == rank)
        rows = Vh[idx, rank:]                   # (m, dim, 12)
        rows.setflags(write=False)
        anchor = zip(*np.linalg.svd(np.swapaxes(rows[..., :3], -1, -2)))
        for p, B, svd in zip(idx.tolist(), rows, anchor):
            out[p] = FiberBasis(points[p], B, 12 - rank, sv[p], svd)
    return out


def fiber(body: Body, x, samples: SampleSet,
          rank_tol: float = DEFAULT_RANK_TOL,
          fd_step: float = DEFAULT_FD_STEP) -> FiberBasis:
    """Fiber at one point x: the one-point case of ``fibers_at``."""
    return fibers_at(body, [as_point(x)], samples, rank_tol, fd_step)[0]


def anchor_rank(f: FiberBasis, v_tol: float = DEFAULT_V_TOL) -> int:
    """Rank of the fiber's projection onto the anchor (v) block."""
    return int(np.sum(f.anchor_svd[1] > v_tol))


def isotropy_algebra(f: FiberBasis, v_tol: float = DEFAULT_V_TOL) -> FiberBasis:
    """Sub-fiber with vanishing anchor part, dim = dim(f) - anchor rank.

    Computed by restricting the span: coefficient vectors in the nullspace of
    the v-projection give the elements with v = 0.
    """
    rank = anchor_rank(f, v_tol)
    B = f.anchor_svd[2][rank:] @ f.basis       # (dim - rank, 12): the elements with v = 0
    return FiberBasis(f.point, B, f.dim - rank, f.singular_values, np.linalg.svd(B[:, :3].T))


@dataclass(frozen=True)
class UniformityResult:
    """Per-point anchor ranks and isotropy dims under one v_tol cut, and the verdict."""

    verdict: str                  # "uniform" | "not_uniform"
    anchor_ranks: tuple
    offending: tuple              # flat indices of points with anchor rank < 3
    isotropy_dims: tuple          # fiber dim - anchor rank, per point

    @property
    def uniform(self) -> bool:
        return self.verdict == "uniform"


def uniformity_verdict(fibers: Sequence[FiberBasis],
                       v_tol: float = DEFAULT_V_TOL) -> UniformityResult:
    """Uniform iff the anchor projection has rank 3 at every grid point.

    The one place the v_tol cut becomes per-point ranks and isotropy dims;
    ``homogeneity_verdict`` and the report read them from the result.
    """
    ranks = tuple(anchor_rank(f, v_tol) for f in fibers)
    offending = tuple(i for i, r in enumerate(ranks) if r < 3)
    verdict = "uniform" if not offending else "not_uniform"
    return UniformityResult(verdict, ranks, offending,
                            tuple(f.dim - r for f, r in zip(fibers, ranks)))
