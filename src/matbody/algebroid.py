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
from .errors import MatbodyError, NonFiniteResponse, OutOfDomain, first_true, with_index
from .jets import as_point

DEFAULT_FD_STEP = 1e-5
DEFAULT_RANK_TOL = 1e-6
# Anchor/isotropy rank tolerance: fiber bases are orthonormal, so the
# v-projection's singular values are O(1) when translations are present.
DEFAULT_V_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class FiberBasis:
    """Orthonormal basis of a computed fiber plus its singular-value audit trail.

    The basis is in the anchor's singular frame: rows i < min(3, dim) have mutually
    orthogonal v-parts of length ``anchor_sv[i]``, later rows v = 0 up to rounding,
    so at anchor rank r the isotropy algebra is ``basis[r:]``.
    """

    point: np.ndarray
    basis: np.ndarray       # (dim, 12): orthonormal basis vectors [v | A row-major]
    dim: int
    singular_values: np.ndarray
    anchor_sv: np.ndarray   # (min(3, dim),): singular values of the anchor block basis[:, :3]


def sv_gaps(singular_values: np.ndarray, dims: np.ndarray) -> np.ndarray:
    """Smallest kept over largest dropped singular value (inf if clean), per row.

    ``singular_values`` holds one spectrum (12,) per row and ``dims`` the fiber
    dim of each row, so the cut sits at rank 12 - dim.
    """
    rank = 12 - np.asarray(dims)
    rows, cut = np.arange(len(rank)), np.clip(rank, 1, 11)
    kept, dropped = singular_values[rows, cut - 1], singular_values[rows, cut]
    clean = (rank == 0) | (rank == 12) | (dropped == 0.0)
    with np.errstate(over="ignore"):        # a ratio beyond the float range is clean too
        return np.divide(kept, dropped, out=np.full(len(rank), np.inf), where=~clean)


# About this many (F, x) pairs go into one evaluate call of the fibre stencils:
# chunks of grid points of this size keep the stencil and response
# temporaries near a megabyte at any grid size.
STENCIL_PAIRS = 4096

# Unit steps of the 9 entries of F (E_ij, row-major) and of the 3 coordinates of x.
_F_STEPS = np.eye(9).reshape(9, 3, 3)
_X_STEPS = np.eye(3)


def constraint_rows(body: Body, x, F, fd_step: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Linearized membership constraints, one 12-row per pair of points x and gradients F.

    The row applied to [v | A] is <dW/dF, F A> - <dW/dx, v>, both gradients
    central differences of step ``fd_step``: the A-block is F^T dW/dF
    (row-major) and the v-block -dW/dx.  Rows have shape
    x.shape[:-1] + F.shape[:-2] + (12,), so a sample set gives each point its
    (count, 12) constraint matrix.  Each stencil block (F, x) is one evaluate
    call; an x within ``fd_step`` of the box boundary raises OutOfDomain.  Rows
    that overflow raise NonFiniteResponse indexed by the first offending pair.
    """
    with np.errstate(over="ignore", invalid="ignore"):     # non-finite rows are refused below
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
        A = np.ascontiguousarray(np.swapaxes(F, -1, -2)) @ dWdF.reshape(dWdF.shape[:-1] + (3, 3))
    rows = np.concatenate([-dWdx, A.reshape(A.shape[:-2] + (9,))], axis=-1)
    bad = ~np.isfinite(rows).all(axis=-1)
    if bad.any():
        raise with_index(NonFiniteResponse(f"constraint rows of '{body.name}' are non-finite"),
                         first_true(bad, bad.shape))
    return rows


def fibers_at(body: Body, points, samples: SampleSet,
              rank_tol: float = DEFAULT_RANK_TOL,
              fd_step: float = DEFAULT_FD_STEP) -> list:
    """Fibers at each of ``points`` (n, 3): nullspaces of their stacked constraints.

    Keeps singular values above rank_tol * sigma_max as range directions; the
    remaining right-singular vectors span the fiber.  The full spectrum is
    retained on each result so callers can audit the gap at the cut.  Points
    go through in chunks of about STENCIL_PAIRS stencil pairs, each chunk
    with one stacked SVD; then the anchor blocks of all points with the same
    fiber dim go through one more, which turns each basis into the anchor's
    singular frame.  An evaluation, rows or a spectrum that fail
    raise with the offending point's index in ``points`` as the error's ``index``.
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
    bad = ~np.isfinite(sv).all(axis=1)
    if bad.any():
        raise with_index(NonFiniteResponse("singular values of the constraint rows overflow"),
                         (int(np.argmax(bad)),))
    sv.setflags(write=False)
    ranks = np.sum(sv > rank_tol * sv[:, :1], axis=1)
    out = [None] * len(points)
    for rank in np.unique(ranks).tolist():
        idx = np.flatnonzero(ranks == rank)
        _, anchor_sv, Vh_anchor = np.linalg.svd(np.swapaxes(Vh[idx, rank:, :3], -1, -2))
        rows = Vh_anchor @ Vh[idx, rank:]       # (m, dim, 12) in the anchor's singular frame
        rows.setflags(write=False)
        for p, B, s in zip(idx.tolist(), rows, anchor_sv):
            out[p] = FiberBasis(points[p], B, 12 - rank, sv[p], s)
    return out


def fiber(body: Body, x, samples: SampleSet,
          rank_tol: float = DEFAULT_RANK_TOL,
          fd_step: float = DEFAULT_FD_STEP) -> FiberBasis:
    """Fiber at one point x: the one-point case of ``fibers_at``."""
    return fibers_at(body, [as_point(x)], samples, rank_tol, fd_step)[0]


def anchor_rank(f: FiberBasis, v_tol: float = DEFAULT_V_TOL) -> int:
    """Rank of the fiber's projection onto the anchor (v) block."""
    return int(np.sum(f.anchor_sv > v_tol))


def isotropy_algebra(f: FiberBasis, v_tol: float = DEFAULT_V_TOL) -> np.ndarray:
    """Anchor kernel: read-only (dim(f) - anchor rank, 12) rows spanning the elements with v = 0.

    They are the basis rows past the anchor rank, a view of f.basis.
    """
    B = f.basis[anchor_rank(f, v_tol):]
    B.setflags(write=False)
    return B


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
