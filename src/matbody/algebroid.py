"""Fibers of the material algebroid as nullspaces of the linearized membership test.

An infinitesimal material automorphism at x is a pair (v, A): a velocity of
the base point and a velocity of the matrix part.  Linearizing the sampled
membership condition W-hat(F P, x) = W-hat(F, y) along the flow
(x, F) -> (x + t v, F (I + t A)) gives, per sample gradient F and response
component, one scalar constraint

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
from functools import cached_property
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
class AlgebroidElement:
    """Fiber element (v, A): anchor part v in R^3, matrix part A in R^{3x3}."""

    v: np.ndarray
    A: np.ndarray

    def __post_init__(self):
        v = np.array(self.v, dtype=float).reshape(3)
        A = np.array(self.A, dtype=float).reshape(3, 3)
        v.setflags(write=False)
        A.setflags(write=False)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "A", A)

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.v, self.A.ravel()])

    @staticmethod
    def from_vector(u) -> "AlgebroidElement":
        u = np.asarray(u, dtype=float).reshape(12)
        return AlgebroidElement(u[:3], u[3:].reshape(3, 3))


@dataclass(frozen=True, eq=False)
class FiberBasis:
    """Orthonormal basis of a computed fiber plus its singular-value audit trail."""

    point: np.ndarray
    basis: tuple            # of AlgebroidElement, orthonormal as 12-vectors
    dim: int
    singular_values: np.ndarray

    def basis_matrix(self) -> np.ndarray:
        """Basis vectors as rows of a (dim, 12) matrix."""
        if self.dim == 0:
            return np.zeros((0, 12))
        return np.stack([e.to_vector() for e in self.basis])

    @cached_property
    def anchor_svd(self) -> tuple:
        """SVD (U, sv, Vh) of the anchor block B[:, :3]^T (3 x dim), computed once.

        Anchor rank, isotropy algebra and minimal lift are three readings of
        this one decomposition; each only applies its v_tol cut to ``sv``.
        """
        return np.linalg.svd(self.basis_matrix()[:, :3].T)

    def sv_gap(self) -> float:
        """Ratio of smallest kept to largest dropped singular value (inf if clean)."""
        sv = self.singular_values
        rank = 12 - self.dim
        if rank == 0 or rank >= len(sv):
            return float("inf")
        if sv[rank] == 0.0:
            return float("inf")
        return float(sv[rank - 1] / sv[rank])


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
    x.shape[:-1] + F.shape[:-2] + (d, 3, 3) and (..., d, 3): point axes first,
    then gradient axes.  Each of the two stencil blocks (F, x) is one evaluate
    call.  The x-stencil must stay inside the body's box; the F-stencil has no
    such restriction.
    """
    x = np.asarray(x, dtype=float)
    F = np.asarray(F, dtype=float)
    near = ~np.all((x >= body.lo + fd_step) & (x <= body.hi - fd_step), axis=-1)
    if near.any():
        i = first_true(near, near.shape)
        raise with_index(OutOfDomain(
            f"x = {x[i].tolist()} closer than fd_step {fd_step:g} to the domain boundary"), i)
    steps = np.array([fd_step, -fd_step])
    pts = x.reshape(x.shape[:-1] + (1,) * (F.ndim - 2) + (1, 1, 3))
    Fc = F[..., None, None, :, :]
    # values on axes (points..., gradients..., sign of the step, stepped entry, d)
    W_F = evaluate(body, Fc + steps[:, None, None, None] * _F_STEPS, pts)
    W_x = evaluate(body, Fc, pts + steps[:, None, None] * _X_STEPS)
    dWdF, dWdx = (np.swapaxes(W[..., 0, :, :] - W[..., 1, :, :], -1, -2) / (2 * fd_step)
                  for W in (W_F, W_x))
    return dWdF.reshape(dWdF.shape[:-1] + (3, 3)), dWdx


def constraint_rows(body: Body, x, F, fd_step: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Linearized membership constraints, (d, 12) rows per pair of points x and gradients F.

    Row m applied to [v | A] is <dW_m/dF, F A> - <dW_m/dx, v>; the A-block
    coefficients are therefore F^T dW_m/dF (row-major) and the v-block is
    -dW_m/dx.  Shapes batch as in ``response_gradients``.
    """
    dWdF, dWdx = response_gradients(body, x, F, fd_step)
    F = np.asarray(F, dtype=float)
    A = np.swapaxes(F, -1, -2)[..., None, :, :] @ dWdF
    return np.concatenate([-dWdx, A.reshape(A.shape[:-2] + (9,))], axis=-1)


def stack_constraints(body: Body, x, samples: SampleSet,
                      fd_step: float = DEFAULT_FD_STEP) -> np.ndarray:
    """(count*d) x 12 constraint matrix over a sample set, per point x (..., 3)."""
    rows = constraint_rows(body, x, samples.matrices, fd_step)
    return rows.reshape(rows.shape[:-3] + (-1, 12))


def fibers_at(body: Body, points, samples: SampleSet,
              rank_tol: float = DEFAULT_RANK_TOL,
              fd_step: float = DEFAULT_FD_STEP) -> list:
    """Fibers at each of ``points`` (n, 3): nullspaces of their stacked constraints.

    Keeps singular values above rank_tol * sigma_max as range directions; the
    remaining right-singular vectors span the fiber.  The full spectrum is
    retained on each result so callers can audit the gap at the cut.  Points
    go through in chunks of about STENCIL_PAIRS stencil pairs, each chunk
    with one stacked SVD.  A failing evaluation raises with the offending
    point's index in ``points`` as the error's ``index``.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    chunk = max(1, STENCIL_PAIRS // (18 * samples.count))
    out = []
    for start in range(0, len(points), chunk):
        block = points[start:start + chunk]
        try:
            L = stack_constraints(body, block, samples, fd_step)
        except MatbodyError as exc:
            exc.index = (start + int(exc.index[0]),)
            raise
        _, svs, Vhs = np.linalg.svd(L)
        for x, sv, Vh in zip(block, svs, Vhs):
            rank = int(np.sum(sv > rank_tol * sv[0])) if sv[0] > 0 else 0
            sv_full = np.zeros(12)
            sv_full[: len(sv)] = sv
            sv_full.setflags(write=False)
            basis = tuple(AlgebroidElement.from_vector(u) for u in Vh[rank:])
            out.append(FiberBasis(as_point(x), basis, 12 - rank, sv_full))
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
    B = f.basis_matrix()
    coeffs = f.anchor_svd[2][rank:]            # (dim - rank, dim)
    elements = tuple(AlgebroidElement.from_vector(c @ B) for c in coeffs)
    return FiberBasis(f.point, elements, f.dim - rank, f.singular_values)


@dataclass(frozen=True)
class UniformityResult:
    verdict: str                  # "uniform" | "not_uniform"
    anchor_ranks: tuple
    offending: tuple              # flat indices of points with anchor rank < 3

    @property
    def uniform(self) -> bool:
        return self.verdict == "uniform"


def uniformity_verdict(fibers: Sequence[FiberBasis],
                       v_tol: float = DEFAULT_V_TOL) -> UniformityResult:
    """Uniform iff the anchor projection has rank 3 at every grid point."""
    ranks = tuple(anchor_rank(f, v_tol) for f in fibers)
    offending = tuple(i for i, r in enumerate(ranks) if r < 3)
    verdict = "uniform" if not offending else "not_uniform"
    return UniformityResult(verdict, ranks, offending)
