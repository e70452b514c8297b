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

Pairs (v, A) are flattened to 12-vectors as [v | A row-major] throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .bodies import Body, SampleSet, evaluate
from .errors import OutOfDomain
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


def response_gradients(body: Body, x, F, fd_step: float = DEFAULT_FD_STEP):
    """Central-difference gradients (dW/dF, dW/dx) of shape (d,3,3) and (d,3).

    The x-stencil must stay inside the body's box; the F-stencil has no such
    restriction.
    """
    x = as_point(x)
    if not body.contains(x, margin=fd_step):
        raise OutOfDomain(
            f"x = {x.tolist()} closer than fd_step {fd_step:g} to the domain boundary"
        )
    F = np.asarray(F, dtype=float)
    d = body.output_dim
    dWdF = np.zeros((d, 3, 3))
    for i in range(3):
        for j in range(3):
            Fp = F.copy(); Fp[i, j] += fd_step
            Fm = F.copy(); Fm[i, j] -= fd_step
            dWdF[:, i, j] = (evaluate(body, Fp, x) - evaluate(body, Fm, x)) / (2 * fd_step)
    dWdx = np.zeros((d, 3))
    for k in range(3):
        xp = x.copy(); xp[k] += fd_step
        xm = x.copy(); xm[k] -= fd_step
        dWdx[:, k] = (evaluate(body, F, xp) - evaluate(body, F, xm)) / (2 * fd_step)
    return dWdF, dWdx


def constraint_rows(body: Body, x, F, fd_step: float = DEFAULT_FD_STEP) -> np.ndarray:
    """d x 12 linearized membership constraints at (F, x).

    Row m applied to [v | A] is <dW_m/dF, F A> - <dW_m/dx, v>; the A-block
    coefficients are therefore F^T dW_m/dF (row-major) and the v-block is
    -dW_m/dx.
    """
    dWdF, dWdx = response_gradients(body, x, F, fd_step)
    F = np.asarray(F, dtype=float)
    rows = np.zeros((body.output_dim, 12))
    for m in range(body.output_dim):
        rows[m, :3] = -dWdx[m]
        rows[m, 3:] = (F.T @ dWdF[m]).ravel()
    return rows


def stack_constraints(body: Body, x, samples: SampleSet,
                      fd_step: float = DEFAULT_FD_STEP) -> np.ndarray:
    """(count*d) x 12 constraint matrix over a sample set."""
    return np.vstack([constraint_rows(body, x, F, fd_step) for F in samples.matrices])


def fiber(body: Body, x, samples: SampleSet,
          rank_tol: float = DEFAULT_RANK_TOL,
          fd_step: float = DEFAULT_FD_STEP) -> FiberBasis:
    """Numerical nullspace of the stacked constraints at x.

    Keeps singular values above rank_tol * sigma_max as range directions; the
    remaining right-singular vectors span the fiber.  The full spectrum is
    retained on the result so callers can audit the gap at the cut.
    """
    L = stack_constraints(body, x, samples, fd_step)
    _, sv, Vh = np.linalg.svd(L)
    sv_full = np.zeros(12)
    sv_full[: len(sv)] = sv
    rank = int(np.sum(sv > rank_tol * sv[0])) if sv.size and sv[0] > 0 else 0
    basis = tuple(AlgebroidElement.from_vector(u) for u in Vh[rank:])
    sv_full.setflags(write=False)
    return FiberBasis(as_point(x), basis, 12 - rank, sv_full)


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
