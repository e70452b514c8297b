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
``sv_gap``: its smallest kept over its largest dropped value, taken at the cut.

The rows need (F^T dW/dF, dW/dx) and nothing else.  A body's ``gradient``
(every built-in and polynomial body has one) gives them exactly: a chunk of
points makes one evaluate call of its (point, sample) values, which checks
them, and one gradient call.  Central differences stand in for a missing
gradient: two batches, F +- h E_ij at the points and F at x +- h e_i, each
checked by evaluate.  Either way the chunk's nullspaces come from one stacked
SVD, and its anchor blocks from one more per fibre dim present in the chunk.
The fibres of all points are one read-only table, ``Fibers``; the verdict,
the lift and the report read its columns, and ``fibers[p]`` is one point's
``FiberBasis``.

Pairs (v, A) are flattened to 12-vectors as [v | A row-major] throughout.
"""

from __future__ import annotations

import math
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
    """Orthonormal basis of a computed fiber plus its audit trail: spectrum and ``sv_gap``.

    ``fibers[p]`` of a ``Fibers`` table gives point p's as views of its rows.
    The basis is in the anchor's singular frame: rows i < min(3, dim) have mutually
    orthogonal v-parts of length ``anchor_sv[i]``, later rows v = 0 up to rounding,
    so at anchor rank r the isotropy algebra is ``basis[r:]``.
    """

    point: np.ndarray
    basis: np.ndarray       # (dim, 12): orthonormal basis vectors [v | A row-major]
    singular_values: np.ndarray
    anchor_sv: np.ndarray   # (min(3, dim),): singular values of the anchor block basis[:, :3]
    sv_gap: float           # singular_values[11 - dim] / [12 - dim]; inf if the cut is clean

    @property
    def dim(self) -> int:
        return len(self.basis)


@dataclass(frozen=True, eq=False)
class Fibers:
    """Fibers at n points as one read-only table: a row per point in each column.

    Point p's basis is ``bases[p, :dims[p]]`` and its anchor singular values
    ``anchor_sv[p, :min(3, dims[p])]``; the rows and entries past them are zero.
    ``fibers[p]`` is point p's ``FiberBasis``, made of views of its rows, and
    a slice is the table of the sliced rows.  The table makes the arrays it is
    given read-only.
    """

    points: np.ndarray            # (n, 3)
    singular_values: np.ndarray   # (n, 12)
    dims: np.ndarray              # (n,) ints
    sv_gap: np.ndarray            # (n,): inf where the cut is clean
    anchor_sv: np.ndarray         # (n, 3)
    bases: np.ndarray             # (n, 12, 12)

    def __post_init__(self):
        for column in vars(self).values():
            column.setflags(write=False)

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, p):
        if isinstance(p, slice):
            return Fibers(*(column[p] for column in vars(self).values()))
        dim = int(self.dims[p])
        return FiberBasis(self.points[p], self.bases[p, :dim], self.singular_values[p],
                          self.anchor_sv[p, :min(3, dim)], float(self.sv_gap[p]))

    @staticmethod
    def of(fibers) -> "Fibers":
        """``fibers`` as a table: a table as it is, a sequence of FiberBasis stacked."""
        if isinstance(fibers, Fibers):
            return fibers
        n = len(fibers)
        anchor_sv, bases = np.zeros((n, 3)), np.zeros((n, 12, 12))
        for p, f in enumerate(fibers):
            anchor_sv[p, :len(f.anchor_sv)] = f.anchor_sv
            bases[p, :len(f.basis)] = f.basis
        return Fibers(np.array([f.point for f in fibers], dtype=float).reshape(n, 3),
                      np.array([f.singular_values for f in fibers], dtype=float).reshape(n, 12),
                      np.array([f.dim for f in fibers], dtype=int),
                      np.array([f.sv_gap for f in fibers], dtype=float), anchor_sv, bases)


# At most this many pairs go into one response call of a fibre chunk: with a
# gradient one per point and sample, 146 x 28 = 4088 at 28 samples; differenced
# 18 F-stencils per point and sample, 8 x 28 x 18 = 4032, and the chunk's
# x-stencil call adds a third as many (6 per point and sample).  Chunks of grid
# points of this size keep the temporaries of the response, the gradient, the
# rows and their SVDs under two megabytes at any grid size.
STENCIL_PAIRS = 4096

# Unit steps of the 9 entries of F (E_ij, row-major) and of the 3 coordinates of x.
_F_STEPS = np.eye(9).reshape(9, 3, 3)
_X_STEPS = np.eye(3)


def constraint_rows(body: Body, x, F, fd_step: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Linearized membership constraints, one 12-row per pair of points x and gradients F.

    The row applied to [v | A] is <dW/dF, F A> - <dW/dx, v>: the A-block is
    F^T dW/dF (row-major) and the v-block -dW/dx, both gradients from the
    body's ``gradient`` when it has one, else central differences of step
    ``fd_step``.  Rows have shape x.shape[:-1] + F.shape[:-2] + (12,), so a
    sample set gives each point its (count, 12) constraint matrix.  The pairs'
    values, or each stencil block (F, x), are one evaluate call; an x within
    ``fd_step`` of the box boundary raises OutOfDomain on either path.  Rows
    that overflow raise NonFiniteResponse indexed by the first offending pair.
    A step that is not finite and > 0 raises ValueError.
    """
    _check_fd_step(fd_step)
    return _rows(body, x, F, fd_step)


def _check_fd_step(fd_step: float) -> None:
    """Refuse a step before any stencil: at 0 the differences are 0/0, a negative
    step widens the inset box past the body's, and NaN reads as a bad point."""
    if not 0 < fd_step < math.inf:                          # NaN too
        raise ValueError(f"fd_step {fd_step:g} is not finite and > 0")


def _rows(body: Body, x, F, fd_step: float, sampled: bool = False) -> np.ndarray:
    """``constraint_rows``; ``sampled`` when F are a sample set's matrices."""
    with np.errstate(over="ignore", invalid="ignore"):     # non-finite rows are refused below
        x = np.asarray(x, dtype=float)
        F = np.asarray(F, dtype=float)
        near = ~body.box.mask(x, fd_step)
        if near.any():
            i = first_true(near, near.shape)
            raise with_index(OutOfDomain(
                f"x = {x[i].tolist()} closer than fd_step {fd_step:g} to the domain boundary"), i)
        pts = x.reshape(x.shape[:-1] + (1,) * (F.ndim - 2) + (3,))
        A, dWdx = _gradients(body, pts, F, fd_step, sampled, x.shape[:-1] + F.shape[:-2])
        rows = np.concatenate([-dWdx, A.reshape(A.shape[:-2] + (9,))], axis=-1)
        # a finite sum proves every row finite; finite rows can overflow it
        finite_sum = math.isfinite(rows.sum())
    if not finite_sum:
        bad = ~np.isfinite(rows).all(axis=-1)
        if bad.any():
            raise with_index(NonFiniteResponse(f"constraint rows of '{body.name}' are non-finite"),
                             first_true(bad, bad.shape))
    return rows


def _gradients(body: Body, pts, F, fd_step: float, sampled: bool, lead: tuple) -> tuple:
    """(F^T dW/dF, dW/dx) of shapes lead + (3, 3) and lead + (3,).

    From the body's gradient when it has one, after one evaluate call of the
    pairs' values, so a pair below the det floor or with a non-finite value
    raises as in any batch; that call is decided when F are a sample set's
    matrices (``sampled``), which passed the det floor, as the points passed
    the inset test.  Without one, from central differences of step
    ``fd_step``: two batches on axes (points..., gradients..., sign of the
    step, stepped entry), each checked by evaluate.  F is made contiguous, so
    the blocks do not depend on its layout.
    """
    F = np.ascontiguousarray(F)
    if body.gradient is not None:
        evaluate(body, F, pts, _checked=lead if sampled else None)
        dWdF, dWdx = body.gradient(F, pts)
        dWdF, dWdx = _batch(dWdF, lead + (3, 3)), _batch(dWdx, lead + (3,))
    else:
        steps = np.array([fd_step, -fd_step])
        W_F = evaluate(body, F[..., None, None, :, :] + steps[:, None, None, None] * _F_STEPS,
                       pts[..., None, None, :])
        W_x = evaluate(body, F[..., None, None, :, :],
                       pts[..., None, None, :] + steps[:, None, None] * _X_STEPS)
        dWdF, dWdx = ((W[..., 0, :] - W[..., 1, :]) / (2 * fd_step) for W in (W_F, W_x))
        dWdF = dWdF.reshape(dWdF.shape[:-1] + (3, 3))
    return np.ascontiguousarray(np.swapaxes(F, -1, -2)) @ dWdF, dWdx


def _batch(a: np.ndarray, shape: tuple) -> np.ndarray:
    """A gradient ``a`` broadcast to the batch ``shape``, as it is when it has that shape."""
    return a if a.shape == shape else np.broadcast_to(a, shape)


def fibers_at(body: Body, points, samples: SampleSet,
              rank_tol: float = DEFAULT_RANK_TOL,
              fd_step: float = DEFAULT_FD_STEP) -> Fibers:
    """Fibers at each of ``points`` (n, 3): nullspaces of their stacked constraints.

    Keeps singular values above rank_tol * sigma_max as range directions; the
    remaining right-singular vectors span the fiber.  The ``Fibers`` table keeps
    each point's full spectrum and ``sv_gap``, the gap at the cut (inf when the
    cut is clean), one array quotient per fiber dim of a chunk.  Points
    go through in chunks of at most STENCIL_PAIRS pairs in one response call
    (count per point with a gradient, 18 count when differenced), each chunk
    with one stacked SVD; then the chunk's anchor blocks of each fiber dim go
    through one more, which turns each basis into the anchor's singular frame.
    Spectra are stored non-negative (LAPACK can give -0.0).  A failing
    evaluation, rows or spectrum raise indexed by their point in ``points``, and the
    message starts ``at point [x]: ``.  A step that is not finite and > 0 raises
    ValueError.
    """
    _check_fd_step(fd_step)
    points = np.array(points, dtype=float).reshape(-1, 3)
    per_sample = 18 if body.gradient is None else 1     # per point: its F-stencils or its value
    chunk = max(1, STENCIL_PAIRS // (per_sample * samples.count))
    n = len(points)
    spectra, dims, gaps = np.zeros((n, 12)), np.zeros(n, dtype=int), np.full(n, math.inf)
    anchor, bases = np.zeros((n, 3)), np.zeros((n, 12, 12))
    for start in range(0, n, chunk):
        try:
            L = _rows(body, points[start:start + chunk], samples.matrices, fd_step, True)
            _, s, Vh = np.linalg.svd(L, full_matrices=L.shape[-2] < 12)
            bad = ~np.isfinite(s).all(axis=-1)
            if bad.any():
                raise with_index(NonFiniteResponse(
                    "singular values of the constraint rows overflow"), (int(np.argmax(bad)),))
        except MatbodyError as exc:
            k = start + int(exc.index[0])
            exc.args, exc.index = (f"at point {points[k].tolist()}: {exc}",), (k,)
            raise
        sv = spectra[start:start + len(s)]
        sv[:, :s.shape[-1]] = np.abs(s)         # LAPACK can give -0.0
        ranks = (sv > rank_tol * sv[:, :1]).sum(axis=1)
        dims[start:start + len(s)] = 12 - ranks
        for rank in np.unique(ranks).tolist():
            idx = (ranks == rank).nonzero()[0]
            rows = start + idx
            _, anchor_sv, Vh_anchor = np.linalg.svd(Vh[idx, rank:, :3].swapaxes(-1, -2))
            anchor[rows, :anchor_sv.shape[-1]] = anchor_sv
            bases[rows, :12 - rank] = Vh_anchor @ Vh[idx, rank:]    # in the anchor's frame
            if 0 < rank < 12:       # else no cut: inf, as where the dropped value is 0
                with np.errstate(divide="ignore", over="ignore"):   # or the quotient overflows
                    gaps[rows] = sv[idx, rank - 1] / sv[idx, rank]
    return Fibers(points, spectra, dims, gaps, anchor, bases)


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


def uniformity_verdict(fibers: Fibers | Sequence[FiberBasis],
                       v_tol: float = DEFAULT_V_TOL) -> UniformityResult:
    """Uniform iff the anchor projection has rank 3 at every grid point.

    The one place the v_tol cut becomes per-point ranks and isotropy dims;
    ``homogeneity_verdict`` and the report read them from the result.  The cut
    is one pass over the table's ``anchor_sv``, each point's ``anchor_rank``.
    """
    table = Fibers.of(fibers)
    # no rank past the dim: a v_tol below 0 would count the zero padding
    ranks = np.minimum(np.count_nonzero(table.anchor_sv > v_tol, axis=1), table.dims)
    offending = tuple(np.flatnonzero(ranks < 3).tolist())
    verdict = "uniform" if not offending else "not_uniform"
    return UniformityResult(verdict, tuple(ranks.tolist()), offending,
                            tuple((table.dims - ranks).tolist()))
