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

The rows need (F^T dW/dF, dW/dx) and nothing else, and a body's ``gradient``
gives them: a chunk of points makes one evaluate call of its (point, sample)
values, which checks them, and one gradient call.  Every built-in and
polynomial body has an exact gradient; a body without one enters the entry
points as ``differenced(body, fd_step)``, which is all ``fd_step`` does here.
The chunk's nullspaces come from one stacked SVD, and its anchor blocks from
one more per fibre dim present in the chunk.
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

from .bodies import DEFAULT_FD_STEP, Body, SampleSet, differenced, evaluate
from .errors import MatbodyError, NonFiniteResponse, OutOfDomain, first_true, with_index
from .jets import as_point

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


# At most this many pairs go into one response call of a fibre chunk: one per
# point and sample, 146 x 28 = 4088 at 28 samples; a differenced body makes 24
# such calls, one per stencil.  Chunks of grid points of this size keep the
# temporaries of the response, the gradient, the rows and their SVDs under two
# megabytes at any grid size.
STENCIL_PAIRS = 4096


def constraint_rows(body: Body, x, F, fd_step: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Linearized membership constraints, one 12-row per pair of points x and gradients F.

    The row applied to [v | A] is <dW/dF, F A> - <dW/dx, v>: the A-block is
    F^T dW/dF (row-major) and the v-block -dW/dx, both gradients from the
    body's ``gradient``; a body without one is ``differenced(body, fd_step)``,
    whose step refuses a value that is not finite and > 0 with ValueError.
    Rows have shape x.shape[:-1] + F.shape[:-2] + (12,), so a sample set gives
    each point its (count, 12) constraint matrix.  An x outside the box raises
    OutOfDomain, and the pairs' values are one evaluate call, which checks
    them.  Rows that overflow raise NonFiniteResponse indexed by the first
    offending pair.
    """
    return _rows(body if body.gradient is not None else differenced(body, fd_step), x, F)


def _rows(body: Body, x, F, sampled: bool = False) -> np.ndarray:
    """``constraint_rows`` of a body with a gradient; ``sampled`` when F are sample matrices.

    One evaluate call of the pairs' values checks them, decided when F are a
    sample set's matrices, which passed the det floor, as x passed the box
    test; then one gradient call.  F is made contiguous, so the rows do not
    depend on its layout.
    """
    with np.errstate(over="ignore", invalid="ignore"):     # non-finite rows are refused below
        x = np.asarray(x, dtype=float)
        F = np.ascontiguousarray(F, dtype=float)
        outside = ~body.box.mask(x)
        if outside.any():
            i = first_true(outside, outside.shape)
            raise with_index(OutOfDomain(
                f"{x[i].tolist()} outside domain of body '{body.name}'"), i)
        pts = x.reshape(x.shape[:-1] + (1,) * (F.ndim - 2) + (3,))
        lead = x.shape[:-1] + F.shape[:-2]
        evaluate(body, F, pts, _checked=lead if sampled else None)
        A, dWdx = body.gradient(F, pts)         # dW/dF until F^T dW/dF replaces, so frees, it
        A = np.ascontiguousarray(np.swapaxes(F, -1, -2)) @ _batch(A, lead + (3, 3))
        rows = np.concatenate([-_batch(dWdx, lead + (3,)), A.reshape(lead + (9,))], axis=-1)
        # a finite sum proves every row finite; finite rows can overflow it
        finite_sum = math.isfinite(rows.sum())
    if not finite_sum:
        bad = ~np.isfinite(rows).all(axis=-1)
        if bad.any():
            raise with_index(NonFiniteResponse(f"constraint rows of '{body.name}' are non-finite"),
                             first_true(bad, bad.shape))
    return rows


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
    cut is clean), one array quotient per fiber dim of a chunk.  A body
    without a gradient is ``differenced(body, fd_step)``.  Points go through
    in chunks of STENCIL_PAIRS // count, each chunk with one stacked SVD; then
    the chunk's anchor blocks of each fiber dim go through one more, which
    turns each basis into the anchor's singular frame.  Spectra are stored
    non-negative (LAPACK can give -0.0).  A point outside the box, a failing
    evaluation, rows or spectrum raise indexed by their point in ``points``,
    and the message starts ``at point [x]: ``.
    """
    body = body if body.gradient is not None else differenced(body, fd_step)
    points = np.array(points, dtype=float).reshape(-1, 3)
    chunk = max(1, STENCIL_PAIRS // samples.count)
    n = len(points)
    spectra, dims, gaps = np.zeros((n, 12)), np.zeros(n, dtype=int), np.full(n, math.inf)
    anchor, bases = np.zeros((n, 3)), np.zeros((n, 12, 12))
    for start in range(0, n, chunk):
        try:
            L = _rows(body, points[start:start + chunk], samples.matrices, True)
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
