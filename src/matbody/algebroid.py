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

The gradients are exact when the body has a ``gradient`` (every built-in and
polynomial body): a chunk of points makes one evaluate call of its (point,
sample) values, which checks them, and one gradient call.  A body without one
is differenced: the central-difference stencils of every sample gradient at
the chunk's points are evaluated as two batches (F-stencils, x-stencils).  The
F-stencils do not depend on the point: a sample set makes and det-checks them
once per step (``SampleSet.stencils``), so a chunk checks only its own points
before its two response calls.  Either way the chunk's nullspaces come from
one stacked SVD.

Pairs (v, A) are flattened to 12-vectors as [v | A row-major] throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bodies import Body, SampleSet, Stencils, evaluate, f_stencils
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


# At most this many pairs go into one response call of a fibre chunk: on the
# gradient path one per point and sample, 146 x 28 = 4088 at 28 samples; on
# the stencil path 18 F-stencils per point and sample, 8 x 28 x 18 = 4032,
# and the chunk's x-stencil call adds a third as many (6 per point and
# sample).  Chunks of grid points of this size keep the temporaries of the
# response, the gradient, the rows and their SVD under two megabytes at 9^3.
STENCIL_PAIRS = 4096

# Unit steps of the 3 coordinates of x.
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


def _rows(body: Body, x, F, fd_step: float, samples: SampleSet | None = None) -> np.ndarray:
    """``constraint_rows``; ``samples`` is the sample set when F is its matrices.

    The blocks come from the body's gradient when it has one, else from
    central differences.
    """
    with np.errstate(over="ignore", invalid="ignore"):     # non-finite rows are refused below
        x = np.asarray(x, dtype=float)
        F = np.asarray(F, dtype=float)
        near = ~body.box.inset(fd_step).mask(x)
        if near.any():
            i = first_true(near, near.shape)
            raise with_index(OutOfDomain(
                f"x = {x[i].tolist()} closer than fd_step {fd_step:g} to the domain boundary"), i)
        pts = x.reshape(x.shape[:-1] + (1,) * (F.ndim - 2) + (3,))
        lead = x.shape[:-1] + F.shape[:-2]
        if body.gradient is None:
            A, dWdx = _stencil_blocks(body, pts, F, fd_step, samples, lead)
        else:
            A, dWdx = _gradient_blocks(body, pts, F, samples is not None, lead)
    rows = np.concatenate([-dWdx, A.reshape(A.shape[:-2] + (9,))], axis=-1)
    bad = ~np.isfinite(rows).all(axis=-1)
    if bad.any():
        raise with_index(NonFiniteResponse(f"constraint rows of '{body.name}' are non-finite"),
                         first_true(bad, bad.shape))
    return rows


def _gradient_blocks(body: Body, pts, F, sampled: bool, lead: tuple) -> tuple:
    """(F^T dW/dF, dW/dx) from the body's gradient, shapes lead + (3, 3) and lead + (3,).

    The pairs' values go through one evaluate call first, so a pair below the
    det floor or with a non-finite value raises as in any batch; it is decided
    when F are a sample set's matrices (``sampled``), which passed the det
    floor, as the points passed the inset test.  F is made contiguous, so the
    blocks do not depend on its layout.
    """
    F = np.ascontiguousarray(F)
    evaluate(body, F, pts, _checked=lead if sampled else None)
    dWdF, dWdx = body.gradient(F, pts)
    Ft = np.ascontiguousarray(np.swapaxes(F, -1, -2))
    return Ft @ np.broadcast_to(dWdF, lead + (3, 3)), np.broadcast_to(dWdx, lead + (3,))


def _stencil_blocks(body: Body, pts, F, fd_step: float, samples: SampleSet | None,
                    lead: tuple) -> tuple:
    """(F^T dW/dF, dW/dx) by central differences: two stencil batches.

    The sample set's F-stencils are asked for only once x passes the inset
    test, so a step that fails it makes none.  When they are ``regular``
    (every F-stencil passes the det floor, as the samples did), a chunk whose
    x-stencils lie in the box is decided: both evaluate calls take the
    checked path with their batch shapes.  Otherwise ``evaluate`` checks each
    batch, so values and errors are the same either way.
    """
    if samples is None:
        FS = f_stencils(F, fd_step)                 # raises first on a malformed F
        st = Stencils(FS, False, np.ascontiguousarray(np.swapaxes(F, -1, -2)))
    else:
        st = samples.stencils(fd_step)
    steps = np.array([fd_step, -fd_step])
    xs = pts[..., None, None, :] + steps[:, None, None] * _X_STEPS
    # x-stencils in the box put x there too (each coordinate of x is kept by
    # two of them), so the F-stencil batch's points need no mask of their own
    certified = st.regular and body.box.mask(xs).all()
    # values on axes (points..., gradients..., sign of the step, stepped entry)
    W_F = evaluate(body, st.matrices, pts[..., None, None, :],
                   _checked=lead + (2, 9) if certified else None)
    W_x = evaluate(body, F[..., None, None, :, :], xs,
                   _checked=lead + (2, 3) if certified else None)
    dWdF, dWdx = ((W[..., 0, :] - W[..., 1, :]) / (2 * fd_step) for W in (W_F, W_x))
    return st.transposed @ dWdF.reshape(dWdF.shape[:-1] + (3, 3)), dWdx


def fibers_at(body: Body, points, samples: SampleSet,
              rank_tol: float = DEFAULT_RANK_TOL,
              fd_step: float = DEFAULT_FD_STEP) -> list:
    """Fibers at each of ``points`` (n, 3): nullspaces of their stacked constraints.

    Keeps singular values above rank_tol * sigma_max as range directions; the
    remaining right-singular vectors span the fiber.  Each result keeps the full
    spectrum and ``sv_gap``, the gap at the cut (inf when the cut is clean).  Points
    go through in chunks of at most STENCIL_PAIRS pairs in one response call
    (count per point with a gradient, 18 count when differenced), each chunk
    with one stacked SVD; then the anchor blocks of all points with the same
    fiber dim go through one more, which turns each basis into the anchor's
    singular frame.  Spectra are stored non-negative (LAPACK can give -0.0).  A failing
    evaluation, rows or spectrum raise indexed by their point in ``points``, and the
    message starts ``at point [x]: ``.  A step that is not finite and > 0 raises
    ValueError, so the sample set keeps no stencils for it.
    """
    _check_fd_step(fd_step)
    points = np.array(points, dtype=float).reshape(-1, 3)
    points.setflags(write=False)
    per_sample = 18 if body.gradient is None else 1     # per point: its F-stencils or its value
    chunk = max(1, STENCIL_PAIRS // (per_sample * samples.count))
    sv, Vh = np.zeros((len(points), 12)), np.empty((len(points), 12, 12))
    for start in range(0, len(points), chunk):
        try:
            L = _rows(body, points[start:start + chunk], samples.matrices, fd_step, samples)
            _, s, Vh[start:start + chunk] = np.linalg.svd(L, full_matrices=L.shape[-2] < 12)
            bad = ~np.isfinite(s).all(axis=-1)
            if bad.any():
                raise with_index(NonFiniteResponse(
                    "singular values of the constraint rows overflow"), (int(np.argmax(bad)),))
        except MatbodyError as exc:
            k = start + int(exc.index[0])
            exc.args, exc.index = (f"at point {points[k].tolist()}: {exc}",), (k,)
            raise
        sv[start:start + chunk, :s.shape[-1]] = np.abs(s)      # LAPACK can give -0.0
    sv.setflags(write=False)
    ranks = np.sum(sv > rank_tol * sv[:, :1], axis=1)
    out, spectra = [None] * len(points), sv.tolist()
    for rank in np.unique(ranks).tolist():
        idx = np.flatnonzero(ranks == rank)
        _, anchor_sv, Vh_anchor = np.linalg.svd(np.swapaxes(Vh[idx, rank:, :3], -1, -2))
        bases = Vh_anchor @ Vh[idx, rank:]      # (m, dim, 12) in the anchor's singular frame
        bases.setflags(write=False)
        for p, B, s in zip(idx.tolist(), bases, anchor_sv):
            gap = math.inf                      # clean: no cut, or a zero dropped value
            if 0 < rank < 12 and spectra[p][rank] != 0.0:   # a float quotient overflows to inf
                gap = spectra[p][rank - 1] / spectra[p][rank]
            out[p] = FiberBasis(points[p], B, sv[p], s, gap)
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
