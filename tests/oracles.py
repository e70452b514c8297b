"""Independent oracles for the test suite.

Everything here is computed by a route disjoint from the library code under
test: analytic response gradients instead of finite differences, closed-form
tensor formulas instead of grid stencils, scipy's expm instead of RK4.  A few
exceptions are kept as references for faster library paths: the per-point
stencil loop (and ``opaque``, which drops a body's exact gradient, so the
fibre stage differences it), the fibre computation as it was before the response contract
was batched (it evaluates one (F, x) pair per call, so it checks the batched
stencils, not the response), ``loop_trilinear``, the trilinear interpolant
as it was before it gained a single-point path, ``loop_polynomial_response``,
the polynomial response as it was before it was computed from a power table,
``point_fibers_at``, the fibre stage as it was when it made one ``FiberBasis``
per point (on today's one row path), ``loop_minimal_lift``, the minimal lift by the pseudo-inverse of a fresh SVD
of each fiber's anchor block, ``point_solve_lift``, the library's stacked
solve one point at a time, and ``tuple_exp_trajectory``, ``tuple_chart`` and
``tuple_transport_leg``, the exponential flow, the chart sweep and its legs as
they were when RK4 carried a tuple of arrays, (y, F) or (P, c) with one solve
per stage for dc/ds = P^-1 v; the library now multiplies RK4 propagators for
both.  ``propagator_exp_trajectory`` is that flow with F advanced by one
step's propagator at a time, as the library's batched matrix pass does, and
``segment_exp_trajectory`` is the flow of a straight section by the chart's
segment rule, one step and one point at a time: stage points x + (m / 2n) t u
in place of the running sum.
``json_dumps_document`` is the report writer as it was before it gained C
fast paths.
"""

import itertools
import json
import math
from collections import Counter
from itertools import product
from typing import Callable

import numpy as np
from scipy.linalg import expm

from matbody import (Body, LeftDomain, MatbodyError, NonFiniteResponse, NotUniform, OutOfDomain,
                     StepTooLarge, evaluate)
from matbody.algebroid import STENCIL_PAIRS, FiberBasis, _rows, anchor_rank
from matbody.bodies import differenced
from matbody.errors import with_index
from matbody.connection import ChartField, _transport_field
from matbody.flows import DEFAULT_STEP, MAX_STEP, SectionField
from matbody.grid import TrilinearField
from matbody.jets import as_point

I3 = np.eye(3)

# Same weights the library's generic quartic uses; gradients below are hand
# derivations, not library calls.
C_W = 1.0 + 0.1 * (3.0 * np.arange(3)[:, None] + np.arange(3)[None, :])
W_EFF = C_W + C_W.T

E12 = np.zeros((3, 3)); E12[0, 1] = 1.0
E21 = np.zeros((3, 3)); E21[1, 0] = 1.0


def w0_value(F):
    D = F.T @ F - I3
    return float(np.sum(C_W * D * D))


def dw0(F):
    """Analytic gradient of the generic quartic: 2 F ((c + c^T) o (C - I))."""
    D = F.T @ F - I3
    return 2.0 * F @ (W_EFF * D)


def grad_isotropic(F):
    """Analytic gradient of |F^T F - I|^2: 4 F (F^T F - I)."""
    return 4.0 * F @ (F.T @ F - I3)


def analytic_rows_isotropic(Fs):
    """Stacked constraint rows of the isotropic body from analytic gradients."""
    rows = []
    for F in Fs:
        rows.append(np.concatenate([np.zeros(3), (F.T @ grad_isotropic(F)).ravel()]))
    return np.asarray(rows)


def analytic_rows_fgm(Fs, x, E):
    """Stacked rows for W(F, x) = w0(F K(x)), K = I + x1 E with E^2 = 0."""
    K = I3 + x[0] * E
    rows = []
    for F in Fs:
        g0 = dw0(F @ K)
        dWdF = g0 @ K.T
        dWdx = np.array([float(np.sum(g0 * (F @ E))), 0.0, 0.0])
        rows.append(np.concatenate([-dWdx, (F.T @ dWdF).ravel()]))
    return np.asarray(rows)


def analytic_rows_nonuniform(Fs, x):
    """Stacked rows for |F^T F - I|^2 + x1 (F11 - 1)^2."""
    rows = []
    for F in Fs:
        g = grad_isotropic(F).copy()
        g[0, 0] += 2.0 * x[0] * (F[0, 0] - 1.0)
        dWdx = np.array([(F[0, 0] - 1.0) ** 2, 0.0, 0.0])
        rows.append(np.concatenate([-dWdx, (F.T @ g).ravel()]))
    return np.asarray(rows)


def kernel_of(rows, rank_tol=1e-6):
    """(dim, nullspace rows, singular values) of a stacked constraint matrix."""
    _, sv, Vh = np.linalg.svd(rows)
    rank = int(np.sum(sv > rank_tol * sv[0]))
    return rows.shape[1] - rank, Vh[rank:], sv


def anchor_rank_of(nullspace_rows, tol=1e-8):
    if nullspace_rows.shape[0] == 0:
        return 0
    sv = np.linalg.svd(nullspace_rows[:, :3], compute_uv=False)
    return int(np.sum(sv > tol))


def matrix_exp(A):
    """Scaling-and-squaring matrix exponential (scipy), independent of RK4."""
    return expm(A)


def random_rotation(rng):
    """Rotation from a random skew generator via expm."""
    s = rng.uniform(-1.0, 1.0, 3)
    S = np.array([[0, -s[2], s[1]], [s[2], 0, -s[0]], [-s[1], s[0], 0.0]])
    return expm(S)


def random_invertible(rng, lo=-2.0, hi=2.0, min_det=0.1):
    while True:
        M = rng.uniform(lo, hi, (3, 3))
        if abs(np.linalg.det(M)) >= min_det:
            return M


def matrix_stack_layouts(F):
    """A stack F (..., 3, 3) held contiguous, broadcast along its first axis, and strided.

    The strided copies equal F: every other entry of a doubled stack, and a
    transposed (Fortran-ordered) view of F^T.
    """
    F = np.ascontiguousarray(F)
    return {
        "contiguous": F,
        "broadcast": np.broadcast_to(F[:1], F.shape),
        "every_other": np.repeat(F, 2, axis=0)[::2],
        "fortran": np.swapaxes(np.ascontiguousarray(np.swapaxes(F, -1, -2)), -1, -2),
    }


def curvature_formula(gamma_fn, dgamma_fn, x):
    """Direct evaluation of the coordinate curvature formula at a point.

    gamma_fn(x)[k, i, j] and dgamma_fn(x)[a, k, i, j] = d_a Gamma^k_ij must be
    analytic; all 81 index combinations are assembled by explicit loops.
    """
    G = gamma_fn(x)
    dG = dgamma_fn(x)
    R = np.zeros((3, 3, 3, 3))
    for l in range(3):
        for k in range(3):
            for i in range(3):
                for j in range(3):
                    val = dG[i, l, k, j] - dG[j, l, k, i]
                    for m in range(3):
                        val += G[l, m, i] * G[m, k, j] - G[l, m, j] * G[m, k, i]
                    R[l, k, i, j] = val
    return R


def torsion_formula(gamma_fn, x):
    G = gamma_fn(x)
    T = np.zeros((3, 3, 3))
    for k in range(3):
        for i in range(3):
            for j in range(3):
                T[k, i, j] = G[k, i, j] - G[k, j, i]
    return T


# ---------------------------------------------------------------------------
# Per-point reference for the batched fibre stage: one evaluate call per
# stencil pair, one SVD per point.
# ---------------------------------------------------------------------------

def loop_response_gradients(body, x, F, fd_step=1e-5):
    """Central-difference gradients (dW/dF, dW/dx) of shape (3, 3) and (3,).

    The x-stencil must stay inside the body's box; the F-stencil has no such
    restriction.
    """
    x = as_point(x)
    if not (np.all(x >= body.lo + fd_step) and np.all(x <= body.hi - fd_step)):
        raise OutOfDomain(
            f"x = {x.tolist()} closer than fd_step {fd_step:g} to the domain boundary"
        )
    F = np.asarray(F, dtype=float)
    dWdF = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            Fp = F.copy(); Fp[i, j] += fd_step
            Fm = F.copy(); Fm[i, j] -= fd_step
            dWdF[i, j] = (evaluate(body, Fp, x) - evaluate(body, Fm, x)) / (2 * fd_step)
    dWdx = np.zeros(3)
    for k in range(3):
        xp = x.copy(); xp[k] += fd_step
        xm = x.copy(); xm[k] -= fd_step
        dWdx[k] = (evaluate(body, F, xp) - evaluate(body, F, xm)) / (2 * fd_step)
    return dWdF, dWdx


def opaque(body):
    """The body without its exact gradient: the fibre stage differences it (``differenced``)."""
    return Body(body.name, body.lo, body.hi, body.response)


def loop_constraint_rows(body, x, F, fd_step=1e-5):
    """The 12-row linearized membership constraint at (F, x).

    Applied to [v | A] it is <dW/dF, F A> - <dW/dx, v>; the A-block
    coefficients are therefore F^T dW/dF (row-major) and the v-block is
    -dW/dx.
    """
    dWdF, dWdx = loop_response_gradients(body, x, F, fd_step)
    F = np.asarray(F, dtype=float)
    return np.concatenate([-dWdx, (F.T @ dWdF).ravel()])


def loop_fiber(body, x, matrices, rank_tol=1e-6, fd_step=1e-5):
    """(fiber dim, singular values) of the per-point stacked constraints at x."""
    L = np.vstack([loop_constraint_rows(body, x, F, fd_step) for F in matrices])
    _, sv, _ = np.linalg.svd(L)
    rank = int(np.sum(sv > rank_tol * sv[0])) if sv[0] > 0 else 0
    return 12 - rank, sv


def point_fibers_at(body, points, samples, rank_tol=1e-6, fd_step=1e-5):
    """The fibre stage as it was before the ``Fibers`` table: a list of one
    ``FiberBasis`` per point, each gap a quotient of Python floats, verbatim
    but for its name, the library names it reads and the one row path's entry
    and chunk rule."""
    body = body if body.gradient is not None else differenced(body, fd_step)
    points = np.array(points, dtype=float).reshape(-1, 3)
    points.setflags(write=False)
    chunk = max(1, STENCIL_PAIRS // samples.count)
    out = [None] * len(points)
    for start in range(0, len(points), chunk):
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
        sv = np.zeros((len(s), 12))
        sv[:, :s.shape[-1]] = np.abs(s)         # LAPACK can give -0.0
        sv.setflags(write=False)
        ranks = np.sum(sv > rank_tol * sv[:, :1], axis=1)
        spectra = sv.tolist()
        for rank in np.unique(ranks).tolist():
            idx = np.flatnonzero(ranks == rank)
            _, anchor_sv, Vh_anchor = np.linalg.svd(np.swapaxes(Vh[idx, rank:, :3], -1, -2))
            bases = Vh_anchor @ Vh[idx, rank:]      # (m, dim, 12) in the anchor's singular frame
            bases.setflags(write=False)
            for p, B, a in zip(idx.tolist(), bases, anchor_sv):
                gap = math.inf                      # clean: no cut, or a zero dropped value
                if 0 < rank < 12 and spectra[p][rank] != 0.0:   # a float quotient overflows to inf
                    gap = spectra[p][rank - 1] / spectra[p][rank]
                out[start + p] = FiberBasis(points[start + p], B, sv[p], a, gap)
    return out


def gap_at_cut(singular_values, dim):
    """Smallest kept over largest dropped singular value at rank 12 - dim, on Python
    floats; inf with no cut (rank 0 or 12) or a zero dropped value.  A quotient past
    the float range is inf too, as Python float division makes it."""
    rank, sv = 12 - dim, [float(s) for s in singular_values]
    if rank in (0, 12) or sv[rank] == 0.0:
        return math.inf
    return sv[rank - 1] / sv[rank]


# kept over dropped singular value past the float range at some points
WIDE_GAP_TERMS = [[[0, 0, 1, 0, 0, 1, 0, 1, 0, 0, 0, 1], 1e-8],
                  [[0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 1, 0], 1e300]]


def isotropic_polynomial_terms():
    """|F^T F - I|^2 as ([12 exponents], coeff) monomials over (F row-major, x): 46 terms.

    Expands sum_ij (C_ij - delta_ij)^2 with C_ij = sum_k F_ki F_kj by collecting
    exponent vectors; the 46 monomials are what a user would write out by hand.
    """
    total = Counter()
    for i, j in product(range(3), repeat=2):
        entry = Counter()                        # C_ij - delta_ij
        for k in range(3):
            e = [0] * 12
            e[3 * k + i] += 1
            e[3 * k + j] += 1
            entry[tuple(e)] += 1.0
        if i == j:
            entry[(0,) * 12] -= 1.0
        for (a, ca), (b, cb) in product(entry.items(), repeat=2):
            total[tuple(p + q for p, q in zip(a, b))] += ca * cb
    return [[list(m), c] for m, c in sorted(total.items()) if c != 0.0]


# ---------------------------------------------------------------------------
# Reference for TrilinearField: the batched interpolant, one code path for
# every input shape.
# ---------------------------------------------------------------------------

def loop_trilinear(axes, values, x):
    """Trilinear interpolant of lattice data ``values`` on ``axes`` at points (..., 3)."""
    values = np.asarray(values, dtype=float)
    axes = tuple(np.asarray(a, dtype=float) for a in axes)
    lo, hi = np.array([(a[0], a[-1]) for a in axes]).T
    flat = values.reshape(values.shape[:3] + (-1,))
    p = np.asarray(x, dtype=float)
    if not bool(np.all(p >= lo) and np.all(p <= hi)):
        raise LeftDomain(f"point {p.tolist()} outside grid hull")
    cells, weights = [], []
    for a, q in zip(axes, np.moveaxis(p, -1, 0)):
        # points on the upper hull face fall in the last cell
        i = np.minimum(np.searchsorted(a, q, side="right") - 1, len(a) - 2)
        t = ((q - a[i]) / (a[i + 1] - a[i]))[..., None]
        cells.append(i)
        weights.append((1.0 - t, t))
    (i, j, k), (wi, wj, wk) = cells, weights
    out = 0.0
    for di, dj, dk in itertools.product((0, 1), repeat=3):
        out = out + wi[di] * wj[dj] * wk[dk] * flat[i + di, j + dj, k + dk]
    return out.reshape(p.shape[:-1] + values.shape[3:])


# ---------------------------------------------------------------------------
# References for the polynomial response as it was before the power-table
# kernel, and for the minimal lift: the pseudo-inverse formula and a per-point
# solve.
# ---------------------------------------------------------------------------

def loop_polynomial_response(terms, F, x):
    """Polynomial response with one fancy-index copy, pow and prod per term."""
    parsed = []
    for exps, coeff in terms:
        exps = np.array(exps, dtype=int).reshape(12)
        parsed.append((np.flatnonzero(exps), exps[exps > 0], float(coeff)))
    shape = np.broadcast_shapes(F.shape[:-2], x.shape[:-1])
    z = np.concatenate([np.broadcast_to(F, shape + (3, 3)).reshape(shape + (9,)),
                        np.broadcast_to(x, shape + (3,))], axis=-1)
    acc = 0.0
    for vars_, exps, coeff in parsed:      # factors z^0 = 1 are skipped
        acc = acc + coeff * np.prod(z[..., vars_] ** exps, axis=-1)
    return acc


def _refuse_rank_below_3(p, f, rank):
    if rank < 3:
        raise NotUniform(f"anchor rank < 3 at grid point {p} ({f.point.tolist()}); no lift exists")


def loop_minimal_lift(fibers, v_tol=1e-8):
    """(lam, residuals) of the minimal lift, one point at a time, by the pseudo-inverse
    of the anchor block Bv^T (3 x k) from its own SVD, in whatever order the basis is."""
    n = len(fibers)
    lam = np.zeros((n, 3, 3, 3))
    residuals = np.zeros(n)
    for p, f in enumerate(fibers):
        B = f.basis                              # (k, 12), orthonormal rows
        Bv, Ba = B[:, :3], B[:, 3:]
        U, sv, Vh = np.linalg.svd(Bv.T)
        rank = int(np.sum(sv > v_tol))
        _refuse_rank_below_3(p, f, rank)
        C = Vh[:rank].T @ (U[:, :rank].T / sv[:rank, None])   # column j solves e_j
        lam[p] = (Ba.T @ C).T.reshape(3, 3, 3)
        residuals[p] = float(np.max(np.abs(Bv.T @ C - I3)))
    return lam, residuals


def point_solve_lift(fibers, v_tol=1e-8):
    """(lam, residuals) of the minimal lift by the library's solve, one point at a time."""
    n = len(fibers)
    lam = np.zeros((n, 3, 3, 3))
    residuals = np.zeros(n)
    for p, f in enumerate(fibers):
        _refuse_rank_below_3(p, f, anchor_rank(f, v_tol))
        H = f.basis[:3]
        X = np.linalg.solve(H[:, :3], H)
        lam[p] = X[:, 3:].reshape(3, 3, 3)
        residuals[p] = float(np.max(np.abs(X[:, :3] - I3)))
    return lam, residuals


# ---------------------------------------------------------------------------
# References for the single-array RK4 state: the tuple-of-arrays RK4, the
# exponential flow and the transport leg that used it, and the chart sweep
# over those legs, verbatim but for their names.
# ---------------------------------------------------------------------------

def tuple_rk4_step(rhs: Callable, state: tuple, dt: float) -> tuple:
    """One classical RK4 step of d(state)/dt = rhs(c, state) for a tuple of arrays.

    ``c`` is the stage's fraction of the step (0, 1/2 or 1), for a time-dependent rhs.
    """
    k1 = rhs(0.0, state)
    k2 = rhs(0.5, tuple(x + 0.5 * dt * d for x, d in zip(state, k1)))
    k3 = rhs(0.5, tuple(x + 0.5 * dt * d for x, d in zip(state, k2)))
    k4 = rhs(1.0, tuple(x + dt * d for x, d in zip(state, k3)))
    return tuple(x + (dt / 6.0) * (a + 2 * b + 2 * c + d)
                 for x, a, b, c, d in zip(state, k1, k2, k3, k4))


def tuple_exp_trajectory(section: SectionField, t: float, x,
                         step: float = DEFAULT_STEP, propagator: bool = False) -> list:
    """Record the exponential flow: one (t_k, y_k, F_k) tuple per RK4 step.

    exp_section returns the jet of the final record.  Raises LeftDomain when y
    leaves the section's hull and NonFiniteResponse when F overflows.  With
    ``propagator`` each step takes RK4 from (y, I) to (y', M) and sets F = M F:
    the same y, and the same F in exact arithmetic, since dF/dt = A(y) F is linear.
    """
    if step > MAX_STEP:
        raise StepTooLarge(f"step {step:g} > {MAX_STEP:g}")
    x = as_point(x)
    y, F = x.copy(), np.eye(3)
    records = [(0.0, y, F)]
    if t == 0.0:
        return records
    n = max(1, math.ceil(abs(t) / step))
    dt = t / n

    def rhs(_c, state):
        v, A = section.value(state[0])
        return v, A @ state[1]

    with np.errstate(over="ignore", invalid="ignore"):    # a non-finite F is refused below
        for k in range(1, n + 1):
            if propagator:
                y, M = tuple_rk4_step(rhs, (y, I3), dt)
                F = M @ F
            else:
                y, F = tuple_rk4_step(rhs, (y, F), dt)
            if not section.box.contains(y):
                raise LeftDomain(f"trajectory exited the domain at {y.tolist()}")
            records.append((k * dt, y, F))      # _rk4_step returns new arrays
    # Non-finite entries never turn finite again, so the last step shows them all.
    if not np.isfinite(F).all():
        raise NonFiniteResponse(f"exponential flow became non-finite by t = {t:g}")
    return records


def propagator_exp_trajectory(section: SectionField, t: float, x,
                              step: float = DEFAULT_STEP) -> list:
    """``tuple_exp_trajectory`` with F advanced by each step's propagator M: F = M F."""
    return tuple_exp_trajectory(section, t, x, step, propagator=True)


def segment_exp_trajectory(section: SectionField, t: float, x,
                           step: float = DEFAULT_STEP) -> list:
    """The exponential flow of a section of constant velocity by the segment rule, one
    step and one point at a time.

    u is the section's velocity at x.  With v = t u and n = |t| / step steps rounded
    up, step k (from 1) takes A at x + (m / 2n) v for m = 2k - 2, 2k - 1, 2k - 1 and 2k,
    one ``section.value`` call per point, records y_k = x + (2k / 2n) v, so the last y
    is x + v, and sets F = M F with M the step's RK4 propagator from I.  The first point
    outside the section's domain raises the section's own LeftDomain.
    """
    if step > MAX_STEP:
        raise StepTooLarge(f"step {step:g} > {MAX_STEP:g}")
    x = as_point(x)
    F = I3
    records = [(0.0, x, F)]
    if t == 0.0:
        return records
    n = max(1, math.ceil(abs(t) / step))
    dt = t / n
    v = t * section.value(x)[0]

    def point(m):
        return x + (m / (2 * n)) * v

    with np.errstate(over="ignore", invalid="ignore"):    # a non-finite F is refused below
        for k in range(1, n + 1):
            a, b, c = (section.value(point(m))[1] for m in (2 * k - 2, 2 * k - 1, 2 * k))
            stages = iter([a, b, b, c])
            (M,) = tuple_rk4_step(lambda _c, state: (next(stages) @ state[0],), (I3,), dt)
            F = M @ F
            records.append((k * dt, point(2 * k), F))
    if not np.isfinite(F).all():
        raise NonFiniteResponse(f"exponential flow became non-finite by t = {t:g}")
    return records


def tuple_transport_leg(field: TrilinearField, start, end, P, c, substep: float) -> tuple:
    """Transport frames P and integrate chart coordinates c along start -> end.

    Solves dP/ds = -Gamma(y, v) P, dc/ds = P^-1 v on y = start + s v, v = end - start,
    with n >= 1 RK4 steps: max|v| / substep rounded up, or to the nearest integer
    when within 1e-9 of it, so that a lattice segment an ulp longer than a multiple
    of the substep gets no extra step.  Stages sit at s = (k + frac)/n,
    not at a running sum, and the last at ``end`` itself, so none leaves the segment.
    A zero displacement returns (P, c) without a step.
    Leading dimensions batch legs that share the same displacement.
    """
    v = end - start
    if not np.any(v):
        return P, c
    n = max(1, math.ceil(float(np.max(np.abs(v))) / substep - 1e-9))

    def rhs(frac, state):
        s = (k + frac) / n                  # k is the step of the loop below
        Gv = np.einsum("...kij,...j->...ki", field(end if s == 1.0 else start + s * v), v)
        return -Gv @ state[0], np.linalg.solve(state[0], v[..., None])[..., 0]

    for k in range(n):
        P, c = tuple_rk4_step(rhs, (P, c), 1.0 / n)
    return P, c


def tuple_chart(conn, x0) -> ChartField:
    """The chart sweep of build_homogeneous_chart over tuple_transport_leg, no flatness check."""
    x0 = as_point(x0)
    field, substep = _transport_field(conn, x0)
    points, frames, coords = x0[None], np.eye(3)[None], np.zeros((1, 3))
    for axis, ticks in enumerate(conn.grid.axes):
        # one line per current point; all lines walk out from x0 leg by leg together
        line = np.repeat(points[:, None], len(ticks), axis=1)
        line[:, :, axis] = ticks
        line_P, line_c = np.empty(line.shape + (3,)), np.empty(line.shape)
        j = int(np.searchsorted(ticks, x0[axis]))           # first tick >= x0
        for walk in (range(j, len(ticks)), range(j - 1, -1, -1)):
            q, P, c = points, frames, coords
            for i in walk:
                P, c = tuple_transport_leg(field, q, line[:, i], P, c, substep)
                q, line_P[:, i], line_c[:, i] = line[:, i], P, c
        points, frames, coords = (a.reshape((-1,) + a.shape[2:]) for a in (line, line_P, line_c))
    return ChartField(conn, x0, coords, frames)


def json_dumps_document(doc) -> bytes:
    """A structured document's bytes as json's indented encoder writes them."""
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")
