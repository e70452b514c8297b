"""Material connections: linear lifts of the anchor, their Christoffel symbols,
curvature/torsion, homogeneity verdicts, and flat-chart construction.

A linear section assigns to each coordinate direction e_j a matrix A(e_j)
with (e_j, A(e_j)) in the computed fiber; its Christoffel symbols are
Gamma^k_ij = -A(e_j)^k_i.  Vanishing curvature and torsion of that connection
is the computable evidence for local homogeneity: it is exactly the condition
under which coordinates with identically zero Christoffels exist, and such
coordinates realize a constant section of the material groupoid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebroid import DEFAULT_V_TOL, FiberBasis, UniformityResult, anchor_rank
from .errors import LeftDomain, NotFlat, NotUniform
from .flows import SectionField, _rk4_step
from .grid import Grid, TrilinearField, grid_gradient
from .jets import as_point

DEFAULT_FLAT_TOL = 1e-4

_EYE = np.eye(3)


@dataclass(frozen=True, eq=False)
class LinearSectionField:
    """Per grid point, the lift v -> A(v) stored as lam[p, j] = A(e_j)."""

    grid: Grid
    lam: np.ndarray          # (n, 3, 3, 3)
    residuals: np.ndarray    # (n,) anchor-match residual of the lift

    def flow_field(self, direction) -> SectionField:
        """The algebroid section x -> (u, A_x(u)) for a fixed direction u, on the grid hull."""
        u = np.asarray(direction, dtype=float).reshape(3)
        a_data = self.grid.reshape(np.einsum("pjkl,j->pkl", self.lam, u))
        v_data = self.grid.reshape(np.tile(u, (self.grid.n_points, 1)))
        return SectionField.from_grid(self.grid.axes, v_data, a_data)


@dataclass(frozen=True, eq=False)
class ConnectionField:
    """Christoffel symbols gamma[p, k, i, j] on a grid."""

    grid: Grid
    gamma: np.ndarray        # (n, 3, 3, 3)

    def lattice(self) -> np.ndarray:
        return self.grid.reshape(self.gamma)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.gamma))) if self.gamma.size else 0.0


@dataclass(frozen=True, eq=False)
class CurvatureTorsionReport:
    grid: Grid
    R: np.ndarray            # (n, 3, 3, 3, 3) indexed [l, k, i, j]
    T: np.ndarray            # (n, 3, 3, 3)    indexed [k, i, j]
    max_abs_R: float
    max_abs_T: float
    interior_max_abs_R: float
    interior_max_abs_T: float


@dataclass(frozen=True)
class HomogeneityResult:
    verdict: str             # homogeneous_evidence | obstructed | inconclusive
    reason: str


@dataclass(frozen=True, eq=False)
class ChartField:
    """Per grid point: new coordinates and the parallel-transported frame."""

    grid: Grid
    x0: np.ndarray
    coords: np.ndarray       # (n, 3)
    frames: np.ndarray       # (n, 3, 3)


def minimal_lift_section(grid: Grid, fibers: Sequence[FiberBasis],
                         v_tol: float = DEFAULT_V_TOL) -> LinearSectionField:
    """Minimum-Frobenius-norm lift of each coordinate direction into the fibers.

    At each point and each j, A(e_j) is the matrix part of smallest norm among
    fiber elements with anchor part e_j.  Requires anchor rank 3 everywhere.
    Points of one fiber dim are solved together in stacked matmuls.
    """
    lam, residuals = np.zeros((grid.n_points, 3, 3, 3)), np.zeros(grid.n_points)
    dims = np.array([f.dim for f in fibers])
    for dim in np.unique(dims).tolist():
        idx = np.flatnonzero(dims == dim)
        group = [fibers[p] for p in idx.tolist()]
        U, sv, Vh = (np.stack(a) for a in zip(*(f.anchor_svd for f in group)))
        if np.any(np.sum(sv > v_tol, axis=1) < 3):
            p = next(p for p, f in enumerate(fibers) if anchor_rank(f, v_tol) < 3)
            raise NotUniform(f"anchor rank < 3 at grid point {p} "
                             f"({fibers[p].point.tolist()}); no lift exists")
        B = np.stack([f.basis for f in group])  # (m, k, 12), orthonormal rows
        Bv, Ba = np.swapaxes(B[..., :3], -1, -2), np.swapaxes(B[..., 3:], -1, -2)
        # Orthonormal rows give |c|^2 = |Bv c|^2 + |Ba c|^2, so among the
        # solutions of Bv c = e_j the minimum-norm one minimizes |A(e_j)|.
        # U, sv, Vh decompose Bv (3 x k); column j of C solves e_j.
        C = np.swapaxes(Vh[:, :3], -1, -2) @ (np.swapaxes(U, -1, -2) / sv[:, :, None])
        lam[idx] = np.swapaxes(Ba @ C, -1, -2).reshape(-1, 3, 3, 3)
        residuals[idx] = np.max(np.abs(Bv @ C - _EYE), axis=(-2, -1))
    return LinearSectionField(grid, lam, residuals)


def christoffels(section: LinearSectionField) -> ConnectionField:
    """Gamma^k_ij = -A(e_j)^k_i, pointwise."""
    gamma = -np.transpose(section.lam, (0, 2, 3, 1))
    return ConnectionField(section.grid, gamma)


def curvature_torsion(conn: ConnectionField) -> CurvatureTorsionReport:
    """Curvature and torsion tensors of the connection on its grid.

    R^l_kij = d_i G^l_kj - d_j G^l_ki + sum_m (G^l_mi G^m_kj - G^l_mj G^m_ki),
    T^k_ij  = G^k_ij - G^k_ji.  Grid derivatives are central differences;
    lattice-boundary points use one-sided stencils, so the interior maxima
    leave them out.
    """
    grid = conn.grid
    G = conn.lattice()                                   # (nx,ny,nz,3,3,3)
    dG = grid_gradient(grid, G)                           # [..., l, k, j, i] = d_i G^l_kj
    R = np.swapaxes(dG, -1, -2) - dG
    R += np.einsum("...lmi,...mkj->...lkij", G, G)
    R -= np.einsum("...lmj,...mki->...lkij", G, G)
    T = G - np.swapaxes(G, -2, -1)

    interior = grid.interior_mask()          # never empty: grid_gradient needs 3 points per axis
    n = grid.n_points
    return CurvatureTorsionReport(
        grid,
        R.reshape((n,) + R.shape[3:]),
        T.reshape((n,) + T.shape[3:]),
        float(np.max(np.abs(R))), float(np.max(np.abs(T))),
        float(np.max(np.abs(R[interior]))), float(np.max(np.abs(T[interior]))),
    )


def homogeneity_verdict(uni: UniformityResult,
                        report: CurvatureTorsionReport,
                        flat_tol: float = DEFAULT_FLAT_TOL) -> HomogeneityResult:
    """Decide homogeneity evidence from the tested section's flatness.

    ``uni`` is the uniformity result of the fibers the section was lifted
    from; its isotropy dims decide between obstructed and inconclusive.
    Flat and torsion-free: homogeneous_evidence.  Obstructed only when the
    isotropy algebra is trivial everywhere, since then the material connection
    is unique and its obstruction is decisive.  With nontrivial isotropy an
    untested section could still be flat, so the verdict is inconclusive.
    """
    if not uni.uniform:
        raise NotUniform(f"anchor rank < 3 at grid point {uni.offending[0]}; "
                         "body is not uniform")
    if report.max_abs_R <= flat_tol and report.max_abs_T <= flat_tol:
        verdict = "homogeneous_evidence"
        reason = f"curvature and torsion below flat_tol {flat_tol:g} for the minimal lift"
    elif all(d == 0 for d in uni.isotropy_dims):
        verdict = "obstructed"
        reason = "unique material connection (trivial isotropy) has nonzero torsion or curvature"
    else:
        verdict = "inconclusive"
        reason = ("tested section is obstructed but nontrivial isotropy leaves other "
                  "sections untested")
    return HomogeneityResult(verdict, reason)


def _transport_field(conn: ConnectionField, *points) -> tuple:
    """Interpolated Christoffels and the RK4 substep, min spacing / 4."""
    field = TrilinearField(conn.grid.axes, conn.lattice())
    if not all(field.box.contains(p) for p in points):
        raise LeftDomain("transport endpoints must lie in the grid hull")
    return field, float(np.min(conn.grid.spacing)) / 4.0


def _transport_leg(field: TrilinearField, start, end, state, substep: float) -> np.ndarray:
    """Transport frames P and integrate chart coordinates c along start -> end.

    ``state`` holds (P row-major | c) on its last axis, 12 entries.
    Solves dP/ds = -Gamma(y, v) P, dc/ds = P^-1 v on y = start + s v, v = end - start,
    with n >= 1 RK4 steps: max|v| / substep rounded up, or to the nearest integer
    when within 1e-9 of it, so that a lattice segment an ulp longer than a multiple
    of the substep gets no extra step.  Stages sit at s = (k + frac)/n,
    not at a running sum, and the last at ``end`` itself, so none leaves the segment.
    Gamma depends on s alone, so its 2n + 1 distinct stage values (the two
    midpoint stages share one, and a step's last stage is the next one's first)
    come from one field call.  A zero displacement returns ``state`` without a step.
    Leading dimensions batch legs that share the same displacement.
    """
    v = end - start
    if not np.any(v):
        return state
    n = max(1, math.ceil(float(np.max(np.abs(v))) / substep - 1e-9))
    lead = state.shape[:-1]
    # row m at s = m / 2n, the same float as (k + frac)/n; the last row is ``end``
    G = field(np.stack([start + m / (2 * n) * v for m in range(2 * n)] + [end]))

    def rhs(frac, state):
        # k is the step of the loop below
        Gv = np.einsum("...kij,...j->...ki", G[2 * k + int(2 * frac)], v)
        P = state[..., :9].reshape(lead + (3, 3))
        return np.concatenate(((-Gv @ P).reshape(lead + (9,)),
                               np.linalg.solve(P, v[..., None])[..., 0]), axis=-1)

    for k in range(n):
        state = _rk4_step(rhs, state, 1.0 / n)
    return state


def transport_frame(conn: ConnectionField, x0, target, order=(0, 1, 2)) -> tuple:
    """Parallel-transport a frame (and integrate the coframe) from x0 to target.

    Follows the axis-ordered polyline determined by ``order``, one leg per
    axis.  Returns (frame at target, chart coordinates of target).
    """
    x0, target = as_point(x0), as_point(target)
    field, substep = _transport_field(conn, x0, target)
    state, q = np.concatenate((_EYE.ravel(), np.zeros(3))), x0
    for axis in order:
        end = np.where(np.arange(3) == axis, target, q)     # q moved to target along axis
        state = _transport_leg(field, q, end, state, substep)
        q = end
    return state[:9].reshape(3, 3), state[9:]


def build_homogeneous_chart(conn: ConnectionField, x0,
                            flat_tol: float = DEFAULT_FLAT_TOL) -> ChartField:
    """Coordinates in which a flat torsion-free connection has zero Christoffels.

    Transports the identity frame from x0 and integrates the coframe along the
    axis-ordered paths of ``transport_frame`` in one sweep: the x-line through
    x0, the y-lines from its nodes, then the z-lines from theirs, each lattice
    segment integrated once.  Refuses (NotFlat) when curvature or torsion
    exceeds flat_tol, since the result would be path-dependent.
    """
    report = curvature_torsion(conn)
    if report.max_abs_R > flat_tol or report.max_abs_T > flat_tol:
        raise NotFlat(
            f"max|R| = {report.max_abs_R:.3e}, max|T| = {report.max_abs_T:.3e} "
            f"exceed flat_tol {flat_tol:g}"
        )
    x0 = as_point(x0)
    field, substep = _transport_field(conn, x0)
    points, states = x0[None], np.concatenate((_EYE.ravel(), np.zeros(3)))[None]
    for axis, ticks in enumerate(conn.grid.axes):
        # one line per current point; all lines walk out from x0 leg by leg together
        line = np.repeat(points[:, None], len(ticks), axis=1)
        line[:, :, axis] = ticks
        line_states = np.empty(line.shape[:-1] + (12,))
        j = int(np.searchsorted(ticks, x0[axis]))           # first tick >= x0
        for walk in (range(j, len(ticks)), range(j - 1, -1, -1)):
            q, s = points, states
            for i in walk:
                s = _transport_leg(field, q, line[:, i], s, substep)
                q, line_states[:, i] = line[:, i], s
        points, states = line.reshape(-1, 3), line_states.reshape(-1, 12)
    frames = np.ascontiguousarray(states[:, :9]).reshape(-1, 3, 3)
    return ChartField(conn.grid, x0, np.ascontiguousarray(states[:, 9:]), frames)


def chart_christoffels(conn: ConnectionField, chart: ChartField) -> tuple:
    """Christoffel symbols of the connection re-expressed in the chart.

    Uses the lattice Jacobian J of the integrated coordinates (central
    differences) and the transformation
    Gamma'^g_ab = (J^-1)^i_a (J^-1)^j_b [J^g_k Gamma^k_ij - d_j J^g_i].
    Returns (interior max-abs, full max-abs) of Gamma'.
    """
    grid = conn.grid
    G = conn.lattice()
    J = grid_gradient(grid, grid.reshape(chart.coords))   # [..., g, i]
    Jinv = np.linalg.inv(J)                               # [..., i, g]
    bracket = np.einsum("...gk,...kij->...gij", J, G) - grid_gradient(grid, J)
    gamma_p = np.einsum("...ia,...jb,...gij->...gab", Jinv, Jinv, bracket)
    return float(np.max(np.abs(gamma_p[grid.interior_mask()]))), float(np.max(np.abs(gamma_p)))
