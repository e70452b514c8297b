"""Material connections: linear lifts of the anchor, their curvature/torsion,
homogeneity verdicts, and flat-chart construction.

A linear section assigns to each coordinate direction e_j a matrix A(e_j)
with (e_j, A(e_j)) in the computed fiber.  It is the material connection,
with Christoffel symbols Gamma^k_ij = -A(e_j)^k_i.  Vanishing curvature and
torsion of that connection is the computable evidence for local homogeneity:
it is exactly the condition under which coordinates with identically zero
Christoffels exist, and such coordinates realize a constant section of the
material groupoid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .algebroid import DEFAULT_V_TOL, FiberBasis, UniformityResult
from .errors import LeftDomain, NonFiniteResponse, NotFlat, NotUniform, SingularMatrix
from .flows import SectionField, _rk4_step
from .grid import Grid, TrilinearField, grid_gradient
from .jets import as_point

DEFAULT_FLAT_TOL = 1e-4

_EYE = np.eye(3)


@dataclass(frozen=True, eq=False)
class LinearSectionField:
    """The material connection: per grid point, the lift v -> A(v) as lam[p, j] = A(e_j)."""

    grid: Grid
    lam: np.ndarray          # (n, 3, 3, 3)
    residuals: np.ndarray    # (n,) anchor-match residual of the lift

    def flow_field(self, direction) -> SectionField:
        """The algebroid section x -> (u, A_x(u)) for a fixed direction u, on the grid hull."""
        u = np.asarray(direction, dtype=float).reshape(3)
        a_data = self.grid.reshape(np.einsum("pjkl,j->pkl", self.lam, u))
        v_data = self.grid.reshape(np.tile(u, (self.grid.n_points, 1)))
        return SectionField.from_grid(self.grid.axes, v_data, a_data)

    @cached_property
    def gamma(self) -> np.ndarray:
        """Christoffel symbols gamma[p, k, i, j] = Gamma^k_ij = -A(e_j)^k_i."""
        return -np.transpose(self.lam, (0, 2, 3, 1))

    def lattice(self) -> np.ndarray:
        return self.grid.reshape(self.gamma)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.gamma))) if self.gamma.size else 0.0


@dataclass(frozen=True, eq=False)
class CurvatureTorsionReport:
    """Curvature and torsion of ``conn`` on its grid, and the one flatness decision."""

    conn: LinearSectionField
    flat_tol: float
    R: np.ndarray            # (n, 3, 3, 3, 3) indexed [l, k, i, j]
    T: np.ndarray            # (n, 3, 3, 3)    indexed [k, i, j]
    max_abs_R: float
    max_abs_T: float
    interior_max_abs_R: float
    interior_max_abs_T: float

    @property
    def flat(self) -> bool:
        """max|R| and max|T| both <= flat_tol: the one rule the verdict and the chart read."""
        return self.max_abs_R <= self.flat_tol and self.max_abs_T <= self.flat_tol


@dataclass(frozen=True)
class HomogeneityResult:
    verdict: str             # homogeneous_evidence | obstructed | inconclusive
    reason: str


@dataclass(frozen=True, eq=False)
class ChartField:
    """Per grid point of ``conn``: new coordinates and the parallel-transported frame."""

    conn: LinearSectionField
    x0: np.ndarray
    coords: np.ndarray       # (n, 3)
    frames: np.ndarray       # (n, 3, 3)


def minimal_lift_section(grid: Grid, fibers: Sequence[FiberBasis],
                         v_tol: float = DEFAULT_V_TOL) -> LinearSectionField:
    """Minimum-Frobenius-norm lift of each coordinate direction into the fibers.

    At each point and each j, A(e_j) is the matrix part of smallest norm among
    fiber elements with anchor part e_j; one stacked solve finds all of them.
    ``fibers`` must be those of ``grid.points`` in order (else ValueError) and of
    anchor rank 3 (else NotUniform names the first point of smaller rank).
    """
    if len(fibers) != grid.n_points or not np.array_equal([f.point for f in fibers], grid.points):
        raise ValueError("the fibers are not those of the grid points, in order")
    for p, f in enumerate(fibers):
        if f.dim < 3 or not f.anchor_sv[2] > v_tol:
            raise NotUniform(f"anchor rank < 3 at grid point {p} "
                             f"({f.point.tolist()}); no lift exists")
    # rows 0-2 are orthogonal to the anchor kernel: row j of X is e_j's least-|A| lift
    H = np.stack([f.basis[:3] for f in fibers])      # (n, 3, 12)
    X = np.linalg.solve(H[..., :3], H)
    residuals = np.max(np.abs(X[..., :3] - _EYE), axis=(-2, -1))
    return LinearSectionField(grid, X[..., 3:].reshape(-1, 3, 3, 3), residuals)


def curvature_torsion(conn: LinearSectionField,
                      flat_tol: float = DEFAULT_FLAT_TOL) -> CurvatureTorsionReport:
    """Curvature and torsion tensors of the connection on its grid.

    R^l_kij = d_i G^l_kj - d_j G^l_ki + sum_m (G^l_mi G^m_kj - G^l_mj G^m_ki),
    T^k_ij  = G^k_ij - G^k_ji.  Grid derivatives are central differences;
    lattice-boundary points use one-sided stencils, so the interior maxima
    leave them out.  The report's ``flat`` decides flatness at ``flat_tol``.
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
        conn, flat_tol,
        R.reshape((n,) + R.shape[3:]),
        T.reshape((n,) + T.shape[3:]),
        float(np.max(np.abs(R))), float(np.max(np.abs(T))),
        float(np.max(np.abs(R[interior]))), float(np.max(np.abs(T[interior]))),
    )


def homogeneity_verdict(uni: UniformityResult,
                        report: CurvatureTorsionReport) -> HomogeneityResult:
    """Decide homogeneity evidence from the tested section's flatness.

    ``uni`` is the uniformity result of the fibers the section was lifted
    from; its isotropy dims decide between obstructed and inconclusive.
    Flat and torsion-free (``report.flat``): homogeneous_evidence.  Obstructed
    only when the isotropy algebra is trivial everywhere, since then the
    material connection is unique and its obstruction is decisive.  With nontrivial isotropy an
    untested section could still be flat, so the verdict is inconclusive.
    """
    if not uni.uniform:
        raise NotUniform(f"anchor rank < 3 at grid point {uni.offending[0]}; "
                         "body is not uniform")
    if report.flat:
        verdict = "homogeneous_evidence"
        reason = f"curvature and torsion below flat_tol {report.flat_tol:g} for the minimal lift"
    elif all(d == 0 for d in uni.isotropy_dims):
        verdict = "obstructed"
        reason = "unique material connection (trivial isotropy) has nonzero torsion or curvature"
    else:
        verdict = "inconclusive"
        reason = ("tested section is obstructed but nontrivial isotropy leaves other "
                  "sections untested")
    return HomogeneityResult(verdict, reason)


def _transport_field(conn: LinearSectionField, *points) -> tuple:
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
    Leading dimensions batch legs that share the same displacement.  A frame that
    turns singular raises SingularMatrix, a state that overflows NonFiniteResponse.
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

    try:
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite state is refused below
            for k in range(n):
                state = _rk4_step(rhs, state, 1.0 / n)
    except np.linalg.LinAlgError:
        raise SingularMatrix("chart transport: the transported frame became singular") from None
    # Non-finite entries never turn finite again, so the last step shows them all.
    if not np.isfinite(state).all():
        raise NonFiniteResponse("chart transport became non-finite")
    return state


def transport_frame(conn: LinearSectionField, x0, target, order=(0, 1, 2)) -> tuple:
    """Parallel-transport a frame (and integrate the coframe) from x0 to target.

    Follows the axis-ordered polyline determined by ``order``, one leg per
    axis; ``order`` must be a permutation of (0, 1, 2), or ValueError.
    Returns (frame at target, chart coordinates of target).
    """
    order = tuple(order)
    if sorted(order) != [0, 1, 2]:
        raise ValueError(f"order must be a permutation of (0, 1, 2), not {order}")
    x0, target = as_point(x0), as_point(target)
    field, substep = _transport_field(conn, x0, target)
    state, q = np.concatenate((_EYE.ravel(), np.zeros(3))), x0
    for axis in order:
        end = np.where(np.arange(3) == axis, target, q)     # q moved to target along axis
        state = _transport_leg(field, q, end, state, substep)
        q = end
    return state[:9].reshape(3, 3), state[9:]


def build_homogeneous_chart(report: CurvatureTorsionReport, x0) -> ChartField:
    """Coordinates in which the flat torsion-free ``report.conn`` has zero Christoffels.

    Transports the identity frame from x0 and integrates the coframe along the
    axis-ordered paths of ``transport_frame`` in one sweep: the x-line through
    x0, the y-lines from its nodes, then the z-lines from theirs, each lattice
    segment integrated once.  Refuses (NotFlat) unless ``report.flat``, since
    the result would be path-dependent.
    """
    if not report.flat:
        raise NotFlat(
            f"max|R| = {report.max_abs_R:.3e}, max|T| = {report.max_abs_T:.3e} "
            f"exceed flat_tol {report.flat_tol:g}"
        )
    conn, x0 = report.conn, as_point(x0)
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
    return ChartField(conn, x0, np.ascontiguousarray(states[:, 9:]), frames)


def chart_christoffels(chart: ChartField) -> tuple:
    """Christoffel symbols of the chart's connection re-expressed in the chart.

    Uses the lattice Jacobian J of the integrated coordinates (central
    differences) and the transformation
    Gamma'^g_ab = (J^-1)^i_a (J^-1)^j_b [J^g_k Gamma^k_ij - d_j J^g_i].
    Returns (interior max-abs, full max-abs) of Gamma'.
    """
    grid = chart.conn.grid
    G = chart.conn.lattice()
    J = grid_gradient(grid, grid.reshape(chart.coords))   # [..., g, i]
    Jinv = np.linalg.inv(J)                               # [..., i, g]
    bracket = np.einsum("...gk,...kij->...gij", J, G) - grid_gradient(grid, J)
    gamma_p = np.einsum("...ia,...jb,...gij->...gab", Jinv, Jinv, bracket)
    return float(np.max(np.abs(gamma_p[grid.interior_mask()]))), float(np.max(np.abs(gamma_p)))
