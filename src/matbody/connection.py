"""Material connections: linear lifts of the anchor, their curvature/torsion,
homogeneity verdicts, and flat-chart construction.

A linear section assigns to each coordinate direction e_j a matrix A(e_j)
with (e_j, A(e_j)) in the computed fiber.  It is the material connection,
with Christoffel symbols Gamma^k_ij = -A(e_j)^k_i.  Vanishing curvature and
torsion of that connection is the computable evidence for local homogeneity:
it is exactly the condition under which coordinates with identically zero
Christoffels exist, and such coordinates realize a constant section of the
material groupoid.  Since Gamma(y) v = -A_y(v), parallel transport along a
segment is a lift flow's linear ODE; frame and chart coordinates move as one
4 x 4 state, stepped by the flows' ``rk4_propagators``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Sequence

import numpy as np

from .algebroid import DEFAULT_V_TOL, FiberBasis, UniformityResult
from .errors import LeftDomain, NonFiniteResponse, NotFlat, NotUniform, SingularMatrix
from .flows import SectionField, rk4_propagators, segment_points, stage_rates
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


def _edge_propagators(field: TrilinearField, starts, ends, substep: float) -> np.ndarray:
    """Transport propagators (..., 4, 4) along the segments starts -> ends (..., 3).

    On y = start + s v, v = end - start, Y = [[P, -P c], [0, 1]] (frame P, chart
    coordinates c) obeys Y' = C Y, C = [[-Gamma(y) v, -v], [0, 0]], for s in
    [0, 1].  A segment takes n = max|v| / substep RK4 steps, rounded up unless
    within 1e-9 of an integer, so a segment an ulp longer than a multiple of
    the substep gets no extra step.  Its 2n + 1 stage points sit at s = m / 2n
    (``flows.segment_points``), the last at ``end`` itself.  One field call and
    one ``rk4_propagators`` call serve every segment; steps past a segment's n
    have zero rates, so they are I exactly.  A zero segment is I and takes no
    step.
    """
    v = ends - starts
    props = np.zeros(v.shape[:-1] + (4, 4)) + np.eye(4)
    moving = np.any(v, axis=-1)
    if not moving.any():
        return props
    v, start, end = v[moving], starts[moving], ends[moving]
    n = np.maximum(1, np.ceil(np.max(np.abs(v), axis=-1) / substep - 1e-9)).astype(int)
    m, k = np.arange(2 * n.max() + 1), np.arange(n.max())
    y = np.where((m >= 2 * n[:, None])[..., None], end[:, None],
                 segment_points(start[:, None], v[:, None], m, n[:, None]))
    C = np.zeros(y.shape[:2] + (4, 4))
    C[..., :3, :3] = -np.einsum("smkij,sj->smki", field(y), v)
    C[..., :3, 3] = -v[:, None]
    rates = stage_rates(C)                              # (segments, steps, 4 stages, 4, 4)
    rates[k >= n[:, None]] = 0.0
    steps = rk4_propagators(rates, (1.0 / n)[:, None, None, None])
    props[moving] = reduce(lambda Y, M: M @ Y, steps.swapaxes(0, 1))
    return props


def _frames_and_coords(Y: np.ndarray) -> tuple:
    """Frames P and coordinates c = -P^-1 d of states Y = [[P, d], [0, 1]] (..., 4, 4),
    all c from one solve.  Raises NonFiniteResponse for a state or c that is not
    finite and SingularMatrix for a singular frame."""
    if not np.isfinite(Y).all():
        raise NonFiniteResponse("chart transport became non-finite")
    try:
        c = np.linalg.solve(Y[..., :3, :3], -Y[..., :3, 3:])[..., 0]
    except np.linalg.LinAlgError:
        raise SingularMatrix("chart transport: the transported frame became singular") from None
    if not np.isfinite(c).all():
        raise NonFiniteResponse("chart transport became non-finite")
    return np.ascontiguousarray(Y[..., :3, :3]), c


def transport_frame(conn: LinearSectionField, x0, target, order=(0, 1, 2)) -> tuple:
    """Parallel-transport a frame (and integrate the coframe) from x0 to target.

    Follows the axis-ordered polyline determined by ``order``, one leg per
    axis; ``order`` must be a permutation of (0, 1, 2), or ValueError.  The
    transport is the product of the legs' propagators.  Returns (frame at
    target, chart coordinates of target).
    """
    order = tuple(order)
    if sorted(order) != [0, 1, 2]:
        raise ValueError(f"order must be a permutation of (0, 1, 2), not {order}")
    x0, target = as_point(x0), as_point(target)
    field, substep = _transport_field(conn, x0, target)
    # corner i has moved the axes order[:i] to target
    corners = np.array([np.where(np.isin(np.arange(3), order[:i]), target, x0) for i in range(4)])
    with np.errstate(over="ignore", invalid="ignore"):    # a non-finite state is refused below
        legs = _edge_propagators(field, corners[:-1], corners[1:], substep)
        return _frames_and_coords(legs[2] @ (legs[1] @ legs[0]))


def build_homogeneous_chart(report: CurvatureTorsionReport, x0) -> ChartField:
    """Coordinates in which the flat torsion-free ``report.conn`` has zero Christoffels.

    Transports the identity frame and the coframe from x0 along the paths of
    ``transport_frame`` in one sweep: the x-line through x0, the y-lines from
    its nodes, then the z-lines from theirs.  Per axis, one ``_edge_propagators``
    call gives each line segment that reaches a tick on the walk out from x0,
    and a line's states are their running products.  Refuses (NotFlat) unless
    ``report.flat``, since the result would be path-dependent.
    """
    if not report.flat:
        raise NotFlat(
            f"max|R| = {report.max_abs_R:.3e}, max|T| = {report.max_abs_T:.3e} "
            f"exceed flat_tol {report.flat_tol:g}"
        )
    conn, x0 = report.conn, as_point(x0)
    field, substep = _transport_field(conn, x0)
    points, states = x0[None], np.eye(4)[None]
    with np.errstate(over="ignore", invalid="ignore"):    # a non-finite state is refused below
        for axis, ticks in enumerate(conn.grid.axes):
            # one line per current point, walking out from x0 both ways
            line = np.repeat(points[:, None], len(ticks), axis=1)
            line[:, :, axis] = ticks
            j = int(np.searchsorted(ticks, x0[axis]))           # first tick >= x0
            # each tick is reached from its neighbour toward x0, or from x0 itself
            via = np.insert(ticks, j, x0[axis])
            starts = line.copy()
            starts[:, :, axis] = np.where(np.arange(len(ticks)) >= j, via[:-1], via[1:])
            edges = _edge_propagators(field, starts, line, substep)
            line_states = np.empty_like(edges)
            for walk in (range(j, len(ticks)), range(j - 1, -1, -1)):
                s = states
                for t in walk:
                    s = line_states[:, t] = edges[:, t] @ s
            points, states = line.reshape(-1, 3), line_states.reshape(-1, 4, 4)
        frames, coords = _frames_and_coords(states)
    return ChartField(conn, x0, coords, frames)


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
