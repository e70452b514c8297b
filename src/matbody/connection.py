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

from .algebroid import DEFAULT_V_TOL, FiberBasis, anchor_rank, uniformity_verdict
from .errors import GridTooSmall, LeftDomain, NotFlat, NotUniform
from .flows import SectionField
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
    boundary_mask: np.ndarray  # (n,) True where one-sided differences were used


@dataclass(frozen=True)
class HomogeneityResult:
    verdict: str             # homogeneous_evidence | obstructed | inconclusive
    max_abs_R: float
    max_abs_T: float
    isotropy_dims: tuple
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
    """
    n = grid.n_points
    lam = np.zeros((n, 3, 3, 3))
    residuals = np.zeros(n)
    for p, f in enumerate(fibers):
        rank = anchor_rank(f, v_tol)
        if rank < 3:
            raise NotUniform(
                f"anchor rank < 3 at grid point {p} ({f.point.tolist()}); no lift exists"
            )
        B = f.basis_matrix()                     # (k, 12), orthonormal rows
        Bv, Ba = B[:, :3], B[:, 3:]
        # coefficient space: solve Bv^T c = e_j, minimize |Ba^T c|
        U, sv, Vh = f.anchor_svd                 # of Bv^T, 3 x k
        null = Vh[rank:].T                       # (k, k - rank)
        worst = 0.0
        for j in range(3):
            e = _EYE[j]
            c0 = Vh[:rank].T @ ((U.T @ e)[:rank] / sv[:rank])
            if null.shape[1]:
                beta, *_ = np.linalg.lstsq(Ba.T @ null, -(Ba.T @ c0), rcond=None)
                c = c0 + null @ beta
            else:
                c = c0
            lam[p, j] = (Ba.T @ c).reshape(3, 3)
            worst = max(worst, float(np.max(np.abs(Bv.T @ c - e))))
        residuals[p] = worst
    return LinearSectionField(grid, lam, residuals)


def christoffels(section: LinearSectionField) -> ConnectionField:
    """Gamma^k_ij = -A(e_j)^k_i, pointwise."""
    gamma = -np.transpose(section.lam, (0, 2, 3, 1))
    return ConnectionField(section.grid, gamma)


def curvature_torsion(conn: ConnectionField) -> CurvatureTorsionReport:
    """Curvature and torsion tensors of the connection on its grid.

    R^l_kij = d_i G^l_kj - d_j G^l_ki + sum_m (G^l_mi G^m_kj - G^l_mj G^m_ki),
    T^k_ij  = G^k_ij - G^k_ji.  Grid derivatives are central differences;
    lattice-boundary points use one-sided stencils and are flagged.
    """
    grid = conn.grid
    if min(grid.shape) < 3:
        raise GridTooSmall(f"curvature needs >= 3 points per axis, got {grid.shape}")
    G = conn.lattice()                                   # (nx,ny,nz,3,3,3)
    dG = grid_gradient(grid, G)
    R = np.zeros(G.shape[:3] + (3, 3, 3, 3))
    for i in range(3):
        for j in range(3):
            R[..., :, :, i, j] = dG[i][..., :, :, j] - dG[j][..., :, :, i]
    R += np.einsum("...lmi,...mkj->...lkij", G, G)
    R -= np.einsum("...lmj,...mki->...lkij", G, G)
    T = G - np.swapaxes(G, -2, -1)

    interior = grid.interior_mask()
    max_R = float(np.max(np.abs(R)))
    max_T = float(np.max(np.abs(T)))
    int_R = float(np.max(np.abs(R[interior]))) if interior.any() else max_R
    int_T = float(np.max(np.abs(T[interior]))) if interior.any() else max_T
    n = grid.n_points
    return CurvatureTorsionReport(
        grid,
        R.reshape((n,) + R.shape[3:]),
        T.reshape((n,) + T.shape[3:]),
        max_R, max_T, int_R, int_T,
        ~interior.reshape(n),
    )


def homogeneity_verdict(fibers: Sequence[FiberBasis],
                        report: CurvatureTorsionReport,
                        flat_tol: float = DEFAULT_FLAT_TOL,
                        v_tol: float = DEFAULT_V_TOL) -> HomogeneityResult:
    """Decide homogeneity evidence from the tested section's flatness.

    Flat and torsion-free: homogeneous_evidence.  Obstructed only when the
    isotropy algebra is trivial everywhere, since then the material connection
    is unique and its obstruction is decisive.  With nontrivial isotropy an
    untested section could still be flat, so the verdict is inconclusive.
    """
    uni = uniformity_verdict(fibers, v_tol)
    if not uni.uniform:
        raise NotUniform(f"anchor rank < 3 at grid point {uni.offending[0]}; "
                         "body is not uniform")
    iso_dims = tuple(f.dim - r for f, r in zip(fibers, uni.anchor_ranks))
    if report.max_abs_R <= flat_tol and report.max_abs_T <= flat_tol:
        verdict = "homogeneous_evidence"
        reason = f"curvature and torsion below flat_tol {flat_tol:g} for the minimal lift"
    elif all(d == 0 for d in iso_dims):
        verdict = "obstructed"
        reason = "unique material connection (trivial isotropy) has nonzero torsion or curvature"
    else:
        verdict = "inconclusive"
        reason = ("tested section is obstructed but nontrivial isotropy leaves other "
                  "sections untested")
    return HomogeneityResult(verdict, report.max_abs_R, report.max_abs_T, iso_dims, reason)


def transport_frame(conn: ConnectionField, x0, target, order=(0, 1, 2),
                    substep: float | None = None) -> tuple:
    """Parallel-transport a frame (and integrate the coframe) from x0 to target.

    Follows the axis-ordered polyline determined by ``order``; solves
    dP/ds = -Gamma(., dgamma) P and dc/ds = P^-1 dgamma with RK4.  Returns
    (frame at target, chart coordinates of target).
    """
    grid = conn.grid
    field = TrilinearField(grid.axes, conn.lattice())
    x0 = as_point(x0)
    target = as_point(target)
    if not field.contains(x0) or not field.contains(target):
        raise LeftDomain("transport endpoints must lie in the grid hull")
    if substep is None:
        substep = float(np.min(grid.spacing)) / 4.0
    P = np.eye(3)
    c = np.zeros(3)
    q = x0.copy()
    for axis in order:
        delta = target[axis] - q[axis]
        if abs(delta) == 0.0:
            continue
        v = np.zeros(3)
        v[axis] = delta                     # dgamma/ds on the unit parameter
        n = max(1, math.ceil(abs(delta) / substep))
        ds = 1.0 / n
        start = q.copy()

        def rhs(s, P):
            point = start + s * v
            Gu = np.einsum("kij,j->ki", field(point), v)
            return -Gu @ P, np.linalg.solve(P, v)

        s = 0.0
        for _ in range(n):
            k1P, k1c = rhs(s, P)
            k2P, k2c = rhs(s + 0.5 * ds, P + 0.5 * ds * k1P)
            k3P, k3c = rhs(s + 0.5 * ds, P + 0.5 * ds * k2P)
            k4P, k4c = rhs(s + ds, P + ds * k3P)
            P = P + (ds / 6.0) * (k1P + 2 * k2P + 2 * k3P + k4P)
            c = c + (ds / 6.0) * (k1c + 2 * k2c + 2 * k3c + k4c)
            s += ds
        q[axis] = target[axis]
    return P, c


def build_homogeneous_chart(conn: ConnectionField, x0,
                            flat_tol: float = DEFAULT_FLAT_TOL,
                            substep: float | None = None) -> ChartField:
    """Coordinates in which a flat torsion-free connection has zero Christoffels.

    Parallel-transports the identity frame from x0 along axis-ordered paths
    and path-integrates the coframe.  Refuses (NotFlat) when curvature or
    torsion exceeds flat_tol, since the result would be path-dependent.
    """
    report = curvature_torsion(conn)
    if report.max_abs_R > flat_tol or report.max_abs_T > flat_tol:
        raise NotFlat(
            f"max|R| = {report.max_abs_R:.3e}, max|T| = {report.max_abs_T:.3e} "
            f"exceed flat_tol {flat_tol:g}"
        )
    grid = conn.grid
    n = grid.n_points
    coords = np.zeros((n, 3))
    frames = np.zeros((n, 3, 3))
    for p in range(n):
        P, c = transport_frame(conn, x0, grid.points[p], substep=substep)
        frames[p] = P
        coords[p] = c
    return ChartField(grid, as_point(x0), coords, frames)


def chart_christoffels(conn: ConnectionField, chart: ChartField) -> tuple:
    """Christoffel symbols of the connection re-expressed in the chart.

    Uses the lattice Jacobian J of the integrated coordinates (central
    differences) and the transformation
    Gamma'^g_ab = (J^-1)^i_a (J^-1)^j_b [J^g_k Gamma^k_ij - d_j J^g_i].
    Returns (gamma_prime flat (n,3,3,3), interior max-abs, full max-abs).
    """
    grid = conn.grid
    G = conn.lattice()
    c_lat = grid.reshape(chart.coords)                    # (nx,ny,nz,3)
    dc = grid_gradient(grid, c_lat)
    J = np.stack(dc, axis=-1)                             # [..., g, i]
    dJ = grid_gradient(grid, J)
    dJ_stack = np.stack(dJ, axis=-1)                      # [..., g, i, j]
    Jinv = np.linalg.inv(J)                               # [..., i, g]
    bracket = np.einsum("...gk,...kij->...gij", J, G) - dJ_stack
    gamma_p = np.einsum("...ia,...jb,...gij->...gab", Jinv, Jinv, bracket)
    interior = grid.interior_mask()
    interior_max = float(np.max(np.abs(gamma_p[interior]))) if interior.any() else 0.0
    full_max = float(np.max(np.abs(gamma_p)))
    return gamma_p.reshape((grid.n_points, 3, 3, 3)), interior_max, full_max
