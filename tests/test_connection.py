"""Material connections: lifts, Christoffels, curvature/torsion, verdicts,
and flat-chart construction.

Curvature conventions are locked in two independent ways before being relied
on: the coordinate formula is evaluated analytically (all 81 index
combinations) for hand-differentiable test fields, and the Christoffels are
cross-checked against the derivation extracted from exponential flows.
"""

import re

import numpy as np
import pytest

from matbody import (
    LeftDomain,
    NonFiniteResponse,
    NotFlat,
    NotUniform,
    SectionField,
    SingularMatrix,
    build_homogeneous_chart,
    builtin_body,
    chart_christoffels,
    curvature_torsion,
    derivation_matrix,
    fiber,
    fibers_at,
    homogeneity_verdict,
    make_grid,
    make_samples,
    minimal_lift_section,
    uniformity_verdict,
)
from matbody.algebroid import FiberBasis, Fibers, anchor_rank
from matbody.connection import LinearSectionField, _transport_field
from matbody.grid import TrilinearField
from oracles import (E12, E21, I3, curvature_formula, loop_minimal_lift, point_solve_lift,
                     torsion_formula, tuple_chart, tuple_transport_leg)

RANK_TOL = 1e-6


def small_grid(res=3, margin=0.1):
    return make_grid(-np.ones(3), np.ones(3), (res, res, res), margin)


def fibers_on(body, grid, samples):
    return [fiber(body, x, samples, RANK_TOL) for x in grid.points]


def lift_of_gamma(grid, gamma):
    """The lift whose Christoffel symbols are gamma[p, k, i, j]: A(e_j)^k_i = -Gamma^k_ij."""
    return LinearSectionField(grid, -np.transpose(gamma, (0, 3, 1, 2)), np.zeros(grid.n_points))


def connection_from_fn(grid, gamma_fn):
    return lift_of_gamma(grid, np.stack([gamma_fn(x) for x in grid.points]))


# ---------------------------------------------------------------------------
# minimal lift
# ---------------------------------------------------------------------------

def test_minimal_lift_isotropic_is_zero(iso_body, samples):
    grid = small_grid()
    section = minimal_lift_section(grid, fibers_on(iso_body, grid, samples))
    assert np.max(np.abs(section.lam)) <= 1e-8
    assert np.max(section.residuals) <= 1e-9


def test_minimal_lift_fgm_matches_hand_value(fgm_body, samples):
    """A(e_1) = (d_1 K) K^-1 = E12 (E^2 = 0); other directions lift to zero."""
    grid = small_grid()
    section = minimal_lift_section(grid, fibers_on(fgm_body, grid, samples))
    for p in range(grid.n_points):
        assert np.max(np.abs(section.lam[p, 0] - E12)) <= 1e-6
        assert np.max(np.abs(section.lam[p, 1])) <= 1e-6
        assert np.max(np.abs(section.lam[p, 2])) <= 1e-6
    assert np.max(section.residuals) <= 1e-9


def assert_lift_is_the_point_loop(grid, fibers):
    """The stacked lift equals the per-point solve bit for bit, and to rounding the
    pseudo-inverse of each fiber's anchor block from a fresh SVD; or all refuse alike."""
    try:
        lam, residuals = point_solve_lift(fibers)
    except NotUniform as exc:
        with pytest.raises(NotUniform, match=re.escape(str(exc))):
            minimal_lift_section(grid, fibers)
        with pytest.raises(NotUniform, match=re.escape(str(exc))):
            loop_minimal_lift(fibers)
        return
    section = minimal_lift_section(grid, fibers)
    assert section.lam.tobytes() == lam.tobytes()
    assert section.residuals.tobytes() == residuals.tobytes()
    pinv_lam, _ = loop_minimal_lift(fibers)
    assert np.all(np.abs(lam - pinv_lam) <= 1e-14 * (1 + np.abs(pinv_lam)))
    assert np.max(residuals) <= 1e-14


_BUILTINS = ("homogeneous_isotropic", "uniform_fgm", "uniform_fgm_integrable", "nonuniform")


@pytest.mark.parametrize("kind", _BUILTINS)
def test_stacked_lift_is_bitwise_the_point_loop(kind):
    body = builtin_body(kind)
    grid = make_grid(body.lo, body.hi, 5, 0.1)
    for seed in (8, 9, 10):
        assert_lift_is_the_point_loop(grid, fibers_at(body, grid.points, make_samples(24, seed)))


def mixed_fibers(grid):
    """Views of three tables' fibres on ``grid``: uniform_fgm's (dim 3) at points
    p % 3 != 0, homogeneous_isotropic's (dim 6) at the others, and a copy with
    nonuniform's at points 13 (dim 5) and 20 (dim 3), of anchor rank 2."""
    samples = make_samples(16, 9)
    by_kind = {kind: fibers_at(builtin_body(kind), grid.points, samples)
               for kind in ("homogeneous_isotropic", "uniform_fgm", "nonuniform")}
    mixed = [by_kind["uniform_fgm" if p % 3 else "homogeneous_isotropic"][p]
             for p in range(grid.n_points)]
    short = list(mixed)
    short[13], short[20] = by_kind["nonuniform"][13], by_kind["nonuniform"][20]
    return mixed, short


def test_stacked_lift_scatters_mixed_fiber_dims_back_to_their_points():
    """Fibers of dims 6 and 3 interleaved go through one solve, each onto its own
    point.  With rank-deficient fibers at points 13 and 20, the error names 13."""
    grid = small_grid()
    mixed, short = mixed_fibers(grid)
    assert {f.dim for f in mixed} == {3, 6}
    assert_lift_is_the_point_loop(grid, mixed)
    assert (short[13].dim, short[20].dim) == (5, 3)     # x1 = 0 and x1 = 0.9
    assert_lift_is_the_point_loop(grid, short)


def point_verdict(fibers, v_tol=1e-8):
    """(verdict, anchor ranks, offending, isotropy dims) from one anchor_rank per fibre."""
    ranks = tuple(anchor_rank(f, v_tol) for f in fibers)
    offending = tuple(p for p, r in enumerate(ranks) if r < 3)
    return ("not_uniform" if offending else "uniform", ranks, offending,
            tuple(f.dim - r for f, r in zip(fibers, ranks)))


def lift_or_refusal(grid, fibers):
    try:
        section = minimal_lift_section(grid, fibers)
    except NotUniform as exc:
        return str(exc)
    return section.lam.tobytes(), section.residuals.tobytes()


@pytest.mark.parametrize("case", (*_BUILTINS, "mixed", "mixed_short"))
def test_table_and_lists_of_views_give_one_verdict_and_one_lift(case):
    """uniformity_verdict and minimal_lift_section give equal results on a table
    (a built-in's at 5^3), on a list of its views and on their stacked table, and
    on the mixed lists and their tables; the verdict is the per-point anchor_rank
    cut, the lift the point loop's."""
    if case in _BUILTINS:
        body = builtin_body(case)
        grid = make_grid(body.lo, body.hi, 5, 0.1)
        fibers = fibers_at(body, grid.points, make_samples(24, 8))
    else:
        grid = small_grid()
        fibers = mixed_fibers(grid)[case == "mixed_short"]
    views = list(fibers)
    forms = (fibers, views, Fibers.of(views))
    results = [uniformity_verdict(form) for form in forms]
    assert all(r == results[0] for r in results)
    assert (results[0].verdict, results[0].anchor_ranks, results[0].offending,
            results[0].isotropy_dims) == point_verdict(views)
    lifts = [lift_or_refusal(grid, form) for form in forms]
    assert all(lift == lifts[0] for lift in lifts)
    assert_lift_is_the_point_loop(grid, views)


def test_minimal_lift_refuses_fibers_that_are_not_its_grids(fgm_body, samples):
    """Too few fibers, the grid's fibers in another order, or another grid's fibers."""
    grid = small_grid()
    fibers = fibers_at(fgm_body, grid.points, samples)
    for wrong in (fibers[:5], fibers[::-1]):
        with pytest.raises(ValueError, match="not those of the grid points, in order"):
            minimal_lift_section(grid, wrong)
    with pytest.raises(ValueError, match="not those of the grid points, in order"):
        minimal_lift_section(small_grid(5), fibers)


def test_minimal_lift_requires_uniformity(nonuniform_body, samples, monkeypatch):
    """The refusal reads the table's anchor cut: no anchor_rank call."""
    import matbody.algebroid as algebroid
    import matbody.connection as connection

    grid = small_grid()
    fibers = fibers_on(nonuniform_body, grid, samples)
    calls, anchor_rank = [], algebroid.anchor_rank

    def counting_rank(*args):
        calls.append(1)
        return anchor_rank(*args)

    for module in (algebroid, connection):
        monkeypatch.setattr(module, "anchor_rank", counting_rank, raising=False)
    with pytest.raises(NotUniform, match="anchor rank < 3 at grid point 0 "):
        minimal_lift_section(grid, fibers)
    assert calls == []


def hand_made_fibers(grid):
    """Fibres of dim 3 at the grid points whose anchor block is I but whose anchor_sv
    read [1, 0, 1], which LAPACK's sorted output never gives."""
    return [FiberBasis(x, np.eye(12)[:3], np.ones(12), np.array([1.0, 0.0, 1.0]), np.inf)
            for x in grid.points]


@pytest.mark.parametrize("case", ["mixed", "mixed_short", "hand_made"])
def test_lift_refuses_exactly_where_the_verdict_is_not_uniform(case):
    """For v_tol in {-1, 0, 1e-12, 1e-8, 0.5, 1, 2}, minimal_lift_section raises NotUniform
    exactly when uniformity_verdict reads not_uniform, naming its first offending point:
    both take the one anchor cut."""
    grid = small_grid()
    if case == "hand_made":
        fibers = hand_made_fibers(grid)
    else:
        fibers = mixed_fibers(grid)[case == "mixed_short"]
    for v_tol in (-1.0, 0.0, 1e-12, 1e-8, 0.5, 1.0, 2.0):
        verdict = uniformity_verdict(fibers, v_tol)
        if verdict.uniform:
            minimal_lift_section(grid, fibers, v_tol)
            continue
        first = verdict.offending[0]
        with pytest.raises(NotUniform, match=rf"^anchor rank < 3 at grid point {first} "):
            minimal_lift_section(grid, fibers, v_tol)


# ---------------------------------------------------------------------------
# Christoffel symbols of the lift
# ---------------------------------------------------------------------------

def test_christoffels_zero_section():
    grid = small_grid()
    zero = LinearSectionField(grid, np.zeros((grid.n_points, 3, 3, 3)),
                              np.zeros(grid.n_points))
    assert zero.max_abs() == 0.0


def test_christoffels_sign_and_layout(fgm_body, samples):
    """Gamma^1_21 = -1 and nothing else, from A(e_1) = E12."""
    grid = small_grid()
    conn = minimal_lift_section(grid, fibers_on(fgm_body, grid, samples))
    expected = np.zeros((3, 3, 3))
    expected[0, 1, 0] = -1.0          # Gamma^k=1_{i=2, j=1}
    for p in range(grid.n_points):
        assert np.max(np.abs(conn.gamma[p] - expected)) <= 1e-6


def test_christoffels_linear_in_section():
    grid = small_grid()
    rng = np.random.default_rng(3)
    lam = rng.uniform(-1, 1, (grid.n_points, 3, 3, 3))
    base = LinearSectionField(grid, lam, np.zeros(grid.n_points))
    scaled = LinearSectionField(grid, 2.5 * lam, np.zeros(grid.n_points))
    assert np.allclose(scaled.gamma, 2.5 * base.gamma, atol=0)


def test_sign_convention_lock_against_derivation(fgm_body, samples):
    """Christoffels agree with the flow-pullback derivation: M^k_i = Gamma^k_ij.

    For the lift section in direction e_j, the derivation matrix is -A(e_j),
    whose (k, i) entry must equal Gamma^k_ij.
    """
    grid = small_grid()
    section = minimal_lift_section(grid, fibers_on(fgm_body, grid, samples))
    p = grid.n_points // 2
    x = grid.points[p]
    for j in range(3):
        a_data = grid.reshape(section.lam[:, j, :, :])
        v_data = grid.reshape(np.tile(np.eye(3)[j], (grid.n_points, 1)))
        s = SectionField.from_grid(grid.axes, v_data, a_data)
        M, b = derivation_matrix(s, x)
        for k in range(3):
            for i in range(3):
                assert abs(M[k, i] - section.gamma[p, k, i, j]) <= 1e-5
        assert np.max(np.abs(b - np.eye(3)[j])) <= 1e-6


# ---------------------------------------------------------------------------
# curvature and torsion
# ---------------------------------------------------------------------------

def test_zero_connection_is_flat():
    grid = small_grid()
    conn = lift_of_gamma(grid, np.zeros((grid.n_points, 3, 3, 3)))
    rep = curvature_torsion(conn)
    assert rep.max_abs_R == 0.0 and rep.max_abs_T == 0.0


def test_fgm_constant_connection_torsion_only(fgm_body, samples):
    """Constant Gamma with Gamma^1_21 = -1: T^1_21 = -1, quadratic terms cancel."""
    grid = small_grid()
    conn = minimal_lift_section(grid, fibers_on(fgm_body, grid, samples))
    rep = curvature_torsion(conn)
    assert rep.max_abs_R <= 1e-5
    p = grid.n_points // 2
    assert rep.T[p, 0, 1, 0] == pytest.approx(-1.0, abs=1e-6)
    assert rep.T[p, 0, 0, 1] == pytest.approx(+1.0, abs=1e-6)
    assert rep.max_abs_T == pytest.approx(1.0, abs=1e-6)


def curved_gamma(x):
    """Gamma^k_ij = delta^k_j x^i: genuinely curved (oracle curvature below)."""
    G = np.zeros((3, 3, 3))
    for k in range(3):
        for i in range(3):
            G[k, i, k] = x[i]
    return G


def curved_dgamma(x):
    dG = np.zeros((3, 3, 3, 3))
    for a in range(3):
        for k in range(3):
            dG[a, k, a, k] = 1.0
    return dG


def flat_with_torsion_gamma(x):
    """Gamma^k_ij = delta^k_i x^j: all curvature terms cancel identically."""
    G = np.zeros((3, 3, 3))
    for k in range(3):
        for j in range(3):
            G[k, k, j] = x[j]
    return G


def flat_with_torsion_dgamma(x):
    dG = np.zeros((3, 3, 3, 3))
    for a in range(3):
        for k in range(3):
            dG[a, k, k, a] = 1.0
    return dG


def test_curved_field_detected_against_formula_oracle():
    grid = small_grid(res=5)
    conn = connection_from_fn(grid, curved_gamma)
    rep = curvature_torsion(conn)
    assert rep.max_abs_R > 0.5
    # gamma is linear in x, so grid stencils are exact: compare pointwise
    for p in (0, grid.n_points // 2, grid.n_points - 1):
        x = grid.points[p]
        R_exact = curvature_formula(curved_gamma, curved_dgamma, x)
        assert np.max(np.abs(rep.R[p] - R_exact)) <= 1e-10
        T_exact = torsion_formula(curved_gamma, x)
        assert np.max(np.abs(rep.T[p] - T_exact)) <= 1e-12


def test_flat_with_torsion_field_against_formula_oracle():
    """The delta^k_i x^j field is flat (R = 0 identically) but has torsion."""
    grid = small_grid(res=5)
    conn = connection_from_fn(grid, flat_with_torsion_gamma)
    rep = curvature_torsion(conn)
    for p in (0, grid.n_points // 2, grid.n_points - 1):
        x = grid.points[p]
        R_exact = curvature_formula(flat_with_torsion_gamma, flat_with_torsion_dgamma, x)
        assert np.max(np.abs(R_exact)) <= 1e-14
        assert np.max(np.abs(rep.R[p])) <= 1e-10
    assert rep.max_abs_T > 0.5


def test_tensor_antisymmetries():
    grid = small_grid(res=5)
    rng = np.random.default_rng(8)
    coeff = rng.uniform(-1, 1, (3, 3, 3, 4))

    def gamma_fn(x):
        return coeff[..., 0] + coeff[..., 1] * x[0] + coeff[..., 2] * x[1] \
            + coeff[..., 3] * x[2]

    rep = curvature_torsion(connection_from_fn(grid, gamma_fn))
    assert np.max(np.abs(rep.T + np.swapaxes(rep.T, -1, -2))) <= 1e-12
    assert np.max(np.abs(rep.R + np.swapaxes(rep.R, -1, -2))) <= 1e-12


# ---------------------------------------------------------------------------
# homogeneity verdicts
# ---------------------------------------------------------------------------

def run_verdict(body, samples, res=3):
    grid = small_grid(res)
    fibs = fibers_on(body, grid, samples)
    conn = minimal_lift_section(grid, fibs)
    uni = uniformity_verdict(fibs)
    return homogeneity_verdict(uni, curvature_torsion(conn)), uni


def test_homogeneity_verdicts(iso_body, fgm_body, fgm_integrable_body,
                              nonuniform_body, samples):
    res, _ = run_verdict(iso_body, samples)
    assert res.verdict == "homogeneous_evidence"
    res, uni = run_verdict(fgm_body, samples)
    assert res.verdict == "obstructed"
    assert all(d == 0 for d in uni.isotropy_dims)
    res, _ = run_verdict(fgm_integrable_body, samples)
    assert res.verdict == "homogeneous_evidence"
    grid = small_grid()
    with pytest.raises(NotUniform):
        fibs = fibers_on(nonuniform_body, grid, samples)
        rep = curvature_torsion(lift_of_gamma(grid, np.zeros((grid.n_points, 3, 3, 3))))
        homogeneity_verdict(uniformity_verdict(fibs), rep)


def test_inconclusive_when_isotropy_nontrivial(iso_body, samples):
    """Force a non-flat report on the isotropic body: other sections may be flat."""
    grid = small_grid()
    fibs = fibers_on(iso_body, grid, samples)
    conn = connection_from_fn(grid, curved_gamma)
    rep = curvature_torsion(conn)
    uni = uniformity_verdict(fibs)
    assert uni.uniform and min(uni.isotropy_dims) == 3
    res = homogeneity_verdict(uni, rep)
    assert res.verdict == "inconclusive"


# ---------------------------------------------------------------------------
# chart construction
# ---------------------------------------------------------------------------

def test_chart_of_zero_connection_is_identity():
    grids = [(small_grid(res=4), np.zeros(3))]
    # even and mixed resolutions from the grid centre, whose legs end on the hull
    for res in [(6, 6, 6), (5, 6, 7), (6, 4, 3)]:
        for margin in (0.05, 0.1, 0.2):
            grid = make_grid(-np.ones(3), np.ones(3), res, margin)
            grids.append((grid, grid.points[grid.n_points // 2]))
    for grid, x0 in grids:
        conn = lift_of_gamma(grid, np.zeros((grid.n_points, 3, 3, 3)))
        chart = build_homogeneous_chart(curvature_torsion(conn), x0)
        assert np.max(np.abs(chart.coords - (grid.points - x0))) <= 1e-12
        assert np.max(np.abs(chart.frames - np.eye(3))) <= 1e-12


def test_chart_recovers_integrable_deformation(fgm_integrable_body, samples):
    """Full pipeline: the recovered chart kills the Christoffels and equals the
    inverse of the defining deformation up to an affine map."""
    grid = small_grid(res=5)
    fibs = fibers_on(fgm_integrable_body, grid, samples)
    conn = minimal_lift_section(grid, fibs)
    chart = build_homogeneous_chart(curvature_torsion(conn), np.zeros(3))

    interior_max, _ = chart_christoffels(chart)
    assert interior_max <= 1e-3

    # phi(x) = (x1, x2 + x1^2/2, x3) has K = Dphi; the flat chart is an affine
    # image of phi^{-1}(x) = (x1, x2 - x1^2/2, x3)
    ref = np.stack([grid.points[:, 0],
                    grid.points[:, 1] - grid.points[:, 0] ** 2 / 2,
                    grid.points[:, 2]], axis=-1)
    X = np.hstack([ref, np.ones((len(ref), 1))])
    fit, *_ = np.linalg.lstsq(X, chart.coords, rcond=None)
    assert np.max(np.abs(X @ fit - chart.coords)) <= 1e-6

    # the transported frame field is K(x) itself (dP = (dK) K^-1 P, P(0) = I)
    for p in range(grid.n_points):
        K = I3 + grid.points[p, 0] * E21
        assert np.max(np.abs(chart.frames[p] - K)) <= 1e-6


def tuple_path(field, substep, x0, target, order=(0, 1, 2)):
    """(P, c) at target from tuple_transport_leg legs along the axes in ``order``."""
    P, c, q = np.eye(3), np.zeros(3), x0
    for axis in order:
        end = np.where(np.arange(3) == axis, target, q)
        P, c = tuple_transport_leg(field, q, end, P, c, substep)
        q = end
    return P, c


def test_chart_path_independence_when_flat(fgm_integrable_body, samples):
    grid = small_grid(res=4)
    fibs = fibers_on(fgm_integrable_body, grid, samples)
    conn = minimal_lift_section(grid, fibs)
    field, substep = _transport_field(conn)
    target = grid.points[-1]
    P1, c1 = tuple_path(field, substep, np.zeros(3), target, order=(0, 1, 2))
    P2, c2 = tuple_path(field, substep, np.zeros(3), target, order=(2, 1, 0))
    assert np.max(np.abs(P1 - P2)) <= 1e-3
    assert np.max(np.abs(c1 - c2)) <= 1e-3


@pytest.mark.parametrize("res, origin", [(4, "zero"), (5, "centre")])
def test_chart_sweep_matches_the_tuple_chart(fgm_integrable_body, samples, res, origin):
    """The one-sweep chart gives the frames and coords of classical RK4 on (P, c) along
    its axis-ordered paths, from an off-tick and an on-tick x0."""
    grid = small_grid(res=res)
    conn = minimal_lift_section(grid, fibers_on(fgm_integrable_body, grid, samples))
    x0 = np.zeros(3) if origin == "zero" else grid.points[grid.n_points // 2]
    chart = build_homogeneous_chart(curvature_torsion(conn), x0)
    want = tuple_chart(conn, x0)
    assert np.max(np.abs(chart.frames - want.frames)) <= 1e-10
    assert np.max(np.abs(chart.coords - want.coords)) <= 1e-10


# Propagator products and classical RK4 on (P, c) round differently: at most 0.375 ulp
# of max|P| and 0.19 of max|c| per RK4 step of a node's path, over both flat built-ins
# at 5^3, 7^3 and 9^3 from an on-tick and an off-tick x0, and 0.28 ulp of max|P| over
# six generic affine fields; the bound allows 2.
CHART_ULPS_PER_STEP = 2


def assert_is_the_tuple_rk4(got, want, steps):
    """Each array of ``got`` to CHART_ULPS_PER_STEP ulps of its max|want| per step,
    ``steps`` (...) the RK4 steps along each path."""
    ulps = CHART_ULPS_PER_STEP * np.finfo(float).eps * np.maximum(steps, 1)
    for g, w in zip(got, want):
        err = np.max(np.abs(g - w).reshape(np.shape(steps) + (-1,)), axis=-1)
        assert np.all(err <= ulps * np.max(np.abs(w)))


@pytest.mark.parametrize("case", ["uniform_fgm_integrable", "generic"])
def test_chart_matches_the_tuple_rk4_sweep(fgm_integrable_body, samples, case):
    """At 7^3 the chart sweep gives the frames and coords of classical RK4 on (P, c) to
    rounding, both as a sweep and as each node's own three legs.  The generic case is an
    affine Gamma field whose values along an edge do not commute, so the order of the
    propagator products shows; there RK4 on (P, c) and on Y agree in P in exact
    arithmetic but not in c (c' = P^-1 v is not linear), so only the frames are compared."""
    grid = small_grid(res=7)
    if case == "generic":
        coeff = np.random.default_rng(3).uniform(-1, 1, (3, 3, 3, 4))
        conn = connection_from_fn(grid, lambda x: coeff[..., 0] + coeff[..., 1:] @ x)
    else:
        conn = minimal_lift_section(grid, fibers_on(fgm_integrable_body, grid, samples))
    x0 = grid.points[grid.n_points // 2]
    field, substep = _transport_field(conn, x0)
    steps = np.sum(np.ceil(np.abs(grid.points - x0) / substep - 1e-9), axis=-1)
    assert steps.max() == 36                    # 3 segments of 4 steps per axis at a corner
    compared = slice(0, 1 if case == "generic" else 2)
    got = build_homogeneous_chart(curvature_torsion(conn, flat_tol=1e300), x0)
    want = tuple_chart(conn, x0)
    assert got.frames.shape == want.frames.shape and got.coords.shape == want.coords.shape
    assert_is_the_tuple_rk4([got.frames, got.coords][compared],
                            [want.frames, want.coords][compared], steps)
    for p in (0, 100, grid.n_points - 1):
        assert_is_the_tuple_rk4([got.frames[p], got.coords[p]][compared],
                                tuple_path(field, substep, x0, grid.points[p])[compared],
                                steps[p])


def test_chart_sweep_legs_take_quarter_spacing_steps(monkeypatch):
    """At 7^3, per axis, one edge call, one Christoffel-field call at 9 stage points of
    each lattice segment and one RK4 step for all of them: every segment takes 4 steps
    (substep = spacing / 4), and the empty leg at x0 of each line takes none."""
    import matbody.connection as connection
    import matbody.flows as flows

    grid = make_grid(-np.ones(3), np.ones(3), 7)
    conn = lift_of_gamma(grid, np.zeros((grid.n_points, 3, 3, 3)))
    edges, calls, rates, steps = [], [], [], [0]
    edge_propagators, propagators, rk4_step = (connection._edge_propagators,
                                               connection.rk4_propagators, flows._rk4_step)
    interpolate = TrilinearField.__call__

    def recording_edges(field, starts, ends, substep):
        edges.append(np.max(np.abs(ends - starts), axis=-1))
        return edge_propagators(field, starts, ends, substep)

    def recording_call(field, x):
        calls.append(np.shape(x))
        return interpolate(field, x)

    def recording_propagators(r, dt):
        rates.append(r)
        return propagators(r, dt)

    def counting_step(*args):
        steps[0] += 1
        return rk4_step(*args)

    monkeypatch.setattr(connection, "_edge_propagators", recording_edges)
    monkeypatch.setattr(TrilinearField, "__call__", recording_call)
    monkeypatch.setattr(connection, "rk4_propagators", recording_propagators)
    monkeypatch.setattr(flows, "_rk4_step", counting_step)
    build_homogeneous_chart(curvature_torsion(conn), grid.points[grid.n_points // 2])
    lines = [1, 7, 49]                          # lines per axis: 1, then 7, then 7 x 7
    assert [e.shape for e in edges] == [(n, 7) for n in lines]
    for e in edges:                             # 6 segments of one spacing, 1 empty leg at x0
        assert np.allclose(e[:, [0, 1, 2, 4, 5, 6]], grid.spacing[0]) and not e[:, 3].any()
    assert calls == [(6 * n, 9, 3) for n in lines]
    assert [r.shape for r in rates] == [(6 * n, 4, 4, 4, 4) for n in lines]
    for r in rates:                             # C = [[0, -v], [0, 0]]: no step is padding
        assert np.all(np.abs(r[..., :3, 3]).max(axis=-1) > 0)
    assert steps[0] == 3


@pytest.mark.parametrize("kind", ["homogeneous_isotropic", "uniform_fgm", "uniform_fgm_integrable"])
def test_lift_flow_and_chart_transport_are_one_ode(kind, samples):
    """Gamma^k_ij = -A(e_j)^k_i makes the frame transport dP/ds = -Gamma(y) v P along a
    lattice edge node -> end the lift flow dF/dt = A_y(e_a) F over t = (end - node)_a,
    every edge, those that end on the upper hull face too.  The flow ends at the end
    node bit for bit.  At the same 48 RK4 steps (a flow step is at most MAX_STEP), F of
    exp_trajectory is the edge propagator's frame block to rounding (1.1e-16 measured)."""
    from matbody.connection import _edge_propagators
    from matbody.flows import MAX_STEP, exp_trajectory

    grid = small_grid(res=5)
    conn = minimal_lift_section(grid, fibers_at(builtin_body(kind), grid.points, samples))
    field, _ = _transport_field(conn)
    lattice = grid.reshape(grid.points)
    for a, h in enumerate(grid.spacing):
        assert h / 48 <= MAX_STEP
        nodes, ends = (np.take(lattice, range(i, i + 4), axis=a).reshape(-1, 3) for i in (0, 1))
        assert (ends[:, a] == grid.axes[a][-1]).sum() == 25
        P = _edge_propagators(field, nodes, ends, h / 48)[:, :3, :3]
        section = conn.flow_field(np.eye(3)[a])
        for node, end, P_edge in zip(nodes, ends, P):
            t = end[a] - node[a]
            records = exp_trajectory(section, t, node, t / 48)
            assert len(records) == 49
            assert records[-1][1].tobytes() == end.tobytes()
            assert np.max(np.abs(records[-1][2] - P_edge)) <= 1e-13


def test_verdict_and_chart_take_one_flatness_decision(fgm_body, samples):
    """At flat_tol = max(max|R|, max|T|) of the torsion lift both read flat; one ulp
    below, neither does, and the chart names the report's flat_tol."""
    grid = small_grid()
    fibs = fibers_on(fgm_body, grid, samples)
    conn = minimal_lift_section(grid, fibs)
    uni = uniformity_verdict(fibs)
    rep = curvature_torsion(conn)
    edge = max(rep.max_abs_R, rep.max_abs_T)
    assert edge == rep.max_abs_T and abs(edge - 1.0) <= 1e-6
    at, below = curvature_torsion(conn, edge), curvature_torsion(conn, np.nextafter(edge, 0))
    assert at.flat and at.conn is conn
    assert homogeneity_verdict(uni, at).verdict == "homogeneous_evidence"
    assert build_homogeneous_chart(at, np.zeros(3)).conn is conn
    assert not below.flat
    assert homogeneity_verdict(uni, below).verdict != "homogeneous_evidence"
    with pytest.raises(NotFlat, match=re.escape(f"exceed flat_tol {below.flat_tol:g}")):
        build_homogeneous_chart(below, np.zeros(3))


def test_chart_refuses_torsion(fgm_body, samples):
    grid = small_grid()
    conn = minimal_lift_section(grid, fibers_on(fgm_body, grid, samples))
    with pytest.raises(NotFlat):
        build_homogeneous_chart(curvature_torsion(conn), np.zeros(3))


def test_transport_refuses_endpoints_outside_the_hull():
    """The chart's base point x0 must lie in the grid hull; a huge flat_tol lets the
    chart run."""
    conn = lift_of_gamma(small_grid(), np.zeros((27, 3, 3, 3)))       # hull [-0.9, 0.9]^3
    with pytest.raises(LeftDomain, match="chart base point x0 must lie in the grid hull"):
        build_homogeneous_chart(curvature_torsion(conn, flat_tol=1e300), np.full(3, 0.95))


def test_transport_refuses_a_singular_frame():
    """Gamma(v) = g (v . 1) ones(3, 3) has rank 1, so the frame collapses onto one line."""
    conn = lift_of_gamma(small_grid(), np.full((27, 3, 3, 3), 50.0))
    with pytest.raises(SingularMatrix, match="transported frame became singular"):
        build_homogeneous_chart(curvature_torsion(conn, flat_tol=1e300), np.zeros(3))


@pytest.mark.parametrize("g, finite", [(1e3, True), (1e30, False)])
def test_transport_refuses_a_frame_that_overflows(g, finite):
    """Gamma^k_ij = g delta_ki scales the frame by exp(g s (v . 1)): large, but finite
    at g = 1e3 over the chart's paths from the corner (0.9, 0.9, 0.9), and past the
    float range at g = 1e30."""
    gamma = np.zeros((27, 3, 3, 3))
    for k in range(3):
        gamma[:, k, k, :] = g
    conn = lift_of_gamma(small_grid(), gamma)
    report = curvature_torsion(conn, flat_tol=1e300)
    if finite:
        chart = build_homogeneous_chart(report, np.full(3, 0.9))
        assert np.isfinite(chart.frames).all() and np.isfinite(chart.coords).all()
        assert chart.frames[0, 0, 0] > 1e190                # the corner (-0.9, -0.9, -0.9)
    else:
        with pytest.raises(NonFiniteResponse, match="chart transport became non-finite"):
            build_homogeneous_chart(report, np.full(3, 0.9))
