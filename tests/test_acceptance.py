"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
Each test prints its verdict line before asserting, so a red criterion still
reports itself.
"""

import time

import numpy as np
from scipy.integrate import solve_ivp

from matbody import (
    AnalysisConfig,
    Jet1,
    SectionField,
    build_homogeneous_chart,
    chart_christoffels,
    christoffels,
    compose,
    curvature_torsion,
    derivation_matrix,
    emit_report,
    evaluate_w_inverse,
    exp_section,
    exp_trajectory,
    fiber,
    g_map,
    identity,
    invert,
    invert_g_map,
    is_material_isomorphism,
    isotropy_algebra,
    make_grid,
    make_samples,
    minimal_lift_section,
    one_parameter_check,
    run_analysis,
)
from matbody.bodies import builtin_body
from matbody.gstructure import GroupoidSection, Parallelism
from oracles import E12, I3, matrix_exp, random_invertible

RANK_TOL = 1e-6


def report(n, ok, detail):
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_groupoid_axioms():
    """1000 random jets: associativity, unit, inverse laws to 1e-12; < 1 s."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        w, x, y, z = rng.uniform(-1, 1, (4, 3))
        g = Jet1(y, z, random_invertible(rng))
        h = Jet1(x, y, random_invertible(rng))
        k = Jet1(w, x, random_invertible(rng))
        assoc = np.max(np.abs(compose(compose(g, h), k).matrix
                              - compose(g, compose(h, k)).matrix))
        unit = max(
            np.max(np.abs(compose(g, identity(g.source)).matrix - g.matrix)),
            np.max(np.abs(compose(identity(g.target), g).matrix - g.matrix)),
        )
        inv = max(
            np.max(np.abs(compose(invert(g), g).matrix - np.eye(3))),
            np.max(np.abs(compose(g, invert(g)).matrix - np.eye(3))),
        )
        worst = max(worst, assoc, unit, inv)
    dt = time.perf_counter() - t0
    report(1, worst <= 1e-12 and dt < 1.0,
           f"worst law defect {worst:.2e} (tol 1e-12), runtime {dt:.2f}s (< 1s)")


def test_criterion_2_algebroid_dimensions():
    """iso: dim 6 / isotropy 3; fgm: dim 3 / isotropy 0, at every point of a
    5^3 grid; stable under N in {24, 48} with fresh seeds; < 30 s."""
    t0 = time.perf_counter()
    grid = make_grid(-np.ones(3), np.ones(3), (5, 5, 5), 0.1)
    expect = {"homogeneous_isotropic": (6, 3), "uniform_fgm": (3, 0)}
    ok, detail = True, []
    for kind, (fdim, idim) in expect.items():
        body = builtin_body(kind)
        dims = set()
        for n_samples, seed in ((24, 20240), (48, 555)):
            samples = make_samples(n_samples, seed)
            for x in grid.points:
                f = fiber(body, x, samples, RANK_TOL)
                dims.add((f.dim, isotropy_algebra(f).dim))
        ok = ok and dims == {(fdim, idim)}
        detail.append(f"{kind}: dims {sorted(dims)} expected {(fdim, idim)}")
    dt = time.perf_counter() - t0
    report(2, ok and dt < 30.0, "; ".join(detail) + f"; runtime {dt:.1f}s (< 30s)")


def test_criterion_3_sign_convention_lock():
    """derivation_matrix returns -A(x) within 1e-5 at 10 random points for
    constant and fgm-material sections; < 5 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(33)
    lo, hi = -np.ones(3), np.ones(3)
    worst = 0.0
    A0 = rng.uniform(-1, 1, (3, 3))
    const = SectionField.constant(np.array([0.3, -0.2, 0.1]), A0, lo, hi)

    # material section of the graded body: (v(x), v1(x) E12 K(x)^-1)
    def fgm_fn(x):
        v = np.array([0.5 + 0.3 * x[1], 0.2 * x[0], 0.1])
        K = I3 + x[0] * E12
        return v, (v[0] * E12) @ np.linalg.inv(K)

    graded = SectionField(fgm_fn, lo, hi)

    for s, a_of in ((const, lambda x: A0), (graded, lambda x: fgm_fn(x)[1])):
        for _ in range(10):
            x = rng.uniform(-0.6, 0.6, 3)
            M, _ = derivation_matrix(s, x)
            worst = max(worst, float(np.max(np.abs(M + a_of(x)))))
    dt = time.perf_counter() - t0
    report(3, worst <= 1e-5 and dt < 5.0,
           f"max |M + A(x)| = {worst:.2e} (tol 1e-5), runtime {dt:.2f}s (< 5s)")


def test_criterion_4_exponential_laws():
    """One-parameter defect <= 1e-8 at t=u=0.05 (constant sections); error vs
    the exact subgroup shrinks >= 8x per step halving; the base flow matches
    the anchor flow; < 5 s."""
    t0 = time.perf_counter()
    lo, hi = -np.ones(3), np.ones(3)
    A = np.array([[0.0, 2.0, 0.3], [-1.5, 0.1, 0.0], [0.2, 0.0, -0.4]])
    v = np.array([0.5, 0.1, -0.2])
    s = SectionField.constant(v, A, lo, hi)
    x = np.zeros(3)

    defect = one_parameter_check(s, 0.05, 0.05, x)
    exact = matrix_exp(0.1 * A)
    errs = [np.max(np.abs(exp_section(s, 0.1, x, step=h).matrix - exact))
            for h in (0.01, 0.005)]
    ratio = errs[0] / errs[1]

    sol = solve_ivp(lambda _, y: v, (0, 0.1), x, rtol=1e-12, atol=1e-12)
    anchor_err = np.max(np.abs(exp_section(s, 0.1, x).target - sol.y[:, -1]))

    dt = time.perf_counter() - t0
    ok = defect <= 1e-8 and ratio >= 8.0 and anchor_err <= 1e-9 and dt < 5.0
    report(4, ok, f"one-parameter defect {defect:.2e} (tol 1e-8), halving ratio "
                  f"{ratio:.1f} (>= 8), anchor-flow error {anchor_err:.2e}, "
                  f"runtime {dt:.2f}s (< 5s)")


def test_criterion_5_homogeneity_verdicts():
    """Verdict table on 5^3 and 9^3 grids at flat_tol 1e-4; the integrable
    variant is homogeneous and its chart has max|Gamma'| <= 1e-3; < 2 min."""
    t0 = time.perf_counter()
    expected = {
        "homogeneous_isotropic": ("uniform", "homogeneous_evidence"),
        "uniform_fgm": ("uniform", "obstructed"),
        "nonuniform": ("not_uniform", "n/a"),
    }
    ok, lines = True, []
    for res in ((5, 5, 5), (9, 9, 9)):
        for kind, want in expected.items():
            r = run_analysis(AnalysisConfig(body_kind=kind, resolution=res,
                                            flat_tol=1e-4))
            got = (r.uniformity, r.homogeneity)
            ok = ok and got == want
            lines.append(f"{kind}@{res[0]}^3 -> {got}")

    samples = make_samples(24, 20240)
    grid = make_grid(-np.ones(3), np.ones(3), (5, 5, 5), 0.1)
    body = builtin_body("uniform_fgm_integrable")
    fibs = [fiber(body, x, samples, RANK_TOL) for x in grid.points]
    conn = christoffels(minimal_lift_section(grid, fibs))
    rep = curvature_torsion(conn)
    chart = build_homogeneous_chart(conn, np.zeros(3), flat_tol=1e-4)
    interior_max, _ = chart_christoffels(conn, chart)
    ok = ok and rep.max_abs_R <= 1e-4 and rep.max_abs_T <= 1e-4
    ok = ok and interior_max <= 1e-3
    lines.append(f"integrable chart max|Gamma'| = {interior_max:.2e} (tol 1e-3)")

    dt = time.perf_counter() - t0
    ok = ok and dt < 120.0
    report(5, ok, "; ".join(lines) + f"; runtime {dt:.1f}s (< 120s)")


def test_criterion_6_g_bridge():
    """Round-trip and quotient-law identities to 1e-12; a constant parallelism
    on the isotropic body lands in the material groupoid at 1e-9; < 5 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(66)
    lo, hi = -np.ones(3), np.ones(3)
    P = Parallelism(lambda x: I3 + x[0] * E12, lo, hi)
    S = GroupoidSection.of_parallelism(P)
    pts = [rng.uniform(-0.8, 0.8, 3) for _ in range(4)]
    z = np.zeros(3)

    Q = invert_g_map(S, z, P.frame(z), pts)
    round_trip = max(float(np.max(np.abs(Q.matrix(x) - P.matrix(x)))) for x in pts)

    Z0 = random_invertible(rng)
    PZ = P.right_translate(Z0)
    quotient = max(
        float(np.max(np.abs(g_map(P, a, b).matrix - g_map(PZ, a, b).matrix)))
        for a in pts for b in pts
    )

    body = builtin_body("homogeneous_isotropic")
    samples = make_samples(24, 20240)
    Pc = Parallelism.constant(I3, lo, hi)
    member = all(
        is_material_isomorphism(body, g_map(Pc, rng.uniform(-0.9, 0.9, 3),
                                            rng.uniform(-0.9, 0.9, 3)),
                                samples, 1e-9)
        for _ in range(25)
    )
    dt = time.perf_counter() - t0
    ok = round_trip <= 1e-12 and quotient <= 1e-12 and member and dt < 5.0
    report(6, ok, f"round-trip {round_trip:.2e}, quotient law {quotient:.2e} "
                  f"(tol 1e-12), membership at 1e-9: {member}, "
                  f"runtime {dt:.2f}s (< 5s)")


def test_criterion_7_w_inverse_flow_invariance():
    """W-inverse drifts <= 1e-5 along exponential flows of computed material
    sections of the isotropic body, t in [0, 0.2]; < 10 s."""
    t0 = time.perf_counter()
    body = builtin_body("homogeneous_isotropic")
    samples = make_samples(24, 20240)
    grid = make_grid(body.lo, body.hi, (3, 3, 3), 0.1)
    rng = np.random.default_rng(77)

    drift = 0.0
    for trial in range(3):
        u0 = rng.uniform(-1, 1, 12)
        v_data = np.zeros((grid.n_points, 3))
        a_data = np.zeros((grid.n_points, 3, 3))
        for p, xp in enumerate(grid.points):
            f = fiber(body, xp, samples, RANK_TOL)
            B = f.basis
            proj = B.T @ (B @ u0)
            v_data[p] = proj[:3]
            a_data[p] = proj[3:].reshape(3, 3)
        s = SectionField.from_grid(grid.axes, grid.reshape(v_data),
                                   grid.reshape(a_data))
        x0 = np.zeros(3)
        base = evaluate_w_inverse(body, identity(x0))
        for t_k, y_k, F_k in exp_trajectory(s, 0.2, x0, step=2e-3):
            if t_k == 0.0:
                continue
            w = evaluate_w_inverse(body, Jet1(x0, y_k, F_k))
            drift = max(drift, float(np.max(np.abs(w - base))))
    dt = time.perf_counter() - t0
    report(7, drift <= 1e-5 and dt < 10.0,
           f"max W-inverse drift {drift:.2e} (tol 1e-5) over t in [0,0.2], "
           f"runtime {dt:.1f}s (< 10s)")


def test_criterion_8_determinism():
    """Two full pipeline runs with identical config: byte-identical reports."""
    cfg = {"body": "uniform_fgm", "grid": {"resolution": [5, 5, 5]},
           "samples": {"count": 24, "seed": 20240}}
    b1 = emit_report(run_analysis(AnalysisConfig.from_dict(cfg)), "structured")
    b2 = emit_report(run_analysis(AnalysisConfig.from_dict(cfg)), "structured")
    report(8, b1 == b2, f"structured reports byte-identical: {b1 == b2} "
                        f"({len(b1)} bytes)")
