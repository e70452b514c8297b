"""The benchmark's workloads: operations on matbody with known answers.

A workload is a fixed list of operations built from a seed; one pass runs
each operation once. Every operation returns the units of work it did and a
list of problems found by checking its output against an answer known by
construction. An empty list means the output is correct.

verdict_table  analyze calls on the built-ins at 5^3 and on a polynomial
               body at 3^3; the fibre stage does nearly all the work.
flat_chart     one analysis with the flat chart, singular values and the
               trajectory emitted; chart transport and grid interpolation
               do about half the work.
jet_flows      single-point membership tests, isotropy sampling, lift flows
               and the parallelism bridge; no fibre sweep beyond one 3^3
               lift.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

BUILTINS = ("homogeneous_isotropic", "uniform_fgm", "uniform_fgm_integrable", "nonuniform")

# run_analysis cross-checks the lift with one exponential jet, integrated to
# t = 0.1 at the default 1e-3 step; flat_chart asserts this step count from
# the emitted trajectory.
CROSS_CHECK_STEPS = 100

MEMBERSHIP_TOL = 1e-7          # member defects are ~1e-14, perturbed ones >~1e-3
PERTURBATION = 0.05
W_INVERSE_DRIFT_TOL = 1e-5
GAMMA_PRIME_TOL = 1e-3
FLOW_T = 0.5                    # 500 RK4 steps at the 1e-3 default step
FLOW_STEP = 1e-3

_I3 = np.eye(3)
_E12 = np.zeros((3, 3))
_E12[0, 1] = 1.0
_E21 = _E12.T.copy()


@dataclass
class Outcome:
    """What one operation did: work units and problems found by its check."""

    units: dict = field(default_factory=dict)    # points / jets / rk4_steps
    problems: list = field(default_factory=list)
    report: bytes | None = None                  # structured report, if any


@dataclass
class Op:
    """One timed call into the package plus an untimed check of its result."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]


@dataclass
class Workload:
    name: str
    warmup: Op                # small op on the same code paths as the passes
    ops: list
    setup_configs: list       # config documents the set-up probe builds


# ---------------------------------------------------------------------------
# Inputs generated from the seed
# ---------------------------------------------------------------------------

def random_rotation(rng) -> np.ndarray:
    """Haar-distributed rotation from the QR decomposition of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def rotation_about_e1(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def implant(kind: str, x) -> np.ndarray:
    """K(x) of a graded built-in: W(F, x) = w0(F K(x))."""
    shear = _E12 if kind == "uniform_fgm" else _E21
    return _I3 + x[0] * shear


def perturb(P: np.ndarray, rng) -> np.ndarray:
    S = rng.normal(size=(3, 3))
    return P @ (_I3 + PERTURBATION * S / np.linalg.norm(S))


def isotropic_polynomial_terms() -> list:
    """|F^T F - I|^2 expanded into monomials over (F row-major, x): 46 terms."""

    def var(i):
        e = [0] * 12
        e[i] = 1
        return tuple(e)

    def mul(p, q):
        out = defaultdict(float)
        for a, ca in p.items():
            for b, cb in q.items():
                out[tuple(i + j for i, j in zip(a, b))] += ca * cb
        return out

    total = defaultdict(float)
    for i in range(3):
        for j in range(3):
            c = defaultdict(float)
            for k in range(3):
                for mono, coeff in mul({var(3 * k + i): 1.0}, {var(3 * k + j): 1.0}).items():
                    c[mono] += coeff
            if i == j:
                c[(0,) * 12] -= 1.0
            for mono, coeff in mul(c, c).items():
                total[mono] += coeff
    return [[list(m), c] for m, c in sorted(total.items()) if c != 0.0]


def member_jet(kind: str, rng) -> tuple:
    """(x, y, P) with (x -> y, P) in the material groupoid of a built-in."""
    x = rng.uniform(-0.9, 0.9, 3)
    y = rng.uniform(-0.9, 0.9, 3)
    if kind == "homogeneous_isotropic":
        return x, y, random_rotation(rng)
    if kind == "nonuniform":
        # W depends on x only through x1 and on F only through F^T F and F11.
        y[0] = x[0]
        return x, y, rotation_about_e1(rng.uniform(0.0, 2.0 * np.pi))
    return x, y, implant(kind, y) @ np.linalg.inv(implant(kind, x))


def jet_inputs(rng, per_body: int) -> list:
    """(body, x, y, P, expected member?) with half members, half perturbed."""
    out = []
    for kind in BUILTINS:
        for k in range(per_body):
            x, y, P = member_jet(kind, rng)
            if k % 2:
                out.append((kind, x, y, perturb(P, rng), False))
            else:
                out.append((kind, x, y, P, True))
    return out


def isotropy_inputs(kind: str, rng) -> tuple:
    """(z0, Z0, candidates, expected member flags) at a point with |x1| >= 0.3."""
    z0 = rng.uniform(-0.8, 0.8, 3)
    z0[0] = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 0.8)
    Z0 = random_rotation(rng) @ np.diag(rng.uniform(0.7, 1.3, 3))
    cands, member = [], []
    for _ in range(6):
        R = random_rotation(rng)
        cands.append(R)
        member.append(kind == "homogeneous_isotropic")
    for _ in range(4):
        cands.append(rotation_about_e1(rng.uniform(0.2, 6.0)))
        member.append(kind in ("homogeneous_isotropic", "nonuniform"))
    signs = (np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, -1.0]), np.diag([-1.0, -1.0, 1.0]))
    for Q in signs:
        if kind in ("uniform_fgm", "uniform_fgm_integrable"):
            K = implant(kind, z0)
            cands.append(K @ Q @ np.linalg.inv(K))
            member.append(True)
        else:
            cands.append(Q)
            member.append(kind == "homogeneous_isotropic" or Q[0, 0] > 0)
    for _ in range(3):
        cands.append(np.diag(rng.uniform(0.7, 1.3, 3)))
        member.append(False)
    for _ in range(3):
        i, j = rng.choice(3, size=2, replace=False)
        S = _I3.copy()
        S[i, j] = rng.uniform(0.1, 0.5)
        cands.append(S)
        member.append(False)
    return z0, Z0, cands, member


# ---------------------------------------------------------------------------
# Analyses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Expected:
    """Known answer of one analysis."""

    uniformity: str
    homogeneity: str
    fiber_dim_levels: tuple
    isotropy_dims: dict        # fiber_dim -> isotropy_dim at points of that dim
    all_offending: bool        # every point offends (anchor rank < 3) or none
    chart: bool = False
    trajectory: bool = False


EXPECTED = {
    "homogeneous_isotropic": Expected("uniform", "homogeneous_evidence", (6,), {6: 3}, False),
    "uniform_fgm": Expected("uniform", "obstructed", (3,), {3: 0}, False),
    "uniform_fgm_integrable": Expected("uniform", "homogeneous_evidence", (3,), {3: 0}, False),
    # Rotations about e1 survive the x1 (F11 - 1)^2 term; all of so(3) at x1 = 0.
    "nonuniform": Expected("not_uniform", "n/a", (3, 5), {3: 1, 5: 3}, True),
}


def check_report(doc: dict, exp: Expected) -> list:
    """Problems of a parsed structured report against its known answer."""
    problems = []
    if doc["uniformity"]["verdict"] != exp.uniformity:
        problems.append(f"uniformity {doc['uniformity']['verdict']} != {exp.uniformity}")
    if doc["homogeneity"]["verdict"] != exp.homogeneity:
        problems.append(f"homogeneity {doc['homogeneity']['verdict']} != {exp.homogeneity}")
    levels = tuple(doc["diagnostics"]["fiber_dim_levels"])
    if levels != exp.fiber_dim_levels:
        problems.append(f"fiber_dim_levels {levels} != {exp.fiber_dim_levels}")
    points = doc["points"]
    n = int(np.prod(doc["grid_shape"]))
    if len(points) != n:
        problems.append(f"{len(points)} point records for {n} grid points")
    for rec in points:
        want = exp.isotropy_dims.get(rec["fiber_dim"])
        if want is not None and rec["isotropy_dim"] != want:
            problems.append(f"isotropy dim {rec['isotropy_dim']} != {want} at {rec['index']}")
            break
    offending = sorted(map(tuple, doc["uniformity"]["offending_points"]))
    want_off = sorted(tuple(r["index"]) for r in points) if exp.all_offending else []
    if offending != want_off:
        problems.append(f"{len(offending)} offending points, expected {len(want_off)}")
    chart = doc.get("chart")
    if exp.chart:
        gmax = None if chart is None else chart.get("gamma_prime_interior_max")
        if gmax is None or not gmax <= GAMMA_PRIME_TOL:
            problems.append(f"chart gamma_prime_interior_max {gmax} > {GAMMA_PRIME_TOL}")
    traj = doc.get("trajectory")
    if exp.trajectory and (traj is None or len(traj) != CROSS_CHECK_STEPS + 1):
        problems.append("cross-check trajectory missing or of unexpected length")
    return problems


def analysis_op(mb, name: str, config: dict, exp: Expected) -> Op:
    def call():
        report = mb.run_analysis(mb.AnalysisConfig.from_dict(config))
        return mb.emit_report(report, "structured")

    def check(data):
        doc = json.loads(data.decode("utf-8"))
        problems = check_report(doc, exp)
        crossed = doc["diagnostics"]["exp_membership_defect"] is not None
        units = {"points": len(doc["points"]),
                 "jets": int(crossed),
                 "rk4_steps": CROSS_CHECK_STEPS * int(crossed)}
        return Outcome(units, problems, data)

    return Op(name, call, check)


# ---------------------------------------------------------------------------
# jet_flows operations
# ---------------------------------------------------------------------------

def membership_op(mb, name: str, samples, jets: list) -> Op:
    bodies = {kind: mb.builtin_body(kind) for kind in BUILTINS}

    def call():
        return [mb.is_material_isomorphism(bodies[kind], mb.Jet1(x, y, P), samples,
                                           MEMBERSHIP_TOL)
                for kind, x, y, P, _ in jets]

    def check(answers):
        wrong = sum(bool(a) != want for a, (*_, want) in zip(answers, jets))
        problems = [f"{wrong} of {len(jets)} membership answers wrong"] if wrong else []
        return Outcome({"jets": len(jets)}, problems)

    return Op(name, call, check)


def isotropy_op(mb, name: str, samples, cases: list) -> Op:
    bodies = {kind: mb.builtin_body(kind) for kind in BUILTINS}

    def call():
        return [mb.isotropy_group_sample(bodies[kind], z0, mb.Frame(z0, Z0), cands, samples,
                                         MEMBERSHIP_TOL)
                for kind, z0, Z0, cands, _ in cases]

    def check(groups):
        problems = []
        for got, (kind, _z0, Z0, cands, member) in zip(groups, cases):
            Zi = np.linalg.inv(Z0)
            want = [Zi @ P @ Z0 for P, m in zip(cands, member) if m]
            if len(got) != len(want) or any(not np.allclose(g, w, atol=1e-9)
                                             for g, w in zip(got, want)):
                problems.append(f"{kind}: {len(got)} isotropy elements, expected {len(want)}")
        return Outcome({"jets": sum(len(c[3]) for c in cases)}, problems)

    return Op(name, call, check)


class LiftState:
    """The lift computed by the lift operation, read by the flow operations."""

    grid = None
    lam = None


def lift_op(mb, name: str, kind: str, config: dict, state: LiftState) -> Op:
    """3^3 fibre sweep and minimal lift, as `matbody flow` computes them."""

    def call():
        cfg = mb.AnalysisConfig.from_dict(config)
        body = mb.builtin_body(kind)
        grid = mb.make_grid(body.lo, body.hi, cfg.resolution, cfg.margin)
        samples = mb.make_samples(cfg.sample_count, cfg.seed)
        fibers = [mb.fiber(body, p, samples, cfg.rank_tol, cfg.fd_step) for p in grid.points]
        return grid, mb.minimal_lift_section(grid, fibers, cfg.v_tol)

    def check(result):
        grid, section = result
        state.grid, state.lam = grid, np.array(section.lam)
        # The graded body's lift is A(e1) = dK/dx1 K^-1 = E12, A(e2) = A(e3) = 0.
        want = np.zeros((3, 3, 3))
        want[0] = _E12 if kind == "uniform_fgm" else _E21
        err = float(np.max(np.abs(section.lam - want)))
        problems = [f"lift differs from dK K^-1 by {err:.2e}"] if err > 1e-6 else []
        return Outcome({"points": grid.n_points}, problems)

    return Op(name, call, check)


def flow_op(mb, name: str, kind: str, state: LiftState, x0, u) -> Op:
    """One exponential trajectory of the lift in direction u, as `matbody flow`."""
    body = mb.builtin_body(kind)

    def call():
        grid = state.grid
        a_data = grid.reshape(np.einsum("pjkl,j->pkl", state.lam, u))
        v_data = grid.reshape(np.tile(u, (grid.n_points, 1)))
        section = mb.SectionField.from_grid(grid.axes, v_data, a_data)
        return mb.exp_trajectory(section, FLOW_T, x0, FLOW_STEP)

    def check(records):
        base = mb.evaluate_w_inverse(body, mb.Jet1(x0, x0, _I3))
        drift = max(float(np.max(np.abs(mb.evaluate_w_inverse(body, mb.Jet1(x0, y, F)) - base)))
                    for _t, y, F in records[1::10] + records[-1:])
        problems = []
        if drift > W_INVERSE_DRIFT_TOL:
            problems.append(f"W-inverse drift {drift:.2e} > {W_INVERSE_DRIFT_TOL}")
        if abs(records[-1][0] - FLOW_T) > 1e-12:
            problems.append(f"trajectory ends at t = {records[-1][0]}")
        return Outcome({"rk4_steps": len(records) - 1}, problems)

    return Op(name, call, check)


def bridge_op(mb, name: str, rng) -> Op:
    """Invert the g-map of each graded body's implant frame and test integrability."""
    gst = mb.gstructure
    corners = [np.full(3, -0.8), np.full(3, 0.8)]
    # The inverted parallelism lives on the hull of the points; the corners
    # make that hull contain the bracket grid.
    grid = mb.make_grid(corners[0], corners[1], (5, 5, 5), 0.1)
    cases = [(kind, rng.uniform(-0.5, 0.5, 3),
              corners + [rng.uniform(-0.8, 0.8, 3) for _ in range(3)])
             for kind in ("uniform_fgm", "uniform_fgm_integrable")]

    def call():
        out = []
        for kind, z, pts in cases:
            P = gst.Parallelism(lambda x, kind=kind: implant(kind, x), -np.ones(3), np.ones(3))
            S = gst.GroupoidSection.of_parallelism(P)
            Q = gst.invert_g_map(S, z, P.frame(z), pts)
            out.append((Q, gst.frame_bracket_defect(Q, grid)))
        return out

    def check(results):
        problems = []
        for (kind, _z, pts), (Q, bracket) in zip(cases, results):
            trip = max(float(np.max(np.abs(Q.matrix(x) - implant(kind, x)))) for x in pts)
            if trip > 1e-12:
                problems.append(f"{kind}: g-map round trip {trip:.2e}")
            # Columns of I + x1 E12 have bracket [E1, E2] = e1; I + x1 E21 commutes.
            want = 1.0 if kind == "uniform_fgm" else 0.0
            if abs(bracket - want) > 1e-9:
                problems.append(f"{kind}: frame bracket defect {bracket:.3e} != {want}")
        return Outcome({}, problems)

    return Op(name, call, check)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _sample_seed(seed: int) -> int:
    return int(np.random.default_rng([seed, 1]).integers(0, 2**31 - 1))


def verdict_table(mb, seed: int) -> Workload:
    samples = {"count": 24, "seed": _sample_seed(seed)}
    grid5 = {"resolution": [5, 5, 5], "margin": 0.1}
    configs = [{"body": kind, "grid": grid5, "samples": samples}
               for kind in ("homogeneous_isotropic", "uniform_fgm", "nonuniform")]
    poly = {"body": {"polynomial": {"terms": isotropic_polynomial_terms(), "name": "iso_poly"}},
            "grid": {"resolution": [3, 3, 3], "margin": 0.1}, "samples": samples}
    ops = [analysis_op(mb, c["body"], c, EXPECTED[c["body"]]) for c in configs]
    ops.append(analysis_op(mb, "polynomial", poly, EXPECTED["homogeneous_isotropic"]))
    small = dict(configs[0], grid={"resolution": [3, 3, 3], "margin": 0.1})
    warmup = analysis_op(mb, "warmup", small, EXPECTED["homogeneous_isotropic"])
    return Workload("verdict_table", warmup, ops, configs + [poly])


def flat_chart(mb, seed: int) -> Workload:
    config = {"body": "uniform_fgm_integrable",
              "grid": {"resolution": [7, 7, 7], "margin": 0.1},
              "samples": {"count": 12, "seed": _sample_seed(seed)},
              "flags": {"emit_chart": True, "emit_singular_values": True,
                        "emit_trajectories": True}}
    exp = replace(EXPECTED["uniform_fgm_integrable"], chart=True, trajectory=True)
    small = dict(config, grid={"resolution": [3, 3, 3], "margin": 0.1})
    return Workload("flat_chart", analysis_op(mb, "warmup", small, exp),
                    [analysis_op(mb, "chart", config, exp)], [config])


def jet_flows(mb, seed: int) -> Workload:
    rng = np.random.default_rng([seed, 2])
    samples_doc = {"count": 24, "seed": _sample_seed(seed)}
    samples = mb.make_samples(samples_doc["count"], samples_doc["seed"])
    lift_kind = "uniform_fgm"
    lift_cfg = {"body": lift_kind, "grid": {"resolution": [3, 3, 3], "margin": 0.1},
                "samples": samples_doc}
    state = LiftState()
    ops = [lift_op(mb, "lift", lift_kind, lift_cfg, state)]
    jets = jet_inputs(rng, per_body=256)
    batch = 256
    ops += [membership_op(mb, f"jets{k // batch}", samples, jets[k:k + batch])
            for k in range(0, len(jets), batch)]
    cases = [(kind, *isotropy_inputs(kind, rng)) for kind in BUILTINS]
    ops.append(isotropy_op(mb, "isotropy", samples, cases))
    for k in range(3):
        u = rng.normal(size=3)
        ops.append(flow_op(mb, f"flow{k}", lift_kind, state,
                           rng.uniform(-0.3, 0.3, 3), u / np.linalg.norm(u)))
    ops.append(bridge_op(mb, "bridge", rng))
    setup = [{"body": kind, "grid": lift_cfg["grid"], "samples": samples_doc}
             for kind in BUILTINS]
    # The lift is small and fills the state the flow operations read.
    return Workload("jet_flows", ops[0], ops, setup)


WORKLOADS = {"verdict_table": verdict_table, "flat_chart": flat_chart, "jet_flows": jet_flows}


def timed(op: Op, speed) -> tuple:
    """Run one operation: (measured s, reference s, Outcome).

    Only the call is timed, not the check. An exception becomes a problem.
    """
    token = speed.start()
    try:
        result = op.call()
    except Exception as exc:  # a failing operation is counted, not fatal
        return (*speed.stop(token), Outcome({}, [f"{type(exc).__name__}: {exc}"]))
    seconds, reference = speed.stop(token)
    try:
        return seconds, reference, op.check(result)
    except Exception as exc:
        return seconds, reference, Outcome({}, [f"check raised {type(exc).__name__}: {exc}"])
