"""Exponential flows: group laws, RK4 convergence, the induced derivation,
and invariance of W-inverse along material flows."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from matbody import (
    LeftDomain,
    MatbodyError,
    SectionField,
    StepTooLarge,
    derivation_matrix,
    evaluate_w_inverse,
    exp_section,
    exp_trajectory,
    fiber,
    identity,
    one_parameter_check,
)
import matbody
from matbody.flows import BLOCK_STEPS, DEFAULT_STEP
from matbody.grid import TrilinearField
from oracles import (E12, loop_trilinear, matrix_exp, propagator_exp_trajectory,
                     segment_exp_trajectory, tuple_exp_trajectory)

LO, HI = -np.ones(3), np.ones(3)


def skew(a, b, c):
    return np.array([[0.0, -c, b], [c, 0.0, -a], [-b, a, 0.0]])


# ---------------------------------------------------------------------------
# exponential jets
# ---------------------------------------------------------------------------

def test_zero_section_gives_identity(rng):
    s = SectionField.constant(np.zeros(3), np.zeros((3, 3)), LO, HI)
    for t in (0.0, 0.05, -0.3, 1.0):
        x = rng.uniform(-0.5, 0.5, 3)
        g = exp_section(s, t, x)
        e = identity(x)
        assert np.max(np.abs(g.target - e.target)) <= 1e-14
        assert np.max(np.abs(g.matrix - e.matrix)) <= 1e-14


def test_pure_translation_flow(rng):
    v = np.array([0.3, -0.2, 0.1])
    s = SectionField.constant(v, np.zeros((3, 3)), LO, HI)
    x = np.array([0.1, 0.1, 0.1])
    g = exp_section(s, 0.5, x)
    assert np.max(np.abs(g.target - (x + 0.5 * v))) <= 1e-12
    assert np.max(np.abs(g.matrix - np.eye(3))) <= 1e-12


def test_constant_matrix_flow_matches_expm(rng):
    """Independent oracle: scaling-and-squaring matrix exponential."""
    for _ in range(5):
        A = rng.uniform(-1, 1, (3, 3))
        s = SectionField.constant(np.zeros(3), A, LO, HI)
        t = 0.4
        g = exp_section(s, t, np.zeros(3))
        assert np.max(np.abs(g.target)) <= 1e-14
        assert np.max(np.abs(g.matrix - matrix_exp(t * A))) <= 1e-8


def test_step_guards():
    """Steps outside (0, MAX_STEP] and pullback steps outside (0, MAX_PULLBACK_H] are refused."""
    s = SectionField.constant(np.zeros(3), np.zeros((3, 3)), LO, HI)
    for step, h in [(0.1, 1e-3), (0.0, 0.0), (-1e-3, -1e-5), (np.nan, np.nan)]:
        with pytest.raises(StepTooLarge, match=r"is not in \(0, 0\.01\]"):
            exp_trajectory(s, 0.5, np.zeros(3), step)
        with pytest.raises(StepTooLarge, match=r"is not in \(0, 0\.0001\]"):
            derivation_matrix(s, np.zeros(3), h=h)


def test_left_domain(rng):
    s = SectionField.constant(np.array([1.0, 0, 0]), np.zeros((3, 3)), LO, HI)
    with pytest.raises(LeftDomain):
        exp_section(s, 1.0, np.array([0.5, 0, 0]))


def test_trajectory_matches_endpoint(rng):
    A = skew(0.3, -0.1, 0.2)
    s = SectionField.constant(np.array([0.2, 0, 0]), A, LO, HI)
    x = np.zeros(3)
    recs = exp_trajectory(s, 0.2, x)
    g = exp_section(s, 0.2, x)
    t_end, y_end, F_end = recs[-1]
    assert t_end == pytest.approx(0.2)
    assert np.max(np.abs(y_end - g.target)) <= 1e-14
    assert np.max(np.abs(F_end - g.matrix)) <= 1e-14
    assert len(recs) == 201


# ---------------------------------------------------------------------------
# one-parameter group laws
# ---------------------------------------------------------------------------

def varying_section():
    def fn(x):
        v = np.array([0.3 + 0.2 * x[1], -0.1 * x[0], 0.15])
        A = 0.5 * E12 * x[0] + skew(0.2, 0.1 * x[2], -0.3)
        return v, A
    return SectionField(fn, LO, HI)


def test_one_parameter_zero_u(rng):
    s = varying_section()
    assert one_parameter_check(s, 0.07, 0.0, np.zeros(3)) <= 1e-12


def test_one_parameter_constant_section():
    A = skew(0.5, -0.4, 0.3) + 0.2 * np.eye(3)
    s = SectionField.constant(np.array([0.3, 0.2, -0.1]), A, LO, HI)
    assert one_parameter_check(s, 0.05, 0.05, np.zeros(3)) <= 1e-8


def test_one_parameter_rk4_order():
    """Composition defect vs the exact subgroup shrinks >= 8x per step halving.

    When t and u are integer multiples of the step, the discrete flow satisfies
    the composition law to rounding (the sub-flows retrace the same RK4 steps);
    that exactness is asserted separately.  Order-4 convergence is therefore
    measured against the closed-form one-parameter subgroup exp(t A).
    """
    A = np.array([[0.0, 2.0, 0.3], [-1.5, 0.1, 0.0], [0.2, 0.0, -0.4]])
    s = SectionField.constant(np.array([0.5, 0.1, -0.2]), A, LO, HI)
    x = np.zeros(3)
    assert one_parameter_check(s, 0.05, 0.05, x, step=0.01) <= 1e-12

    t = 0.1
    exact = matrix_exp(t * A)
    errs = [np.max(np.abs(exp_section(s, t, x, step=h).matrix - exact))
            for h in (0.01, 0.005, 0.0025)]
    assert errs[1] > 1e-14 and errs[2] > 1e-15   # above rounding floor
    assert errs[0] / errs[1] >= 8.0
    assert errs[1] / errs[2] >= 8.0


def test_inverse_law(rng):
    s = varying_section()
    x = np.array([0.1, -0.2, 0.05])
    t = 0.1
    fwd = exp_section(s, t, x)
    back = exp_section(s, -t, fwd.target)
    assert np.max(np.abs(back.target - x)) <= 1e-8
    assert np.max(np.abs(back.matrix @ fwd.matrix - np.eye(3))) <= 1e-8


def test_anchor_flow_matches_ivp_oracle():
    """beta o Exp_t equals the flow of the anchor field (solve_ivp, tight tols)."""
    s = varying_section()
    x = np.array([0.0, 0.1, -0.1])
    t = 0.3
    g = exp_section(s, t, x)
    sol = solve_ivp(lambda _, y: s.value(y)[0], (0, t), x,
                    rtol=1e-12, atol=1e-12)
    assert np.max(np.abs(g.target - sol.y[:, -1])) <= 1e-9


# ---------------------------------------------------------------------------
# derivation matrix (the Thm-48 style pullback differentiation)
# ---------------------------------------------------------------------------

def test_derivation_of_zero_section():
    s = SectionField.constant(np.zeros(3), np.zeros((3, 3)), LO, HI)
    M, b = derivation_matrix(s, np.zeros(3))
    assert np.max(np.abs(M)) <= 1e-12
    assert np.max(np.abs(b)) <= 1e-12


def test_derivation_of_constant_matrix_section(rng):
    A = rng.uniform(-1, 1, (3, 3))
    s = SectionField.constant(np.array([0.2, -0.1, 0.3]), A, LO, HI)
    M, b = derivation_matrix(s, np.array([0.1, 0.1, 0.1]))
    assert np.max(np.abs(M + A)) <= 1e-6
    assert np.max(np.abs(b - np.array([0.2, -0.1, 0.3]))) <= 1e-8


def test_derivation_of_varying_section(rng):
    """M = -A(x) and b = v(x) at random interior points, to 1e-5."""
    s = varying_section()
    for _ in range(10):
        x = rng.uniform(-0.5, 0.5, 3)
        v_exact, A_exact = s.value(x)
        M, b = derivation_matrix(s, x)
        assert np.max(np.abs(M + A_exact)) <= 1e-5
        assert np.max(np.abs(b - v_exact)) <= 1e-5


# ---------------------------------------------------------------------------
# grid-backed sections
# ---------------------------------------------------------------------------

def test_grid_section_interpolates_and_guards(rng):
    axes = tuple(np.linspace(-0.9, 0.9, 5) for _ in range(3))
    shape = (5, 5, 5)
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    v_data = np.zeros(shape + (3,))
    v_data[..., 0] = 1.0
    a_data = np.einsum("xyz,kl->xyzkl", pts[..., 0], E12)  # A(x) = x1 * E12
    s = SectionField.from_grid(axes, v_data, a_data)
    v, A = s.value([0.45, 0.0, 0.0])
    assert np.max(np.abs(v - np.array([1.0, 0, 0]))) <= 1e-12
    assert np.max(np.abs(A - 0.45 * E12)) <= 1e-12   # trilinear is exact on linears
    with pytest.raises(LeftDomain):
        s.value([0.95, 0.0, 0.0])
    with pytest.raises(LeftDomain):
        exp_section(s, 1.0, [0.5, 0.0, 0.0])


def test_stacked_grid_section_is_bitwise_two_fields(fgm_body, samples):
    """The from-grid section's flow is the segment rule over an analytic section of the
    same two fields, bit for bit, and that section's own velocity-pass flow to rounding."""
    from matbody import TrilinearField, fibers_at, make_grid, minimal_lift_section

    grid = make_grid(fgm_body.lo, fgm_body.hi, (3, 3, 3), 0.1)
    lift = minimal_lift_section(grid, fibers_at(fgm_body, grid.points, samples))
    u = np.array([0.6, -0.48, 0.64])
    a_data = grid.reshape(np.einsum("pjkl,j->pkl", lift.lam, u))
    v_data = grid.reshape(np.tile(u, (grid.n_points, 1)))
    vf, af = TrilinearField(grid.axes, v_data), TrilinearField(grid.axes, a_data)
    hull = (grid.points[0], grid.points[-1])
    two = SectionField(lambda x: (vf(x), af(x)), *hull)
    one = SectionField.from_grid(grid.axes, v_data, a_data)
    x0 = np.array([0.1, -0.2, 0.15])
    assert one.straight is not None and two.straight is None
    got = recorded(exp_trajectory, one, 0.3, x0, DEFAULT_STEP)
    assert len(got) == 301
    assert got == recorded(segment_exp_trajectory, two, 0.3, x0, DEFAULT_STEP)
    assert_is_the_classical_rk4(got, recorded(exp_trajectory, two, 0.3, x0, DEFAULT_STEP),
                                "two fields", straight=True)


def test_grid_section_trajectory_is_bitwise_the_reference_trilinear(fgm_body, samples):
    """200 RK4 steps of a v field with fixed noise, not straight, retrace the reference
    interpolant exactly."""
    from matbody import fibers_at, make_grid, minimal_lift_section

    grid = make_grid(fgm_body.lo, fgm_body.hi, (3, 3, 3), 0.1)
    lift = minimal_lift_section(grid, fibers_at(fgm_body, grid.points, samples))
    u = np.array([0.6, -0.48, 0.64])
    a_data = grid.reshape(np.einsum("pjkl,j->pkl", lift.lam, u))
    noise = 0.2 * np.random.default_rng(7).uniform(-1.0, 1.0, grid.shape + (3,))
    v_data = grid.reshape(np.tile(u, (grid.n_points, 1))) + noise
    fast = SectionField.from_grid(grid.axes, v_data, a_data)
    assert fast.straight is None
    ref = SectionField(lambda x: (loop_trilinear(grid.axes, v_data, x),
                                  loop_trilinear(grid.axes, a_data, x)),
                       grid.points[0], grid.points[-1])
    x0 = np.array([0.1, -0.2, 0.15])
    got, want = (exp_trajectory(s, 0.2, x0) for s in (fast, ref))
    assert len(got) == 201
    assert ([(t, y.tobytes(), F.tobytes()) for t, y, F in got]
            == [(t, y.tobytes(), F.tobytes()) for t, y, F in want])


# ---------------------------------------------------------------------------
# batched propagators against the tuple-of-arrays references: bitwise against
# per-step propagators (on the segment rule for a straight section), and
# against classical RK4 on F in error class bitwise, in y bitwise (to rounding
# against a straight section's running sum) and in F to rounding
# ---------------------------------------------------------------------------

ORACLE_AXES = tuple(np.linspace(-0.9, 0.9, 5) for _ in range(3))   # cell faces at 0, +-0.45
_lattice = np.random.default_rng(41)
ORACLE_V_NOISE = 0.2 * _lattice.uniform(-1.0, 1.0, (5, 5, 5, 3))
ORACLE_A_DATA = 0.5 * _lattice.uniform(-1.0, 1.0, (5, 5, 5, 3, 3))


def oracle_sections(u):
    """From-grid, straight from-grid (a lift's tiled u), constant and analytic sections
    that move along u."""
    def analytic(x):
        return (u + 0.2 * np.array([x[1], -x[0], x[2]]),
                0.5 * E12 * x[0] + skew(0.2, 0.1 * x[2], -0.3))

    return {
        "from_grid": SectionField.from_grid(ORACLE_AXES, u + ORACLE_V_NOISE, ORACLE_A_DATA),
        "straight_grid": SectionField.from_grid(ORACLE_AXES, np.tile(u, (5, 5, 5, 1)),
                                                ORACLE_A_DATA),
        "constant": SectionField.constant(u, skew(0.5, -0.4, 0.3) + 0.2 * np.eye(3), LO, HI),
        "analytic": SectionField(analytic, LO, HI),
    }


def recorded(trajectory, section, t, x0, step):
    """Records as (t, y bytes, F bytes), or the class of the error the flow raised."""
    try:
        return [(t_k, y.tobytes(), F.tobytes()) for t_k, y, F in trajectory(section, t, x0, step)]
    except MatbodyError as exc:
        return type(exc)


# F = M_k F and RK4 on F round differently: at most 0.6 ulp of max|F| per step over
# 360 random flows of the sections below (t up to 0.4, steps 1e-3 to 1e-2); the bound
# allows 4.  A straight section's F, whose A the segment rule reads at points a few
# ulps off the running sum's, read at most 0.5 over 203 such flows of the straight and
# constant sections.
F_ULPS_PER_STEP = 4
# A straight section's y: the segment rule's x + (2k / 2n) t u against classical RK4's
# running sum of k equal increments.  At most 0.25 ulp of max(1, max|y|) per step over
# those 203 flows; the bound allows 1.
Y_ULPS_PER_STEP = 1


def assert_is_the_classical_rk4(got, want, name, straight=False):
    """The same error class, or t bit for bit, y bit for bit (a straight section's to
    Y_ULPS_PER_STEP ulps of max(1, max|y|) per step) and F to F_ULPS_PER_STEP ulps of
    max|F| per step."""
    if isinstance(got, type) or isinstance(want, type):
        assert got is want, name
        return
    steps, eps = len(got) - 1, np.finfo(float).eps
    assert [r[0] for r in got] == [r[0] for r in want], name
    if straight:
        y, z = (np.array([np.frombuffer(r[1]) for r in records]) for records in (got, want))
        bound = Y_ULPS_PER_STEP * steps * eps * max(1.0, np.max(np.abs(z)))
        assert np.max(np.abs(y - z)) <= bound, name
    else:
        assert [r[1] for r in got] == [r[1] for r in want], name
    F, G = (np.array([np.frombuffer(r[2]) for r in records]) for records in (got, want))
    bound = F_ULPS_PER_STEP * steps * eps * np.max(np.abs(G))
    assert np.max(np.abs(F - G)) <= bound, name


def assert_is_the_reference(section, t, x0, step, name):
    """The flow's records, or its error class, equal the per-step propagator reference bit
    for bit (the segment rule's for a straight section), and classical RK4 on F to
    rounding.  Returns the records."""
    got = recorded(exp_trajectory, section, t, x0, step)
    straight = section.straight is not None
    reference = segment_exp_trajectory if straight else propagator_exp_trajectory
    assert got == recorded(reference, section, t, x0, step), name
    assert_is_the_classical_rk4(got, recorded(tuple_exp_trajectory, section, t, x0, step),
                                name, straight)
    return got


points = st.lists(st.floats(-0.9, 0.9), min_size=3, max_size=3).map(np.array)
directions = (st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).map(np.array)
              .filter(lambda u: np.linalg.norm(u) > 0.1))


@settings(max_examples=40)
@given(x0=points, u=directions, t=st.sampled_from([0.0, 0.05, -0.2, 0.4]),
       step=st.sampled_from([1e-3, 4e-3, 1e-2]))
@example(x0=np.array([-0.1, 0.0, 0.4]), u=np.array([1.0, 0.3, 0.3]), t=0.4, step=4e-3)
@example(x0=np.array([0.0, 0.45, 0.0]), u=np.array([-0.6, 0.8, 0.0]), t=0.4, step=1e-2)
@example(x0=np.array([0.8, 0.0, 0.0]), u=np.array([1.0, 0.0, 0.0]), t=0.4, step=1e-2)
def test_exp_trajectory_is_bitwise_the_tuple_rk4(x0, u, t, step):
    """Every record, or the error class, equals the per-step propagator reference bit for
    bit, the segment rule's for the straight and constant sections, and classical RK4
    on F to rounding (``assert_is_the_reference``).

    The explicit examples cross cell faces (and start on one) or leave the hull.
    """
    for name, section in oracle_sections(u).items():
        assert_is_the_reference(section, t, x0, step, name)


def test_oracle_examples_cross_cell_faces_and_leave_the_hull():
    """The explicit examples above exercise what they claim to."""
    ticks = ORACLE_AXES[0]
    section = oracle_sections(np.array([1.0, 0.3, 0.3]))["from_grid"]
    ys = np.array([y for _, y, _ in exp_trajectory(section, 0.4, [-0.1, 0.0, 0.4], 4e-3)])
    cells = np.searchsorted(ticks, ys, side="right")
    assert len({tuple(c) for c in cells}) >= 3
    with pytest.raises(LeftDomain):
        exp_trajectory(oracle_sections(np.array([1.0, 0.0, 0.0]))["from_grid"], 0.4,
                       [0.8, 0.0, 0.0], 1e-2)


@pytest.fixture
def field_calls(monkeypatch):
    """The shape of the argument of every TrilinearField call, in order."""
    shapes = []
    interpolate = TrilinearField.__call__

    def recording_call(self, x):
        shapes.append(np.shape(x))
        return interpolate(self, x)

    monkeypatch.setattr(TrilinearField, "__call__", recording_call)
    return shapes


@pytest.mark.parametrize("n", [BLOCK_STEPS - 1, BLOCK_STEPS, BLOCK_STEPS + 1, 2 * BLOCK_STEPS + 1])
def test_blocks_of_steps_are_bitwise_the_tuple_rk4(n, field_calls):
    """Flows of n steps around the block edges equal the per-step propagator reference bit
    for bit (the segment rule's when straight), and classical RK4 on F to rounding.

    A from-grid flow makes one batched A-field call per block.  A flow that is not
    straight calls it on the block's 4 stage points per step, after 4 single-point
    v-field calls per step; a straight one (a constant section too) calls it on the
    block's 2m + 1 segment points, and the v field never.
    """
    x0, step = np.array([-0.4, -0.1, 0.0]), 1e-3
    t = (n - 0.5) * step                                    # n steps, whatever the rounding
    blocks = [min(BLOCK_STEPS, n - first) for first in range(0, n, BLOCK_STEPS)]
    for name, section in oracle_sections(np.array([0.8, 0.2, 0.1])).items():
        field_calls.clear()
        got = recorded(exp_trajectory, section, t, x0, step)
        if name == "from_grid":
            assert field_calls == [s for m in blocks for s in [(3,)] * 4 * m + [(4 * m, 3)]], name
        elif name in ("straight_grid", "constant"):
            assert field_calls == [(2 * m + 1, 3) for m in blocks], name
        assert len(got) == n + 1, name
        assert assert_is_the_reference(section, t, x0, step, name) == got, name


def test_flow_leaving_the_hull_in_its_second_block_raises_as_the_reference(field_calls):
    """A stage point of the second block leaves the hull, after the first block's matrix
    pass: one batched A-field call, after the first block's single-point v-field calls."""
    section = oracle_sections(np.array([1.0, 0.0, 0.0]))["from_grid"]
    x0, step = np.array([0.8, 0.0, 0.0]), 1e-3
    with pytest.raises(LeftDomain):
        exp_trajectory(section, 0.2, x0, step)
    first = 4 * BLOCK_STEPS
    assert field_calls[:first + 1] == [(3,)] * first + [(first, 3)]
    assert set(field_calls[first + 1:]) == {(3,)}
    assert recorded(tuple_exp_trajectory, section, 0.2, x0, step) is LeftDomain


def test_straight_flow_leaving_the_hull_in_its_second_block_raises_as_the_reference(field_calls):
    """A straight flow whose segment leaves the hull in its second block is refused before
    any A-field call: its end is outside, and the v field is called once, at the first
    stage point outside, for its error.  The segment reference raises the same error
    there, one point at a time, and the running-sum references raise LeftDomain."""
    section = oracle_sections(np.array([1.0, 0.0, 0.0]))["straight_grid"]
    assert section.straight is not None
    x0, step = np.array([0.8, 0.0, 0.0]), 1e-3
    with pytest.raises(LeftDomain, match=r"^point \[0\.90.* outside grid hull$") as err:
        exp_trajectory(section, 0.2, x0, step)
    assert field_calls == [(3,)]
    with pytest.raises(LeftDomain) as want:
        segment_exp_trajectory(section, 0.2, x0, step)
    assert str(err.value) == str(want.value)
    for reference in (propagator_exp_trajectory, tuple_exp_trajectory):
        assert recorded(reference, section, 0.2, x0, step) is LeftDomain


@pytest.mark.parametrize("x0, t", [([0.85, 0.0, 0.3], 0.2), ([0.0, 0.0, 0.3], 0.95),
                                   ([0.0, 0.0, 0.3], -1.5), ([0.95, 0.0, 0.3], -0.1)],
                         ids=["first_block", "late_block", "backwards", "start_outside"])
def test_straight_flow_ending_outside_is_refused_before_any_a_field_call(x0, t, field_calls):
    """A straight flow whose start or end x0 + t u lies outside the hull raises LeftDomain
    with no A-field call: one v-field call at the first stage point outside, the error
    the segment reference raises there, wherever along the segment that point is."""
    section = oracle_sections(np.array([1.0, -0.5, 0.0]))["straight_grid"]
    with pytest.raises(LeftDomain, match="outside grid hull") as err:
        exp_trajectory(section, t, x0, 1e-3)
    assert field_calls == [(3,)]
    with pytest.raises(LeftDomain) as want:
        segment_exp_trajectory(section, t, x0, 1e-3)
    assert str(err.value) == str(want.value)


def test_lift_flows_end_on_the_hull_face(fgm_integrable_body, samples):
    """The lift of e1 at 5^3 from each of the 25 points at x1 = 0.45 over t = 0.45, at 48,
    64 and 100 steps: all 75 flows end on the upper hull face, at the face node bit for
    bit.  A running sum of steps lands ulps past the face in some of them, and the
    running-sum reference refuses those.  The lattice tick is 0.45000000000000007, from
    which t = 0.45 ends past the face in exact arithmetic too, and that flow is refused."""
    from matbody import fibers_at, make_grid, minimal_lift_section

    body = fgm_integrable_body
    grid = make_grid(body.lo, body.hi, (5, 5, 5), 0.1)
    section = minimal_lift_section(grid, fibers_at(body, grid.points, samples)).flow_field(
        [1.0, 0.0, 0.0])
    face = grid.points[grid.points[:, 0] == grid.axes[0][-1]]
    starts = face.copy()
    starts[:, 0] = 0.45
    assert len(face) == 25 and grid.axes[0][-1] == 0.9
    refused = 0
    for steps in (48, 64, 100):
        for x0, node in zip(starts, face):
            records = exp_trajectory(section, 0.45, x0, 0.45 / steps)
            assert len(records) == steps + 1
            assert records[-1][1].tobytes() == node.tobytes()
            running_sum = recorded(tuple_exp_trajectory, section, 0.45, x0, 0.45 / steps)
            refused += running_sum is LeftDomain
    assert refused > 0
    tick = face[0].copy()
    tick[0] = grid.axes[0][3]
    assert tick[0] == 0.45000000000000007
    with pytest.raises(LeftDomain, match=r"^point \[0\.9000000000000001, "):
        exp_trajectory(section, 0.45, tick, 0.45 / 48)


def test_a_stage_point_outside_reads_the_same_on_either_base_pass():
    """A stage point past the hull raises the section's own LeftDomain on both base passes.

    Two sections over one 3^3 lattice flow from (0.995, 0, 0) along e1: a constant one
    (the straight pass) and one whose v carries noise off the line y = z = 0 (the
    velocity pass, which reads e1 exactly on that line).  Both leave at the same point."""
    axes = (np.linspace(-1.0, 1.0, 3),) * 3
    noise = 1e-3 * np.random.default_rng(3).uniform(-1.0, 1.0, (3, 3, 3, 3))
    noise[:, 1, 1] = 0.0
    e1 = np.broadcast_to(np.eye(3)[0], (3, 3, 3, 3))
    A = np.zeros((3, 3, 3, 3, 3))
    sections = {"constant": SectionField.constant(np.eye(3)[0], np.zeros((3, 3)), LO, HI),
                "noisy": SectionField.from_grid(axes, e1 + noise, A)}
    assert sections["constant"].straight is not None and sections["noisy"].straight is None
    messages = set()
    for name, section in sections.items():
        with pytest.raises(LeftDomain) as err:
            exp_trajectory(section, 0.1, [0.995, 0.0, 0.0], 1e-2)
        messages.add(str(err.value))
    assert messages == {"point [1.005, 0.0, 0.0] outside grid hull"}


@pytest.mark.parametrize("A", [skew(0.5, -0.4, 0.3) + 0.2 * np.eye(3),
                               np.where(np.eye(3) == 1.0, -0.0, skew(0.5, -0.4, 0.3)),
                               np.full((3, 3), -0.0)], ids=["dense", "skew", "zero"])
def test_constant_section_is_a_straight_grid_section(A, field_calls):
    """SectionField.constant is a from-grid section over the box corners: straight, one
    batched A-field call per block on its 2m + 1 segment points, and bitwise the
    segment rule over the analytic section that returns (v, A), -0.0 entries of A too,
    and that section's own flow to rounding; it reads v and A anywhere in the box and
    refuses points outside it as a grid hull."""
    v, x0, step = np.array([0.3, -0.2, 0.1]), np.array([-0.4, 0.1, 0.2]), 1e-3
    section = SectionField.constant(v, A, LO, HI)
    assert np.array_equal(section.straight, v)
    got = recorded(exp_trajectory, section, 0.2, x0, step)
    assert len(got) == 201
    assert field_calls == [(2 * min(BLOCK_STEPS, 200 - first) + 1, 3)
                           for first in range(0, 200, BLOCK_STEPS)]
    analytic = SectionField(lambda x: (v, A), LO, HI)
    assert got == recorded(segment_exp_trajectory, analytic, 0.2, x0, step)
    assert_is_the_classical_rk4(got, recorded(exp_trajectory, analytic, 0.2, x0, step),
                                "analytic", straight=True)
    for x in (LO, HI, x0):
        w, B = section.value(x)
        assert np.array_equal(w, v) and np.array_equal(B, A)
    with pytest.raises(LeftDomain, match="outside grid hull"):
        section.value([1.5, 0.0, 0.0])


def assert_on_the_line(records, x0, u):
    """y_k is x0 + t_k u to rounding: the segment rule's x0 + (2k / 2n) t u."""
    ts, ys = np.array([r[0] for r in records]), np.array([r[1] for r in records])
    bound = 4 * len(records) * np.finfo(float).eps * max(1.0, float(np.max(np.abs(ys))))
    assert np.max(np.abs(ys - (x0 + ts[:, None] * u))) <= bound


def test_analysis_cross_check_flows_along_a_straight_line(field_calls):
    """run_analysis's exponential cross-check is a lift of e1: no single-point field
    call, and the emitted trajectory runs along x0 + t e1."""
    from matbody import AnalysisConfig, run_analysis

    doc = run_analysis(AnalysisConfig(body="uniform_fgm", resolution=(3, 3, 3),
                                      emit_trajectories=True)).document
    records = [(r["t"], np.array(r["y"])) for r in doc["trajectory"]]
    assert len(records) == 101 and field_calls and (3,) not in field_calls
    assert_on_the_line(records, records[0][1], np.array([1.0, 0.0, 0.0]))


def test_cli_flow_is_straight(tmp_path, field_calls):
    """`matbody flow` makes no single-point field call, and its records run along x0 + t u."""
    from matbody import cli

    cfg, out = tmp_path / "cfg.json", tmp_path / "flow.json"
    cfg.write_text(json.dumps({"body": "uniform_fgm", "grid": {"resolution": [3, 3, 3]}}))
    assert cli.main(["flow", "--config", str(cfg), "--t", "-0.3", "--x", "0.1,0.2,-0.1",
                     "--direction", "1,0.5,-0.25", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    records = [(r["t"], np.array(r["y"])) for r in doc["records"]]
    assert len(records) == 301 and field_calls and (3,) not in field_calls
    assert_on_the_line(records, np.array([0.1, 0.2, -0.1]), np.array([1.0, 0.5, -0.25]))


def test_cli_flow_ends_on_the_hull_face(tmp_path):
    """`matbody flow` at 3^3 from the origin over t = 0.9 along e1 ends at the hull's
    corner face node (0.9, 0, 0) exactly, with exit 0."""
    from matbody import cli

    cfg, out = tmp_path / "cfg.json", tmp_path / "flow.json"
    cfg.write_text(json.dumps({"body": "uniform_fgm", "grid": {"resolution": [3, 3, 3]}}))
    assert cli.main(["flow", "--config", str(cfg), "--t", "0.9", "--x", "0,0,0",
                     "--out", str(out)]) == 0
    assert json.loads(out.read_text())["records"][-1]["y"] == [0.9, 0.0, 0.0]


@pytest.mark.parametrize("kind", ["from_grid", "analytic"])
def test_rk4_stage_outside_the_domain_raises_even_when_the_step_ends_inside(kind):
    """v = lam (y - p) with lam dt = -2 puts the fourth stage at 2p - x0, outside.

    The step itself ends at p + (x0 - p) / 3, inside, so only a per-stage domain
    check refuses it.
    """
    lam, p, x0, dt = -200.0, np.array([0.9, 0.0, 0.0]), np.array([0.7, 0.0, 0.0]), 1e-2
    if kind == "from_grid":
        axes = tuple(np.linspace(-1.0, 1.0, 5) for _ in range(3))
        nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        section = SectionField.from_grid(axes, lam * (nodes - p), np.zeros((5, 5, 5, 3, 3)))
    else:
        section = SectionField(lambda x: (lam * (x - p), np.zeros((3, 3))), LO, HI)
    for trajectory in (exp_trajectory, tuple_exp_trajectory):
        with pytest.raises(LeftDomain):
            trajectory(section, dt, x0, dt)
    wide = SectionField(lambda x: (lam * (x - p), np.zeros((3, 3))), 2 * LO, 2 * HI)
    (_, y, _), = exp_trajectory(wide, dt, x0, dt)[1:]
    assert np.max(np.abs(y - (p + (x0 - p) / 3))) <= 1e-12 and section.box.contains(y)


def test_a_step_ending_outside_the_domain_raises_though_its_stages_are_inside():
    """v = 0.1 but 100 on x1 in [0.9908, 0.9912]: from x1 = 0.99 with step 0.01 the
    stages sit at 0.99, 0.9905, 0.9905 and 0.991, and y lands at 1.1575."""
    def fn(x):
        return np.array([100.0 if 0.9908 <= x[0] <= 0.9912 else 0.1, 0.0, 0.0]), np.zeros((3, 3))

    section = SectionField(fn, LO, HI)
    for trajectory in (exp_trajectory, tuple_exp_trajectory):
        with pytest.raises(LeftDomain):
            trajectory(section, 0.01, [0.99, 0.0, 0.0], 0.01)
    with pytest.raises(LeftDomain, match=r"trajectory exited the domain at \[1\.157"):
        exp_trajectory(section, 0.01, [0.99, 0.0, 0.0], 0.01)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_section_refuses_non_finite_points(bad):
    s = SectionField.constant(np.zeros(3), np.zeros((3, 3)), LO, HI)
    for axis in range(3):
        x = np.zeros(3)
        x[axis] = bad
        assert not s.box.contains(x)
        with pytest.raises(LeftDomain):
            s.value(x)
    assert s.box.contains(HI) and s.box.contains(LO)


def test_cli_flow_output_is_stable(tmp_path):
    """Two `matbody flow` processes print the same document, byte for byte, and so do
    two `matbody analyze --format structured` processes, under different hash seeds."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"body": "uniform_fgm", "grid": {"resolution": [3, 3, 3]}}))
    src = str(Path(matbody.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    cli = [sys.executable, "-m", "matbody.cli"]
    flow = cli + ["flow", "--config", str(cfg), "--t", "0.05",
                  "--x", "0.1,0.2,-0.1", "--direction", "1,0.5,0"]
    analyze = cli + ["analyze", "--config", str(cfg), "--format", "structured"]
    docs = []
    for argv in (flow, analyze):
        runs = [subprocess.run(argv, env=dict(env, PYTHONHASHSEED=seed), capture_output=True,
                               timeout=120)
                for seed in ("1", "2")]
        for done in runs:
            assert done.returncode == 0, done.stderr.decode()
        assert runs[0].stdout == runs[1].stdout, argv[3]
        docs.append(json.loads(runs[0].stdout))
    assert len(docs[0]["records"]) == 51
    assert len(docs[1]["points"]) == 27


# ---------------------------------------------------------------------------
# W-inverse invariance along material flows
# ---------------------------------------------------------------------------

def test_w_inverse_constant_along_material_flow(iso_body, samples, rng):
    """Sections valued in the computed material fibers leave W-inverse fixed."""
    from matbody import Jet1, make_grid

    grid = make_grid(iso_body.lo, iso_body.hi, (3, 3, 3), 0.1)
    u0 = np.concatenate([[0.5, -0.3, 0.2],
                         (0.4 * skew(1.0, -0.6, 0.8)).ravel()])
    v_data = np.zeros((grid.n_points, 3))
    a_data = np.zeros((grid.n_points, 3, 3))
    for p, x in enumerate(grid.points):
        f = fiber(iso_body, x, samples)
        B = f.basis
        proj = B.T @ (B @ u0)
        v_data[p] = proj[:3]
        a_data[p] = proj[3:].reshape(3, 3)
    s = SectionField.from_grid(grid.axes, grid.reshape(v_data), grid.reshape(a_data))

    x0 = np.zeros(3)
    base = evaluate_w_inverse(iso_body, identity(x0))
    drift = 0.0
    for t_k, y_k, F_k in exp_trajectory(s, 0.2, x0, step=2e-3):
        if t_k == 0.0:
            continue
        w = evaluate_w_inverse(iso_body, Jet1(x0, y_k, F_k))
        drift = max(drift, float(np.max(np.abs(w - base))))
    assert drift <= 1e-5
