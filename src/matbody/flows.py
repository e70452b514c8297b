"""Right-invariant flows of algebroid sections and the derivation they induce.

A section assigns to each base point a pair (v(x), A(x)).  Its exponential
at x is the jet (x -> y(t), F(t)) obtained by integrating

    dy/dt = v(y),        dF/dt = A(y) F,        y(0) = x,  F(0) = I,

with classical fixed-step RK4.  The base equation does not involve F, so the
flow runs in two passes over blocks of steps.  The base pass integrates y and
records the four stage points of each step; it checks the domain at every
stage and after every step.  In general it takes one ``_rk4_step`` per step,
reading v through ``SectionField.velocity``.  A straight section, whose
velocity is one constant u (``SectionField.straight``), moves y along the
line x + t u: its base pass is one running sum of the constant step increment
per block, with the stage points and the domain checks as whole-block array
operations, bitwise the general pass at that constant velocity.  The matrix
pass, shared by both, then takes A at all stage points of the block from one
batched call.  dF/dt = A(y) F is linear in F, so one RK4 step multiplies F by
a propagator M_k, the step taken from F = I: one ``_rk4_step`` over the
stacked identities of the block gives all its M_k, and each step is then one
3x3 product F = M_k F.  That equals RK4 on F in exact arithmetic and to
rounding in floats.  A grid-backed section holds a v field and an A field
over the same lattice and reads both through their ``TrilinearField`` call.
It is straight when its v field is constant, as in every lift
x -> (u, A_x(u)) of one direction u and every ``SectionField.constant``.
Differentiating the pullback of the flow on the coordinate frame at t = 0
recovers (-A(x), v(x)); no pipeline stage calls that finite-difference check,
``derivation_matrix``: the connection tests use it to lock the sign convention
of the Christoffel symbols.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import LeftDomain, NonFiniteResponse, StepTooLarge
from .grid import Box, TrilinearField
from .jets import Jet1, as_point

MAX_STEP = 1e-2
DEFAULT_STEP = 1e-3
MAX_PULLBACK_H = 1e-4
DEFAULT_PULLBACK_H = 1e-5
MAX_FLOW_STEPS = 10**6
# RK4 steps per block of the two passes.  It bounds the stage buffer and the
# temporaries of the batched A call, which set a flow's peak memory.
BLOCK_STEPS = 64


class SectionField:
    """Assignment x -> (v(x), A(x)), analytic or interpolated from a lattice.

    A flow reads it through two faces: ``velocity(x)``, v at one point (3,) as
    a new (3,) array, raising LeftDomain outside the domain ``box``; and
    ``rates(points)``, A at each point of (m, 3) as (m, 3, 3).  For an
    analytic section both call ``fn`` once per point.  ``straight`` is v as a
    (3,) array when the section is a from-grid section whose v field is
    constant (``constant`` builds one), else None; a flow of a straight
    section never calls its velocity face.
    """

    straight = None

    def __init__(self, fn: Callable[[np.ndarray], tuple], lo, hi):
        self.box = Box(lo, hi)
        self._fn = fn

    def value(self, x) -> tuple:
        """(v(x), A(x)) as new arrays (3,) and (3, 3)."""
        p = np.asarray(x, dtype=float)
        if not self.box.contains(p):
            raise LeftDomain(f"point {p.tolist()} outside section domain")
        v, A = self._fn(p)
        return np.array(v, dtype=float).reshape(3), np.array(A, dtype=float).reshape(3, 3)

    def velocity(self, x) -> np.ndarray:
        """v(x) as a new array (3,)."""
        return self.value(x)[0]

    def rates(self, points: np.ndarray) -> np.ndarray:
        """A at each point of ``points`` (m, 3), as (m, 3, 3)."""
        return np.array([self.value(p)[1] for p in points])

    @staticmethod
    def constant(v, A, lo, hi) -> "SectionField":
        """(v, A) on the box lo <= x <= hi: a straight from-grid section over its corners."""
        v = np.broadcast_to(np.reshape(v, 3), (2, 2, 2, 3))
        A = np.broadcast_to(np.reshape(A, (3, 3)), (2, 2, 2, 3, 3))
        return SectionField.from_grid(np.stack([lo, hi], axis=-1), v, A)

    @staticmethod
    def from_grid(axes, v_data, a_data) -> "SectionField":
        """Trilinear interpolation of lattice samples, a (3,) v and a (3, 3) A per
        node (else ValueError); domain is the grid hull."""
        shapes = np.shape(v_data)[3:], np.shape(a_data)[3:]
        if shapes != ((3,), (3, 3)):
            raise ValueError(f"section data need (3,) and (3, 3) values per node, got {shapes}")
        return _GridSection(TrilinearField(axes, v_data), TrilinearField(axes, a_data))


class _GridSection(SectionField):
    """A v field (3 values per node) and an A field (3 x 3) over the same axes.

    The hull check of each field is the domain check.  It is straight when
    the v field is constant.
    """

    def __init__(self, v_field: TrilinearField, a_field: TrilinearField):
        self.box = v_field.box
        self._v_field, self._a_field = v_field, a_field
        self.straight = v_field.constant

    def value(self, x) -> tuple:
        return self._v_field(x), self._a_field(x)

    def velocity(self, x) -> np.ndarray:
        return self._v_field(x)

    def rates(self, points: np.ndarray) -> np.ndarray:
        return self._a_field(points)


def _rk4_step(rhs: Callable, x: np.ndarray, dt: float) -> np.ndarray:
    """One classical RK4 step of dx/dt = rhs(c, x) for an array state x.

    ``c`` is the stage's fraction of the step (0, 1/2 or 1), for a time-dependent rhs.
    """
    k1 = rhs(0.0, x)
    k2 = rhs(0.5, x + 0.5 * dt * k1)
    k3 = rhs(0.5, x + 0.5 * dt * k2)
    k4 = rhs(1.0, x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def exp_section(section: SectionField, t: float, x, step: float = DEFAULT_STEP) -> Jet1:
    """Exponential jet Exp_t of the section at x: (x -> y(t), F(t))."""
    _, y, F = exp_trajectory(section, t, x, step)[-1]
    return Jet1(x, y, F)


def exp_trajectory(section: SectionField, t: float, x,
                   step: float = DEFAULT_STEP) -> list:
    """Record the exponential flow: one (t_k, y_k, F_k) tuple per RK4 step.

    exp_section returns the jet of the final record.  Runs in blocks of
    BLOCK_STEPS steps: a base pass integrates y and records its stage points,
    then a matrix pass takes A at the block's stage points in one
    ``section.rates`` call, makes the block's propagators M_k in one
    ``_rk4_step`` from stacked identities, and records F = M_k F, a new array
    per step.  The base pass is ``_velocity_pass``, one ``_rk4_step`` per step
    through the velocity face, or for a straight section ``_straight_pass``,
    which is bitwise that pass at the constant velocity.  Raises StepTooLarge
    unless 0 < step <= MAX_STEP, LeftDomain when a stage point or y leaves the
    section's domain, and NonFiniteResponse when F overflows or the step count
    |t| / step exceeds MAX_FLOW_STEPS (or is not finite).
    """
    if not 0 < step <= MAX_STEP:                            # NaN too
        raise StepTooLarge(f"step {step:g} is not in (0, {MAX_STEP:g}]")
    x = as_point(x)
    F = np.eye(3)
    records = [(0.0, x, F)]
    if t == 0.0:
        return records
    steps = abs(t) / step
    if not steps <= MAX_FLOW_STEPS:                         # NaN too
        raise NonFiniteResponse(f"step count |t| / step = {steps:g} for t = {t:g} "
                                f"exceeds MAX_FLOW_STEPS = {MAX_FLOW_STEPS}")
    n = max(1, math.ceil(steps))
    dt = t / n
    base_pass = (_velocity_pass if section.straight is None else _straight_pass)(section, dt)
    y = x
    stage_rates = iter(())

    def rhs(_c, M):
        return next(stage_rates) @ M        # _rk4_step asks for its stages in order

    with np.errstate(over="ignore", invalid="ignore"):    # a non-finite F is refused below
        for first in range(1, n + 1, BLOCK_STEPS):
            ks = range(first, min(first + BLOCK_STEPS, n + 1))
            stages, ys = base_pass(y, len(ks))
            y = ys[-1]
            # matrix pass: A at every stage point of the block in one call, stage
            # axis first; one RK4 step from I per step of the block is its propagator
            rates = section.rates(stages).reshape(-1, 4, 3, 3)
            stage_rates = iter(rates.swapaxes(0, 1))
            propagators = _rk4_step(rhs, np.broadcast_to(np.eye(3), (len(ks), 3, 3)), dt)
            for k, y_k, M in zip(ks, ys, propagators):
                F = M @ F                                   # a new array each step
                records.append((k * dt, y_k, F))
    # Non-finite entries never turn finite again, so the last step shows them all.
    if not np.isfinite(F).all():
        raise NonFiniteResponse(f"exponential flow became non-finite by t = {t:g}")
    return records


def _velocity_pass(section: SectionField, dt: float) -> Callable:
    """The base pass: y (3,) and a step count m -> the stage points (4m, 3) and
    y after each step (m, 3), one ``_rk4_step`` per step.

    ``section.velocity`` checks the domain at each stage point, the box each y.
    """
    def run(y, m):
        stages, ys = [], []

        def velocity(_c, x):
            stages.append(x)
            return section.velocity(x)

        for _ in range(m):
            y = _rk4_step(velocity, y, dt)
            if not section.box.contains(y):
                raise LeftDomain(f"trajectory exited the domain at {y.tolist()}")
            ys.append(y)
        return np.array(stages), np.array(ys)

    return run


def _straight_pass(section: SectionField, dt: float) -> Callable:
    """``_velocity_pass`` at the constant velocity u, bit for bit, in array operations.

    Every step adds the same increment sixth * (u + 2u + 2u + u), so y after
    the steps of a block is one running sum (``np.add.accumulate`` adds in
    order), and a step's stages are y, y + half u twice and y + dt u.  One mask
    checks each step's four stages and its end; the first point outside in the
    loop's order raises LeftDomain, a stage point through ``section.velocity``,
    so the message is the one the velocity pass gives there.
    """
    u, box, half, sixth = section.straight, section.box, 0.5 * dt, dt / 6.0
    increment, mid, end = sixth * (u + 2 * u + 2 * u + u), half * u, dt * u

    def run(y, m):
        path = np.empty((m + 1, 3))
        path[0], path[1:] = y, increment
        path = np.add.accumulate(path)
        starts, ys = path[:-1], path[1:]
        centre = starts + mid
        points = np.stack([starts, centre, centre, starts + end, ys], axis=1)   # (m, 5, 3)
        inside = box.mask(points)
        if not inside.all():
            k, i = divmod(int(np.argmin(inside)), 5)
            if i == 4:
                raise LeftDomain(f"trajectory exited the domain at {ys[k].tolist()}")
            section.velocity(points[k, i])      # outside the box: the section's own LeftDomain
        return points[:, :4].reshape(-1, 3), ys

    return run


def one_parameter_check(section: SectionField, t: float, u: float, x,
                        step: float = DEFAULT_STEP) -> float:
    """Defect of Exp_{t+u}(x) against Exp_t(flow_u(x)) composed with Exp_u(x).

    Returns the max-abs discrepancy over the target point and the matrix part.
    """
    whole = exp_section(section, t + u, x, step)
    first = exp_section(section, u, x, step)
    second = exp_section(section, t, first.target, step)
    # matrix of the bisection product; sources agree by construction
    prod_matrix = second.matrix @ first.matrix
    return max(
        float(np.max(np.abs(whole.target - second.target))),
        float(np.max(np.abs(whole.matrix - prod_matrix))),
    )


def derivation_matrix(section: SectionField, x, h: float = DEFAULT_PULLBACK_H,
                      step: float = DEFAULT_STEP) -> tuple:
    """Derivation induced by the section, by central differencing the pullback.

    Returns (M, b) with M the matrix of the derivation on the coordinate frame
    (approximately -A(x)) and b the base vector field (approximately v(x)).
    """
    if not 0 < h <= MAX_PULLBACK_H:                         # NaN too
        raise StepTooLarge(f"pullback step {h:g} is not in (0, {MAX_PULLBACK_H:g}]")
    x = as_point(x)
    z_minus = exp_section(section, -h, x, step).target
    z_plus = exp_section(section, +h, x, step).target
    # pullback of the coordinate frame at x under Exp_t is the matrix of the
    # jet based at the backward-flowed point
    m_fwd = exp_section(section, +h, z_minus, step).matrix
    m_bwd = exp_section(section, -h, z_plus, step).matrix
    M = -(m_fwd - m_bwd) / (2 * h)
    b = (z_plus - z_minus) / (2 * h)
    return M, b
