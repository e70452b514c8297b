"""Right-invariant flows of algebroid sections and the derivation they induce.

A section assigns to each base point a pair (v(x), A(x)).  Its exponential
at x is the jet (x -> y(t), F(t)) obtained by integrating

    dy/dt = v(y),        dF/dt = A(y) F,        y(0) = x,  F(0) = I,

with classical fixed-step RK4, in two passes over blocks of steps.  The base
pass integrates y (its equation does not involve F), records each step's four
stage points and checks the domain at each stage and step end: one
``_rk4_step`` per step through ``SectionField.velocity``, or, for a straight
section of constant velocity u (``SectionField.straight``, as in every lift
x -> (u, A_x(u)) and every ``SectionField.constant``), one running sum per
block, bitwise the general pass at u.  The matrix pass takes A at the block's
stage points in one call.  dF/dt = A(y) F is linear, so an RK4 step multiplies
F by its propagator M_k, the step from F = I: ``rk4_propagators`` makes a
block's M_k in one step over stacked identities, as it makes the chart's edge
propagators in ``connection``, and F = M_k F equals RK4 on F to rounding.
``derivation_matrix`` differences the pullback of the flow on the coordinate
frame at t = 0, which recovers (-A(x), v(x)); the connection tests use it to
lock the sign convention of the Christoffel symbols.
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
    """One classical RK4 step of dx/dt = rhs(x) for an array state x."""
    k1 = rhs(x)
    k2 = rhs(x + 0.5 * dt * k1)
    k3 = rhs(x + 0.5 * dt * k2)
    k4 = rhs(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def rk4_propagators(rates: np.ndarray, dt) -> np.ndarray:
    """RK4 propagators (..., d, d) of M' = A M, one step from M = I per step, from
    A at the four stages of each step, ``rates`` (..., 4, d, d).  ``dt`` is a
    float or broadcasts against (..., d, d).  Four zero rates give I exactly."""
    stages = iter(np.moveaxis(rates, -3, 0))       # _rk4_step asks for its stages in order
    eye = np.broadcast_to(np.eye(rates.shape[-1]), rates.shape[:-3] + rates.shape[-2:])
    return _rk4_step(lambda M: next(stages) @ M, eye, dt)


def exp_section(section: SectionField, t: float, x, step: float = DEFAULT_STEP) -> Jet1:
    """Exponential jet Exp_t of the section at x: (x -> y(t), F(t))."""
    _, y, F = exp_trajectory(section, t, x, step)[-1]
    return Jet1(x, y, F)


def exp_trajectory(section: SectionField, t: float, x,
                   step: float = DEFAULT_STEP) -> list:
    """Record the exponential flow: one (t_k, y_k, F_k) tuple per RK4 step.

    exp_section returns the jet of the final record.  Runs in blocks of
    BLOCK_STEPS steps: the base pass (``_velocity_pass``, or ``_straight_pass``
    for a straight section) integrates y and records its stage points, then
    one ``section.rates`` call and one ``rk4_propagators`` call make the
    block's M_k, and each step records F = M_k F, a new array.  Raises
    StepTooLarge unless 0 < step <= MAX_STEP, LeftDomain when a stage point or
    y leaves the section's domain, and NonFiniteResponse when F overflows or
    the step count |t| / step exceeds MAX_FLOW_STEPS (or is not finite).
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
    with np.errstate(over="ignore", invalid="ignore"):    # a non-finite F is refused below
        for first in range(1, n + 1, BLOCK_STEPS):
            ks = range(first, min(first + BLOCK_STEPS, n + 1))
            stages, ys = base_pass(y, len(ks))
            y = ys[-1]
            # matrix pass: A at every stage point of the block in one call
            propagators = rk4_propagators(section.rates(stages).reshape(-1, 4, 3, 3), dt)
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

        def velocity(x):
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
