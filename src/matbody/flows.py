"""Right-invariant flows of algebroid sections and the derivation they induce.

A section assigns to each base point a pair (v(x), A(x)).  Its exponential
at x is the jet (x -> y(t), F(t)) obtained by integrating

    dy/dt = v(y),        dF/dt = A(y) F,        y(0) = x,  F(0) = I,

with classical fixed-step RK4.  The base equation does not involve F, so the
flow runs in two passes over blocks of steps.  The base pass integrates y on
Python floats and records the four stage points of each step; it checks the
domain at every stage, through the section's velocity face, and after every
step.  The matrix pass then takes A at all stage points of the block from one
batched call and advances F with ``_rk4_step``.  A grid-backed section holds
a v field and an A field over the same lattice: the velocity face is the v
field's point path, whose per-cell cache lives for one trajectory, and the
rates are one batched call of the A field.  Differentiating the pullback of
the flow on the coordinate frame at t = 0 recovers (-A(x), v(x)); that
finite-difference check is the sign-convention lock used by the connection
module.
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

    A flow reads it through two faces: ``velocity()``, a function of one point
    given as three Python floats that returns v there as three floats and raises
    LeftDomain outside the domain ``box``; and ``rates(points)``, A at each
    point of (m, 3) as (m, 3, 3).  For an analytic section both call ``fn``
    once per point.
    """

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

    def velocity(self) -> Callable:
        """A new function q0, q1, q2 -> v at that point as a list of three floats."""
        return lambda *q: self.value(q)[0].tolist()

    def rates(self, points: np.ndarray) -> np.ndarray:
        """A at each point of ``points`` (m, 3), as (m, 3, 3)."""
        return np.array([self.value(p)[1] for p in points])

    @staticmethod
    def constant(v, A, lo, hi) -> "SectionField":
        v = np.asarray(v, dtype=float).reshape(3)
        A = np.asarray(A, dtype=float).reshape(3, 3)
        return SectionField(lambda x: (v, A), lo, hi)

    @staticmethod
    def from_grid(axes, v_data, a_data) -> "SectionField":
        """Trilinear interpolation of lattice samples; domain is the grid hull."""
        return _GridSection(TrilinearField(axes, v_data), TrilinearField(axes, a_data))


class _GridSection(SectionField):
    """A v field (3 values per node) and an A field (3 x 3) over the same axes.

    The hull check of each field is the domain check.
    """

    def __init__(self, v_field: TrilinearField, a_field: TrilinearField):
        self.box = v_field.box
        self._v_field, self._a_field = v_field, a_field

    def value(self, x) -> tuple:
        return self._v_field(x), self._a_field(x)

    def velocity(self) -> Callable:
        return self._v_field.point_path()

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


def flow_point(section: SectionField, t: float, x, step: float = DEFAULT_STEP) -> np.ndarray:
    """Base (anchor) flow of the section: target of the exponential jet."""
    return exp_section(section, t, x, step).target


def exp_trajectory(section: SectionField, t: float, x,
                   step: float = DEFAULT_STEP) -> list:
    """Record the exponential flow: one (t_k, y_k, F_k) tuple per RK4 step.

    exp_section returns the jet of the final record.  Runs in blocks of
    BLOCK_STEPS steps: a base pass integrates y on Python floats, then a matrix
    pass takes A at the block's stage points in one ``section.rates`` call and
    advances F.  Raises StepTooLarge unless 0 < step <= MAX_STEP, LeftDomain
    when a stage point or y leaves the section's domain, and NonFiniteResponse
    when F overflows or the step count |t| / step exceeds MAX_FLOW_STEPS (or is
    not finite).
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
    half, sixth = 0.5 * dt, dt / 6.0
    velocity, box = section.velocity(), section.box
    y0, y1, y2 = x.tolist()
    stage_rates = iter(())

    def rhs(_c, F):
        return next(stage_rates) @ F        # _rk4_step asks for its stages in order

    with np.errstate(over="ignore", invalid="ignore"):    # a non-finite F is refused below
        for first in range(1, n + 1, BLOCK_STEPS):
            ks = range(first, min(first + BLOCK_STEPS, n + 1))
            # base pass: y alone, on floats, in _rk4_step's expression order
            stages, ys = [], []
            for _ in ks:
                s1 = (y0, y1, y2)
                a0, a1, a2 = velocity(*s1)
                s2 = (y0 + half * a0, y1 + half * a1, y2 + half * a2)
                b0, b1, b2 = velocity(*s2)
                s3 = (y0 + half * b0, y1 + half * b1, y2 + half * b2)
                c0, c1, c2 = velocity(*s3)
                s4 = (y0 + dt * c0, y1 + dt * c1, y2 + dt * c2)
                d0, d1, d2 = velocity(*s4)
                y0 = y0 + sixth * (a0 + 2 * b0 + 2 * c0 + d0)
                y1 = y1 + sixth * (a1 + 2 * b1 + 2 * c1 + d1)
                y2 = y2 + sixth * (a2 + 2 * b2 + 2 * c2 + d2)
                if not box.contains_floats((y0, y1, y2)):
                    raise LeftDomain(f"trajectory exited the domain at {[y0, y1, y2]}")
                stages += (s1, s2, s3, s4)
                ys.append((y0, y1, y2))
            # matrix pass: A at every stage point of the block in one call
            stage_rates = iter(section.rates(np.array(stages)))
            for k, y in zip(ks, np.array(ys)):
                F = _rk4_step(rhs, F, dt)                   # a new array each step
                records.append((k * dt, y, F))
    # Non-finite entries never turn finite again, so the last step shows them all.
    if not np.isfinite(F).all():
        raise NonFiniteResponse(f"exponential flow became non-finite by t = {t:g}")
    return records


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
    z_minus = flow_point(section, -h, x, step)
    z_plus = flow_point(section, +h, x, step)
    # pullback of the coordinate frame at x under Exp_t is the matrix of the
    # jet based at the backward-flowed point
    m_fwd = exp_section(section, +h, z_minus, step).matrix
    m_bwd = exp_section(section, -h, z_plus, step).matrix
    M = -(m_fwd - m_bwd) / (2 * h)
    b = (z_plus - z_minus) / (2 * h)
    return M, b
