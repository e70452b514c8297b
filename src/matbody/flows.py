"""Right-invariant flows of algebroid sections and the derivation they induce.

A section assigns to each base point a pair (v(x), A(x)).  Its exponential
at x is the jet (x -> y(t), F(t)) obtained by integrating

    dy/dt = v(y),        dF/dt = A(y) F,        y(0) = x,  F(0) = I,

with classical fixed-step RK4 on one array state, the 12-vector
(y | F row-major).  A SectionField is one callable x -> (v | A row-major)
behind its domain check, so an RK4 stage makes one call and one check; for a
grid-backed section that callable is the stacked TrilinearField, whose hull
check is the domain check.  Differentiating the pullback of the flow on
the coordinate frame at t = 0 recovers (-A(x), v(x)); that finite-difference
check is the sign-convention lock used by the connection module.
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


class SectionField:
    """Assignment x -> (v(x), A(x)), analytic or interpolated from a lattice.

    Held as one callable x -> (v | A row-major), a 12-vector, that raises
    LeftDomain outside the domain ``box``: one domain check per evaluation.
    """

    def __init__(self, fn: Callable[[np.ndarray], tuple], lo, hi):
        def stacked(x):
            p = np.asarray(x, dtype=float)
            if not self.box.contains(p):
                raise LeftDomain(f"point {p.tolist()} outside section domain")
            v, A = fn(p)
            return np.concatenate((np.asarray(v, dtype=float).reshape(3),
                                   np.asarray(A, dtype=float).reshape(9)))

        self.box = Box(lo, hi)
        self._stacked = stacked

    def value(self, x) -> tuple:
        """(v(x), A(x)) as views of the stacked value."""
        va = self._stacked(x)
        return va[:3], va[3:].reshape(3, 3)

    @staticmethod
    def constant(v, A, lo, hi) -> "SectionField":
        v = np.asarray(v, dtype=float).reshape(3)
        A = np.asarray(A, dtype=float).reshape(3, 3)
        return SectionField(lambda x: (v, A), lo, hi)

    @staticmethod
    def from_grid(axes, v_data, a_data) -> "SectionField":
        """Trilinear interpolation of lattice samples; domain is the grid hull.

        The stacked value is one interpolant over the (v | A) lattice data, whose
        hull check is the domain check; per component the arithmetic is that of
        two fields.
        """
        a_data = np.asarray(a_data, dtype=float)
        field = TrilinearField(axes, np.concatenate(
            [v_data, a_data.reshape(a_data.shape[:3] + (9,))], axis=-1))
        section = object.__new__(SectionField)     # no wrapper: the hull check is the domain check
        section.box, section._stacked = field.box, field
        return section


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

    exp_section returns the jet of the final record.  Raises LeftDomain when y
    leaves the section's hull, and NonFiniteResponse when F overflows or the
    step count |t| / step exceeds MAX_FLOW_STEPS (or is not finite).
    """
    if step > MAX_STEP:
        raise StepTooLarge(f"step {step:g} > {MAX_STEP:g}")
    x = as_point(x)
    state = np.concatenate((x, np.eye(3).ravel()))          # (y | F row-major)
    records = [(0.0, state[:3], state[3:].reshape(3, 3))]
    if t == 0.0:
        return records
    steps = abs(t) / step
    if not steps <= MAX_FLOW_STEPS:                         # NaN too
        raise NonFiniteResponse(f"step count |t| / step = {steps:g} for t = {t:g} "
                                f"exceeds MAX_FLOW_STEPS = {MAX_FLOW_STEPS}")
    n = max(1, math.ceil(steps))
    dt = t / n
    stacked = section._stacked

    def rhs(_c, s):
        va = stacked(s[:3])
        return np.concatenate((va[:3], (va[3:].reshape(3, 3) @ s[3:].reshape(3, 3)).ravel()))

    with np.errstate(over="ignore", invalid="ignore"):    # a non-finite F is refused below
        for k in range(1, n + 1):
            state = _rk4_step(rhs, state, dt)               # a new array each step
            y = state[:3]
            if not section.box.contains(y):
                raise LeftDomain(f"trajectory exited the domain at {y.tolist()}")
            records.append((k * dt, y, state[3:].reshape(3, 3)))
    # Non-finite entries never turn finite again, so the last step shows them all.
    if not np.isfinite(state[3:]).all():
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
    if h > MAX_PULLBACK_H:
        raise StepTooLarge(f"pullback step {h:g} > {MAX_PULLBACK_H:g}")
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
