"""Right-invariant flows of algebroid sections and the derivation they induce.

A section assigns to each base point a pair (v(x), A(x)).  Its exponential
at x is the jet (x -> y(t), F(t)) obtained by integrating

    dy/dt = v(y),        dF/dt = A(y) F,        y(0) = x,  F(0) = I,

with classical fixed-step RK4.  Differentiating the pullback of the flow on
the coordinate frame at t = 0 recovers (-A(x), v(x)); that finite-difference
check is the sign-convention lock used by the connection module.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import LeftDomain, StepTooLarge
from .grid import TrilinearField
from .jets import Jet1, as_point

MAX_STEP = 1e-2
DEFAULT_STEP = 1e-3
MAX_PULLBACK_H = 1e-4
DEFAULT_PULLBACK_H = 1e-5


class SectionField:
    """Assignment x -> (v(x), A(x)), analytic or interpolated from a lattice."""

    def __init__(self, fn: Callable[[np.ndarray], tuple], lo, hi):
        self._fn = fn
        self.lo = as_point(lo)
        self.hi = as_point(hi)
        self._bounds = tuple(zip(self.lo.tolist(), self.hi.tolist()))

    def contains(self, x) -> bool:
        """Whether the point x (3,) lies in the closed domain box; never for NaN."""
        return all(lo <= q <= hi for q, (lo, hi) in
                   zip(np.asarray(x, dtype=float).reshape(3).tolist(), self._bounds))

    def value(self, x) -> tuple:
        p = np.asarray(x, dtype=float)
        if not self.contains(p):
            raise LeftDomain(f"point {p.tolist()} outside section domain")
        v, A = self._fn(p)
        return np.asarray(v, dtype=float), np.asarray(A, dtype=float)

    @staticmethod
    def constant(v, A, lo, hi) -> "SectionField":
        v = np.asarray(v, dtype=float).reshape(3)
        A = np.asarray(A, dtype=float).reshape(3, 3)
        return SectionField(lambda x: (v, A), lo, hi)

    @staticmethod
    def from_grid(axes, v_data, a_data) -> "SectionField":
        """Trilinear interpolation of lattice samples; domain is the grid hull.

        One interpolant carries the stacked (v | A) data, so each value is one
        trilinear call; per component the arithmetic is that of two fields.
        """
        a_data = np.asarray(a_data, dtype=float)
        field = TrilinearField(axes, np.concatenate(
            [v_data, a_data.reshape(a_data.shape[:3] + (9,))], axis=-1))

        def value(x):
            va = field(x)
            return va[..., :3], va[..., 3:].reshape(va.shape[:-1] + (3, 3))

        return SectionField(value, [a[0] for a in axes], [a[-1] for a in axes])


def _rk4_step(rhs: Callable, state: tuple, dt: float) -> tuple:
    """One classical RK4 step of d(state)/dt = rhs(c, state) for a tuple of arrays.

    ``c`` is the stage's fraction of the step (0, 1/2 or 1), for a time-dependent rhs.
    """
    k1 = rhs(0.0, state)
    k2 = rhs(0.5, tuple(x + 0.5 * dt * d for x, d in zip(state, k1)))
    k3 = rhs(0.5, tuple(x + 0.5 * dt * d for x, d in zip(state, k2)))
    k4 = rhs(1.0, tuple(x + dt * d for x, d in zip(state, k3)))
    return tuple(x + (dt / 6.0) * (a + 2 * b + 2 * c + d)
                 for x, a, b, c, d in zip(state, k1, k2, k3, k4))


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

    exp_section returns the jet of the final record.
    """
    if step > MAX_STEP:
        raise StepTooLarge(f"step {step:g} > {MAX_STEP:g}")
    x = as_point(x)
    y, F = x.copy(), np.eye(3)
    records = [(0.0, y, F)]
    if t == 0.0:
        return records
    n = max(1, math.ceil(abs(t) / step))
    dt = t / n

    def rhs(_c, state):
        v, A = section.value(state[0])
        return v, A @ state[1]

    for k in range(1, n + 1):
        y, F = _rk4_step(rhs, (y, F), dt)
        if not section.contains(y):
            raise LeftDomain(f"trajectory exited the domain at {y.tolist()}")
        records.append((k * dt, y, F))          # _rk4_step returns new arrays
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
