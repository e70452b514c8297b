"""Right-invariant flows of algebroid sections and the derivation they induce.

A section assigns to each base point a pair (v(x), A(x)).  Its exponential
at x is the jet (x -> y(t), F(t)) obtained by integrating

    dy/dt = v(y),        dF/dt = A(y) F,        y(0) = x,  F(0) = I,

with classical fixed-step RK4 over blocks of steps.  dF/dt = A(y) F is
linear, so an RK4 step multiplies F by its propagator M_k, the step from
F = I: ``rk4_propagators`` makes a block's M_k in one step over stacked
identities, from A at the block's stage points in one ``section.rates``
call, and F = M_k F equals RK4 on F to rounding.  The stage points come from
one of two base passes.  A section of constant velocity u
(``SectionField.straight``, as in every lift x -> (u, A_x(u)) and every
``SectionField.constant``) moves y along the segment x -> x + t u, and takes
the segment rule the chart's edge propagators in ``connection`` take too
(``segment_points``, ``stage_rates``): n steps have 2n + 1 stage points,
the last the segment's end itself.  A box is convex, so the domain check is
x and the end, once.  Any other section takes one ``_rk4_step`` per step of
y through ``SectionField.velocity``, which checks the domain at each stage
point.  ``derivation_matrix`` differences the pullback of the flow on the
coordinate frame at t = 0, which recovers (-A(x), v(x)); the connection
tests use it to lock the sign convention of the Christoffel symbols.
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
    section calls its velocity face only to raise its LeftDomain.
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


def segment_points(start, v, m, n) -> np.ndarray:
    """Stage points start + (m / 2n) v (..., 3) of n RK4 steps along the segment
    start -> start + v, for stage numbers m; m = 2n gives start + v itself.

    Step k (from 0) takes its four stages at m = 2k, 2k + 1, 2k + 1 and 2k + 2,
    as ``stage_rates`` picks them.  ``start`` and ``v`` are (..., 3), ``m`` and
    ``n`` integer arrays that broadcast against start[..., 0].
    """
    return start + (m / (2 * n))[..., None] * v


def stage_rates(rates: np.ndarray) -> np.ndarray:
    """A at the 2m + 1 stage points of m steps along a segment, (..., 2m + 1, d, d),
    as A at each step's four stages (..., m, 4, d, d), for ``rk4_propagators``."""
    steps = np.arange((rates.shape[-3] - 1) // 2)
    return rates[..., 2 * steps[:, None] + _STAGE_OFFSETS, :, :]


# step k's stages at the segment's stage points 2k + these
_STAGE_OFFSETS = np.array([0, 1, 1, 2])


def exp_section(section: SectionField, t: float, x, step: float = DEFAULT_STEP) -> Jet1:
    """Exponential jet Exp_t of the section at x: (x -> y(t), F(t))."""
    _, y, F = exp_trajectory(section, t, x, step)[-1]
    return Jet1(x, y, F)


def exp_trajectory(section: SectionField, t: float, x,
                   step: float = DEFAULT_STEP) -> list:
    """Record the exponential flow: one (t_k, y_k, F_k) tuple per RK4 step.

    exp_section returns the jet of the final record.  Takes n = |t| / step
    steps, rounded up, of dt = t / n, in blocks of BLOCK_STEPS steps.  A
    straight section of velocity u takes the segment rule along x -> end,
    end = x + v with v = t u: its y_k is ``segment_points`` 2k, so the last
    y is end itself, and each block makes one ``section.rates`` call on its
    2m + 1 stage points.  Any other section takes one RK4 step of y at a time
    through ``section.velocity`` (``_velocity_blocks``), then one
    ``section.rates`` call per block on its 4m stage points.  Either way one
    ``rk4_propagators`` call makes the block's M_k, and each step records
    F = M_k F, a new array.

    Raises StepTooLarge unless 0 < step <= MAX_STEP, and NonFiniteResponse when
    F overflows or the step count |t| / step exceeds MAX_FLOW_STEPS (or is not
    finite).  Raises LeftDomain when a stage point or y leaves the section's
    domain: a straight flow whose end is outside raises, before any
    ``section.rates`` call, the section's own error at its first stage point
    outside.
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
    blocks = (_velocity_blocks if section.straight is None else _segment_blocks)(section, x, t, n)
    with np.errstate(over="ignore", invalid="ignore"):    # a non-finite F is refused below
        for ks, ys, rates in blocks:
            for k, y_k, M in zip(ks, ys, rk4_propagators(rates, dt)):
                F = M @ F                                   # a new array each step
                records.append((k * dt, y_k, F))
    # Non-finite entries never turn finite again, so the last step shows them all.
    if not np.isfinite(F).all():
        raise NonFiniteResponse(f"exponential flow became non-finite by t = {t:g}")
    return records


def _blocks(n: int):
    """Steps 1...n in ranges of at most BLOCK_STEPS."""
    return (range(k, min(k + BLOCK_STEPS, n + 1)) for k in range(1, n + 1, BLOCK_STEPS))


def _velocity_blocks(section: SectionField, x: np.ndarray, t: float, n: int):
    """Per block: its steps, y after each (m, 3) and A at each step's four stages
    (m, 4, 3, 3) from one ``section.rates`` call.

    y takes one ``_rk4_step`` per step through ``section.velocity``, which
    checks the domain at each stage point; the box checks each y.
    """
    dt, y, stages = t / n, x, []

    def velocity(p):
        stages.append(p)
        return section.velocity(p)

    for ks in _blocks(n):
        ys = []
        for _ in ks:
            y = _rk4_step(velocity, y, dt)
            if not section.box.contains(y):
                raise LeftDomain(f"trajectory exited the domain at {y.tolist()}")
            ys.append(y)
        rates = section.rates(np.array(stages)).reshape(-1, 4, 3, 3)
        stages.clear()
        yield ks, np.array(ys), rates


def _segment_blocks(section: SectionField, x: np.ndarray, t: float, n: int):
    """``_velocity_blocks`` of a straight section, by the segment rule along x -> x + t u.

    The segment lies in the box iff x and its end do.  When it does not, one
    mask over all 2n + 1 stage points finds the first outside, and
    ``section.velocity`` raises the section's own LeftDomain there, before
    any ``section.rates`` call.
    """
    v, box = t * section.straight, section.box
    if not (box.contains(x) and box.contains(x + v)):
        points = segment_points(x, v, np.arange(2 * n + 1), n)
        section.velocity(points[np.argmin(box.mask(points))])
    for ks in _blocks(n):
        points = segment_points(x, v, np.arange(2 * ks[0] - 2, 2 * ks[-1] + 1), n)
        # y_k copied: views would keep every block's 2m + 1 points alive in the records
        yield ks, points[2::2].copy(), stage_rates(section.rates(points))


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
