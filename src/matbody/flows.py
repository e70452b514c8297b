"""Right-invariant flows of algebroid sections and the derivation they induce.

A section assigns to each base point a pair (v(x), A(x)).  Its exponential
at x is the jet (x -> y(t), F(t)) obtained by integrating

    dy/dt = v(y),        dF/dt = A(y) F,        y(0) = x,  F(0) = I,

with classical fixed-step RK4.  dF/dt = A(y) F is linear, so an RK4 step
multiplies F by its propagator M_k, the step from F = I, and F = M_k F
equals RK4 on F to rounding.  A section of constant velocity u
(``SectionField.straight``, as in every lift x -> (u, A_x(u)) and every
``SectionField.constant``) moves y along the segment x -> x + t u, and takes
the segment rule the chart's edge propagators in ``connection`` take too
(``segment_points``, ``stage_rates``): n steps have 2n + 1 stage points,
the last the segment's end itself, and ``rk4_propagators`` makes a block's
M_k in one step over stacked identities, from A at the block's stage points
in one ``section.rates`` call.  A box is convex, so the domain check is x and
the end, once.  Any other section takes one ``_rk4_step`` per step of the
stacked state [y; M] from [y; I], reading (v, A) through ``section.value``,
which checks the domain at each stage point.  Either way the records are
made in one pass with no per-step Python body: F = M_k F by
``itertools.accumulate``, zipped with the times and the y_k.  ``derivation_matrix``
differences the pullback of the flow on the coordinate frame at t = 0, which
recovers (-A(x), v(x)); the connection tests use it to lock the sign
convention of the Christoffel symbols.
"""

from __future__ import annotations

import itertools
import math
from operator import itemgetter, mul
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
# RK4 steps per block of a straight flow.  It bounds the stage points and the
# temporaries of the batched A call (about 1.5 MB, near what the block's records
# hold), and keeps each block's fixed cost near a tenth of its work.
BLOCK_STEPS = 1024
_EYE = np.eye(3)


class SectionField:
    """Assignment x -> (v(x), A(x)), analytic or interpolated from a lattice.

    A flow reads it through ``value(x)``, (v, A) at one point, which raises
    LeftDomain outside the domain ``box``; an analytic section calls ``fn``
    once per point.  ``straight`` is v as a (3,) array when the section is a
    from-grid section whose v field is constant (``constant`` builds one),
    else None.  A flow of a straight section reads A through the from-grid
    section's ``rates(points)``, A at each point of (m, 3) as (m, 3, 3), and
    calls ``value`` only to raise its LeftDomain.
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

    def rates(self, points: np.ndarray) -> np.ndarray:
        """A at each point of ``points`` (m, 3), as (m, 3, 3)."""
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
    steps, rounded up, of dt = t / n.  A straight section of velocity u takes
    the segment rule along x -> end, end = x + v with v = t u, in blocks of
    BLOCK_STEPS steps: its y_k is ``segment_points`` 2k, so the last y is end
    itself, and each block makes one ``section.rates`` call on its 2m + 1
    stage points and one ``rk4_propagators`` call.  Any other section takes
    one ``_rk4_step`` of [y; M] from [y; I] per step through
    ``section.value`` (``_stacked_steps``).  Either base pass hands over its
    y_k and M_k, a block or a step at a time, and the records are one zip of
    t_k = k dt, the y_k and F_k = M_k F_{k-1}, each F a new array of its own.

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
    if t == 0.0:
        return [(0.0, x, np.eye(3))]
    steps = abs(t) / step
    if not steps <= MAX_FLOW_STEPS:                         # NaN too
        raise NonFiniteResponse(f"step count |t| / step = {steps:g} for t = {t:g} "
                                f"exceeds MAX_FLOW_STEPS = {MAX_FLOW_STEPS}")
    n = max(1, math.ceil(steps))
    dt = t / n
    base = _stacked_steps if section.straight is None else _segment_steps
    y_blocks, m_blocks = itertools.tee(base(section, x, t, n))
    times = itertools.chain([0.0], map(mul, range(1, n + 1), itertools.repeat(dt)))  # k * dt
    ys = itertools.chain([x], itertools.chain.from_iterable(map(itemgetter(0), y_blocks)))
    Ms = itertools.chain.from_iterable(map(itemgetter(1), m_blocks))
    with np.errstate(over="ignore", invalid="ignore"):    # a non-finite F is refused below
        # M.dot(F) is the product M @ F makes, at about half its cost for 3 x 3
        Fs = itertools.accumulate(Ms, lambda F, M: M.dot(F), initial=np.eye(3))
        records = list(zip(times, ys, Fs))
    # Non-finite entries never turn finite again, so the last step shows them all.
    if not np.isfinite(records[-1][2]).all():
        raise NonFiniteResponse(f"exponential flow became non-finite by t = {t:g}")
    return records


def _stacked_steps(section: SectionField, x: np.ndarray, t: float, n: int):
    """Per step: (y_k,) and (M_k,), the step's propagator, from one ``_rk4_step``
    of the stacked state [y; M] (4, 3) from [y; I].

    ``section.value`` checks the domain at each stage point; the box checks each y.
    """
    dt, y = t / n, x

    def rhs(state):
        v, A = section.value(state[0])
        return np.vstack((v, A @ state[1:]))

    for _ in range(n):
        state = _rk4_step(rhs, np.vstack((y, _EYE)), dt)
        y = state[0]
        if not section.box.contains(y):
            raise LeftDomain(f"trajectory exited the domain at {y.tolist()}")
        yield (y,), (state[1:],)


def _segment_steps(section: SectionField, x: np.ndarray, t: float, n: int):
    """``_stacked_steps`` of a straight section, by the segment rule along x -> x + t u,
    a block of at most BLOCK_STEPS steps at a time: its y_k (m, 3) and M_k (m, 3, 3).

    The segment lies in the box iff x and its end do.  When it does not, the first
    stage point outside lies in the first block whose last point is outside, as each
    coordinate of a stage point is monotone in its number; ``section.value`` raises the
    section's own LeftDomain there, before any ``section.rates`` call.
    """
    v, box, dt = t * section.straight, section.box, t / n
    if not (box.contains(x) and box.contains(x + v)):
        # stage numbers of x and of each block's last point: 0, 2 BLOCK_STEPS, ..., 2n
        ends = np.minimum(np.arange(0, 2 * (n + BLOCK_STEPS), 2 * BLOCK_STEPS), 2 * n)
        b = int(np.argmin(box.mask(segment_points(x, v, ends, n))))
        points = segment_points(x, v, np.arange(ends[max(b - 1, 0)], ends[b] + 1), n)
        section.value(points[np.argmin(box.mask(points))])
    for k in range(0, n, BLOCK_STEPS):
        points = segment_points(x, v, np.arange(2 * k, 2 * min(k + BLOCK_STEPS, n) + 1), n)
        # y_k copied: views would keep every block's 2m + 1 points alive in the records
        yield points[2::2].copy(), rk4_propagators(stage_rates(section.rates(points)), dt)


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
