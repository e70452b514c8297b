"""The domain box, uniform lattices inside it and trilinear interpolation on them.

Grid points are enumerated in C order (x slowest, z fastest); every module
that serializes per-point data relies on that ordering being stable.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import GridTooSmall, LeftDomain
from .jets import as_point


@dataclass(frozen=True, eq=False)
class Box:
    """Closed box lo <= x <= hi with finite bounds and finite extent: the one domain rule."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", as_point(self.lo))
        object.__setattr__(self, "hi", as_point(self.hi))
        # (lo, hi) per axis as Python floats: contains is on the flows' hot path
        bounds = tuple(zip(self.lo.tolist(), self.hi.tolist()))
        # on Python floats hi - lo overflows to inf without a RuntimeWarning
        if not all(math.isfinite(h - l) for l, h in bounds):
            raise ValueError("box extent hi - lo is not finite")
        object.__setattr__(self, "_bounds", bounds)
        # inset boxes by margin: constraint_rows asks for the same fd_step inset per call
        object.__setattr__(self, "_insets", {})

    def contains(self, x) -> bool:
        """Whether the point x (3,) lies in the box; never with a NaN or +-inf coordinate."""
        return self.contains_floats(np.asarray(x, dtype=float).reshape(3).tolist())

    def contains_floats(self, q) -> bool:
        """``contains`` for a point given as three Python floats."""
        (lo0, hi0), (lo1, hi1), (lo2, hi2) = self._bounds
        q0, q1, q2 = q
        return lo0 <= q0 <= hi0 and lo1 <= q1 <= hi1 and lo2 <= q2 <= hi2

    def mask(self, x) -> np.ndarray:
        """``contains`` for each point of x (..., 3), shape (...)."""
        return ((x >= self.lo) & (x <= self.hi)).all(axis=-1)

    def inset(self, margin: float) -> "Box":
        box = self._insets.get(margin)
        if box is None:
            box = self._insets[margin] = Box(self.lo + margin, self.hi - margin)
        return box


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform lattice: per-axis coordinate arrays plus the flattened points."""

    axes: tuple
    shape: tuple
    points: np.ndarray
    spacing: np.ndarray

    @property
    def n_points(self) -> int:
        return len(self.points)

    def index_of(self, flat: int) -> tuple:
        return np.unravel_index(flat, self.shape)

    def reshape(self, values: np.ndarray) -> np.ndarray:
        """View flat per-point data as a lattice-shaped array."""
        return np.asarray(values).reshape(self.shape + np.asarray(values).shape[1:])

    def interior_mask(self) -> np.ndarray:
        """Lattice-shaped mask of points not on the lattice boundary."""
        m = np.zeros(self.shape, dtype=bool)
        m[1:-1, 1:-1, 1:-1] = True
        return m


def make_grid(lo, hi, resolution, margin: float = 0.1) -> Grid:
    """Uniform lattice of ``resolution`` points per axis, inset by ``margin``."""
    res = tuple(int(r) for r in np.broadcast_to(resolution, 3))
    if res != tuple(np.broadcast_to(resolution, 3)):
        raise ValueError(f"resolution must be integral, got {resolution}")
    if min(res) < 3:
        raise GridTooSmall(f"need >= 3 points per axis, got {res}")
    box = Box(lo, hi).inset(margin)
    if np.any(box.lo >= box.hi):
        raise ValueError("margin leaves an empty box")
    axes = tuple(np.linspace(box.lo[i], box.hi[i], res[i]) for i in range(3))
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=-1)
    points.setflags(write=False)
    spacing = np.array([a[1] - a[0] for a in axes])
    return Grid(axes, res, points, spacing)


class TrilinearField:
    """Trilinear interpolant of lattice tensor data at points (..., 3); never extrapolates.

    ``point_path()`` evaluates one point given as Python floats, bitwise equal
    to this batched call: same cell, same weights, same accumulation order.
    """

    def __init__(self, axes, values: np.ndarray):
        # a read-only copy: corner values a point path caches must not go stale
        values = np.array(values, dtype=float)
        values.setflags(write=False)
        self._axes = tuple(np.asarray(a, dtype=float) for a in axes)
        self.box = Box([a[0] for a in self._axes], [a[-1] for a in self._axes])    # the hull
        self._ticks = tuple(a.tolist() for a in self._axes)
        self._value_shape = values.shape[3:]
        self._flat = values.reshape(values.shape[:3] + (-1,))

    def __call__(self, x) -> np.ndarray:
        p = np.asarray(x, dtype=float)
        if not self.box.mask(p).all():
            raise LeftDomain(f"point {p.tolist()} outside grid hull")
        cells, weights = [], []
        for a, q in zip(self._axes, np.moveaxis(p, -1, 0)):
            # points on the upper hull face fall in the last cell
            i = np.minimum(np.searchsorted(a, q, side="right") - 1, len(a) - 2)
            t = ((q - a[i]) / (a[i + 1] - a[i]))[..., None]
            cells.append(i)
            weights.append((1.0 - t, t))
        (i, j, k), (wi, wj, wk) = cells, weights
        out = 0.0
        for di, dj, dk in _CORNERS:
            out = out + wi[di] * wj[dj] * wk[dk] * self._flat[i + di, j + dj, k + dk]
        return out.reshape(p.shape[:-1] + self._value_shape)

    def point_path(self):
        """A new function q0, q1, q2 -> the flat values at that point as Python floats.

        It caches the corner values of each cell it visits for as long as it
        lives, so a caller bounds that cache by how long it keeps the function:
        a flow keeps one for one trajectory.  ``blocks`` exposes the cache.
        """
        (tx, ty, tz), flat, blocks = self._ticks, self._flat, {}
        inside = self.box.contains_floats

        def at(q0, q1, q2):
            if not inside((q0, q1, q2)):
                raise LeftDomain(f"point {[q0, q1, q2]} outside grid hull")
            i, a0, a1 = _cell(tx, q0)
            j, b0, b1 = _cell(ty, q1)
            k, c0, c1 = _cell(tz, q2)
            columns = blocks.get((i, j, k))
            if columns is None:     # per value, its 8 corners in _CORNERS order
                columns = blocks[i, j, k] = flat[i:i + 2, j:j + 2, k:k + 2].reshape(8, -1).T.tolist()
            ab00, ab01, ab10, ab11 = a0 * b0, a0 * b1, a1 * b0, a1 * b1
            w0, w1, w2, w3 = ab00 * c0, ab00 * c1, ab01 * c0, ab01 * c1
            w4, w5, w6, w7 = ab10 * c0, ab10 * c1, ab11 * c0, ab11 * c1
            # the running sum in corner order, as the batched path adds; its first
            # term is 0.0 + the first product, hence the trailing + 0.0 (-0.0 -> 0.0)
            return [w0 * v0 + w1 * v1 + w2 * v2 + w3 * v3 + w4 * v4 + w5 * v5 + w6 * v6
                    + w7 * v7 + 0.0 for v0, v1, v2, v3, v4, v5, v6, v7 in columns]

        at.blocks = blocks
        return at


def _cell(ticks: list, q: float) -> tuple:
    """(i, 1 - t, t): the cell of coordinate q, ticks[0] <= q <= ticks[-1], and q's weights."""
    i = bisect_right(ticks, q) - 1
    if i == len(ticks) - 1:                         # upper hull face: last cell
        i -= 1
    t = (q - ticks[i]) / (ticks[i + 1] - ticks[i])
    return i, 1.0 - t, t


# cell corners (di, dj, dk) in the order both paths add them up
_CORNERS = tuple(itertools.product((0, 1), repeat=3))


def grid_gradient(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Per-axis derivatives of lattice data, central inside, one-sided at edges.

    ``values`` is lattice-shaped with arbitrary trailing dimensions; the result
    appends an axis holding d/dx_i at index i.  Second-order one-sided
    stencils keep edge derivatives exact for quadratic fields.
    """
    if min(grid.shape) < 3:
        raise GridTooSmall(f"gradient needs >= 3 points per axis, got {grid.shape}")
    return np.stack(np.gradient(values, *grid.spacing, axis=(0, 1, 2), edge_order=2), axis=-1)
