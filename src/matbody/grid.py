"""The domain box, uniform lattices inside it and trilinear interpolation on them.

Grid points are enumerated in C order (x slowest, z fastest); every module
that serializes per-point data relies on that ordering being stable.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import GridTooSmall, LeftDomain
from .jets import as_point


@dataclass(frozen=True, eq=False)
class Box:
    """Closed box lo <= x <= hi of chart coordinates with finite bounds: the one domain rule."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", as_point(self.lo))
        object.__setattr__(self, "hi", as_point(self.hi))
        # (lo, hi) per axis as Python floats: contains is on the flows' hot path
        object.__setattr__(self, "_bounds", tuple(zip(self.lo.tolist(), self.hi.tolist())))
        # inset boxes by margin: response_gradients asks for the same fd_step inset per call
        object.__setattr__(self, "_insets", {})

    def contains(self, x) -> bool:
        """Whether the point x (3,) lies in the box; never with a NaN or +-inf coordinate."""
        return all(lo <= q <= hi for q, (lo, hi) in
                   zip(np.asarray(x, dtype=float).reshape(3).tolist(), self._bounds))

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

    A single point (3,) takes a path on Python floats that is bitwise equal to
    the batched one: same cell, same weights, same accumulation order.
    """

    def __init__(self, axes, values: np.ndarray):
        # a read-only copy: the corner blocks cached below must not go stale
        values = np.array(values, dtype=float)
        values.setflags(write=False)
        self._axes = tuple(np.asarray(a, dtype=float) for a in axes)
        self.box = Box([a[0] for a in self._axes], [a[-1] for a in self._axes])    # the hull
        self._ticks = tuple(a.tolist() for a in self._axes)
        self._value_shape = values.shape[3:]
        self._flat = values.reshape(values.shape[:3] + (-1,))
        self._blocks = {}       # cell (i, j, k) -> its contiguous (8, m) corner block

    def __call__(self, x) -> np.ndarray:
        p = np.asarray(x, dtype=float)
        if p.shape == (3,):
            return self._at_point(p)
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

    def _at_point(self, p: np.ndarray) -> np.ndarray:
        cells, weights = [], []
        for q, ticks in zip(p.tolist(), self._ticks):
            if not ticks[0] <= q <= ticks[-1]:          # false for NaN too
                raise LeftDomain(f"point {p.tolist()} outside grid hull")
            i = bisect_right(ticks, q) - 1
            if i == len(ticks) - 1:                     # upper hull face: last cell
                i -= 1
            t = (q - ticks[i]) / (ticks[i + 1] - ticks[i])
            cells.append(i)
            weights.append((1.0 - t, t))
        (i, j, k), (wi, wj, wk) = cells, weights
        block = self._blocks.get((i, j, k))
        if block is None:
            block = self._blocks[i, j, k] = self._flat[i:i + 2, j:j + 2, k:k + 2].reshape(8, -1)
        w = np.array([wi[di] * wj[dj] * wk[dk] for di, dj, dk in _CORNERS])
        terms = w[:, None] * block
        # running sum in corner order, as the loop above adds them; reduce would
        # sum a lone column pairwise.  + 0.0 maps an all -0.0 sum to the loop's 0.0
        return (np.add.accumulate(terms)[-1] + 0.0).reshape(self._value_shape)


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
