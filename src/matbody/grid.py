"""The domain box, uniform lattices inside it and trilinear interpolation on them.

Interpolation is one call batched over points (..., 3), a single point too.
Grid points are enumerated in C order (x slowest, z fastest); every module
that serializes per-point data relies on that ordering being stable.
"""

from __future__ import annotations

import itertools
import math
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
        # (lo, hi) per axis as Python floats: contains is on single-point hot paths
        bounds = tuple(zip(self.lo.tolist(), self.hi.tolist()))
        # on Python floats hi - lo overflows to inf without a RuntimeWarning
        if not all(math.isfinite(h - l) for l, h in bounds):
            raise ValueError("box extent hi - lo is not finite")
        object.__setattr__(self, "_bounds", bounds)

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
        return Box(self.lo + margin, self.hi - margin)


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
    given = tuple(np.broadcast_to(resolution, 3))
    res = tuple(int(r) if math.isfinite(r) else 0 for r in given)     # inf, NaN: 0 != r
    if res != given:
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

    ``axes`` are three 1-D arrays of at least 2 strictly increasing finite
    ticks, and ``values`` has shape (len(ax), len(ay), len(az)) plus the value
    shape; anything else raises ValueError.  ``constant`` is the node value,
    read-only, when every node holds exactly the same value (-0.0 read as 0.0,
    as the weighted sum adds), else None; a call then returns it exactly after
    the same hull test, where the weighted sum could be an ulp off.
    """

    def __init__(self, axes, values: np.ndarray):
        # a read-only copy: the caller's later writes must not move the field
        values = np.array(values, dtype=float)
        values.setflags(write=False)
        self._axes = tuple(np.asarray(a, dtype=float) for a in axes)
        ticks = tuple(len(a) if a.ndim == 1 and (np.diff(a) > 0).all() else 0
                      for a in self._axes)
        if len(ticks) != 3 or min(ticks) < 2:
            raise ValueError("a lattice needs 3 axes of >= 2 strictly increasing ticks")
        if values.shape[:3] != ticks:
            raise ValueError(f"lattice data of shape {values.shape} do not fit axes of {ticks} ticks")
        self.box = Box([a[0] for a in self._axes], [a[-1] for a in self._axes])    # the hull
        self._value_shape = values.shape[3:]
        # one row per node in C order: node (i, j, k) is row (i * ny + j) * nz + k
        self._ticks, self._rows = ticks, values.reshape(math.prod(ticks), -1)
        self.constant = None
        if values.size and (values == values[0, 0, 0]).all():      # NaN nodes: never
            self.constant = np.array(values[0, 0, 0] + 0.0)
            self.constant.setflags(write=False)

    def __call__(self, x) -> np.ndarray:
        p = np.asarray(x, dtype=float)
        if not self.box.mask(p).all():
            raise LeftDomain(f"point {p.tolist()} outside grid hull")
        if self.constant is not None:
            return np.broadcast_to(self.constant, p.shape[:-1] + self._value_shape).copy()
        cells, weights = [], []
        for a, q in zip(self._axes, np.moveaxis(p, -1, 0)):
            # points on the upper hull face fall in the last cell
            i = np.minimum(np.searchsorted(a, q, side="right") - 1, len(a) - 2)
            t = ((q - a[i]) / (a[i + 1] - a[i]))[..., None]
            cells.append(i)
            weights.append((1.0 - t, t))
        (i, j, k), (wi, wj, wk) = cells, weights
        _, ny, nz = self._ticks
        base = (i * ny + j) * nz + k
        out = 0.0
        # corners (di, dj, dk) in C order, each weight (wi * wj) * wk, each row one take
        for di, dj in _EDGES:
            wij, offset = wi[di] * wj[dj], (di * ny + dj) * nz
            for dk in (0, 1):
                out = out + wij * wk[dk] * self._rows.take(base + (offset + dk), axis=0)
        return out.reshape(p.shape[:-1] + self._value_shape)


# the (di, dj) of the cell corners, in the order the weighted sum adds them up
_EDGES = tuple(itertools.product((0, 1), repeat=2))


def grid_gradient(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Per-axis derivatives of lattice data, central inside, one-sided at edges.

    ``values`` is lattice-shaped with arbitrary trailing dimensions; the result
    appends an axis holding d/dx_i at index i.  Second-order one-sided
    stencils keep edge derivatives exact for quadratic fields.
    """
    if min(grid.shape) < 3:
        raise GridTooSmall(f"gradient needs >= 3 points per axis, got {grid.shape}")
    return np.stack(np.gradient(values, *grid.spacing, axis=(0, 1, 2), edge_order=2), axis=-1)
