"""Uniform lattices inside a box chart and trilinear interpolation on them.

Grid points are enumerated in C order (x slowest, z fastest); every module
that serializes per-point data relies on that ordering being stable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from .errors import GridTooSmall, LeftDomain


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
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    res = tuple(int(r) for r in np.broadcast_to(resolution, 3))
    if min(res) < 3:
        raise GridTooSmall(f"need >= 3 points per axis, got {res}")
    if np.any(lo + 2 * margin >= hi):
        raise ValueError("margin leaves an empty box")
    axes = tuple(np.linspace(lo[i] + margin, hi[i] - margin, res[i]) for i in range(3))
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=-1)
    points.setflags(write=False)
    spacing = np.array([a[1] - a[0] for a in axes])
    return Grid(axes, res, points, spacing)


class TrilinearField:
    """Trilinear interpolant of lattice tensor data; refuses to extrapolate."""

    def __init__(self, axes, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        self._value_shape = values.shape[3:]
        flat = values.reshape(values.shape[:3] + (-1,))
        self._interp = RegularGridInterpolator(axes, flat, method="linear",
                                               bounds_error=True)
        self._lo = np.array([a[0] for a in axes])
        self._hi = np.array([a[-1] for a in axes])

    def contains(self, x) -> bool:
        p = np.asarray(x, dtype=float)
        return bool(np.all(p >= self._lo) and np.all(p <= self._hi))

    def __call__(self, x) -> np.ndarray:
        try:
            out = self._interp(np.asarray(x, dtype=float))[0]
        except ValueError as exc:
            raise LeftDomain(f"point {np.asarray(x).tolist()} outside grid hull") from exc
        return out.reshape(self._value_shape)


def grid_gradient(grid: Grid, values: np.ndarray) -> list:
    """Per-axis derivatives of lattice data, central inside, one-sided at edges.

    ``values`` is lattice-shaped with arbitrary trailing dimensions; returns a
    list of three arrays of the same shape.  Second-order one-sided stencils
    keep edge derivatives exact for quadratic fields.
    """
    if min(grid.shape) < 3:
        raise GridTooSmall(f"gradient needs >= 3 points per axis, got {grid.shape}")
    return list(np.gradient(values, *grid.spacing, axis=(0, 1, 2), edge_order=2))
