"""Lattices and trilinear interpolation, and the package's runtime imports."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import matbody
from matbody import LeftDomain, TrilinearField, make_grid


def multilinear(coef, x):
    """sum_c coef[c] * x^c0 y^c1 z^c2 over c in {0,1}^3, for points (..., 3)."""
    out = 0.0
    for c in np.ndindex(2, 2, 2):
        mono = np.prod(np.where(np.array(c, dtype=bool), x, 1.0), axis=-1)
        out = out + mono[..., None, None] * coef[c]
    return out


def test_trilinear_reproduces_multilinear_field():
    """Trilinear interpolation is exact for fields affine in each coordinate."""
    rng = np.random.default_rng(5)
    grid = make_grid([-1.0, 0.0, -2.0], [1.0, 0.5, 1.0], (4, 5, 3), margin=0.05)
    coef = rng.normal(size=(2, 2, 2, 3, 3))
    field = TrilinearField(grid.axes, grid.reshape(multilinear(coef, grid.points)))
    lo, hi = grid.points[0], grid.points[-1]
    pts = rng.uniform(lo, hi, size=(40, 3))
    for axis in range(3):                       # upper hull faces
        pts[axis, axis] = hi[axis]
    pts[3] = hi                                 # far corner
    pts[4] = lo
    expected = multilinear(coef, pts)
    assert np.max(np.abs(field(pts) - expected)) <= 1e-14
    assert np.max(np.abs(field(pts.reshape(5, 8, 3)) - expected.reshape(5, 8, 3, 3))) <= 1e-14
    for p, e in zip(pts, expected):
        assert field(p).shape == (3, 3)
        assert np.max(np.abs(field(p) - e)) <= 1e-14


def test_trilinear_refuses_points_outside_hull():
    grid = make_grid(-np.ones(3), np.ones(3), (3, 4, 5), margin=0.1)
    field = TrilinearField(grid.axes, np.zeros(grid.shape + (3,)))
    for axis in range(3):
        for corner, sign in ((grid.points[-1], 1.0), (grid.points[0], -1.0)):
            x = corner.copy()
            x[axis] += sign * grid.spacing[axis]
            with pytest.raises(LeftDomain):
                field(x)
            with pytest.raises(LeftDomain):
                field(np.stack([grid.points[0], x]))


def test_import_does_not_load_scipy():
    """numpy is the only runtime dependency; scipy serves the test oracles only."""
    src = str(Path(matbody.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, matbody; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"
