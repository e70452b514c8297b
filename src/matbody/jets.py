"""Exact algebra of 1-jets of local diffeomorphisms of a box chart in R^3.

A jet is stored as (source, target, matrix): two chart points and the 3x3
Jacobian of the map at the source.  Composition multiplies Jacobians by the
chain rule; a linear frame at x is the jet of a map 0 -> x and is acted on
by jets through composition.

All values are immutable and all operations are pure functions, so the
module is safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularMatrix, SourceTargetMismatch

# Source/target matching tolerance and invertibility floor (double precision
# leaves ample headroom at chart scale ~1).
POINT_TOL = 1e-9
DET_TOL = 1e-12


def _all_finite(values: list) -> bool:
    """Whether every float in ``values`` is finite.

    A finite sum proves it at the cost of one addition per value; a sum that
    is inf or NaN falls back to the exact test, because finite values can
    overflow it (1e308 + 1e308).
    """
    return math.isfinite(sum(values)) or all(map(math.isfinite, values))


def as_point(x) -> np.ndarray:
    """Coerce to an immutable finite 3-vector of chart coordinates."""
    p = np.array(x, dtype=float).reshape(3)
    if not _all_finite(p.tolist()):
        raise ValueError(f"point has non-finite coordinates: {p}")
    p.setflags(write=False)
    return p


def det3(entries: list) -> float:
    """Determinant of a 3x3 matrix given as its 9 row-major entries, finite floats.

    Closed-form cofactor expansion on Python floats, since np.linalg.det costs
    an LU call; when the products overflow, LU with pivoting, which does not.
    """
    a0, a1, a2, b0, b1, b2, c0, c1, c2 = entries
    det = a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0) + a2 * (b0 * c1 - b1 * c0)
    if not math.isfinite(det):
        det = float(np.linalg.det(np.reshape(entries, (3, 3))))
    return det


def as_matrix(m, *, invertible: bool = False) -> np.ndarray:
    """Coerce to an immutable finite 3x3 matrix, optionally requiring |det| >= DET_TOL."""
    a = np.array(m, dtype=float).reshape(3, 3)
    entries = a.ravel().tolist()
    if not _all_finite(entries):
        raise ValueError("matrix has non-finite entries")
    if invertible:
        det = det3(entries)
        if abs(det) < DET_TOL:
            raise SingularMatrix(f"|det| = {abs(det):.3e} < {DET_TOL:.0e}")
    a.setflags(write=False)
    return a


def points_close(a: np.ndarray, b: np.ndarray) -> bool:
    return bool(np.max(np.abs(np.asarray(a) - np.asarray(b))) <= POINT_TOL)


@dataclass(frozen=True, eq=False)
class Jet1:
    """1-jet (source, target, matrix) with invertible matrix part."""

    source: np.ndarray
    target: np.ndarray
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "source", as_point(self.source))
        object.__setattr__(self, "target", as_point(self.target))
        object.__setattr__(self, "matrix", as_matrix(self.matrix, invertible=True))

    def __repr__(self):
        return f"Jet1({self.source.tolist()} -> {self.target.tolist()})"


@dataclass(frozen=True, eq=False)
class Frame:
    """Linear frame at a point: the jet of a map taking 0 to ``base``."""

    base: np.ndarray
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "base", as_point(self.base))
        object.__setattr__(self, "matrix", as_matrix(self.matrix, invertible=True))


def identity(x) -> Jet1:
    """Identity jet at x."""
    return Jet1(x, x, np.eye(3))


def compose(g: Jet1, h: Jet1) -> Jet1:
    """Jet composition g . h (h applied first).  Requires h.target == g.source."""
    if not points_close(h.target, g.source):
        raise SourceTargetMismatch(
            f"h.target {h.target.tolist()} != g.source {g.source.tolist()}"
        )
    return Jet1(h.source, g.target, g.matrix @ h.matrix)


def invert(g: Jet1) -> Jet1:
    """Groupoid inverse: swaps source/target, inverts the matrix part."""
    return Jet1(g.target, g.source, np.linalg.inv(g.matrix))


def act_on_frame(g: Jet1, z: Frame) -> Frame:
    """Move a frame along a jet: base goes to g.target, matrix composes."""
    if not points_close(z.base, g.source):
        raise SourceTargetMismatch(
            f"frame base {z.base.tolist()} != g.source {g.source.tolist()}"
        )
    return Frame(g.target, g.matrix @ z.matrix)
