"""Bridge between groupoid sections and parallelisms (frame fields).

A parallelism P sends each point to a frame; the induced groupoid section is
g(x, y) = P(y) P(x)^-1.  Sections arising this way are exactly those obeying
the composition law g(y, z) g(x, y) = g(x, z), and inverting the map requires
choosing one frame: two parallelisms induce the same section iff they differ
by a fixed right factor.  Isotropy groups are sampled by conjugating material
symmetries with a reference frame, and integrability of a parallelism is
decided by the commutativity of its frame vector fields.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

import numpy as np

from .bodies import Body, SampleSet, membership_defects
from .errors import NotMorphism, OutOfDomain, SourceTargetMismatch
from .grid import Box, Grid, grid_gradient
from .jets import Frame, Jet1, as_matrix, as_point, points_close

MORPHISM_TOL = 1e-9


class Parallelism:
    """Global frame field on the domain ``box``: x -> Frame(x, M(x)) with M(x) invertible."""

    def __init__(self, matrix_fn: Callable[[np.ndarray], np.ndarray], lo, hi):
        self._fn = matrix_fn
        self.box = Box(lo, hi)

    def frame(self, x) -> Jet1:
        return Frame(x, self.matrix(x))

    def matrix(self, x) -> np.ndarray:
        """The frame's matrix at x, validated once: read-only and invertible."""
        p = as_point(x)
        if not self.box.contains(p):
            raise OutOfDomain(f"{p.tolist()} outside parallelism domain")
        return as_matrix(self._fn(p), invertible=True)

    @staticmethod
    def constant(M, lo, hi) -> "Parallelism":
        M = np.asarray(M, dtype=float)
        return Parallelism(lambda x: M, lo, hi)

    def right_translate(self, Z0) -> "Parallelism":
        """The parallelism x -> P(x) Z0 (same induced groupoid section)."""
        Z0 = np.asarray(Z0, dtype=float)
        return Parallelism(lambda x: self._fn(x) @ Z0, self.box.lo, self.box.hi)


def g_map(P: Parallelism, x, y) -> Jet1:
    """Induced groupoid section: the jet (x -> y, P(y) P(x)^-1)."""
    return Jet1(x, y, P.matrix(y) @ np.linalg.inv(P.matrix(x)))


class GroupoidSection:
    """Assignment (x, y) -> jet with that source and target."""

    def __init__(self, jet_fn: Callable[[np.ndarray, np.ndarray], Jet1]):
        self._fn = jet_fn

    def __call__(self, x, y) -> Jet1:
        return self._fn(as_point(x), as_point(y))

    @staticmethod
    def of_parallelism(P: Parallelism) -> "GroupoidSection":
        return GroupoidSection(lambda x, y: g_map(P, x, y))


def _composition_defect(matrix: Callable, triples) -> float:
    """Worst |g(y,z) g(x,y) - g(x,z)| over triples, for g given by its matrices."""
    worst = 0.0
    for (x, y, z) in triples:
        lhs = matrix(y, z) @ matrix(x, y)
        worst = max(worst, float(np.max(np.abs(lhs - matrix(x, z)))))
    return worst


def morphism_defect(S: GroupoidSection, triples: Sequence) -> float:
    """Worst violation of S(y,z) S(x,y) = S(x,z) over the given triples."""
    return _composition_defect(lambda x, y: S(x, y).matrix, triples)


def sampled_morphism_defect(S: GroupoidSection, points: Sequence) -> float:
    """morphism_defect over all ordered triples of ``points``, evaluating S once per pair."""
    pts = [as_point(p) for p in points]
    table = {(a, b): S(x, y).matrix for a, x in enumerate(pts) for b, y in enumerate(pts)}
    return _composition_defect(lambda a, b: table[a, b],
                               itertools.product(range(len(pts)), repeat=3))


def invert_g_map(S: GroupoidSection, z, Z: Jet1, points: Sequence) -> Parallelism:
    """Parallelism P(x) = S(z, x) . Z, defined when S obeys the morphism law.

    The law is checked on all ordered triples drawn from ``points``; by
    construction the result satisfies g_map(P) == S wherever the law holds.
    Z must be based at z.
    """
    z = as_point(z)
    if not points_close(Z.target, z):
        raise SourceTargetMismatch(f"frame based at {Z.target.tolist()}, not at z = {z.tolist()}")
    pts = [as_point(p) for p in points]
    defect = sampled_morphism_defect(S, pts)
    if defect > MORPHISM_TOL:
        raise NotMorphism(
            f"composition-law defect {defect:.3e} > {MORPHISM_TOL:g} on sampled triples")
    hull = np.stack(pts + [z])
    Zm = Z.matrix
    return Parallelism(lambda x: S(z, x).matrix @ Zm, hull.min(axis=0), hull.max(axis=0))


def isotropy_group_sample(body: Body, z0, Z0: Jet1, candidates: Sequence,
                          samples: SampleSet, tol: float) -> list:
    """Conjugated material symmetries Z0^-1 P Z0 for candidates P that pass.

    Realizes the associated-group construction: the sampled isotropy group of
    the body at z0, read through the reference frame Z0.  P passes when the
    jet (z0 -> z0, P) passes ``is_material_isomorphism``, with the same
    defect.  Every candidate is validated as an invertible matrix first; then
    one ``membership_defects`` batch at z0 gives every candidate's defect, so
    an error's ``index`` is (candidate, sample).
    """
    z0 = as_point(z0)
    if not body.box.contains(z0):
        raise OutOfDomain(f"{z0.tolist()} outside domain of body '{body.name}'")
    if not points_close(Z0.target, z0):
        raise SourceTargetMismatch(
            f"reference frame based at {Z0.target.tolist()}, not at z0 = {z0.tolist()}"
        )
    Zi = np.linalg.inv(Z0.matrix)
    mats = [as_matrix(P, invertible=True) for P in candidates]
    if not mats:
        return []
    defects = membership_defects(body, z0, z0, mats, samples).tolist()
    return [Zi @ P @ Z0.matrix for P, defect in zip(mats, defects) if defect <= tol]


def frame_bracket_defect(P: Parallelism, grid: Grid) -> float:
    """Max commutator of the frame vector fields over interior lattice points.

    E_i are the columns of P; [E_i, E_j]^k = E_i^l d_l E_j^k - E_j^l d_l E_i^k
    with central differences on the grid.  Vanishing brackets characterize
    integrable parallelisms (coordinate frames).
    """
    frames = np.stack([P.matrix(x) for x in grid.points])
    E = grid.reshape(frames)                       # (nx,ny,nz,3(k),3(col i))
    dE = grid_gradient(grid, E)                    # [..., k, i, l]
    # bracket[..., k, i, j] = sum_l E[..., l, i] dE[..., k, j, l] - (i <-> j)
    term = np.einsum("...li,...kjl->...kij", E, dE)
    bracket = term - np.swapaxes(term, -1, -2)
    interior = grid.interior_mask()
    return float(np.max(np.abs(bracket[interior])))
