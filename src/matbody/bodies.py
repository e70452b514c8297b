"""Response functionals on a box chart and membership in the material groupoid.

A body is a box domain plus a reduced response Lambda W-hat(F, x): the value
depends on the deformation gradient F and the source point x only, never on
a target point, so translation invariance is structural.

Membership of a jet g = (x -> y, P) in the material groupoid is decided by
sampling: W-hat(F P, x) must equal W-hat(F, y) for every test gradient F in a
finite sample set.  W-inverse of a jet is the response of its groupoid
inverse, W-hat(P^-1, y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (ConfigError, NonFiniteResponse, OutOfDomain, SingularMatrix, first_true,
                     with_index)
from .jets import DET_TOL, Jet1, as_point, invert

_I3 = np.eye(3)

# Fixed anchors prepended to every sample set: failures at the identity or at
# a uniaxial stretch reproduce without chasing a seed.
_ANCHORS = (
    np.eye(3),
    np.diag([2.0, 1.0, 1.0]),
    np.diag([1.0, 2.0, 1.0]),
    np.diag([1.0, 1.0, 2.0]),
)


@dataclass(frozen=True, eq=False)
class Body:
    """Box chart domain plus response functional with output dimension d.

    ``response(F, x)`` maps F (..., 3, 3) and x (..., 3), whose leading
    dimensions broadcast, to values (..., d).  Call it through ``evaluate``,
    which checks the batch.
    """

    name: str
    lo: np.ndarray
    hi: np.ndarray
    response: Callable[[np.ndarray, np.ndarray], np.ndarray]
    output_dim: int = 1
    description: str = ""

    def __post_init__(self):
        object.__setattr__(self, "lo", as_point(self.lo))
        object.__setattr__(self, "hi", as_point(self.hi))
        if np.any(self.hi <= self.lo):
            raise ValueError("domain box must have positive extent on every axis")
        if self.output_dim < 1:
            raise ValueError("output_dim must be a positive integer")

    def contains(self, x, margin: float = 0.0) -> bool:
        p = np.asarray(x, dtype=float)
        return bool(np.all(p >= self.lo + margin) and np.all(p <= self.hi - margin))


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Finite stand-in for quantification over all deformation gradients."""

    matrices: np.ndarray    # (count, 3, 3), read-only
    seed: int

    @property
    def count(self) -> int:
        return len(self.matrices)


def make_samples(n_random: int = 24, seed: int = 20240) -> SampleSet:
    """Anchor matrices plus ``n_random`` perturbations I + S, S ~ U[-0.5, 0.5]^9.

    Rejection keeps det(F) > 0.2 so every sample is safely invertible.
    """
    rng = np.random.default_rng(seed)
    mats = list(_ANCHORS)
    while len(mats) < n_random + len(_ANCHORS):
        f = _I3 + rng.uniform(-0.5, 0.5, size=(3, 3))
        if np.linalg.det(f) > 0.2:
            mats.append(f)
    mats = np.stack(mats)
    mats.setflags(write=False)
    return SampleSet(mats, seed)


def evaluate(body: Body, F, x) -> np.ndarray:
    """Response W-hat(F, x) of shape (..., d) for F (..., 3, 3) and x (..., 3).

    The leading dimensions of F and x broadcast.  The domain box, the det floor
    and finiteness are each checked once for the whole batch; the first
    offending pair raises OutOfDomain, SingularMatrix or NonFiniteResponse,
    and the error's ``index`` is that pair's index in the broadcast batch.
    """
    Fm = np.asarray(F, dtype=float)
    xp = np.asarray(x, dtype=float)
    shape = np.broadcast_shapes(Fm.shape[:-2], xp.shape[:-1])
    inside = (xp >= body.lo) & (xp <= body.hi)
    if not inside.all():
        i = first_true(~inside.all(axis=-1), shape)
        raise with_index(OutOfDomain(
            f"{_point_at(xp, shape, i)} outside domain of body '{body.name}'"), i)
    singular = np.abs(np.linalg.det(Fm)) < DET_TOL
    if singular.any():
        raise with_index(SingularMatrix("deformation gradient is singular"),
                         first_true(singular, shape))
    with np.errstate(all="ignore"):         # non-finite values are refused below
        val = np.broadcast_to(np.asarray(body.response(Fm, xp), dtype=float),
                              shape + (body.output_dim,))
    if not np.isfinite(val).all():
        i = first_true(~np.isfinite(val).all(axis=-1), shape)
        raise with_index(NonFiniteResponse(
            f"response of '{body.name}' is non-finite at x={_point_at(xp, shape, i)}"), i)
    return val


def _point_at(x: np.ndarray, shape: tuple, index: tuple) -> list:
    """The point of the pair at ``index`` of a batch with leading shape ``shape``."""
    return np.broadcast_to(x, shape + (3,))[index].tolist()


def evaluate_w_inverse(body: Body, g: Jet1) -> np.ndarray:
    """W-inverse of a jet: the response of its groupoid inverse."""
    return evaluate(body, invert(g).matrix, g.target)


def membership_defect(body: Body, g: Jet1, samples: SampleSet) -> float:
    """max over sample gradients F of |W-hat(F P, x) - W-hat(F, y)|_inf.

    Both sides are one ``evaluate`` of the stacked (2, n) batch: (F P, x) in
    row 0, (F, y) in row 1.  An error's ``index`` is (side, sample), side 0
    the source and 1 the target.
    """
    Fs = samples.matrices
    w = evaluate(body, np.stack((Fs @ g.matrix, Fs)), np.stack((g.source, g.target))[:, None])
    return float(np.max(np.abs(w[0] - w[1])))


def membership_tol(body: Body, samples: SampleSet, points: Sequence) -> float:
    """Default membership tolerance: 1e-8 x (1 + max sample response magnitude)."""
    x = np.asarray(points, dtype=float).reshape(-1, 1, 3)
    return 1e-8 * (1.0 + float(np.max(np.abs(evaluate(body, samples.matrices, x)))))


def is_material_isomorphism(body: Body, g: Jet1, samples: SampleSet, tol: float) -> bool:
    """Sampled membership test of g in the material groupoid."""
    return membership_defect(body, g, samples) <= tol


def is_material_symmetry(body: Body, x, P, samples: SampleSet, tol: float) -> bool:
    """Membership of the jet (x -> x, P): a sampled material symmetry test."""
    return is_material_isomorphism(body, Jet1(x, x, P), samples, tol)


# ---------------------------------------------------------------------------
# Built-in analytic bodies.
#
# The quartic w0 below is deliberately generic: distinct positive weights on
# the squared Green-strain entries leave it with no continuous linearized
# symmetry.  Triviality of the symmetry algebra is asserted by the algebroid
# tests, never assumed here.
# ---------------------------------------------------------------------------

W0_WEIGHTS = 1.0 + 0.1 * (3.0 * np.arange(3)[:, None] + np.arange(3)[None, :])
W0_WEIGHTS.setflags(write=False)

E_SHEAR_12 = np.zeros((3, 3))
E_SHEAR_12[0, 1] = 1.0
E_SHEAR_12.setflags(write=False)

E_SHEAR_21 = np.zeros((3, 3))
E_SHEAR_21[1, 0] = 1.0
E_SHEAR_21.setflags(write=False)

_BOX_LO = -np.ones(3)
_BOX_HI = np.ones(3)


def _strain(F: np.ndarray) -> np.ndarray:
    """F^T F - I for F (..., 3, 3)."""
    return np.swapaxes(F, -1, -2) @ F - _I3


def w0_generic(F: np.ndarray) -> np.ndarray:
    """Anisotropic quartic sum_ij c_ij (F^T F - I)_ij^2 with distinct weights, F (..., 3, 3)."""
    D = _strain(F)
    return np.sum(W0_WEIGHTS * D * D, axis=(-2, -1))


def _isotropic_response(F, x):
    D = _strain(F)
    return np.sum(D * D, axis=(-2, -1))[..., None]


def fgm_body(K: Callable[[np.ndarray], np.ndarray], name: str, description: str = "") -> Body:
    """Functionally graded body W-hat(F, x) = w0(F K(x)) for an implant field K.

    K maps points (..., 3) to matrices (..., 3, 3).
    """

    def response(F, x):
        return w0_generic(F @ K(x))[..., None]

    return Body(name, _BOX_LO, _BOX_HI, response, 1, description)


def _nonuniform_response(F, x):
    D = _strain(F)
    return (np.sum(D * D, axis=(-2, -1)) + x[..., 0] * (F[..., 0, 0] - 1.0) ** 2)[..., None]


BUILTIN_DESCRIPTIONS = {
    "homogeneous_isotropic": "|F^T F - I|^2: isotropic, x-independent; uniform and homogeneous",
    "uniform_fgm": "w0(F K(x)), K = I + x1 e1(x)e2: uniform, torsion-obstructed (not homogeneous)",
    "uniform_fgm_integrable": "w0(F K(x)), K = I + x1 e2(x)e1: uniform and homogeneous (K^-1 is a Jacobian)",
    "nonuniform": "|F^T F - I|^2 + x1 (F11 - 1)^2: response drifts with x1; not uniform",
}


def builtin_body(kind: str) -> Body:
    """Construct one of the named analytic test bodies on the box [-1, 1]^3."""
    if kind == "homogeneous_isotropic":
        return Body(kind, _BOX_LO, _BOX_HI, _isotropic_response, 1,
                    BUILTIN_DESCRIPTIONS[kind])
    if kind == "uniform_fgm":
        return fgm_body(lambda x: _I3 + x[..., 0, None, None] * E_SHEAR_12, kind,
                        BUILTIN_DESCRIPTIONS[kind])
    if kind == "uniform_fgm_integrable":
        return fgm_body(lambda x: _I3 + x[..., 0, None, None] * E_SHEAR_21, kind,
                        BUILTIN_DESCRIPTIONS[kind])
    if kind == "nonuniform":
        return Body(kind, _BOX_LO, _BOX_HI, _nonuniform_response, 1,
                    BUILTIN_DESCRIPTIONS[kind])
    raise ConfigError(f"unknown builtin body '{kind}'; known: {sorted(BUILTIN_DESCRIPTIONS)}")


# ---------------------------------------------------------------------------
# Polynomial bodies: scalar polynomials in the 9 entries of F (row-major)
# followed by the 3 coordinates of x, total degree <= 4.
# ---------------------------------------------------------------------------

POLY_MAX_DEGREE = 4


def polynomial_body(terms: Sequence, lo=None, hi=None, name: str = "polynomial") -> Body:
    """Body from (exponent multi-index over 12 variables, coefficient) pairs."""
    lo = _BOX_LO if lo is None else np.asarray(lo, dtype=float)
    hi = _BOX_HI if hi is None else np.asarray(hi, dtype=float)
    parsed = []
    for k, term in enumerate(terms):
        try:
            exps, coeff = term
            exps = np.array(exps, dtype=int).reshape(12)
            coeff = float(coeff)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"polynomial term {k} must be ([12 ints], coeff): {exc}")
        if np.any(exps < 0):
            raise ConfigError(f"polynomial term {k} has a negative exponent")
        if int(exps.sum()) > POLY_MAX_DEGREE:
            raise ConfigError(
                f"polynomial term {k} has total degree {int(exps.sum())} > {POLY_MAX_DEGREE}"
            )
        parsed.append(([(v, int(exps[v])) for v in np.flatnonzero(exps).tolist()], coeff))
    if not parsed:
        raise ConfigError("polynomial body needs at least one term")
    # (variable, k) for k = 1 .. the highest power of each variable that a term uses
    powers = sorted({(v, k) for factors, _ in parsed for v, e in factors for k in range(1, e + 1)})

    def response(F, x):
        # Powers by repeated multiplication on views of F and x; each term is the
        # product of its factors in variable order, and terms are summed in order.
        z = [F[..., v // 3, v % 3] for v in range(9)] + [x[..., v] for v in range(3)]
        power = {}
        for v, k in powers:
            power[v, k] = z[v] if k == 1 else power[v, k - 1] * z[v]
        acc = 0.0
        for factors, coeff in parsed:
            acc = acc + coeff * math.prod(power[f] for f in factors)
        return np.asarray(acc)[..., None]

    return Body(name, lo, hi, response, 1, "user polynomial response")
