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

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, NonFiniteResponse, OutOfDomain, SingularMatrix
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
    """Box chart domain plus response functional with output dimension d."""

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

    matrices: tuple
    seed: int

    @property
    def count(self) -> int:
        return len(self.matrices)


def make_samples(n_random: int = 24, seed: int = 20240) -> SampleSet:
    """Anchor matrices plus ``n_random`` perturbations I + S, S ~ U[-0.5, 0.5]^9.

    Rejection keeps det(F) > 0.2 so every sample is safely invertible.
    """
    rng = np.random.default_rng(seed)
    mats = [m.copy() for m in _ANCHORS]
    while len(mats) < n_random + len(_ANCHORS):
        f = _I3 + rng.uniform(-0.5, 0.5, size=(3, 3))
        if np.linalg.det(f) > 0.2:
            mats.append(f)
    for m in mats:
        m.setflags(write=False)
    return SampleSet(tuple(mats), seed)


def evaluate(body: Body, F, x) -> np.ndarray:
    """Response W-hat(F, x).  Raises OutOfDomain / SingularMatrix / NonFiniteResponse."""
    xp = np.asarray(x, dtype=float)
    if not body.contains(xp):
        raise OutOfDomain(f"{xp.tolist()} outside domain of body '{body.name}'")
    Fm = np.asarray(F, dtype=float)
    if abs(np.linalg.det(Fm)) < DET_TOL:
        raise SingularMatrix("deformation gradient is singular")
    val = np.asarray(body.response(Fm, xp), dtype=float).reshape(body.output_dim)
    if not np.all(np.isfinite(val)):
        raise NonFiniteResponse(f"response of '{body.name}' is non-finite at x={xp.tolist()}")
    return val


def evaluate_w_inverse(body: Body, g: Jet1) -> np.ndarray:
    """W-inverse of a jet: the response of its groupoid inverse."""
    return evaluate(body, invert(g).matrix, g.target)


def membership_defect(body: Body, g: Jet1, samples: SampleSet) -> float:
    """max over sample gradients F of |W-hat(F P, x) - W-hat(F, y)|_inf."""
    P = g.matrix
    worst = 0.0
    for F in samples.matrices:
        d = evaluate(body, F @ P, g.source) - evaluate(body, F, g.target)
        worst = max(worst, float(np.max(np.abs(d))))
    return worst


def membership_tol(body: Body, samples: SampleSet, points: Sequence) -> float:
    """Default membership tolerance: 1e-8 x (1 + max sample response magnitude)."""
    mag = 0.0
    for x in points:
        for F in samples.matrices:
            mag = max(mag, float(np.max(np.abs(evaluate(body, F, x)))))
    return 1e-8 * (1.0 + mag)


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


def w0_generic(F: np.ndarray) -> float:
    """Anisotropic quartic sum_ij c_ij (F^T F - I)_ij^2 with distinct weights."""
    D = F.T @ F - _I3
    return float(np.sum(W0_WEIGHTS * D * D))


def _isotropic_response(F, x):
    D = F.T @ F - _I3
    return np.array([np.sum(D * D)])


def fgm_body(K: Callable[[np.ndarray], np.ndarray], name: str, description: str = "") -> Body:
    """Functionally graded body W-hat(F, x) = w0(F K(x)) for a given implant field K."""

    def response(F, x):
        return np.array([w0_generic(F @ K(x))])

    return Body(name, _BOX_LO, _BOX_HI, response, 1, description)


def _nonuniform_response(F, x):
    D = F.T @ F - _I3
    return np.array([np.sum(D * D) + x[0] * (F[0, 0] - 1.0) ** 2])


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
        return fgm_body(lambda x: _I3 + x[0] * E_SHEAR_12, kind,
                        BUILTIN_DESCRIPTIONS[kind])
    if kind == "uniform_fgm_integrable":
        return fgm_body(lambda x: _I3 + x[0] * E_SHEAR_21, kind,
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
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"polynomial term {k} must be ([12 ints], coeff): {exc}")
        if np.any(exps < 0):
            raise ConfigError(f"polynomial term {k} has a negative exponent")
        if int(exps.sum()) > POLY_MAX_DEGREE:
            raise ConfigError(
                f"polynomial term {k} has total degree {int(exps.sum())} > {POLY_MAX_DEGREE}"
            )
        parsed.append((exps, coeff))
    if not parsed:
        raise ConfigError("polynomial body needs at least one term")

    def response(F, x):
        z = np.concatenate([np.asarray(F, dtype=float).ravel(), np.asarray(x, dtype=float)])
        acc = 0.0
        for exps, coeff in parsed:
            acc += coeff * float(np.prod(z ** exps))
        return np.array([acc])

    return Body(name, lo, hi, response, 1, "user polynomial response")
