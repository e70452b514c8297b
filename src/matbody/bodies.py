"""Response functionals on a box chart and membership in the material groupoid.

A body is a box domain plus a reduced response Lambda W-hat(F, x): the value
depends on the deformation gradient F and the source point x only, never on
a target point, so translation invariance is structural.

Membership of a jet g = (x -> y, P) in the material groupoid is decided by
sampling: W-hat(F P, x) must equal W-hat(F, y) for every test gradient F in a
finite sample set.  The sample set is checked once, when it is made; a
membership batch is then checked from its factors (two points, one P) and
costs one response call, with ``evaluate``'s pair-by-pair checks as the
fallback whenever a factor check cannot decide.  W-inverse of a jet is the
response of its groupoid inverse, W-hat(P^-1, y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (ConfigError, NonFiniteResponse, OutOfDomain, SingularMatrix, first_true,
                     with_index)
from .grid import Box
from .jets import DET_TOL, Jet1, det3, invert

_I3 = np.eye(3)

# Rounding margin of the det floor certificate, per unit (|P|_F max_s |F_s|_F)^3.
_FLOOR_MARGIN = 64.0 * np.finfo(float).eps

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
    """Box chart domain plus scalar response functional.

    ``response(F, x)`` maps F (..., 3, 3) and x (..., 3), whose leading
    dimensions broadcast, to one value W per pair, shape (...).  Call it
    through ``evaluate``, which checks the batch.
    """

    name: str
    lo: np.ndarray
    hi: np.ndarray
    response: Callable[[np.ndarray, np.ndarray], np.ndarray]
    description: str = ""
    box: Box = field(init=False, repr=False)     # the domain; lo and hi are its bounds

    def __post_init__(self):
        object.__setattr__(self, "box", Box(self.lo, self.hi))
        object.__setattr__(self, "lo", self.box.lo)
        object.__setattr__(self, "hi", self.box.hi)
        if np.any(self.hi <= self.lo):
            raise ValueError("domain box must have positive extent on every axis")


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Finite stand-in for quantification over all deformation gradients.

    The matrices are checked once, here: shape (n, 3, 3) with n >= 1, finite
    entries and |det| >= DET_TOL by LU, as ``evaluate`` checks a batch.  A
    non-finite sample raises ValueError and a singular one SingularMatrix,
    each naming the sample's index.  Matrices that are writeable, or a view
    of another array, are copied first, so the least sample |det| and the
    largest sample norm kept here stay theirs.
    """

    matrices: np.ndarray    # (count, 3, 3), read-only
    seed: int
    min_det: float = field(init=False, repr=False)     # min_s |det F_s|, by LU
    max_norm: float = field(init=False, repr=False)    # max_s |F_s|_F

    def __post_init__(self):
        m = np.asarray(self.matrices, dtype=float)
        if m.flags.writeable or not m.flags.owndata:
            m = m.copy()        # a private copy, so the checked values cannot change
        if m.ndim != 3 or m.shape[1:] != (3, 3) or len(m) == 0:
            raise ValueError(f"sample matrices must have shape (n, 3, 3) with n >= 1, not {m.shape}")
        finite = np.isfinite(m).all(axis=(1, 2))
        if not finite.all():
            raise ValueError(f"sample {int(np.argmin(finite))} has non-finite entries")
        dets = np.abs(np.linalg.det(m))
        singular = dets < DET_TOL
        if singular.any():
            k = int(np.argmax(singular))
            raise with_index(SingularMatrix(
                f"sample {k} has |det| = {dets[k]:.3e} < {DET_TOL:.0e}"), (k,))
        m.setflags(write=False)
        object.__setattr__(self, "matrices", m)
        object.__setattr__(self, "min_det", float(np.min(dets)))
        object.__setattr__(self, "max_norm", float(np.max(np.linalg.norm(m, axis=(1, 2)))))

    @property
    def count(self) -> int:
        return len(self.matrices)

    def clears_floor(self, P: np.ndarray) -> bool:
        """Whether every sample product F_s P is certified to pass ``evaluate``'s det floor.

        P is a finite 3x3 matrix.  The certificate is
        |det P| min_s |det F_s| - 64 eps (|P|_F max_s |F_s|_F)^3 >= 2 DET_TOL,
        with det P in closed form: the subtracted margin covers the rounding
        of the product F_s P, of its LU det and of both factor dets.  It costs
        O(1) instead of n LU calls.  False means undecided, not singular (it
        is also false when the factors' scale overflows): ``evaluate`` then
        takes the LU det of each pair.
        """
        entries = P.ravel().tolist()
        scale = math.hypot(*entries) * self.max_norm
        return (abs(det3(entries)) * self.min_det
                - _FLOOR_MARGIN * scale * scale * scale >= 2.0 * DET_TOL)


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
    mats.setflags(write=False)      # read-only and owned, so SampleSet keeps it as it is
    return SampleSet(mats, seed)


def evaluate(body: Body, F, x, *, _checked: bool = False) -> np.ndarray:
    """Response W-hat(F, x) of shape (...) for F (..., 3, 3) and x (..., 3).

    The leading dimensions of F and x broadcast.  The domain box, the det floor
    and finiteness are each checked once for the whole batch; the first
    offending pair raises OutOfDomain, SingularMatrix or NonFiniteResponse,
    and the error's ``index`` is that pair's index in the broadcast batch.
    The result is read-only.

    ``_checked`` is for ``_sample_rows`` alone, which has decided the domain
    and det floor of its batch from the batch's factors and whose x does not
    widen F's leading shape: only the response and its finiteness test run.
    """
    Fm = np.asarray(F, dtype=float)
    xp = np.asarray(x, dtype=float)
    if _checked:
        shape = Fm.shape[:-2]
    else:
        shape = np.broadcast_shapes(Fm.shape[:-2], xp.shape[:-1])
        inside = body.box.mask(xp)
        if not inside.all():
            i = first_true(~inside, shape)
            raise with_index(OutOfDomain(
                f"{_point_at(xp, shape, i)} outside domain of body '{body.name}'"), i)
        singular = np.abs(np.linalg.det(Fm)) < DET_TOL
        if singular.any():
            raise with_index(SingularMatrix("deformation gradient is singular"),
                             first_true(singular, shape))
    with np.errstate(all="ignore"):         # non-finite values are refused below
        raw = np.asarray(body.response(Fm, xp), dtype=float)
        # a read-only view, so the response's own array stays writeable; an
        # x-independent response lacks the batch shape and is broadcast to it
        val = raw.view() if raw.shape == shape else np.broadcast_to(raw, shape)
        val.flags.writeable = False
        # a finite sum proves every value finite; finite values can overflow it
        finite_sum = math.isfinite(raw.sum())
    if not finite_sum:
        finite = np.isfinite(val)
        if not finite.all():
            i = first_true(~finite, shape)
            raise with_index(NonFiniteResponse(
                f"response of '{body.name}' is non-finite at x={_point_at(xp, shape, i)}"), i)
    return val


def _point_at(x: np.ndarray, shape: tuple, index: tuple) -> list:
    """The point of the pair at ``index`` of a batch with leading shape ``shape``."""
    return np.broadcast_to(x, shape + (3,))[index].tolist()


def evaluate_w_inverse(body: Body, g: Jet1) -> np.ndarray:
    """W-inverse of a jet: the response of its groupoid inverse."""
    return evaluate(body, invert(g).matrix, g.target)


def _sample_rows(body: Body, samples: SampleSet, mats: list, x: np.ndarray) -> np.ndarray:
    """W-hat on the batch whose row k is F_s P_k for P_k in ``mats`` and whose
    last row is the samples F_s themselves, shape (len(mats) + 1, n).

    x holds finite points and broadcasts against the batch, so an error's
    ``index`` is (row, sample).  The batch is checked from its factors: every
    point of x in the box, the samples' det floor decided when they were
    made, and each P certified by ``SampleSet.clears_floor``.  Then
    ``evaluate`` skips its own domain and det checks and costs one response
    call.  If any factor check fails, ``evaluate`` checks the batch pair by
    pair, so the values and errors are always those of a plain ``evaluate``.
    """
    Fs = samples.matrices
    F = np.array([Fs @ P for P in mats] + [Fs])
    if (all(map(body.box.contains_floats, x.reshape(-1, 3).tolist()))
            and all(map(samples.clears_floor, mats))):
        return evaluate(body, F, x, _checked=True)
    return evaluate(body, F, x)


def membership_defect(body: Body, g: Jet1, samples: SampleSet) -> float:
    """max over sample gradients F of |W-hat(F P, x) - W-hat(F, y)|.

    Both sides are one (2, n) batch, (F P, x) in row 0 and (F, y) in row 1,
    checked from its factors and then one response call; it gives
    ``evaluate``'s values and errors for the same batch.  An error's
    ``index`` is (side, sample), side 0 the source and 1 the target.
    """
    w = _sample_rows(body, samples, [g.matrix], np.array((g.source, g.target))[:, None])
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
    """F^T F - I for F (..., 3, 3); a contiguous F^T takes matmul's fast path."""
    return np.ascontiguousarray(np.swapaxes(F, -1, -2)) @ F - _I3


def w0_generic(F: np.ndarray) -> np.ndarray:
    """Anisotropic quartic sum_ij c_ij (F^T F - I)_ij^2 with distinct weights, F (..., 3, 3)."""
    D = _strain(F)
    return np.sum(W0_WEIGHTS * D * D, axis=(-2, -1))


def _isotropic_response(F, x):
    D = _strain(F)
    return np.sum(D * D, axis=(-2, -1))


def fgm_body(K: Callable[[np.ndarray], np.ndarray], name: str, description: str = "") -> Body:
    """Functionally graded body W-hat(F, x) = w0(F K(x)) for an implant field K.

    K maps points (..., 3) to matrices (..., 3, 3).
    """

    def response(F, x):
        return w0_generic(F @ K(x))

    return Body(name, _BOX_LO, _BOX_HI, response, description)


def _nonuniform_response(F, x):
    D = _strain(F)
    return np.sum(D * D, axis=(-2, -1)) + x[..., 0] * (F[..., 0, 0] - 1.0) ** 2


BUILTIN_DESCRIPTIONS = {
    "homogeneous_isotropic": "|F^T F - I|^2: isotropic, x-independent; uniform and homogeneous",
    "uniform_fgm": "w0(F K(x)), K = I + x1 e1(x)e2: uniform, torsion-obstructed (not homogeneous)",
    "uniform_fgm_integrable": "w0(F K(x)), K = I + x1 e2(x)e1: uniform and homogeneous (K^-1 is a Jacobian)",
    "nonuniform": "|F^T F - I|^2 + x1 (F11 - 1)^2: response drifts with x1; not uniform",
}


def builtin_body(kind: str) -> Body:
    """Construct one of the named analytic test bodies on the box [-1, 1]^3."""
    if kind == "homogeneous_isotropic":
        return Body(kind, _BOX_LO, _BOX_HI, _isotropic_response, BUILTIN_DESCRIPTIONS[kind])
    if kind == "uniform_fgm":
        return fgm_body(lambda x: _I3 + x[..., 0, None, None] * E_SHEAR_12, kind,
                        BUILTIN_DESCRIPTIONS[kind])
    if kind == "uniform_fgm_integrable":
        return fgm_body(lambda x: _I3 + x[..., 0, None, None] * E_SHEAR_21, kind,
                        BUILTIN_DESCRIPTIONS[kind])
    if kind == "nonuniform":
        return Body(kind, _BOX_LO, _BOX_HI, _nonuniform_response, BUILTIN_DESCRIPTIONS[kind])
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
        if not math.isfinite(coeff):
            raise ConfigError(f"polynomial term {k} has a non-finite coefficient {coeff}")
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
        return acc

    return Body(name, lo, hi, response, "user polynomial response")
