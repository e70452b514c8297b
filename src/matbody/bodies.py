"""Response functionals on a box chart and membership in the material groupoid.

A body is a box domain plus a reduced response Lambda W-hat(F, x): the value
depends on the deformation gradient F and the source point x only, never on
a target point, so translation invariance is structural.  It may carry the
response's exact gradient, as every built-in and polynomial body does; the
fibre rows then read it instead of differencing the response.

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
import numbers
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
    """Box chart domain plus scalar response functional, and optionally its exact gradient.

    ``response(F, x)`` maps F (..., 3, 3) and x (..., 3), whose leading
    dimensions broadcast, to one value W per pair, shape (...).  Call it
    through ``evaluate``, which checks the batch.  ``gradient(F, x)``, when
    given, returns (dW/dF, dW/dx), broadcasting as ``response`` does to
    shapes (..., 3, 3) and (..., 3); either may hold fewer leading axes (an
    x-independent body returns dW/dx = 0).  The fibre rows read it in place
    of central differences; a body without one is differenced.  Every
    built-in and every polynomial body has one.
    """

    name: str
    lo: np.ndarray
    hi: np.ndarray
    response: Callable[[np.ndarray, np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray, np.ndarray], tuple] | None = None
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

    Rejection keeps det(F) > 0.2 so every sample is safely invertible.  Each
    draw takes as many as are missing, from one stream and kept in order, so
    a count too large to hold fails at the first draw.  ``coerce`` reads the count.
    """
    if (missing := coerce(n_random, int)) < 0:
        raise ValueError(f"sample count must be >= 0, got {n_random!r}")
    rng = np.random.default_rng(seed)
    mats = [np.stack(_ANCHORS)]
    while missing > 0:
        f = _I3 + rng.uniform(-0.5, 0.5, size=(missing, 3, 3))
        mats.append(f[np.linalg.det(f) > 0.2])
        missing -= len(mats[-1])
    mats = np.concatenate(mats)
    mats.setflags(write=False)      # read-only and owned, so SampleSet keeps it as it is
    return SampleSet(mats)


def evaluate(body: Body, F, x, *, _checked: tuple | None = None) -> np.ndarray:
    """Response W-hat(F, x) of shape (...) for F (..., 3, 3) and x (..., 3).

    The leading dimensions of F and x broadcast.  The domain box, the det floor
    and finiteness are each checked once for the whole batch; the first
    offending pair raises OutOfDomain, SingularMatrix or NonFiniteResponse,
    and the error's ``index`` is that pair's index in the broadcast batch.
    The result is read-only.

    ``_checked`` is the broadcast batch shape from a caller that has decided the
    batch's domain and det floor from its factors: ``membership_defects`` and
    the fibre chunks of ``fibers_at``.  Only the response and its finiteness
    test run; the caller passes the shape, so none is worked out here.
    """
    Fm = np.asarray(F, dtype=float)
    xp = np.asarray(x, dtype=float)
    if _checked is not None:
        shape = _checked
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


def membership_defects(body: Body, x, y, mats, samples: SampleSet) -> np.ndarray:
    """max over sample gradients F of |W-hat(F P, x) - W-hat(F, y)|, for each P in ``mats``.

    x and y are finite points, each P a finite 3x3 matrix.  One batch of shape
    (len(mats) + 1, n) holds both sides: row k is (F P_k, x) and the last row
    (F, y), so an error's ``index`` is (row, sample).  It is checked from its
    factors: x and y in the box, the samples' det floor decided when they were
    made, and each P certified by ``SampleSet.clears_floor``; then ``evaluate``
    costs one response call.  If a factor check fails, ``evaluate`` checks the
    batch pair by pair, so values and errors are always a plain ``evaluate``'s.
    """
    Fs = samples.matrices
    F = np.array([Fs @ P for P in mats] + [Fs])
    pts = np.array([x] * len(mats) + [y])[:, None]
    checked = (all(map(body.box.contains_floats, pts[-2:, 0].tolist()))
               and all(map(samples.clears_floor, mats)))
    w = evaluate(body, F, pts, _checked=F.shape[:-2] if checked else None)
    return np.abs(w[:-1] - w[-1]).max(axis=-1)


def membership_defect(body: Body, g: Jet1, samples: SampleSet) -> float:
    """The defect of one jet g = (x -> y, P): the one-matrix case of ``membership_defects``.

    An error's ``index`` is (side, sample), side 0 the source and 1 the target.
    """
    return float(membership_defects(body, g.source, g.target, [g.matrix], samples)[0])


def membership_tol(body: Body, samples: SampleSet, points: Sequence) -> float:
    """Default membership tolerance: 1e-8 x (1 + max sample response magnitude)."""
    x = np.asarray(points, dtype=float).reshape(-1, 1, 3)
    return 1e-8 * (1.0 + float(np.max(np.abs(evaluate(body, samples.matrices, x)))))


def is_material_isomorphism(body: Body, g: Jet1, samples: SampleSet, tol: float) -> bool:
    """Sampled membership test of g in the material groupoid."""
    return membership_defect(body, g, samples) <= tol


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
_W0_SYM = 2.0 * (W0_WEIGHTS + W0_WEIGHTS.T)
_W0_SYM.setflags(write=False)

E_SHEAR_12 = np.zeros((3, 3))
E_SHEAR_12[0, 1] = 1.0
E_SHEAR_12.setflags(write=False)

E_SHEAR_21 = np.zeros((3, 3))
E_SHEAR_21[1, 0] = 1.0
E_SHEAR_21.setflags(write=False)

_E11 = np.zeros((3, 3))
_E11[0, 0] = 1.0
_E11.setflags(write=False)

_BOX_LO = -np.ones(3)
_BOX_HI = np.ones(3)


def _strain(F: np.ndarray) -> np.ndarray:
    """F^T F - I for F (..., 3, 3); a contiguous F^T takes matmul's fast path."""
    return np.ascontiguousarray(np.swapaxes(F, -1, -2)) @ F - _I3


def w0_generic(F: np.ndarray) -> np.ndarray:
    """Anisotropic quartic sum_ij c_ij (F^T F - I)_ij^2 with distinct weights, F (..., 3, 3)."""
    D = _strain(F)
    return np.sum(W0_WEIGHTS * D * D, axis=(-2, -1))


def _w0_gradient(G: np.ndarray) -> np.ndarray:
    """dw0/dG = 2 G (S + S^T) with S = c o D, D = G^T G - I; as D is symmetric that
    is G ((2 (c + c^T)) o D)."""
    return G @ (_W0_SYM * _strain(G))


def _isotropic_response(F, x):
    D = _strain(F)
    return np.sum(D * D, axis=(-2, -1))


def _isotropic_gradient(F, x):
    return 4.0 * F @ _strain(F), np.zeros(3)


def fgm_body(K: Callable[[np.ndarray], np.ndarray], name: str,
             dK: Callable[[np.ndarray], np.ndarray] | None = None) -> Body:
    """Functionally graded body W-hat(F, x) = w0(F K(x)) for an implant field K.

    K maps points (..., 3) to matrices (..., 3, 3).  ``dK``, when given, maps
    points to the derivatives (..., 3, 3, 3), d_k K at index k, and the body
    gets the exact gradient: with G = F K and S = c o (G^T G - I),
    dW/dF = 2 G (S + S^T) K^T and dW/dx_k = <2 G (S + S^T), F d_k K>.
    """

    def response(F, x):
        return w0_generic(F @ K(x))

    def gradient(F, x):
        Kx, dKx = K(x), dK(x)
        M = _w0_gradient(F @ Kx)
        # dW/dx_k = <M, F d_k K> = <F^T M, d_k K>, one (9,) . (9,) product per k
        FtM = np.swapaxes(F, -1, -2) @ M
        dWdx = np.reshape(dKx, dKx.shape[:-2] + (9,)) @ FtM.reshape(FtM.shape[:-2] + (9, 1))
        return M @ np.swapaxes(Kx, -1, -2), dWdx[..., 0]

    return Body(name, _BOX_LO, _BOX_HI, response, None if dK is None else gradient)


def _sheared_body(E: np.ndarray, name: str) -> Body:
    """The graded body of the implant K(x) = I + x1 E, whose d_k K are (E, 0, 0)."""
    dK = np.zeros((3, 3, 3))
    dK[0] = E
    dK.setflags(write=False)
    return fgm_body(lambda x: _I3 + x[..., 0, None, None] * E, name, lambda x: dK)


def _nonuniform_response(F, x):
    D = _strain(F)
    return np.sum(D * D, axis=(-2, -1)) + x[..., 0] * (F[..., 0, 0] - 1.0) ** 2


def _nonuniform_gradient(F, x):
    d = F[..., 0, 0] - 1.0
    dWdF = 4.0 * F @ _strain(F) + (2.0 * x[..., 0] * d)[..., None, None] * _E11
    return dWdF, (d * d)[..., None] * _I3[0]


BUILTIN_DESCRIPTIONS = {
    "homogeneous_isotropic": "|F^T F - I|^2: isotropic, x-independent; uniform and homogeneous",
    "uniform_fgm": "w0(F K(x)), K = I + x1 e1(x)e2: uniform, torsion-obstructed (not homogeneous)",
    "uniform_fgm_integrable": "w0(F K(x)), K = I + x1 e2(x)e1: uniform and homogeneous (K^-1 is a Jacobian)",
    "nonuniform": "|F^T F - I|^2 + x1 (F11 - 1)^2: response drifts with x1; not uniform",
}


def builtin_body(kind: str) -> Body:
    """Construct one of the named analytic test bodies on the box [-1, 1]^3."""
    if kind == "homogeneous_isotropic":
        return Body(kind, _BOX_LO, _BOX_HI, _isotropic_response, _isotropic_gradient)
    if kind == "uniform_fgm":
        return _sheared_body(E_SHEAR_12, kind)
    if kind == "uniform_fgm_integrable":
        return _sheared_body(E_SHEAR_21, kind)
    if kind == "nonuniform":
        return Body(kind, _BOX_LO, _BOX_HI, _nonuniform_response, _nonuniform_gradient)
    raise ConfigError(f"unknown builtin body '{kind}'; known: {sorted(BUILTIN_DESCRIPTIONS)}")


# ---------------------------------------------------------------------------
# Polynomial bodies: scalar polynomials in the 9 entries of F (row-major)
# followed by the 3 coordinates of x, total degree <= 4.
# ---------------------------------------------------------------------------

POLY_MAX_DEGREE = 4


def coerce(value, kind):
    """A JSON value as ``kind`` (bool, int, float, or tuple for 3 ints), never lossily."""
    if kind is tuple:
        if not isinstance(value, (list, tuple)) or len(value) != 3:
            raise TypeError("expected a list of 3 integers")
        return tuple(coerce(v, int) for v in value)
    if (isinstance(value, bool) != (kind is bool) or not isinstance(value, numbers.Real)
            or (kind is int and not float(value).is_integer())):
        raise TypeError(f"expected {'true or false' if kind is bool else kind.__name__}")
    return kind(value)


def polynomial_body(terms: Sequence, lo=None, hi=None, name: str = "polynomial") -> Body:
    """Body from (exponent multi-index over 12 variables, coefficient) pairs.

    Its parameters are the keys of a config's ``{"polynomial": {...}}`` object.
    The exact gradient's monomials (e c times the term with z_v^(e-1), per
    variable v) are built here, once, and read the response's power table.
    """
    if not isinstance(name, str):
        raise ConfigError(f"polynomial body name must be a string, got {name!r}")
    lo = _BOX_LO if lo is None else np.array([coerce(v, float) for v in lo])
    hi = _BOX_HI if hi is None else np.array([coerce(v, float) for v in hi])
    parsed = []
    for k, term in enumerate(terms):
        try:
            exps, coeff = term
            exps = np.array([coerce(e, int) for e in exps], dtype=int).reshape(12)
            coeff = coerce(coeff, float)
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
        parsed.append(([(v, int(exps[v])) for v in np.flatnonzero(exps).tolist()], coeff, 1))
    if not parsed:
        raise ConfigError("polynomial body needs at least one term")
    # (variable, k) for k = 1 .. the highest power of each variable that a term uses
    powers = sorted({(v, k) for factors, *_ in parsed for v, e in factors for k in range(1, e + 1)})
    # d/dz_v of each term that holds z_v: coeff times e times its factors with
    # z_v^(e-1); e starts the product, so e * coeff never overflows on its own
    derivatives = {}
    for factors, coeff, _ in parsed:
        for v, e in factors:
            lowered = [(w, d - (w == v)) for w, d in factors if (w, d) != (v, 1)]
            derivatives.setdefault(v, []).append((lowered, coeff, e))
    derivatives = sorted(derivatives.items())

    def table(F, x):
        # Powers by repeated multiplication on views of F and x.
        z = [F[..., v // 3, v % 3] for v in range(9)] + [x[..., v] for v in range(3)]
        power = {}
        for v, k in powers:
            power[v, k] = z[v] if k == 1 else power[v, k - 1] * z[v]
        return power

    def total(power, monomials):
        # Each term is the product of its factors in variable order; terms are summed in order.
        acc = 0.0
        for factors, coeff, start in monomials:
            acc = acc + coeff * math.prod((power[f] for f in factors), start=start)
        return acc

    def response(F, x):
        return total(table(F, x), parsed)

    def gradient(F, x):
        power = table(F, x)
        out = np.zeros(np.broadcast_shapes(F.shape[:-2], x.shape[:-1]) + (12,))
        for v, monomials in derivatives:
            out[..., v] = total(power, monomials)
        return out[..., :9].reshape(out.shape[:-1] + (3, 3)), out[..., 9:]

    return Body(name, lo, hi, response, gradient)


def body_from_config(doc) -> Body:
    """The body a config document names: a built-in name, ``{"builtin": name}`` with a
    string name, or ``{"polynomial": {...}}`` of ``polynomial_body``'s keyword arguments.

    The one reader of these forms; a malformed document raises ConfigError.
    """
    if isinstance(doc, dict) and len(doc) == 1 and isinstance(doc.get("builtin"), str):
        doc = doc["builtin"]
    if isinstance(doc, str):
        return builtin_body(doc)
    poly = doc.get("polynomial") if isinstance(doc, dict) and len(doc) == 1 else None
    if not isinstance(poly, dict):
        raise ConfigError("body must be a name, {'builtin': name} or {'polynomial': {...}}")
    try:
        return polynomial_body(**poly)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed polynomial body: {exc}") from exc
