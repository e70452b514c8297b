"""Independent oracles for the test suite.

Everything here is computed by a route disjoint from the library code under
test: analytic response gradients instead of finite differences, closed-form
tensor formulas instead of grid stencils, scipy's expm instead of RK4.  Two
exceptions are kept as references for faster library paths: the per-point
stencil loop, the fibre computation as it was before the response contract
was batched (it evaluates one (F, x) pair per call, so it checks the batched
stencils, not the response), and ``loop_trilinear``, the trilinear
interpolant as it was before it gained a single-point path.
"""

import itertools
from collections import Counter
from itertools import product

import numpy as np
from scipy.linalg import expm

from matbody import LeftDomain, OutOfDomain, evaluate
from matbody.jets import as_point

I3 = np.eye(3)

# Same weights the library's generic quartic uses; gradients below are hand
# derivations, not library calls.
C_W = 1.0 + 0.1 * (3.0 * np.arange(3)[:, None] + np.arange(3)[None, :])
W_EFF = C_W + C_W.T

E12 = np.zeros((3, 3)); E12[0, 1] = 1.0
E21 = np.zeros((3, 3)); E21[1, 0] = 1.0


def w0_value(F):
    D = F.T @ F - I3
    return float(np.sum(C_W * D * D))


def dw0(F):
    """Analytic gradient of the generic quartic: 2 F ((c + c^T) o (C - I))."""
    D = F.T @ F - I3
    return 2.0 * F @ (W_EFF * D)


def grad_isotropic(F):
    """Analytic gradient of |F^T F - I|^2: 4 F (F^T F - I)."""
    return 4.0 * F @ (F.T @ F - I3)


def analytic_rows_isotropic(Fs):
    """Stacked constraint rows of the isotropic body from analytic gradients."""
    rows = []
    for F in Fs:
        rows.append(np.concatenate([np.zeros(3), (F.T @ grad_isotropic(F)).ravel()]))
    return np.asarray(rows)


def analytic_rows_fgm(Fs, x, E):
    """Stacked rows for W(F, x) = w0(F K(x)), K = I + x1 E with E^2 = 0."""
    K = I3 + x[0] * E
    rows = []
    for F in Fs:
        g0 = dw0(F @ K)
        dWdF = g0 @ K.T
        dWdx = np.array([float(np.sum(g0 * (F @ E))), 0.0, 0.0])
        rows.append(np.concatenate([-dWdx, (F.T @ dWdF).ravel()]))
    return np.asarray(rows)


def analytic_rows_nonuniform(Fs, x):
    """Stacked rows for |F^T F - I|^2 + x1 (F11 - 1)^2."""
    rows = []
    for F in Fs:
        g = grad_isotropic(F).copy()
        g[0, 0] += 2.0 * x[0] * (F[0, 0] - 1.0)
        dWdx = np.array([(F[0, 0] - 1.0) ** 2, 0.0, 0.0])
        rows.append(np.concatenate([-dWdx, (F.T @ g).ravel()]))
    return np.asarray(rows)


def kernel_of(rows, rank_tol=1e-6):
    """(dim, nullspace rows, singular values) of a stacked constraint matrix."""
    _, sv, Vh = np.linalg.svd(rows)
    rank = int(np.sum(sv > rank_tol * sv[0]))
    return rows.shape[1] - rank, Vh[rank:], sv


def anchor_rank_of(nullspace_rows, tol=1e-8):
    if nullspace_rows.shape[0] == 0:
        return 0
    sv = np.linalg.svd(nullspace_rows[:, :3], compute_uv=False)
    return int(np.sum(sv > tol))


def matrix_exp(A):
    """Scaling-and-squaring matrix exponential (scipy), independent of RK4."""
    return expm(A)


def random_rotation(rng):
    """Rotation from a random skew generator via expm."""
    s = rng.uniform(-1.0, 1.0, 3)
    S = np.array([[0, -s[2], s[1]], [s[2], 0, -s[0]], [-s[1], s[0], 0.0]])
    return expm(S)


def random_invertible(rng, lo=-2.0, hi=2.0, min_det=0.1):
    while True:
        M = rng.uniform(lo, hi, (3, 3))
        if abs(np.linalg.det(M)) >= min_det:
            return M


def curvature_formula(gamma_fn, dgamma_fn, x):
    """Direct evaluation of the coordinate curvature formula at a point.

    gamma_fn(x)[k, i, j] and dgamma_fn(x)[a, k, i, j] = d_a Gamma^k_ij must be
    analytic; all 81 index combinations are assembled by explicit loops.
    """
    G = gamma_fn(x)
    dG = dgamma_fn(x)
    R = np.zeros((3, 3, 3, 3))
    for l in range(3):
        for k in range(3):
            for i in range(3):
                for j in range(3):
                    val = dG[i, l, k, j] - dG[j, l, k, i]
                    for m in range(3):
                        val += G[l, m, i] * G[m, k, j] - G[l, m, j] * G[m, k, i]
                    R[l, k, i, j] = val
    return R


def torsion_formula(gamma_fn, x):
    G = gamma_fn(x)
    T = np.zeros((3, 3, 3))
    for k in range(3):
        for i in range(3):
            for j in range(3):
                T[k, i, j] = G[k, i, j] - G[k, j, i]
    return T


# ---------------------------------------------------------------------------
# Per-point reference for the batched fibre stage: one evaluate call per
# stencil pair, one SVD per point.
# ---------------------------------------------------------------------------

def loop_response_gradients(body, x, F, fd_step=1e-5):
    """Central-difference gradients (dW/dF, dW/dx) of shape (d,3,3) and (d,3).

    The x-stencil must stay inside the body's box; the F-stencil has no such
    restriction.
    """
    x = as_point(x)
    if not body.contains(x, margin=fd_step):
        raise OutOfDomain(
            f"x = {x.tolist()} closer than fd_step {fd_step:g} to the domain boundary"
        )
    F = np.asarray(F, dtype=float)
    d = body.output_dim
    dWdF = np.zeros((d, 3, 3))
    for i in range(3):
        for j in range(3):
            Fp = F.copy(); Fp[i, j] += fd_step
            Fm = F.copy(); Fm[i, j] -= fd_step
            dWdF[:, i, j] = (evaluate(body, Fp, x) - evaluate(body, Fm, x)) / (2 * fd_step)
    dWdx = np.zeros((d, 3))
    for k in range(3):
        xp = x.copy(); xp[k] += fd_step
        xm = x.copy(); xm[k] -= fd_step
        dWdx[:, k] = (evaluate(body, F, xp) - evaluate(body, F, xm)) / (2 * fd_step)
    return dWdF, dWdx


def loop_constraint_rows(body, x, F, fd_step=1e-5):
    """d x 12 linearized membership constraints at (F, x).

    Row m applied to [v | A] is <dW_m/dF, F A> - <dW_m/dx, v>; the A-block
    coefficients are therefore F^T dW_m/dF (row-major) and the v-block is
    -dW_m/dx.
    """
    dWdF, dWdx = loop_response_gradients(body, x, F, fd_step)
    F = np.asarray(F, dtype=float)
    rows = np.zeros((body.output_dim, 12))
    for m in range(body.output_dim):
        rows[m, :3] = -dWdx[m]
        rows[m, 3:] = (F.T @ dWdF[m]).ravel()
    return rows


def loop_fiber(body, x, matrices, rank_tol=1e-6, fd_step=1e-5):
    """(fiber dim, singular values) of the per-point stacked constraints at x."""
    L = np.vstack([loop_constraint_rows(body, x, F, fd_step) for F in matrices])
    _, sv, _ = np.linalg.svd(L)
    rank = int(np.sum(sv > rank_tol * sv[0])) if sv[0] > 0 else 0
    return 12 - rank, sv


def isotropic_polynomial_terms():
    """|F^T F - I|^2 as ([12 exponents], coeff) monomials over (F row-major, x): 46 terms.

    Expands sum_ij (C_ij - delta_ij)^2 with C_ij = sum_k F_ki F_kj by collecting
    exponent vectors; the 46 monomials are what a user would write out by hand.
    """
    total = Counter()
    for i, j in product(range(3), repeat=2):
        entry = Counter()                        # C_ij - delta_ij
        for k in range(3):
            e = [0] * 12
            e[3 * k + i] += 1
            e[3 * k + j] += 1
            entry[tuple(e)] += 1.0
        if i == j:
            entry[(0,) * 12] -= 1.0
        for (a, ca), (b, cb) in product(entry.items(), repeat=2):
            total[tuple(p + q for p, q in zip(a, b))] += ca * cb
    return [[list(m), c] for m, c in sorted(total.items()) if c != 0.0]


# ---------------------------------------------------------------------------
# Reference for TrilinearField: the batched interpolant, one code path for
# every input shape.
# ---------------------------------------------------------------------------

def loop_trilinear(axes, values, x):
    """Trilinear interpolant of lattice data ``values`` on ``axes`` at points (..., 3)."""
    values = np.asarray(values, dtype=float)
    axes = tuple(np.asarray(a, dtype=float) for a in axes)
    lo, hi = np.array([(a[0], a[-1]) for a in axes]).T
    flat = values.reshape(values.shape[:3] + (-1,))
    p = np.asarray(x, dtype=float)
    if not bool(np.all(p >= lo) and np.all(p <= hi)):
        raise LeftDomain(f"point {p.tolist()} outside grid hull")
    cells, weights = [], []
    for a, q in zip(axes, np.moveaxis(p, -1, 0)):
        # points on the upper hull face fall in the last cell
        i = np.minimum(np.searchsorted(a, q, side="right") - 1, len(a) - 2)
        t = ((q - a[i]) / (a[i + 1] - a[i]))[..., None]
        cells.append(i)
        weights.append((1.0 - t, t))
    (i, j, k), (wi, wj, wk) = cells, weights
    out = 0.0
    for di, dj, dk in itertools.product((0, 1), repeat=3):
        out = out + wi[di] * wj[dj] * wk[dk] * flat[i + di, j + dj, k + dk]
    return out.reshape(p.shape[:-1] + values.shape[3:])
