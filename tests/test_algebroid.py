"""Material algebroid fibers against the analytic-gradient oracle.

Expected dimensions were computed with the oracle before the production path
existed and are frozen here:

    homogeneous_isotropic : fiber 6, isotropy 3, anchor rank 3
    uniform_fgm (both)    : fiber 3, isotropy 0, anchor rank 3
    nonuniform            : anchor rank 2 (< 3) at every probed point
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matbody import (
    AnalysisConfig,
    Body,
    NonFiniteResponse,
    OutOfDomain,
    SampleSet,
    SectionField,
    SingularMatrix,
    builtin_body,
    constraint_rows,
    evaluate,
    exp_section,
    fiber,
    fibers_at,
    is_material_isomorphism,
    isotropy_algebra,
    make_grid,
    make_samples,
    polynomial_body,
    run_analysis,
    uniformity_verdict,
)
from matbody import algebroid
from matbody.algebroid import STENCIL_PAIRS, FiberBasis, anchor_rank
from matbody.grid import Box
from matbody.jets import DET_TOL
from oracles import (
    E12,
    I3,
    WIDE_GAP_TERMS,
    analytic_rows_fgm,
    analytic_rows_isotropic,
    analytic_rows_nonuniform,
    anchor_rank_of,
    gap_at_cut,
    isotropic_polynomial_terms,
    kernel_of,
    loop_constraint_rows,
    loop_fiber,
    matrix_stack_layouts,
    opaque,
)

RANK_TOL = 1e-6


def probe_points(rng, n=3):
    return [rng.uniform(-0.7, 0.7, 3) for _ in range(n)]


# ---------------------------------------------------------------------------
# constraint rows
# ---------------------------------------------------------------------------

def test_rows_match_analytic_oracle(iso_body, fgm_body, nonuniform_body, samples, rng):
    x = np.array([0.3, -0.2, 0.1])
    Fs = samples.matrices[:8]
    pairs = [
        (iso_body, analytic_rows_isotropic(Fs)),
        (fgm_body, analytic_rows_fgm(Fs, x, E12)),
        (nonuniform_body, analytic_rows_nonuniform(Fs, x)),
    ]
    for body, expected in pairs:
        got = np.vstack([constraint_rows(body, x, F) for F in Fs])
        assert np.max(np.abs(got - expected)) <= 1e-7


def test_isotropic_v_columns_vanish(iso_body, samples, rng):
    """x-independent response: the anchor block of every row is exactly zero."""
    for F in samples.matrices[:6]:
        rows = constraint_rows(iso_body, rng.uniform(-0.5, 0.5, 3), F)
        assert np.max(np.abs(rows[:3])) <= 1e-9


def test_isotropic_skew_annihilated_at_identity(iso_body, rng):
    """dW/dF(I) = 0 analytically, so rows at F = I kill every (0, skew)."""
    rows = constraint_rows(iso_body, rng.uniform(-0.5, 0.5, 3), np.eye(3))
    for _ in range(10):
        S = rng.uniform(-1, 1, (3, 3))
        A = S - S.T
        u = np.concatenate([np.zeros(3), A.ravel()])
        assert np.max(np.abs(rows @ u)) <= 1e-8


def test_fgm_fiber_element_annihilated(fgm_body, samples, rng):
    """(v, (d_v K) K^-1) satisfies the chain-rule identity row by row."""
    x = np.array([0.4, 0.1, -0.3])
    K = I3 + x[0] * E12
    for _ in range(5):
        v = rng.uniform(-1, 1, 3)
        A = (v[0] * E12) @ np.linalg.inv(K)
        u = np.concatenate([v, A.ravel()])
        for F in samples.matrices[:10]:
            rows = constraint_rows(fgm_body, x, F)
            assert np.max(np.abs(rows @ u)) <= 1e-6


def test_rows_stencil_domain_check(iso_body):
    with pytest.raises(OutOfDomain):
        constraint_rows(iso_body, [1.0, 0, 0], np.eye(3))  # on the boundary


def test_rows_stencil_domain_check_names_point_in_batch(iso_body):
    x = np.zeros((4, 3))
    x[2, 1] = 1.0 - 1e-6                                 # closer than fd_step
    with pytest.raises(OutOfDomain) as err:
        constraint_rows(iso_body, x, np.eye(3))
    assert err.value.index == (2,)


def test_batched_rows_match_per_pair_loop(fgm_body, nonuniform_body, samples, rng):
    """Stencil rows for points (5, 3) x gradients (7, 3, 3) equal the per-pair reference."""
    x = rng.uniform(-0.7, 0.7, (5, 3))
    Fs = samples.matrices[:7]
    for body in (opaque(fgm_body), opaque(nonuniform_body)):
        rows = constraint_rows(body, x, Fs)
        assert rows.shape == (5, 7, 12)
        for p, q in np.ndindex(5, 7):
            assert np.max(np.abs(rows[p, q] - loop_constraint_rows(body, x[p], Fs[q]))) <= 1e-12


@settings(max_examples=20)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.sampled_from([(28,), (2, 28)]))
def test_rows_are_bitwise_the_swapaxes_product(fgm_body, seed, n, shape):
    """The rows' F^T dW/dF block is the same product bit for bit in any layout:
    the rows of a gradient stack held broadcast or strided are those of the
    same stack held contiguous."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-0.7, 0.7, (n, 3))
    F = I3 + rng.uniform(-0.3, 0.3, shape + (3, 3))
    for name, G in matrix_stack_layouts(F).items():
        want = constraint_rows(fgm_body, x, np.ascontiguousarray(G))
        got = constraint_rows(fgm_body, x, G)
        assert got.shape == want.shape == (n,) + shape + (12,), name
        assert got.tobytes() == want.tobytes(), name


# ---------------------------------------------------------------------------
# fibers and dimensions
# ---------------------------------------------------------------------------

def test_fiber_dims_match_oracle(iso_body, fgm_body, nonuniform_body, samples, rng):
    for x in probe_points(rng):
        f_iso = fiber(iso_body, x, samples, RANK_TOL)
        dim, null_rows, _ = kernel_of(analytic_rows_isotropic(samples.matrices))
        assert (f_iso.dim, dim) == (6, 6)
        assert len(isotropy_algebra(f_iso)) == 3
        assert anchor_rank(f_iso) == 3

        f_fgm = fiber(fgm_body, x, samples, RANK_TOL)
        dim, null_rows, _ = kernel_of(analytic_rows_fgm(samples.matrices, x, E12))
        assert (f_fgm.dim, dim) == (3, 3)
        assert len(isotropy_algebra(f_fgm)) == 0
        assert anchor_rank(f_fgm) == 3

        f_non = fiber(nonuniform_body, x, samples, RANK_TOL)
        _, null_rows, _ = kernel_of(analytic_rows_nonuniform(samples.matrices, x))
        assert anchor_rank(f_non) < 3
        assert anchor_rank_of(null_rows) < 3


def test_fiber_basis_orthonormal_and_in_kernel(iso_body, samples, rng):
    x = np.array([0.2, 0.2, 0.2])
    f = fiber(iso_body, x, samples, RANK_TOL)
    B = f.basis
    assert np.max(np.abs(B @ B.T - np.eye(f.dim))) <= 1e-10
    L = constraint_rows(iso_body, x, samples.matrices)
    sigma_max = np.linalg.svd(L, compute_uv=False)[0]
    for u in B:
        assert np.linalg.norm(L @ u) <= RANK_TOL * sigma_max


def test_fiber_residual_on_fresh_samples(iso_body, fgm_body, samples):
    """Basis elements stay near-null for an independently seeded sample set."""
    fresh = make_samples(24, seed=777)
    x = np.array([-0.3, 0.5, 0.0])
    for body in (iso_body, fgm_body):
        f = fiber(body, x, samples, RANK_TOL)
        L = constraint_rows(body, x, fresh.matrices)
        sigma_max = np.linalg.svd(L, compute_uv=False)[0]
        for u in f.basis:
            assert np.linalg.norm(L @ u) <= 10 * RANK_TOL * sigma_max


def test_isotropy_elements_are_skew(iso_body, samples):
    f = fiber(iso_body, np.zeros(3), samples, RANK_TOL)
    iso = isotropy_algebra(f)
    assert len(iso) == 3
    for u in iso:                            # rows [v | A row-major]
        v, A = u[:3], u[3:].reshape(3, 3)
        assert np.max(np.abs(v)) <= 1e-10
        assert np.max(np.abs(A + A.T)) <= 1e-8


def test_empty_fiber_isotropy():
    f = FiberBasis(np.zeros(3), np.zeros((0, 12)), np.ones(12), np.zeros(0), math.inf)
    assert len(isotropy_algebra(f)) == 0
    assert anchor_rank(f) == 0
    B = np.eye(12)[3:4]                     # a writable hand-made basis: one element, v = 0
    rows = isotropy_algebra(FiberBasis(np.zeros(3), B, np.ones(12), np.zeros(1), math.inf))
    assert np.shares_memory(rows, B) and not rows.flags.writeable and B.flags.writeable


def test_isotropy_algebra_is_the_anchor_kernel_without_an_svd(iso_body, fgm_body, samples,
                                                              monkeypatch):
    """The rows are the basis rows past the anchor rank: a read-only view, no SVD."""
    fibers = [fiber(b, np.array([0.1, -0.2, 0.3]), samples, RANK_TOL)
              for b in (iso_body, fgm_body)]

    def no_svd(*args, **kwargs):
        raise AssertionError("isotropy_algebra called np.linalg.svd")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for f in fibers:
        rank = anchor_rank(f)
        rows = isotropy_algebra(f)
        assert rows.shape == (f.dim - rank, 12) and not rows.flags.writeable
        assert np.array_equal(rows, f.basis[rank:])


_FRAME_BODIES = ("homogeneous_isotropic", "uniform_fgm", "uniform_fgm_integrable", "nonuniform",
                 "polynomial")


@pytest.mark.parametrize("kind", _FRAME_BODIES)
def test_fiber_bases_are_in_the_anchor_singular_frame(kind, samples):
    """Orthonormal rows whose v-parts are orthogonal with lengths anchor_sv, zero
    past the anchor rank; the isotropy algebra is a read-only view of those rows."""
    body = (polynomial_body(isotropic_polynomial_terms()) if kind == "polynomial"
            else builtin_body(kind))
    grid = make_grid(body.lo, body.hi, 3, 0.1)
    for f in fibers_at(body, grid.points, samples, RANK_TOL):
        B, rank = f.basis, anchor_rank(f)
        assert f.anchor_sv.shape == (min(3, f.dim),)
        assert np.max(np.abs(B @ B.T - np.eye(f.dim)), initial=0.0) <= 1e-12
        Bv, gram = B[:rank, :3], np.diag(f.anchor_sv[:rank] ** 2)
        assert np.max(np.abs(Bv @ Bv.T - gram), initial=0.0) <= 1e-12
        assert np.all(np.linalg.norm(B[rank:, :3], axis=1) <= 1e-8)
        iso = isotropy_algebra(f)
        assert not iso.flags.writeable and np.array_equal(iso, B[rank:])
        assert iso.size == 0 or np.shares_memory(iso, B)    # an empty view shares no bytes


def test_dim_stable_under_sample_doubling(iso_body, fgm_body, fgm_integrable_body,
                                          nonuniform_body, rng):
    x = np.array([0.35, -0.15, 0.25])
    for body, expected in ((iso_body, 6), (fgm_body, 3), (fgm_integrable_body, 3)):
        dims = {fiber(body, x, make_samples(n, seed=5000 + n), RANK_TOL).dim
                for n in (24, 48)}
        assert dims == {expected}
    ranks = {anchor_rank(fiber(nonuniform_body, x, make_samples(n, seed=6000 + n),
                               RANK_TOL)) for n in (24, 48)}
    assert ranks == {2}


# |delta sigma| <= SV_RTOL * sigma_max against the per-point reference.  A 1-ulp
# response difference over a 2e-5 central difference moves sigma by ~1e-13 sigma_max.
SV_RTOL = 1e-9

_FIBER_CASES = [(kind, 5) for kind in ("homogeneous_isotropic", "uniform_fgm",
                                        "uniform_fgm_integrable", "nonuniform")]
_FIBER_CASES.append(("polynomial", 3))


@pytest.mark.parametrize("kind, res", _FIBER_CASES)
def test_batched_fibers_match_per_point_loop(kind, res):
    body = (polynomial_body(isotropic_polynomial_terms()) if kind == "polynomial"
            else builtin_body(kind))
    grid = make_grid(body.lo, body.hi, res, 0.1)
    samples = make_samples(12, seed=31)
    fibers = fibers_at(body, grid.points, samples, RANK_TOL)
    assert len(fibers) == grid.n_points
    for x, f in zip(grid.points, fibers):
        dim, sv = loop_fiber(body, x, samples.matrices, RANK_TOL)
        assert f.dim == dim
        assert np.array_equal(f.point, x)
        assert np.max(np.abs(f.singular_values - sv)) <= SV_RTOL * sv[0]


def test_fiber_is_one_point_case_of_batch(fgm_body, samples):
    pts = np.array([[0.1, -0.2, 0.3], [-0.5, 0.4, 0.0]])
    for x, f in zip(pts, fibers_at(fgm_body, pts, samples)):
        g = fiber(fgm_body, x, samples)
        assert g.dim == f.dim
        assert np.array_equal(g.singular_values, f.singular_values)
        assert np.array_equal(g.basis, f.basis)


def test_fibers_at_names_failing_point():
    """A non-finite response at one point of a multi-chunk batch names that point."""
    # 1e308 (1 + x1^4) overflows only where x1^4 > ~0.8
    body = polynomial_body([([0] * 12, 1e308), ([0] * 9 + [4, 0, 0], 1e308)])
    pts = np.zeros((40, 3))
    pts[33, 0] = 0.95
    with pytest.raises(NonFiniteResponse) as err:
        fibers_at(body, pts, make_samples(12, seed=1))
    assert err.value.index == (33,)


def test_fibers_at_names_a_point_too_close_to_the_boundary():
    """A point within fd_step of the boundary, in a later chunk, is indexed and named."""
    body, samples, k = builtin_body("uniform_fgm"), make_samples(12, seed=1), 21
    pts = np.zeros((40, 3))
    pts[k] = [0.0, 1.0 - 5e-6, 0.0]
    with pytest.raises(OutOfDomain, match="closer than fd_step") as err:
        fibers_at(body, pts, samples, fd_step=1e-5)
    assert err.value.index == (k,)
    assert str(err.value).startswith(f"at point {pts[k].tolist()}: x = ")


@pytest.mark.parametrize("terms", [None, isotropic_polynomial_terms(),
                                   [[[0] * 9 + [1, 0, 0], 1.0]]],
                         ids=["homogeneous_isotropic", "isotropic_polynomial", "x1"])
def test_stored_singular_values_are_non_negative(terms):
    """No spectrum holds -0.0, which LAPACK returns for some zero singular values."""
    body = builtin_body("homogeneous_isotropic") if terms is None else polynomial_body(terms)
    fibers = fibers_at(body, make_grid(body.lo, body.hi, 3, 0.1).points, make_samples(24, 20240))
    signs = {math.copysign(1.0, s) for f in fibers for s in f.singular_values.tolist()}
    assert signs == {1.0}


def test_rows_that_overflow_are_refused_at_their_pair():
    """Finite responses whose gradients overflow raise, indexed (point, gradient)."""
    # W = 1.7e308 F00 x0^2 is finite in the box, but dW/dx0 = 3.4e308 F00 x0
    # overflows where |F00 x0| > ~0.53
    body = opaque(polynomial_body([([1] + [0] * 8 + [2, 0, 0], 1.7e308)]))
    F = np.stack([np.diag([a, 1.0, 1.0]) for a in (0.5, 0.55, 0.7, 1.2)])
    x = np.array([[0.0, 0, 0], [0.5, 0, 0], [0.9, 0, 0]])
    with pytest.raises(NonFiniteResponse,
                       match="constraint rows of 'polynomial' are non-finite") as err:
        constraint_rows(body, x, F)
    assert err.value.index == (1, 3)    # 0.5 x 1.2 is the first product past 0.53
    pts = np.zeros((40, 3))
    pts[33, 0] = 0.7
    with pytest.raises(NonFiniteResponse) as err:
        constraint_rows(body, pts, make_samples(12, seed=1).matrices)
    assert err.value.index[0] == 33
    with pytest.raises(NonFiniteResponse) as err:
        fibers_at(body, pts, make_samples(12, seed=1))      # several chunks
    assert err.value.index == (33,)


def test_spectra_that_overflow_are_refused_at_their_point():
    """Finite constraint rows whose norms overflow the SVD name their point."""
    body = polynomial_body([([0, 1, 0, 1, 1, 0, 0, 0, 0, 0, 1, 0], 1.7e308),
                            ([0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1], 1e300)])
    samples = make_samples(12, seed=5)
    pts = np.zeros((40, 3))
    pts[33, 1] = 0.9
    assert np.isfinite(constraint_rows(body, pts, samples.matrices)).all()
    with pytest.raises(NonFiniteResponse, match="singular values of the constraint rows") as err:
        fibers_at(body, pts, samples)
    assert err.value.index == (33,)


def test_fiber_stage_memory_stays_bounded():
    """Transient allocation of the fibre stage stays under 2 MiB, with the batched
    stencils (``opaque``) and with exact gradients, at any grid size.

    Chunking by STENCIL_PAIRS keeps the stencil, gradient, response and SVD
    temporaries bounded, and no array spans all points but the fibres' own, so
    the benchmark's peak-RSS bound holds without running it.
    """
    fgm, poly = builtin_body("uniform_fgm"), polynomial_body(isotropic_polynomial_terms())
    cases = [(opaque(fgm), 9, make_samples(24, seed=3)),
             (opaque(poly), 5, make_samples(24, seed=3)),
             (fgm, 9, make_samples(24, seed=3)),
             (poly, 5, make_samples(24, seed=3)),
             (fgm, 13, make_samples(24, seed=3))]
    for body, res, samples in cases:
        grid = make_grid(body.lo, body.hi, res, 0.1)
        tracemalloc.start()
        try:
            fibers = fibers_at(body, grid.points, samples)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(fibers) == grid.n_points
        path = "stencils" if body.gradient is None else "gradient"
        assert peak - held <= 2 * 2**20, \
            f"{body.name} {res}^3 {path}: {(peak - held) / 2**20:.2f} MiB"


def test_run_analysis_svd_count(monkeypatch):
    """One SVD per fibre chunk and one per fibre-dim level in each chunk, not one per
    point: at 5^3 one chunk holds every point."""
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    cfg = AnalysisConfig(body="uniform_fgm")
    report = run_analysis(cfg)
    n = int(np.prod(cfg.resolution))
    count = make_samples(cfg.sample_count, cfg.seed).count      # anchors included
    chunks = -(-n // max(1, STENCIL_PAIRS // count))           # one pair per point and sample
    assert report.document["homogeneity"]["verdict"] == "obstructed"
    assert len(calls) <= chunks + len(report.document["diagnostics"]["fiber_dim_levels"]) == 2


def test_sv_gap_is_clean_on_builtins(iso_body, fgm_body, samples):
    for body in (iso_body, fgm_body):
        f = fiber(body, np.array([0.1, 0.4, -0.2]), samples, RANK_TOL)
        assert f.sv_gap > 1e6


# Bodies whose cuts are clean, each with the test that the case occurs at a fibre.
# W = 1 has zero rows (rank 0); W = x1 has equal rows, whose dropped values are 0;
# six monomials coupling F and x leave no symmetry (rank 12).
_CLEAN_CUTS = {
    "rank 0": ([[[0] * 12, 1.0]], lambda f: f.dim == 12),
    "zero dropped": ([[[0] * 9 + [1, 0, 0], 1.0]],
                     lambda f: 0 < f.dim < 12 and f.singular_values[12 - f.dim] == 0.0),
    "rank 12": ([[[1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0], 1.0],
                 [[0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0], 1.0],
                 [[0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1], 1.0],
                 [[0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0], 1.0],
                 [[0, 0, 0, 0, 0, 0, 1, 0, 2, 0, 0, 0], 1.0],
                 [[0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 0], 1.0]], lambda f: f.dim == 0),
    "past the float range": (WIDE_GAP_TERMS, lambda f: (
        0 < f.dim < 12 and f.singular_values[12 - f.dim] > 0
        and float(f.singular_values[11 - f.dim]) / float(f.singular_values[12 - f.dim])
        == math.inf)),
}


@pytest.mark.parametrize("kind", _FRAME_BODIES + tuple(_CLEAN_CUTS))
def test_sv_gap_is_the_gap_at_the_cut(kind, samples):
    """Each fibre's sv_gap is kept over dropped singular value at its own dim's cut,
    inf where the cut is clean, and its dim is the length of its basis."""
    terms, clean = _CLEAN_CUTS.get(kind, (None, None))
    body = (polynomial_body(isotropic_polynomial_terms()) if kind == "polynomial"
            else builtin_body(kind) if terms is None else polynomial_body(terms))
    grid = make_grid(body.lo, body.hi, 3, 0.1)
    fibers = fibers_at(body, grid.points, samples, RANK_TOL)
    assert clean is None or any(clean(f) for f in fibers)
    for f in fibers:
        assert f.dim == len(f.basis)
        assert f.sv_gap == gap_at_cut(f.singular_values, f.dim)
        assert clean is None or not clean(f) or f.sv_gap == math.inf


def test_fiber_dim_is_read_from_the_basis():
    assert "dim" not in {fld.name for fld in dataclasses.fields(FiberBasis)}
    assert FiberBasis(np.zeros(3), np.eye(12)[:2], np.ones(12), np.ones(2), 1.0).dim == 2


# ---------------------------------------------------------------------------
# uniformity verdict
# ---------------------------------------------------------------------------

def test_uniformity_verdicts(iso_body, fgm_body, nonuniform_body, samples, rng):
    pts = probe_points(rng, 4)
    for body, expect in ((iso_body, "uniform"), (fgm_body, "uniform"),
                         (nonuniform_body, "not_uniform")):
        fibers = [fiber(body, x, samples, RANK_TOL) for x in pts]
        res = uniformity_verdict(fibers)
        assert res.verdict == expect
        assert res.isotropy_dims == tuple(f.dim - r for f, r in zip(fibers, res.anchor_ranks))
        if expect == "uniform":
            assert res.offending == ()
            assert all(r == 3 for r in res.anchor_ranks)
        else:
            assert len(res.offending) == len(pts)


# ---------------------------------------------------------------------------
# exponentiation consistency: fibers exponentiate into the groupoid
# ---------------------------------------------------------------------------

def test_fiber_elements_exponentiate_to_isomorphisms(iso_body, samples):
    x = np.array([0.0, 0.1, -0.1])
    f = fiber(iso_body, x, samples, RANK_TOL)
    for u in f.basis:
        s = SectionField.constant(u[:3], u[3:].reshape(3, 3), iso_body.lo, iso_body.hi)
        g = exp_section(s, 0.1, x)
        assert is_material_isomorphism(iso_body, g, samples, 1e-5)


def test_fiber_calls_build_the_inset_box_once(monkeypatch, samples):
    """The stencil domain check reuses the body's fd_step inset instead of building it per call."""
    body = builtin_body("uniform_fgm")
    built = []
    post_init = Box.__post_init__

    def counting(self):
        built.append((self.lo.copy(), self.hi.copy()))
        post_init(self)

    monkeypatch.setattr(Box, "__post_init__", counting)
    first = fiber(body, [0.1, -0.2, 0.3], samples, fd_step=1e-5)
    for _ in range(9):
        again = fiber(body, [0.1, -0.2, 0.3], samples, fd_step=1e-5)
        assert np.array_equal(again.basis, first.basis)
    assert len(built) == 1
    assert np.array_equal(built[0][0], body.lo + 1e-5) and np.array_equal(built[0][1], body.hi - 1e-5)


@pytest.mark.parametrize("res", [3, 5])
@pytest.mark.parametrize("kind", _FRAME_BODIES)
def test_certified_chunks_are_bitwise_fully_checked_chunks(monkeypatch, kind, res, samples):
    """A chunk with a gradient makes one decided evaluate call, and its fibres are bit
    for bit those of fully checked calls; a differenced chunk makes two fully
    checked calls, n count 24 pairs in all."""
    exact = (polynomial_body(isotropic_polynomial_terms()) if kind == "polynomial"
             else builtin_body(kind))
    points = make_grid(exact.lo, exact.hi, res, 0.1).points
    evaluate, got = algebroid.evaluate, {}
    for body, decided_per_chunk, per_pair in ((exact, [True], 1),
                                              (opaque(exact), [False, False], 24)):
        pairs, decided = [], []

        def recording(body, F, x, *, _checked=None):
            pairs.append(math.prod(np.broadcast_shapes(np.shape(F)[:-2], np.shape(x)[:-1])))
            decided.append(_checked is not None)
            return evaluate(body, F, x, _checked=_checked)

        with monkeypatch.context() as m:
            m.setattr(algebroid, "evaluate", recording)
            got[body] = fibers_at(body, points, samples)
        chunk = STENCIL_PAIRS // ((1 if body.gradient is not None else 18) * samples.count)
        assert decided == decided_per_chunk * -(-len(points) // chunk)
        assert sum(pairs) == len(points) * samples.count * per_pair
    with monkeypatch.context() as m:
        m.setattr(algebroid, "evaluate", lambda body, F, x, **_: evaluate(body, F, x))
        want = fibers_at(exact, points, samples)
    for f, g in zip(got[exact], want, strict=True):
        assert f.basis.tobytes() == g.basis.tobytes()
        assert f.singular_values.tobytes() == g.singular_values.tobytes()
        assert f.anchor_sv.tobytes() == g.anchor_sv.tobytes()
        assert f.sv_gap == g.sv_gap and np.array_equal(f.point, g.point)


def test_a_singular_stencil_raises_at_the_first_point():
    """A sample above the det floor whose F-stencil falls below it raises SingularMatrix
    at point 0 of a multi-chunk grid, as evaluate's full check does."""
    body = opaque(builtin_body("uniform_fgm"))
    near = np.diag([1.0, 1.0, 1e-5 + DET_TOL / 2])     # F - 1e-5 E_33 has det 5e-13
    samples = SampleSet(np.concatenate([make_samples(12, seed=1).matrices, near[None]]))
    points = make_grid(body.lo, body.hi, 5, 0.1).points
    assert len(points) > STENCIL_PAIRS // (18 * samples.count)     # several chunks
    with pytest.raises(SingularMatrix) as err:
        fibers_at(body, points, samples)
    assert err.value.index == (0,)
    assert str(err.value) == "at point [-0.9, -0.9, -0.9]: deformation gradient is singular"


@pytest.mark.parametrize("fd_step", [0.0, -1e-5, np.nan, np.inf, -np.inf])
def test_a_step_that_is_not_finite_and_positive_is_refused(fd_step):
    """constraint_rows, fibers_at and fiber refuse the step with a ValueError naming
    it, before any stencil is made.  At 0 the differences read 0/0, a negative
    step widened the inset box past the body's (a point up to |fd_step| outside
    passed it), and NaN read as a bad point."""
    body, samples = opaque(builtin_body("uniform_fgm")), make_samples(12, seed=1)
    x = np.array([0.1, 0.2, 0.3])
    calls = [lambda: constraint_rows(body, x, samples.matrices, fd_step),
             lambda: fibers_at(body, [x, -x], samples, fd_step=fd_step),
             lambda: fiber(body, x, samples, fd_step=fd_step)]
    for call in calls:
        with pytest.raises(ValueError, match=r"^fd_step .* is not finite and > 0$"):
            call()


@pytest.mark.parametrize("path", ["gradient", "differenced"])
def test_a_sample_set_stays_exactly_as_made(path):
    """fibers_at and 27 one-point fibres, at two steps, leave the sample set's fields
    as they were made: the same keys, and the same matrices to the byte."""
    body = builtin_body("uniform_fgm")
    body = body if path == "gradient" else opaque(body)
    samples = make_samples(24)
    points = make_grid(body.lo, body.hi, 3, 0.1).points

    def fields():
        return {k: v.tobytes() if isinstance(v, np.ndarray) else v
                for k, v in vars(samples).items()}

    made = fields()
    for fd_step in (1e-5, 1e-4):
        fibers_at(body, points, samples, fd_step=fd_step)
        for x in points:
            fiber(body, x, samples, fd_step=fd_step)
    assert fields() == made


# ---------------------------------------------------------------------------
# exact gradients: the rows of a body with a gradient against the stencil oracle
# ---------------------------------------------------------------------------

# Rounding budget of one value W, its point's rounding included: this many ulps of
# the largest |W| at the point.
W_ULPS = 8


def _random_polynomial_terms(rng):
    """Monomials of degree 1 to 4 with coefficients in [-1, 1]: one holding each of
    the 12 variables, then 12 more."""
    terms = []
    for v in list(range(12)) + rng.integers(0, 12, 12).tolist():
        e = np.zeros(12, dtype=int)
        e[v] += 1
        for w in rng.integers(0, 12, rng.integers(0, 4)).tolist():
            e[w] += 1
        terms.append([e.tolist(), float(rng.uniform(-1, 1))])
    return terms


def _exact_body(kind, rng):
    if kind == "polynomial":
        return polynomial_body(isotropic_polynomial_terms())
    if kind == "random polynomial":
        return polynomial_body(_random_polynomial_terms(rng))
    return builtin_body(kind)


def _oracle_and_error_bound(body, x, Fs, h=algebroid.DEFAULT_FD_STEP):
    """The loop oracle's rows at x for each of Fs, and a bound of their distance from
    the exact rows.

    Along any one coordinate every body tested here is at most quartic, so the
    oracle's central difference D(h) is the derivative plus (h^2 / 6) W''', plus the
    rounding of its two values, at most rho / h with rho = W_ULPS eps max|W|.  At 2h
    the first error is four times as large, so
        |D(h) - dW| <= |D(2h) - D(h)| / 3 + 1.5 rho / h,
    and the A-block, F^T times the dW/dF block, takes the rounding term times the
    column sums of |F|.
    """
    D1, D2 = (np.array([loop_constraint_rows(body, x, F, step) for F in Fs]) for step in (h, 2 * h))
    rho = W_ULPS * np.finfo(float).eps * np.max(np.abs(evaluate(body, Fs, x)))
    mix = np.concatenate([np.ones((len(Fs), 3)), np.repeat(np.abs(Fs).sum(axis=1), 3, axis=-1)],
                         axis=-1)
    return D1, np.abs(D2 - D1) / 3 + 1.5 * rho / h * mix


def _off_the_oracle(body, rng, samples):
    """Whether any exact row entry at 3 random interior points leaves the oracle's bound."""
    for x in probe_points(rng):
        want, bound = _oracle_and_error_bound(body, x, samples.matrices)
        if (np.abs(constraint_rows(body, x, samples.matrices) - want) > bound).any():
            return True
    return False


@pytest.mark.parametrize("kind", _FRAME_BODIES + ("random polynomial",))
def test_exact_rows_are_the_oracle_within_its_stencil_error(kind, rng, samples):
    body = _exact_body(kind, rng)
    assert body.gradient is not None
    assert not _off_the_oracle(body, rng, samples)


def _halved(body):
    """The body with the factor 2 of its gradient dropped."""
    return Body(body.name, body.lo, body.hi, body.response,
                lambda F, x: tuple(g / 2 for g in body.gradient(F, x)))


def _without_smallest_monomial(rng):
    """A random polynomial's response with the gradient of its smallest monomial dropped."""
    terms = _random_polynomial_terms(rng)
    smallest = min(range(len(terms)), key=lambda k: abs(terms[k][1]))
    rest = polynomial_body(terms[:smallest] + terms[smallest + 1:])
    return Body("mutant", rest.lo, rest.hi, polynomial_body(terms).response, rest.gradient)


@pytest.mark.parametrize("mutant", [lambda rng: _halved(builtin_body("uniform_fgm")),
                                    lambda rng: _halved(builtin_body("nonuniform")),
                                    _without_smallest_monomial],
                         ids=["uniform_fgm halved", "nonuniform halved", "monomial dropped"])
def test_a_mutated_gradient_leaves_the_stencil_error(mutant, rng, samples):
    assert _off_the_oracle(mutant(rng), rng, samples)


@pytest.mark.parametrize("res", [5, 9])
@pytest.mark.parametrize("kind", _FRAME_BODIES[:4])
def test_exact_fibres_keep_the_stencil_dims_and_anchor_ranks(kind, res, samples):
    body = builtin_body(kind)
    points = make_grid(body.lo, body.hi, res, 0.1).points
    exact, stencil = (fibers_at(b, points, samples) for b in (body, opaque(body)))
    assert [f.dim for f in exact] == [f.dim for f in stencil]
    assert [anchor_rank(f) for f in exact] == [anchor_rank(f) for f in stencil]


@pytest.mark.parametrize("kind", _FRAME_BODIES)
def test_exact_chunks_evaluate_each_pair_once(monkeypatch, kind, samples):
    """With a gradient, a chunk holds STENCIL_PAIRS // count points and makes one decided
    evaluate call of its (point, sample) pairs; its fibres are bit for bit those of
    chunks that run evaluate's full checks."""
    body = _exact_body(kind, None)
    points = make_grid(body.lo, body.hi, 7, 0.1).points
    evaluate, calls = algebroid.evaluate, []

    def recording(body, F, x, *, _checked=None):
        pairs = math.prod(np.broadcast_shapes(np.shape(F)[:-2], np.shape(x)[:-1]))
        calls.append((pairs, _checked is not None))
        return evaluate(body, F, x, _checked=_checked)

    with monkeypatch.context() as m:
        m.setattr(algebroid, "evaluate", recording)
        got = fibers_at(body, points, samples)
    chunk = STENCIL_PAIRS // samples.count
    sizes = [min(chunk, len(points) - start) for start in range(0, len(points), chunk)]
    assert len(sizes) > 1 and calls == [(n * samples.count, True) for n in sizes]
    with monkeypatch.context() as m:
        m.setattr(algebroid, "evaluate", lambda body, F, x, **_: evaluate(body, F, x))
        want = fibers_at(body, points, samples)
    for f, g in zip(got, want, strict=True):
        assert f.basis.tobytes() == g.basis.tobytes()
        assert f.singular_values.tobytes() == g.singular_values.tobytes()
