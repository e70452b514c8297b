"""Parallelism/G-structure bridge: the induced-section map, its inversion,
sampled isotropy groups, and frame-field integrability."""

import itertools
import sys
from collections import Counter

import numpy as np
import pytest

from matbody import (
    Frame,
    GroupoidSection,
    Jet1,
    NotMorphism,
    OutOfDomain,
    Parallelism,
    g_map,
    invert_g_map,
    builtin_body,
    evaluate,
    is_material_isomorphism,
    is_material_symmetry,
    isotropy_group_sample,
    make_grid,
    membership_defect,
    morphism_defect,
    NonFiniteResponse,
    SingularMatrix,
    polynomial_body,
    sampled_morphism_defect,
)
from matbody.bodies import Body
from matbody.gstructure import frame_bracket_defect
from matbody.jets import DET_TOL
from oracles import E12, E21, I3, isotropic_polynomial_terms, random_invertible, random_rotation

LO, HI = -np.ones(3), np.ones(3)


def phi_jacobian(x):
    """Dphi for phi(x) = (x1, x2 + x1^2/2, x3)."""
    return I3 + x[0] * E21


def sample_points(rng, n=4):
    return [rng.uniform(-0.8, 0.8, 3) for _ in range(n)]


# ---------------------------------------------------------------------------
# the induced-section map
# ---------------------------------------------------------------------------

def test_g_map_at_equal_points(rng):
    P = Parallelism(lambda x: I3 + x[0] * E12, LO, HI)
    x = rng.uniform(-0.8, 0.8, 3)
    g = g_map(P, x, x)
    assert np.max(np.abs(g.matrix - np.eye(3))) <= 1e-14


def test_g_map_of_chart_parallelism_is_integrable_section(rng):
    """P(x) = [Dphi(x)]^-1 induces the chart's section [Dphi(y)]^-1 Dphi(x)."""
    P = Parallelism(lambda x: np.linalg.inv(phi_jacobian(x)), LO, HI)
    for _ in range(10):
        x, y = rng.uniform(-0.8, 0.8, (2, 3))
        got = g_map(P, x, y).matrix
        expected = np.linalg.inv(phi_jacobian(y)) @ phi_jacobian(x)
        assert np.max(np.abs(got - expected)) <= 1e-12


def test_g_map_morphism_law(rng):
    P = Parallelism(lambda x: I3 + x[0] * E12 + 0.3 * x[1] * E21, LO, HI)
    S = GroupoidSection.of_parallelism(P)
    triples = [tuple(sample_points(rng, 3)) for _ in range(30)]
    assert morphism_defect(S, triples) <= 1e-12


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------

def test_invert_g_map_round_trip(rng):
    P = Parallelism(lambda x: I3 + x[0] * E12, LO, HI)
    S = GroupoidSection.of_parallelism(P)
    z = np.zeros(3)
    pts = sample_points(rng, 4)
    Q = invert_g_map(S, z, P.frame(z), pts)
    for x in pts:
        assert np.max(np.abs(Q.matrix(x) - P.matrix(x))) <= 1e-12
        g1, g2 = g_map(Q, z, x), S(z, x)
        assert np.max(np.abs(g1.matrix - g2.matrix)) <= 1e-12


def test_invert_g_map_with_translated_frame(rng):
    """Seeding with P(z) Z0 recovers P Z0, which induces the same section."""
    P = Parallelism(lambda x: I3 + x[0] * E12, LO, HI)
    S = GroupoidSection.of_parallelism(P)
    z = np.zeros(3)
    Z0 = random_invertible(rng)
    pts = sample_points(rng, 4)
    Q = invert_g_map(S, z, Frame(z, P.matrix(z) @ Z0), pts)
    for x in pts:
        assert np.max(np.abs(Q.matrix(x) - P.matrix(x) @ Z0)) <= 1e-12
    for x in pts:
        for y in pts:
            assert np.max(np.abs(g_map(Q, x, y).matrix - S(x, y).matrix)) <= 1e-12


def test_invert_g_map_rejects_non_morphism(rng):
    mats = {}

    def jet_fn(x, y):
        key = (tuple(np.round(x, 6)), tuple(np.round(y, 6)))
        if key not in mats:
            mats[key] = random_invertible(rng)
        return Jet1(x, y, mats[key])

    S = GroupoidSection(jet_fn)
    with pytest.raises(NotMorphism):
        invert_g_map(S, np.zeros(3), Frame(np.zeros(3), I3), sample_points(rng, 3))


def test_sampled_defect_is_the_all_triples_defect(rng):
    """One S call per ordered pair gives morphism_defect over every ordered triple."""
    implant = Parallelism(lambda x: I3 + x[0] * E12, LO, HI)      # uniform_fgm's K(x)
    mats = {}

    def arbitrary(x, y):
        key = (tuple(np.round(x, 6)), tuple(np.round(y, 6)))
        if key not in mats:
            mats[key] = random_invertible(rng)
        return Jet1(x, y, mats[key])

    pts = [np.full(3, -0.8), np.full(3, 0.8)] + sample_points(rng, 3)
    triples = list(itertools.product(pts, repeat=3))
    for jet_fn, morphism in ((lambda x, y: g_map(implant, x, y), True), (arbitrary, False)):
        calls = []
        S = GroupoidSection(lambda x, y: calls.append(1) or jet_fn(x, y))
        defect = sampled_morphism_defect(S, pts)
        assert len(calls) == len(pts) ** 2
        assert defect == morphism_defect(S, triples)
        assert (defect <= 1e-12) == morphism
        if not morphism:
            with pytest.raises(NotMorphism):
                invert_g_map(S, pts[2], Frame(pts[2], I3), pts)


def test_quotient_law(rng):
    """Right-translating the parallelism leaves the induced section unchanged."""
    P = Parallelism(lambda x: I3 + x[0] * E12 + 0.2 * x[2] * E21, LO, HI)
    Q = P.right_translate(random_invertible(rng))
    for _ in range(10):
        x, y = rng.uniform(-0.8, 0.8, (2, 3))
        assert np.max(np.abs(g_map(P, x, y).matrix - g_map(Q, x, y).matrix)) <= 1e-12


# ---------------------------------------------------------------------------
# sampled isotropy groups
# ---------------------------------------------------------------------------

def test_isotropy_identity_candidate(iso_body, samples):
    z0 = np.array([0.2, 0.0, -0.3])
    got = isotropy_group_sample(iso_body, z0, Frame(z0, I3), [np.eye(3)], samples, 1e-10)
    assert len(got) == 1 and np.allclose(got[0], np.eye(3))


def test_isotropy_frame_must_sit_at_z0(iso_body, samples):
    from matbody import SourceTargetMismatch

    z0 = np.zeros(3)
    elsewhere = Frame(np.array([0.5, 0, 0]), I3)
    with pytest.raises(SourceTargetMismatch):
        isotropy_group_sample(iso_body, z0, elsewhere, [np.eye(3)], samples, 1e-10)


def test_isotropy_rotations_in_stretches_out(iso_body, samples, rng):
    z0 = np.zeros(3)
    rotations = [random_rotation(rng) for _ in range(50)]
    non_orth = []
    while len(non_orth) < 50:
        M = random_invertible(rng)
        if np.max(np.abs(M.T @ M - I3)) > 1e-3:
            non_orth.append(M)
    got = isotropy_group_sample(iso_body, z0, Frame(z0, I3),
                                rotations + non_orth, samples, 1e-8)
    assert len(got) == 50
    for Q, R in zip(got, rotations):
        assert np.max(np.abs(Q - R)) <= 1e-14


def test_isotropy_conjugation_covariance(iso_body, samples, rng):
    z0 = np.zeros(3)
    Z0 = random_invertible(rng)
    C = random_invertible(rng)
    cands = [random_rotation(rng) for _ in range(10)]
    base = isotropy_group_sample(iso_body, z0, Frame(z0, Z0), cands, samples, 1e-8)
    moved = isotropy_group_sample(iso_body, z0, Frame(z0, Z0 @ C), cands, samples, 1e-8)
    assert len(base) == len(moved) == len(cands)
    Ci = np.linalg.inv(C)
    for b, m in zip(base, moved):
        want = Ci @ b @ C
        # the entries reach hundreds, so the bound is relative to them
        assert np.max(np.abs(m - want)) <= 1e-14 * (1 + np.max(np.abs(want)))


def recorded_evaluate_calls(monkeypatch) -> list:
    """Route every matbody ``evaluate`` through a wrapper; returns the list of
    [F, x, result] it appends one entry per call to, before the call runs."""
    import matbody.bodies as bodies

    calls, original = [], bodies.evaluate

    def recording(body, F, x, **kwargs):
        calls.append([F, x, None])      # listed before the call, so a call that raises counts
        calls[-1][2] = original(body, F, x, **kwargs)
        return calls[-1][2]

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("matbody") and getattr(mod, "evaluate", None) is original:
            monkeypatch.setattr(mod, "evaluate", recording)
    return calls


def isotropy_candidates(rng, z0) -> list:
    """Rotations, rotations about e1, sign flips and their implant conjugates,
    stretches and shears: members and non-members of every built-in's group."""
    cands = [random_rotation(rng) for _ in range(4)]
    for a in rng.uniform(0.2, 6.0, 3):
        c, s = np.cos(a), np.sin(a)
        cands.append(np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]]))
    for K in (I3 + z0[0] * E12, I3 + z0[0] * E21):
        Ki = np.linalg.inv(K)
        cands += [K @ np.diag(d) @ Ki for d in ([1.0, -1.0, -1.0], [-1.0, 1.0, -1.0])]
    cands += [np.diag(rng.uniform(0.7, 1.3, 3)), I3 + 0.3 * E12, I3]
    return cands


@pytest.mark.parametrize("kind", ["homogeneous_isotropic", "uniform_fgm",
                                  "uniform_fgm_integrable", "nonuniform", "polynomial"])
def test_isotropy_batch_is_the_per_candidate_filter(kind, samples, rng, monkeypatch):
    """One evaluate over (candidates + 1, samples) pairs keeps the candidates the
    per-jet symmetry test keeps, with the same defect bit for bit."""
    body = (polynomial_body(isotropic_polynomial_terms()) if kind == "polynomial"
            else builtin_body(kind))
    z0 = np.array([0.45, -0.3, 0.2])
    Z0 = random_invertible(rng)
    cands = isotropy_candidates(rng, z0)
    tol = 1e-7
    Zi = np.linalg.inv(Z0)
    want = [Zi @ P @ Z0 for P in cands if is_material_symmetry(body, z0, P, samples, tol)]
    defects = [membership_defect(body, Jet1(z0, z0, P), samples) for P in cands]
    assert 0 < len(want) < len(cands)
    calls = recorded_evaluate_calls(monkeypatch)
    got = isotropy_group_sample(body, z0, Frame(z0, Z0), cands, samples, tol)
    assert len(calls) == 1
    F, x, w = calls[0]
    assert w.shape == (len(cands) + 1, samples.count)
    assert np.array_equal(F[-1], samples.matrices) and np.array_equal(x, z0)
    assert np.max(np.abs(w[:-1] - w[-1]), axis=1).tolist() == defects
    assert len(got) == len(want)
    assert all(np.array_equal(g, h) for g, h in zip(got, want))


@pytest.mark.parametrize("kind", ["homogeneous_isotropic", "uniform_fgm",
                                  "uniform_fgm_integrable", "nonuniform", "polynomial"])
def test_isotropy_is_bitwise_the_evaluate_path(kind, samples, rng):
    """The kept candidates are those whose defect from ``evaluate`` of the same
    (candidates + 1, n) batch passes, bit for bit, whether every candidate
    clears the det floor certificate or one is left to ``evaluate``."""
    body = (polynomial_body(isotropic_polynomial_terms()) if kind == "polynomial"
            else builtin_body(kind))
    z0 = np.array([0.45, -0.3, 0.2])
    Z0 = random_invertible(rng)
    Zi = np.linalg.inv(Z0)
    Fs = samples.matrices
    band = np.cbrt(1.5 * DET_TOL / samples.min_det) * I3     # left to evaluate
    cands = isotropy_candidates(rng, z0)
    assert all(samples.clears_floor(P) for P in cands) and not samples.clears_floor(band)
    for mats in (cands, cands + [band]):
        w = evaluate(body, np.array([Fs @ P for P in mats] + [Fs]), z0)
        keep = np.max(np.abs(w[:-1] - w[-1]), axis=1) <= 1e-7
        want = [Zi @ P @ Z0 for P, k in zip(mats, keep) if k]
        got = isotropy_group_sample(body, z0, Frame(z0, Z0), mats, samples, 1e-7)
        assert 0 < len(want) < len(mats)
        assert len(got) == len(want) and all(np.array_equal(g, h) for g, h in zip(got, want))


def test_isotropy_sample_makes_one_evaluate_call(iso_body, samples, rng, monkeypatch):
    """The shared target row W(F, z0) is evaluated once, not once per candidate."""
    calls = recorded_evaluate_calls(monkeypatch)
    z0 = np.zeros(3)
    for n in (1, 5, 19):
        isotropy_group_sample(iso_body, z0, Frame(z0, I3),
                              [random_rotation(rng) for _ in range(n)], samples, 1e-8)
    assert [w.shape for _F, _x, w in calls] == [(n + 1, samples.count) for n in (1, 5, 19)]


def test_isotropy_sample_validates_before_evaluating(iso_body, samples, monkeypatch):
    calls = recorded_evaluate_calls(monkeypatch)
    z0 = np.zeros(3)
    with pytest.raises(SingularMatrix):
        isotropy_group_sample(iso_body, z0, Frame(z0, I3), [I3, np.zeros((3, 3))], samples, 1e-8)
    with pytest.raises(ValueError):
        isotropy_group_sample(iso_body, z0, Frame(z0, I3), [I3, np.full((3, 3), np.nan)],
                              samples, 1e-8)
    assert isotropy_group_sample(iso_body, z0, Frame(z0, I3), [], samples, 1e-8) == []
    assert calls == []


def test_isotropy_sample_error_index(samples):
    """``index`` is (candidate, sample); the last row is the shared target W(F, z0)."""
    z0 = np.zeros(3)

    def nan_body(bad):
        return Body("nan", -np.ones(3), np.ones(3),
                    lambda F, x: np.where(bad(F[..., 0, 0]), np.nan, 1.0) + 0.0 * x[..., 0])

    # the first sample is the identity and every sample has F11 in [0.5, 2], so
    # (F P)11 = 4 F11 >= 2 on the rows of P = diag(4, 1, 1/4) and F11 < 2 on the target's
    P = np.diag([4.0, 1.0, 0.25])
    with pytest.raises(NonFiniteResponse) as err:
        isotropy_group_sample(nan_body(lambda f: f > 3.0), z0, Frame(z0, I3), [I3, P, P],
                              samples, 1e-8)
    assert err.value.index == (1, 0)
    with pytest.raises(NonFiniteResponse) as err:
        isotropy_group_sample(nan_body(lambda f: f < 1.9), z0, Frame(z0, I3), [P, P],
                              samples, 1e-8)
    assert err.value.index == (2, 0)


# ---------------------------------------------------------------------------
# integrability of parallelisms
# ---------------------------------------------------------------------------

def test_constant_parallelism_integrable(rng):
    grid = make_grid(LO, HI, (5, 5, 5), 0.1)
    P = Parallelism.constant(random_invertible(rng), LO, HI)
    defect = frame_bracket_defect(P, grid)
    assert defect <= 1e-12


def test_shear_parallelism_not_integrable():
    """K = I + x1 e1(x)e2: [E_1, E_2] = d_1(E_2) = e1, defect 1 (analytic)."""
    grid = make_grid(LO, HI, (5, 5, 5), 0.1)
    P = Parallelism(lambda x: I3 + x[0] * E12, LO, HI)
    defect = frame_bracket_defect(P, grid)
    assert not defect <= 1e-5
    assert defect == pytest.approx(1.0, abs=1e-10)


def test_chart_parallelism_integrable():
    """Frames of a chart commute: P(x) = [Dphi(x)]^-1 (chain-rule oracle)."""
    grid = make_grid(LO, HI, (5, 5, 5), 0.1)
    P = Parallelism(lambda x: np.linalg.inv(phi_jacobian(x)), LO, HI)
    defect = frame_bracket_defect(P, grid)
    assert defect <= 1e-5


def test_parallelism_matrix_validates_once():
    P = Parallelism(lambda x: I3 + x[0] * E12, LO, HI)
    M = P.matrix([0.5, 0.0, 0.0])
    assert np.array_equal(M, I3 + 0.5 * E12) and not M.flags.writeable
    assert np.array_equal(P.frame([0.5, 0.0, 0.0]).matrix, M)
    with pytest.raises(OutOfDomain):
        P.matrix([1.5, 0.0, 0.0])
    with pytest.raises(SingularMatrix):
        Parallelism(lambda x: np.diag([1.0, 1.0, x[0]]), LO, HI).matrix([1e-13, 0.0, 0.0])


def test_bridge_pass_validator_counts(monkeypatch):
    """A bridge pass (two implant frames, five points, a 5^3 bracket grid) validates
    1154 matrices and 2088 points, 4 of them make_grid's box and its inset;
    building a Frame in every matrix lookup took 2004 and 2934."""
    import matbody.jets as jets

    counts = Counter()
    for name in ("as_matrix", "as_point"):
        original = getattr(jets, name)

        def counting(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("matbody") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counting)
    rng = np.random.default_rng(7)
    corners = [np.full(3, -0.8), np.full(3, 0.8)]
    grid = make_grid(corners[0], corners[1], (5, 5, 5), 0.1)
    for E in (E12, E21):
        z = rng.uniform(-0.5, 0.5, 3)
        pts = corners + [rng.uniform(-0.8, 0.8, 3) for _ in range(3)]
        P = Parallelism(lambda x, E=E: I3 + x[0] * E, LO, HI)
        Q = invert_g_map(GroupoidSection.of_parallelism(P), z, P.frame(z), pts)
        frame_bracket_defect(Q, grid)
    assert dict(counts) == {"as_matrix": 1154, "as_point": 2088}


def test_identity_parallelism_lands_in_material_groupoid(iso_body, samples, rng):
    """For the isotropic body, the constant frame field induces jets that all
    pass the sampled membership test."""
    P = Parallelism.constant(I3, iso_body.lo, iso_body.hi)
    for _ in range(20):
        x, y = rng.uniform(-0.9, 0.9, (2, 3))
        assert is_material_isomorphism(iso_body, g_map(P, x, y), samples, 1e-9)
