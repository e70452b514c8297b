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
    is_integrable_parallelism,
    is_material_isomorphism,
    isotropy_group_sample,
    make_grid,
    morphism_defect,
    SingularMatrix,
    sampled_morphism_defect,
)
from matbody.gstructure import frame_bracket_defect
from oracles import E12, E21, I3, random_invertible, random_rotation

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
        assert np.max(np.abs(m - Ci @ b @ C)) <= 1e-12


# ---------------------------------------------------------------------------
# integrability of parallelisms
# ---------------------------------------------------------------------------

def test_constant_parallelism_integrable(rng):
    grid = make_grid(LO, HI, (5, 5, 5), 0.1)
    P = Parallelism.constant(random_invertible(rng), LO, HI)
    ok, defect = is_integrable_parallelism(P, grid, 1e-10)
    assert ok and defect <= 1e-12


def test_shear_parallelism_not_integrable():
    """K = I + x1 e1(x)e2: [E_1, E_2] = d_1(E_2) = e1, defect 1 (analytic)."""
    grid = make_grid(LO, HI, (5, 5, 5), 0.1)
    P = Parallelism(lambda x: I3 + x[0] * E12, LO, HI)
    ok, defect = is_integrable_parallelism(P, grid, 1e-5)
    assert not ok
    assert defect == pytest.approx(1.0, abs=1e-10)


def test_chart_parallelism_integrable():
    """Frames of a chart commute: P(x) = [Dphi(x)]^-1 (chain-rule oracle)."""
    grid = make_grid(LO, HI, (5, 5, 5), 0.1)
    P = Parallelism(lambda x: np.linalg.inv(phi_jacobian(x)), LO, HI)
    ok, defect = is_integrable_parallelism(P, grid, 1e-5)
    assert ok and defect <= 1e-5


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
