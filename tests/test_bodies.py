"""Response functionals, W-inverse, and sampled material-groupoid membership."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matbody import (
    ConfigError,
    Jet1,
    NonFiniteResponse,
    OutOfDomain,
    SingularMatrix,
    builtin_body,
    evaluate,
    evaluate_w_inverse,
    identity,
    invert,
    is_material_isomorphism,
    is_material_symmetry,
    make_samples,
    membership_defect,
    polynomial_body,
)
from matbody.bodies import E_SHEAR_12, Body, SampleSet, _strain, membership_tol
from matbody.jets import DET_TOL
from oracles import (I3, E12, isotropic_polynomial_terms, loop_polynomial_response,
                     matrix_stack_layouts, random_rotation, w0_value)

BUILTINS = ("homogeneous_isotropic", "uniform_fgm", "uniform_fgm_integrable", "nonuniform")


def K_fgm(x):
    return I3 + x[0] * E12


# ---------------------------------------------------------------------------
# evaluate / W-inverse
# ---------------------------------------------------------------------------

def test_isotropic_zero_at_identity_and_rotations(iso_body, rng):
    for _ in range(20):
        x = rng.uniform(-0.9, 0.9, 3)
        assert evaluate(iso_body, np.eye(3), x) == pytest.approx(0.0, abs=1e-14)
        Q = random_rotation(rng)
        assert np.max(np.abs(evaluate(iso_body, Q, x))) <= 1e-12


def test_fgm_matches_definitional_identity(fgm_body, rng):
    for _ in range(20):
        x = rng.uniform(-0.9, 0.9, 3)
        F = I3 + rng.uniform(-0.4, 0.4, (3, 3))
        expected = w0_value(F @ K_fgm(x))
        assert evaluate(fgm_body, F, x) == pytest.approx(expected, rel=1e-13)


def test_evaluate_domain_and_singularity(iso_body):
    with pytest.raises(OutOfDomain):
        evaluate(iso_body, np.eye(3), [1.5, 0, 0])
    with pytest.raises(SingularMatrix):
        evaluate(iso_body, np.zeros((3, 3)), [0, 0, 0])


@pytest.mark.parametrize("kind", BUILTINS + ("polynomial",))
def test_batched_evaluate_equals_per_pair_calls(kind, rng):
    """F (4,1,3,3) and x (7,3) broadcast to a (4,7) batch of independent pairs."""
    body = (polynomial_body(isotropic_polynomial_terms()) if kind == "polynomial"
            else builtin_body(kind))
    F = I3 + rng.uniform(-0.4, 0.4, (4, 1, 3, 3))
    x = rng.uniform(-0.9, 0.9, (7, 3))
    got = evaluate(body, F, x)
    assert got.shape == (4, 7)
    for i, j in np.ndindex(4, 7):
        want = evaluate(body, F[i, 0], x[j])
        assert want.shape == ()                          # one W value per pair
        assert np.max(np.abs(got[i, j] - want)) <= 1e-15 * (1.0 + np.max(np.abs(want)))


@settings(max_examples=40)
@given(st.integers(0, 2**32 - 1), st.sampled_from([(2, 28), (1, 28, 2, 9), (3, 28, 2, 9)]))
def test_strain_is_bitwise_the_swapaxes_product(seed, shape):
    """F^T F - I equals the strided-transpose product bit for bit, whatever F's layout."""
    F = I3 + np.random.default_rng(seed).uniform(-0.5, 0.5, shape + (3, 3))
    for name, G in matrix_stack_layouts(F).items():
        got, want = _strain(G), np.swapaxes(G, -1, -2) @ G - I3
        assert got.shape == want.shape == shape + (3, 3), name
        assert got.tobytes() == want.tobytes(), name


def test_one_bad_pair_fails_the_whole_batch(iso_body):
    """Each check refuses a batch with one offending pair and names its index."""
    F = np.tile(I3, (4, 1, 1, 1))                        # (4, 1, 3, 3)
    x = np.zeros((7, 3))
    x_out = x.copy()
    x_out[5, 2] = 1.5
    with pytest.raises(OutOfDomain) as err:
        evaluate(iso_body, F, x_out)
    assert err.value.index == (0, 5)
    x_nan = x.copy()
    x_nan[6, 0] = np.nan
    with pytest.raises(OutOfDomain):
        evaluate(iso_body, F, x_nan)
    F_sing = F.copy()
    F_sing[2, 0] = np.diag([1.0, 1.0, 0.0])
    with pytest.raises(SingularMatrix) as err:
        evaluate(iso_body, F_sing, x)
    assert err.value.index == (2, 0)
    big = [0] * 12
    big[0] = 2
    body = polynomial_body([(big, 1e308)])               # inf where |F11| > ~1.34
    F_big = F.copy()
    F_big[3, 0, 0, 0] = 2.0
    with pytest.raises(NonFiniteResponse) as err:
        evaluate(body, F_big, x)
    assert err.value.index == (3, 0)
    assert np.all(np.isfinite(evaluate(body, F, x)))


def _fixed_response_body(values: np.ndarray) -> Body:
    """A body whose response ignores its input and returns ``values`` itself."""
    return Body("fixed", -np.ones(3), np.ones(3), lambda F, x: values)


@pytest.mark.parametrize("lead", [(4, 7), (4, 1)], ids=["full", "x_independent"])
def test_evaluate_finiteness_and_read_only_result(lead):
    """Values whose sum overflows pass without a warning; a NaN or inf is named by
    its first pair in the (4, 7) batch; the result is a read-only view and the
    response's own array stays writeable."""
    F = np.tile(I3, (4, 1, 1, 1))                        # (4, 1, 3, 3)
    x = np.zeros((7, 3))
    big = np.full(lead, 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = evaluate(_fixed_response_body(big), F, x)
    assert got.shape == (4, 7) and np.all(got == 1e308)
    assert not got.flags.writeable and big.flags.writeable
    bad = big.copy()
    bad[2, -1] = np.nan
    bad[3, 0] = -np.inf
    with pytest.raises(NonFiniteResponse) as err:
        evaluate(_fixed_response_body(bad), F, x)
    # the first offending pair in C order of the broadcast batch
    assert err.value.index == ((2, 6) if lead == (4, 7) else (2, 0))
    assert bad.flags.writeable


def test_w_inverse_identity_jet(iso_body, fgm_body):
    x = np.array([0.2, -0.1, 0.4])
    for body in (iso_body, fgm_body):
        assert np.array_equal(evaluate_w_inverse(body, identity(x)),
                              evaluate(body, np.eye(3), x))


def test_w_inverse_definition_oracle(fgm_body, rng):
    for _ in range(30):
        g = Jet1(rng.uniform(-0.9, 0.9, 3), rng.uniform(-0.9, 0.9, 3),
                 I3 + rng.uniform(-0.4, 0.4, (3, 3)))
        lhs = evaluate_w_inverse(fgm_body, g)
        rhs = evaluate(fgm_body, np.linalg.inv(g.matrix), g.target)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_w_inverse_rotation_jets_isotropic(iso_body, rng):
    for _ in range(10):
        g = Jet1(rng.uniform(-0.9, 0.9, 3), rng.uniform(-0.9, 0.9, 3),
                 random_rotation(rng))
        assert np.max(np.abs(evaluate_w_inverse(iso_body, g))) <= 1e-12


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def test_identity_always_member(iso_body, fgm_body, nonuniform_body, samples):
    x = np.array([0.3, 0.3, -0.2])
    for body in (iso_body, fgm_body, nonuniform_body):
        assert is_material_isomorphism(body, identity(x), samples, 1e-12)


def test_rotation_jets_are_isomorphisms_of_isotropic(iso_body, samples, rng):
    for _ in range(10):
        g = Jet1(rng.uniform(-0.9, 0.9, 3), rng.uniform(-0.9, 0.9, 3),
                 random_rotation(rng))
        assert is_material_isomorphism(iso_body, g, samples, 1e-10)


def test_stretch_is_not_isomorphism(iso_body, samples):
    g = Jet1([0.1, 0, 0], [-0.2, 0.4, 0], np.diag([2.0, 1.0, 1.0]))
    assert membership_defect(iso_body, g, samples) > 0.1
    assert not is_material_isomorphism(iso_body, g, samples, 1e-8)


def test_material_symmetries(iso_body, fgm_body, samples, rng):
    x = np.array([0.25, -0.4, 0.1])
    assert is_material_symmetry(iso_body, x, np.eye(3), samples, 1e-12)
    # rotation about e3 by 0.7 rad
    c, s = np.cos(0.7), np.sin(0.7)
    Q = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])
    assert is_material_symmetry(iso_body, x, Q, samples, 1e-10)
    # the generic quartic refuses a uniaxial stretch
    assert not is_material_symmetry(fgm_body, x, np.diag([1.1, 1.0, 1.0]), samples, 1e-6)


def test_fgm_transport_jets_pass(fgm_body, samples, rng):
    """P = K(y) K(x)^-1 satisfies W(F P, x) = W(F, y) identically."""
    for _ in range(20):
        x = rng.uniform(-0.9, 0.9, 3)
        y = rng.uniform(-0.9, 0.9, 3)
        P = K_fgm(y) @ np.linalg.inv(K_fgm(x))
        g = Jet1(x, y, P)
        assert membership_defect(fgm_body, g, samples) <= 1e-9


def test_nonuniform_body_fails_across_x1(nonuniform_body, samples):
    g = Jet1([-0.5, 0, 0], [0.5, 0, 0], np.eye(3))
    assert membership_defect(nonuniform_body, g, samples) > 1e-3


def test_membership_reflexive_symmetric_transitive(iso_body, samples, rng):
    """Groupoid structure of the sampled membership relation on rotation jets."""
    tol = 1e-10
    for _ in range(100):
        x, y, z = rng.uniform(-0.9, 0.9, (3, 3))
        g1 = Jet1(x, y, random_rotation(rng))
        g2 = Jet1(y, z, random_rotation(rng))
        assert membership_defect(iso_body, g1, samples) <= tol / 3
        assert membership_defect(iso_body, g2, samples) <= tol / 3
        # symmetry: the inverse passes with a conditioning factor, reported
        cond = float(np.linalg.cond(g1.matrix))
        assert membership_defect(iso_body, invert(g1), samples) <= (1 + cond) * tol
        # transitivity on a pair that individually passes at tol/3
        from matbody import compose
        assert membership_defect(iso_body, compose(g2, g1), samples) <= tol


# ---------------------------------------------------------------------------
# sample sets, tolerances, builtin registry
# ---------------------------------------------------------------------------

def test_sample_set_contents():
    s = make_samples(24, seed=11)
    assert s.count == 28             # 24 random + 4 fixed anchors
    assert s.matrices.shape == (28, 3, 3)
    assert not s.matrices.flags.writeable
    assert np.array_equal(s.matrices[0], np.eye(3))
    for m in s.matrices:
        assert np.linalg.det(m) > 0.2
    s2 = make_samples(24, seed=11)
    for a, b in zip(s.matrices, s2.matrices):
        assert np.array_equal(a, b)
    s3 = make_samples(24, seed=12)
    assert any(not np.array_equal(a, b) for a, b in zip(s.matrices, s3.matrices))


def test_membership_defect_is_max_over_samples(fgm_body, samples, rng):
    """The batched defect equals the per-sample maximum of the definition."""
    for _ in range(5):
        g = Jet1(rng.uniform(-0.9, 0.9, 3), rng.uniform(-0.9, 0.9, 3),
                 I3 + rng.uniform(-0.3, 0.3, (3, 3)))
        want = max(float(np.max(np.abs(evaluate(fgm_body, F @ g.matrix, g.source)
                                       - evaluate(fgm_body, F, g.target))))
                   for F in samples.matrices)
        assert membership_defect(fgm_body, g, samples) == pytest.approx(want, rel=1e-12)


def band_jet(samples: SampleSet, x, y) -> Jet1:
    """A jet whose products F_s P all pass the det floor by LU, with the least of
    them at 1.5 DET_TOL: inside the margin, so the certificate cannot decide."""
    c = np.cbrt(1.5 * DET_TOL / samples.min_det)
    return Jet1(x, y, c * I3)


@pytest.mark.parametrize("kind", BUILTINS + ("polynomial",))
def test_fused_membership_defect_is_bitwise_the_two_call_defect(kind, samples, rng):
    """The factor-checked (2, n) batch gives the defect of one evaluate per side,
    bit for bit, on jets the det floor certificate passes and on one it leaves
    to evaluate."""
    body = (polynomial_body(isotropic_polynomial_terms()) if kind == "polynomial"
            else builtin_body(kind))
    jets = [Jet1(rng.uniform(-0.9, 0.9, 3), rng.uniform(-0.9, 0.9, 3),
                 I3 + rng.uniform(-0.3, 0.3, (3, 3))) for _ in range(20)]
    assert all(samples.clears_floor(g.matrix) for g in jets)
    band = band_jet(samples, rng.uniform(-0.9, 0.9, 3), rng.uniform(-0.9, 0.9, 3))
    assert not samples.clears_floor(band.matrix)
    assert np.min(np.abs(np.linalg.det(samples.matrices @ band.matrix))) >= DET_TOL
    for g in jets + [band]:
        Fs = samples.matrices
        want = float(np.max(np.abs(evaluate(body, Fs @ g.matrix, g.source)
                                   - evaluate(body, Fs, g.target))))
        assert membership_defect(body, g, samples) == want


def test_fused_membership_defect_error_contract(iso_body, samples):
    """Each side keeps its error class; ``index`` is (side, sample) in the (2, n) batch."""
    inside, outside = np.zeros(3), np.array([0.0, 1.5, 0.0])
    with pytest.raises(OutOfDomain) as err:
        membership_defect(iso_body, Jet1(outside, inside, I3), samples)
    assert err.value.index == (0, 0)
    with pytest.raises(OutOfDomain) as err:
        membership_defect(iso_body, Jet1(inside, outside, I3), samples)
    assert err.value.index == (1, 0)
    # |det P| = 1.5e-12 passes the jet's floor, but F P falls below it where det F < 2/3
    P = np.diag([1e-4, 1e-4, 1.5e-4])
    first_small = int(np.argmax(np.linalg.det(samples.matrices) < 2 / 3))
    assert first_small > 0
    with pytest.raises(SingularMatrix) as err:
        membership_defect(iso_body, Jet1(inside, inside, P), samples)
    assert err.value.index == (0, first_small)

    def nan_beyond_half(F, x):
        return np.where(x[..., 0] > 0.5, np.nan, 1.0) + 0.0 * F[..., 0, 0]

    body = Body("nan", -np.ones(3), np.ones(3), nan_beyond_half)
    assert membership_defect(body, Jet1(inside, inside, I3), samples) == 0.0
    with pytest.raises(NonFiniteResponse) as err:
        membership_defect(body, Jet1(inside, np.array([0.7, 0.0, 0.0]), I3), samples)
    assert err.value.index == (1, 0)


def adversarial_matrix(family: int, rng) -> np.ndarray:
    """Near-singular, badly scaled or sheared 3x3 matrices."""
    if family == 0:     # rank 2 plus noise from 1e-16 to 1e-10
        u, v = rng.normal(size=(2, 3, 2))
        return u @ v.T + rng.normal(size=(3, 3)) * 10.0 ** rng.uniform(-16, -10)
    if family == 1:     # diagonals from 1e-8 to 1e4, either sign
        return np.diag(10.0 ** rng.uniform(-8, 4, 3) * rng.choice([-1.0, 1.0], 3))
    if family == 2:     # a shear up to 1e6, then a diagonal scaling
        P = np.eye(3)
        i, j = rng.choice(3, 2, replace=False)
        P[i, j] = 10.0 ** rng.uniform(0, 6)
        return P @ np.diag(10.0 ** rng.uniform(-5, 1, 3))
    return rng.normal(size=(3, 3)) * 10.0 ** rng.uniform(-6, 3)    # scaled Gaussian


@settings(max_examples=200)
@given(st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_det_floor_certificate_is_sound(family, seed):
    """Wherever the certificate passes, every |det(F_s P)| by LU clears DET_TOL."""
    samples = make_samples(24, seed=20240)
    rng = np.random.default_rng(seed)
    for _ in range(20):
        P = adversarial_matrix(family, rng)
        if samples.clears_floor(P):
            assert np.min(np.abs(np.linalg.det(samples.matrices @ P))) >= DET_TOL


def test_sample_set_is_checked_once():
    """Shape, finiteness and the det floor are refused with the sample's index;
    the set keeps a read-only copy, its least |det| and its largest norm."""
    mats = np.stack([I3, 2.0 * I3, np.diag([1.0, 3.0, 0.5])])
    s = SampleSet(mats, seed=0)
    mats[0, 0, 0] = 5.0
    assert s.matrices[0, 0, 0] == 1.0 and not s.matrices.flags.writeable
    assert s.min_det == np.min(np.abs(np.linalg.det(s.matrices))) == pytest.approx(1.0)
    assert s.max_norm == np.linalg.norm(2.0 * I3)
    for bad in (np.zeros((0, 3, 3)), I3, np.zeros((2, 3, 2)), np.zeros((2, 9))):
        with pytest.raises(ValueError, match="shape"):
            SampleSet(bad, seed=0)
    nonfinite = np.stack([I3, I3, I3, I3])
    nonfinite[2, 1, 0] = np.nan
    nonfinite[3, 0, 0] = np.inf
    with pytest.raises(ValueError, match="sample 2 has non-finite"):
        SampleSet(nonfinite, seed=0)
    singular = np.stack([I3, I3, np.diag([1.0, 1.0, 1e-13]), np.zeros((3, 3))])
    with pytest.raises(SingularMatrix, match="sample 2 ") as err:
        SampleSet(singular, seed=0)
    assert err.value.index == (2,)


def test_make_samples_is_the_rejection_loop():
    """The checked set holds exactly the matrices the rejection loop draws."""
    rng = np.random.default_rng(20240)
    want = [I3, np.diag([2.0, 1.0, 1.0]), np.diag([1.0, 2.0, 1.0]), np.diag([1.0, 1.0, 2.0])]
    while len(want) < 28:
        f = I3 + rng.uniform(-0.5, 0.5, size=(3, 3))
        if np.linalg.det(f) > 0.2:
            want.append(f)
    s = make_samples(24, seed=20240)
    assert s.matrices.tobytes() == np.stack(want).tobytes()
    assert s.min_det == np.min(np.abs(np.linalg.det(np.stack(want))))


def test_membership_tol_scale(iso_body, samples):
    t = membership_tol(iso_body, samples, [np.zeros(3)])
    # the anchor diag(2,1,1) alone contributes |diag(3,0,0)|^2 = 9
    assert t >= 1e-8 * (1 + 9.0)
    peak = max(float(np.max(np.abs(evaluate(iso_body, F, np.zeros(3)))))
               for F in samples.matrices)
    assert t == pytest.approx(1e-8 * (1 + peak), rel=1e-12)


def test_builtin_registry():
    with pytest.raises(ConfigError):
        builtin_body("no_such_body")
    assert np.array_equal(E_SHEAR_12, E12)


# ---------------------------------------------------------------------------
# polynomial bodies
# ---------------------------------------------------------------------------

def test_polynomial_body_evaluation():
    # W = (F11)^2 x1 + 3 F23
    e1 = [0] * 12; e1[0] = 2; e1[9] = 1
    e2 = [0] * 12; e2[5] = 1
    body = polynomial_body([(e1, 1.0), (e2, 3.0)])
    F = np.array([[1.0, 2, 3], [4, 5, 6], [7, 8, 10]])
    x = np.array([0.5, 0, 0])
    val = evaluate(body, F, x)
    assert val == pytest.approx(F[0, 0] ** 2 * 0.5 + 3.0 * F[1, 2])


def test_polynomial_body_validation():
    too_high = [0] * 12; too_high[0] = 5
    with pytest.raises(ConfigError):
        polynomial_body([(too_high, 1.0)])
    negative = [0] * 12; negative[3] = -1
    with pytest.raises(ConfigError):
        polynomial_body([(negative, 1.0)])
    with pytest.raises(ConfigError):
        polynomial_body([])


# |kernel - reference| <= POLY_RTOL * (1 + sum over terms of |c * term|), fixed
# before the power-table kernel was written: each term is a product of at most
# four factors and a coefficient, so the two routes differ by a few roundings
# of each term's own magnitude.
POLY_RTOL = 1e-14


def random_terms(rng, count):
    """A constant term, cubes and fourth powers of F entries and x coordinates,
    then random monomials of degree 1..4 over all 12 variables."""
    terms = [([0] * 12, rng.normal())]
    for v, e in ((0, 3), (4, 4), (9, 3), (11, 4), (5, 2)):
        exps = [0] * 12
        exps[v] = e
        terms.append((exps, rng.normal()))
    while len(terms) < count:
        exps = np.bincount(rng.integers(0, 12, size=rng.integers(1, 5)), minlength=12)
        terms.append((exps.tolist(), rng.normal()))
    return terms


@pytest.mark.parametrize("seed", range(4))
def test_polynomial_kernel_matches_loop_reference(seed):
    rng = np.random.default_rng([seed, 77])
    terms = random_terms(rng, 40)
    body = polynomial_body(terms)
    abs_terms = [(e, abs(c)) for e, c in terms]
    # (leading shape of F, shape of x); the last is the fibre F-stencil layout
    shapes = [((7,), (3,)), ((), (5, 3)), ((6, 4), (6, 1, 3)), ((12, 2, 9), (5, 1, 1, 1, 3))]
    for f_lead, x_shape in shapes:
        F = I3 + rng.uniform(-0.5, 0.5, f_lead + (3, 3))
        x = rng.uniform(-1.0, 1.0, x_shape)
        got = evaluate(body, F, x)
        want = loop_polynomial_response(terms, F, x)
        scale = loop_polynomial_response(abs_terms, np.abs(F), np.abs(x))
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= POLY_RTOL * (1.0 + scale))
