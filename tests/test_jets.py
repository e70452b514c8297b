"""Jet groupoid algebra: composition, inversion, identities, frame action.

The random-jet laws are checked against plain numpy matrix products, which is
the whole content of the chain rule for 1-jets in a single chart.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matbody import (
    Frame,
    Jet1,
    SingularMatrix,
    SourceTargetMismatch,
    compose,
    identity,
    invert,
)
from matbody.jets import DET_TOL, as_matrix, as_point
from oracles import random_invertible


def random_jet(rng, source=None, target=None):
    src = rng.uniform(-1, 1, 3) if source is None else source
    tgt = rng.uniform(-1, 1, 3) if target is None else target
    return Jet1(src, tgt, random_invertible(rng))


def test_compose_identity_matrix_case(rng):
    x, y, z = rng.uniform(-1, 1, (3, 3))
    M = random_invertible(rng)
    g = Jet1(y, z, M)
    h = Jet1(x, y, np.eye(3))
    gh = compose(g, h)
    assert np.array_equal(gh.source, h.source)
    assert np.array_equal(gh.target, g.target)
    assert np.array_equal(gh.matrix, M)


def test_compose_diagonal_case():
    g = Jet1([0, 0, 0], [0, 0, 0], np.diag([2.0, 1.0, 1.0]))
    h = Jet1([0, 0, 0], [0, 0, 0], np.diag([1.0, 3.0, 1.0]))
    assert np.allclose(compose(g, h).matrix, np.diag([2.0, 3.0, 1.0]), atol=0)


def test_compose_requires_matching_points(rng):
    g = random_jet(rng)
    h = Jet1(rng.uniform(-1, 1, 3), g.source + 1e-6, random_invertible(rng))
    with pytest.raises(SourceTargetMismatch):
        compose(g, h)


def test_invert_examples():
    g = Jet1([0.1, 0, 0], [0, 0.5, 0], np.eye(3))
    gi = invert(g)
    assert np.array_equal(gi.source, g.target)
    assert np.array_equal(gi.target, g.source)
    assert np.allclose(gi.matrix, np.eye(3), atol=0)

    d = Jet1([0, 0, 0], [1, 0, 0], np.diag([2.0, 4.0, 5.0]))
    assert np.allclose(invert(d).matrix, np.diag([0.5, 0.25, 0.2]), atol=1e-15)


def test_singular_matrix_rejected():
    with pytest.raises(SingularMatrix):
        Jet1([0, 0, 0], [0, 0, 0], np.zeros((3, 3)))


_VALUES = st.one_of(
    st.sampled_from([0.0, -1.5, 1e308, -1e308, np.finfo(float).max, np.nan, np.inf, -np.inf]),
    st.floats(allow_nan=True, allow_infinity=True))


def _refuses(build) -> bool:
    try:
        build()
    except ValueError:
        return True
    return False


def _check_validators_refuse_exactly_non_finite(values):
    v = np.array(values, dtype=float)
    assert _refuses(lambda: as_point(v[:3])) == (not np.isfinite(v[:3]).all())
    assert _refuses(lambda: as_matrix(v)) == (not np.isfinite(v).all())
    # unit upper triangle: the closed-form det is exactly 1 for finite entries
    m = np.eye(3)
    m[np.triu_indices(3, 1)] = v[6:]
    assert _refuses(lambda: Jet1(v[:3], v[3:6], m)) == (not np.isfinite(v).all())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_validators_reject_non_finite_values(bad):
    for k in range(9):
        for base in (0.0, 1e308):                 # 1e308: the finite sum overflows too
            values = [base] * 9
            values[k] = bad
            _check_validators_refuse_exactly_non_finite(values)
    m = np.eye(3)
    m[1, 2] = bad
    for invertible in (False, True):
        with pytest.raises(ValueError):
            as_matrix(m, invertible=invertible)


@settings(max_examples=300)
@given(st.lists(_VALUES, min_size=9, max_size=9))
@example([1e308, 1e308, -1e308, 1e308, 1e308, 1e308, 1e308, 1e308, 1e308])
@example([-1e308, -1e308, 1.0, 1e308, -1e308, 1e308, 1e308, -1e308, 1e308])
def test_validators_refuse_exactly_non_finite_values(values):
    """as_point, as_matrix and Jet1 refuse exactly what np.isfinite(...).all() refuses,
    also finite values whose float sum overflows to inf."""
    _check_validators_refuse_exactly_non_finite(values)


def test_det_floor(rng):
    """|det| below DET_TOL is refused, above it passes, for diagonal and dense matrices."""
    with pytest.raises(SingularMatrix):
        as_matrix(np.diag([1e-5, 1e-5, 1e-3]), invertible=True)           # |det| = 1e-13
    ok = as_matrix(np.diag([1e-4, 1e-4, 1e-3]), invertible=True)          # |det| = 1e-11
    assert not ok.flags.writeable
    for _ in range(20):
        M = random_invertible(rng)
        unit = M / np.cbrt(abs(np.linalg.det(M)))                          # |det| = 1
        with pytest.raises(SingularMatrix):
            as_matrix(np.cbrt(0.5 * DET_TOL) * unit, invertible=True)
        as_matrix(np.cbrt(2.0 * DET_TOL) * unit, invertible=True)
    # huge finite entries overflow the closed form (inf - inf, or inf); judged as by LU
    for m in ([[1e200, 1e200, 0], [1e200, 1e200, 0], [0, 0, 1]],
              [[1e200, 2e200, 0], [5e199, 1e200, 0], [0, 0, 1e-300]]):
        with pytest.raises(SingularMatrix):
            as_matrix(m, invertible=True)
    as_matrix([[1e-250, 0, 0], [0, 1e200, 0], [0, 0, 1e200]], invertible=True)   # det 1e150


def test_identity_and_unit_laws(rng):
    x = rng.uniform(-1, 1, 3)
    e = identity(x)
    assert np.array_equal(e.source, e.target)
    assert np.array_equal(e.matrix, np.eye(3))
    for _ in range(50):
        g = random_jet(rng)
        right = compose(g, identity(g.source))
        left = compose(identity(g.target), g)
        for other in (right, left):
            assert np.max(np.abs(other.matrix - g.matrix)) <= 1e-12
            assert np.array_equal(other.source, g.source)
            assert np.array_equal(other.target, g.target)


def test_groupoid_axioms_random_jets(rng):
    """Associativity, unit and inverse laws on >= 1000 random composable jets."""
    n = 1000
    for _ in range(n):
        w, x, y, z = rng.uniform(-1, 1, (4, 3))
        g = Jet1(y, z, random_invertible(rng))
        h = Jet1(x, y, random_invertible(rng))
        k = Jet1(w, x, random_invertible(rng))
        lhs = compose(compose(g, h), k)
        rhs = compose(g, compose(h, k))
        # oracle: the triple product is just a numpy matrix chain
        direct = g.matrix @ h.matrix @ k.matrix
        assert np.max(np.abs(lhs.matrix - rhs.matrix)) <= 1e-12
        assert np.max(np.abs(lhs.matrix - direct)) <= 1e-12
        assert np.array_equal(lhs.source, k.source) and np.array_equal(lhs.target, g.target)

        gi = invert(g)
        assert np.max(np.abs(compose(gi, g).matrix - np.eye(3))) <= 1e-12
        assert np.max(np.abs(compose(g, gi).matrix - np.eye(3))) <= 1e-12
        assert np.max(np.abs(invert(gi).matrix - g.matrix)) <= 1e-12


def test_identity_fixed_by_invert(rng):
    x = rng.uniform(-1, 1, 3)
    e = invert(identity(x))
    assert np.array_equal(e.source, x) and np.array_equal(e.target, x)
    assert np.array_equal(e.matrix, np.eye(3))


def test_compose_acts_on_frames(rng):
    x = rng.uniform(-1, 1, 3)
    z = Frame(x, random_invertible(rng))
    assert isinstance(z, Jet1) and np.array_equal(z.target, x)
    assert np.array_equal(z.source, np.zeros(3)) and not z.source.flags.writeable
    assert np.allclose(compose(identity(x), z).matrix, z.matrix, atol=0)

    M = random_invertible(rng)
    y = rng.uniform(-1, 1, 3)
    g = Jet1(x, y, M)
    moved = compose(g, Frame(x, np.eye(3)))
    assert np.array_equal(moved.target, g.target)
    assert np.allclose(moved.matrix, M, atol=0)

    with pytest.raises(SourceTargetMismatch):
        compose(g, Frame(y, np.eye(3)))


def test_frame_action_associative_with_compose(rng):
    for _ in range(100):
        x, y, z = rng.uniform(-1, 1, (3, 3))
        g = Jet1(y, z, random_invertible(rng))
        h = Jet1(x, y, random_invertible(rng))
        fr = Frame(x, random_invertible(rng))
        a = compose(compose(g, h), fr)
        b = compose(g, compose(h, fr))
        assert np.max(np.abs(a.matrix - b.matrix)) <= 1e-12
        assert np.array_equal(a.target, b.target)
