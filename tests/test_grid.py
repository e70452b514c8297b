"""Lattices, the domain box, trilinear interpolation, and the package's runtime imports."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matbody
from matbody import (Body, Box, GridTooSmall, LeftDomain, OutOfDomain, Parallelism, SectionField,
                     TrilinearField, evaluate, make_grid)
from matbody.grid import grid_gradient
from oracles import loop_trilinear


def multilinear(coef, x):
    """sum_c coef[c] * x^c0 y^c1 z^c2 over c in {0,1}^3, for points (..., 3)."""
    out = 0.0
    for c in np.ndindex(2, 2, 2):
        mono = np.prod(np.where(np.array(c, dtype=bool), x, 1.0), axis=-1)
        out = out + mono[..., None, None] * coef[c]
    return out


@pytest.mark.parametrize("lo, hi, margin", [
    ([np.nan, 0.0, 0.0], [1.0, 1.0, 1.0], 0.1),
    ([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], np.nan),
    ([0.0, 0.0, 0.0], [np.inf, 1.0, 1.0], 0.1),
    ([-1e308] * 3, [1e308] * 3, 0.1),               # finite bounds, extent past the float range
])
def test_make_grid_refuses_non_finite_bounds_and_margin(lo, hi, margin):
    with pytest.raises(ValueError):
        make_grid(lo, hi, 3, margin)


def test_lattices_need_three_points_per_axis_inside_the_inset_box():
    with pytest.raises(GridTooSmall, match="need >= 3 points per axis"):
        make_grid(-np.ones(3), np.ones(3), (3, 2, 3))
    with pytest.raises(GridTooSmall, match="need >= 3 points per axis"):
        make_grid(-np.ones(3), np.ones(3), True)
    for res in ((3, 3, 3.9), np.inf, -np.inf, (3, np.nan, 3)):   # 3.9 was read as 3
        with pytest.raises(ValueError, match="resolution must be integral"):
            make_grid(-np.ones(3), np.ones(3), res)
    for res in (4.0, np.int64(4)):
        assert make_grid(-np.ones(3), np.ones(3), res).shape == (4, 4, 4)
    with pytest.raises(ValueError, match="margin leaves an empty box"):
        make_grid(-np.ones(3), np.ones(3), 3, margin=1.0)
    grid = make_grid(-np.ones(3), np.ones(3), 3)
    flat = type(grid)(grid.axes, (3, 3, 2), grid.points, grid.spacing)    # not a make_grid shape
    with pytest.raises(GridTooSmall, match="gradient needs >= 3 points per axis"):
        grid_gradient(flat, np.zeros((3, 3, 2)))


@st.composite
def boxes_and_points(draw):
    """Box bounds (inverted too), a margin, and points inside the box, on a face,
    one ulp off a face, or with a non-finite coordinate."""
    bound = st.floats(-1e3, 1e3, allow_nan=False)
    lo, hi = (np.array(draw(st.lists(bound, min_size=3, max_size=3))) for _ in range(2))

    def coordinate(a, b):
        near = [np.nextafter(f, to) for f in (a, b) for to in (f, -np.inf, np.inf)]
        return st.one_of(st.floats(min(a, b), max(a, b)),
                         st.sampled_from(near + [np.nan, np.inf, -np.inf]))

    point = st.tuples(*(coordinate(a, b) for a, b in zip(lo, hi)))
    points = np.array(draw(st.lists(point, min_size=1, max_size=8)), dtype=float)
    return lo, hi, draw(st.floats(-1.0, 1.0)), points


@settings(max_examples=300)
@given(boxes_and_points())
def test_box_contains_is_its_mask_and_the_closed_box_rule(case):
    lo, hi, margin, points = case
    box = Box(lo, hi)
    mask = box.mask(points)
    assert mask.shape == points.shape[:-1]
    for p, inside in zip(points, mask):
        assert box.contains(p) == bool(inside) == bool(box.mask(p))
        closed = bool(np.all(p >= lo) and np.all(p <= hi))
        assert inside == (closed and bool(np.isfinite(p).all()))
    want = np.all((points >= lo + margin) & (points <= hi - margin), axis=-1)
    assert np.array_equal(box.inset(margin).mask(points), want)


def test_every_domain_check_refuses_the_same_points():
    """evaluate, SectionField.value, Parallelism.matrix and TrilinearField refuse
    exactly the points outside one closed box, corners and faces +- 1 ulp."""
    lo, hi = np.array([-1.0, -0.5, 0.25]), np.array([0.75, 1.0, 2.0])
    body = Body("box", lo, hi,
                lambda F, x: np.zeros(np.broadcast_shapes(F.shape[:-2], x.shape[:-1])))
    section = SectionField(lambda x: (np.zeros(3), np.zeros((3, 3))), lo, hi)
    frames = Parallelism(lambda x: np.eye(3), lo, hi)
    field = TrilinearField([np.linspace(a, b, 3) for a, b in zip(lo, hi)], np.zeros((3, 3, 3, 2)))
    checks = ((OutOfDomain, lambda p: evaluate(body, np.eye(3), p)),
              (LeftDomain, section.value),
              (OutOfDomain, frames.matrix),
              (LeftDomain, field))
    corners = [np.where(np.array(c, dtype=bool), hi, lo) for c in np.ndindex(2, 2, 2)]
    centres = [np.where(np.arange(3) == axis, face, (lo + hi) / 2)
               for axis, face in itertools.product(range(3), (lo, hi))]
    points = []
    for p, axis in itertools.product(corners + centres, range(3)):
        for to in (-np.inf, np.inf):
            points.append(np.where(np.arange(3) == axis, np.nextafter(p, to), p))
    points += corners + centres
    inside = [bool(np.all(p >= lo) and np.all(p <= hi)) for p in points]
    assert 0 < sum(inside) < len(points)
    for p, ok in zip(points, inside):
        for error, check in checks:
            if ok:
                check(p)
            else:
                with pytest.raises(error):
                    check(p)


def test_trilinear_reproduces_multilinear_field():
    """Trilinear interpolation is exact for fields affine in each coordinate."""
    rng = np.random.default_rng(5)
    grid = make_grid([-1.0, 0.0, -2.0], [1.0, 0.5, 1.0], (4, 5, 3), margin=0.05)
    coef = rng.normal(size=(2, 2, 2, 3, 3))
    field = TrilinearField(grid.axes, grid.reshape(multilinear(coef, grid.points)))
    lo, hi = grid.points[0], grid.points[-1]
    pts = rng.uniform(lo, hi, size=(40, 3))
    for axis in range(3):                       # upper hull faces
        pts[axis, axis] = hi[axis]
    pts[3] = hi                                 # far corner
    pts[4] = lo
    expected = multilinear(coef, pts)
    assert np.max(np.abs(field(pts) - expected)) <= 1e-14
    assert np.max(np.abs(field(pts.reshape(5, 8, 3)) - expected.reshape(5, 8, 3, 3))) <= 1e-14
    for p, e in zip(pts, expected):
        assert field(p).shape == (3, 3)
        assert np.max(np.abs(field(p) - e)) <= 1e-14


def test_trilinear_refuses_points_outside_hull():
    """One spacing outside, NaN and +-inf are refused, alone or next to a point inside."""
    grid = make_grid(-np.ones(3), np.ones(3), (3, 4, 5), margin=0.1)
    field = TrilinearField(grid.axes, np.zeros(grid.shape + (3,)))
    for axis in range(3):
        outside = []
        for corner, sign in ((grid.points[-1], 1.0), (grid.points[0], -1.0)):
            x = corner.copy()
            x[axis] += sign * grid.spacing[axis]
            outside.append(x)
        for bad in (np.nan, np.inf, -np.inf):
            x = grid.points[grid.n_points // 2].copy()
            x[axis] = bad
            outside.append(x)
        for x in outside:
            with pytest.raises(LeftDomain):
                field(x)
            with pytest.raises(LeftDomain):
                field(np.stack([grid.points[0], x]))


@st.composite
def lattices_and_points(draw):
    """Non-uniform axes, lattice data with signed zeros, and a point in the hull."""
    ticks = st.lists(st.floats(-4.0, 4.0, allow_nan=False), min_size=2, max_size=5,
                     unique=True).map(sorted)
    axes = [np.array(draw(ticks)) for _ in range(3)]
    value_shape = draw(st.sampled_from([(), (1,), (3,), (2, 3)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = tuple(len(a) for a in axes) + value_shape
    values = rng.normal(size=shape) * rng.choice([-1.0, 1.0, 0.0, -0.0, 1e-300], size=shape)
    coords = []
    for a in axes:
        tick = st.integers(0, len(a) - 1).map(lambda i, a=a: a[i])
        inside = st.floats(0.0, 1.0).map(lambda f, a=a: min(a[-1], a[0] + f * (a[-1] - a[0])))
        coords.append(draw(st.one_of(tick, inside)))
    return axes, values, np.array(coords)


@settings(max_examples=150)
@given(lattices_and_points())
def test_trilinear_is_bitwise_the_reference_loop(case):
    """One point on (3,) and on (1, 3), and all points in one batch, equal the reference
    loop bit for bit, signed zeros too."""
    axes, values, p = case
    field = TrilinearField(axes, values)
    lo, hi = np.array([a[0] for a in axes]), np.array([a[-1] for a in axes])
    points = [p] + [np.where(np.arange(3) == axis, hi, p) for axis in range(3)]   # upper faces
    points += [np.where(np.array(c, dtype=bool), hi, lo) for c in np.ndindex(2, 2, 2)]
    batch = field(np.array(points))
    for x, row in zip(points, batch):
        want = loop_trilinear(axes, values, x)
        for got in (field(x), field(x[None])[0], row):
            assert got.shape == want.shape == values.shape[3:]
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def test_field_keeps_its_own_copy_of_the_lattice_data():
    """Mutating the caller's array after construction does not move the field."""
    rng = np.random.default_rng(8)
    grid = make_grid(-np.ones(3), np.ones(3), (4, 3, 5), margin=0.1)
    values = rng.normal(size=grid.shape + (3, 3))
    original = values.copy()
    field = TrilinearField(grid.axes, values)
    pts = rng.uniform(grid.points[0], grid.points[-1], size=(6, 3))
    values[...] = 7.0
    assert np.array_equal(field(pts), loop_trilinear(grid.axes, original, pts))


@pytest.mark.parametrize("axes, v_shape, a_shape", [
    ([np.linspace(-0.9, 0.9, 5)] * 3, (3,), (3, 3)),                     # 5 ticks, 3 nodes
    ([[0.0, 1.0, 0.5], [0.0, 0.5, 1.0], [0.0, 0.5, 1.0]], (3,), (3, 3)),   # not increasing
    ([[0.0, 0.5, 0.5], [0.0, 0.5, 1.0], [0.0, 0.5, 1.0]], (3,), (3, 3)),   # a repeated tick
    ([[0.0, np.nan, 1.0], [0.0, 0.5, 1.0], [0.0, 0.5, 1.0]], (3,), (3, 3)),
    ([[0.0, 0.5, np.inf], [0.0, 0.5, 1.0], [0.0, 0.5, 1.0]], (3,), (3, 3)),
    ([[0.0, 0.5, 1.0]] * 2, (3,), (3, 3)),                                # two axes
    ([np.zeros((3, 1))] * 3, (3,), (3, 3)),                               # not 1-D
    ([np.linspace(0.0, 1.0, 3)] * 3, (3,), (9,)),                         # A not 3 x 3
    ([np.linspace(0.0, 1.0, 3)] * 3, (2,), (3, 3)),                       # v not (3,)
], ids=["5_ticks", "decreasing", "repeated", "nan", "inf", "2_axes", "2d_axes", "a_9", "v_2"])
def test_lattice_input_is_validated(axes, v_shape, a_shape):
    """Axes that are not 3 arrays of strictly increasing finite ticks, one per node of
    the data, and section data that are not a (3,) v and a (3, 3) A are refused."""
    v_data, a_data = np.ones((3, 3, 3) + v_shape), np.ones((3, 3, 3) + a_shape)
    with pytest.raises(ValueError):
        SectionField.from_grid(axes, v_data, a_data)
    if (v_shape, a_shape) == ((3,), (3, 3)):
        with pytest.raises(ValueError):
            TrilinearField(axes, v_data)


@pytest.mark.parametrize("value_shape", [(), (3,), (3, 3)])
def test_constant_field_returns_its_value_exactly(value_shape):
    """A lattice of one value: a call returns it bit for bit, where the weighted sum
    is an ulp off at most points, and refuses the same points as any field; -0.0 nodes
    read 0.0, and a lattice that is not one value has no constant."""
    rng = np.random.default_rng(14)
    grid = make_grid(-np.ones(3), np.ones(3), (4, 3, 5), margin=0.1)
    c = rng.normal(size=value_shape)
    values = np.broadcast_to(c, grid.shape + value_shape)
    field = TrilinearField(grid.axes, values)
    assert np.array_equal(field.constant, c) and not field.constant.flags.writeable
    pts = rng.uniform(grid.points[0], grid.points[-1], size=(50, 3))
    pts = np.concatenate([pts, grid.points[[0, -1]]])
    assert np.array_equal(field(pts), np.broadcast_to(c, (len(pts),) + value_shape))
    for x in pts:
        assert np.array_equal(field(x), c)
    assert (loop_trilinear(grid.axes, values, pts) != c).any()
    bad = [np.nan, np.inf, -np.inf, 1.0, -1.0]           # the hull is [-0.9, 0.9]^3
    for axis, q in itertools.product(range(3), bad):
        x = np.zeros(3)
        x[axis] = q
        with pytest.raises(LeftDomain):
            field(x)
        with pytest.raises(LeftDomain):
            field(np.stack([grid.points[0], x]))
    signed = np.zeros(grid.shape + (2,))
    signed[::2] = -0.0
    zero = TrilinearField(grid.axes, signed)
    assert not np.signbit(zero.constant).any() and not np.signbit(zero(pts)).any()
    values = np.array(values)
    values[1, 2, 3] = np.nextafter(values[1, 2, 3], np.inf)
    assert TrilinearField(grid.axes, values).constant is None
    assert TrilinearField(grid.axes, np.full(grid.shape, np.nan)).constant is None


def test_import_does_not_load_scipy():
    """numpy is the only runtime dependency; scipy serves the test oracles only."""
    src = str(Path(matbody.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, matbody; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"
