"""Verdicts do not depend on the affine chart a body is written in.

A body read in coordinates y = S x + b has the response
W'(F', y) = W(F' S, S^-1 (y - b)) on the box S [lo, hi] + b.  Uniformity,
the fibre and isotropy dimensions and the homogeneity verdict are properties
of the material, so the public stages must return the same answers in either
chart.  The maps are diagonal with positive entries, so the image of the box
is again a box.

A strictly increasing h leaves W(F P, x) = W(F, y) true exactly where it
was, so a body with response h(W) has the same material groupoid, fibres and
isotropy; the numerical answers must agree too.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matbody import (
    Body,
    Jet1,
    builtin_body,
    curvature_torsion,
    fibers_at,
    homogeneity_verdict,
    is_material_isomorphism,
    make_grid,
    make_samples,
    minimal_lift_section,
    uniformity_verdict,
)
from matbody.bodies import membership_tol
from oracles import E12, E21, I3, random_rotation

KINDS = ("homogeneous_isotropic", "uniform_fgm", "uniform_fgm_integrable", "nonuniform")
SAMPLES = make_samples(24, seed=20240)


def affine_chart(body: Body, S: np.ndarray, b: np.ndarray) -> Body:
    """``body`` read in the coordinates y = S x + b (S diagonal, positive)."""
    S_inv_T = np.linalg.inv(S).T
    return Body(f"{body.name}_affine", S @ body.lo + b, S @ body.hi + b,
                lambda F, y: body.response(F @ S, (y - b) @ S_inv_T))


def verdicts(body: Body) -> tuple:
    """(uniformity, fibre-dim levels, isotropy-dim set, homogeneity) at 5^3."""
    grid = make_grid(body.lo, body.hi, 5, 0.1)
    fibers = fibers_at(body, grid.points, SAMPLES)
    uni = uniformity_verdict(fibers)
    homogeneity = "n/a"
    if uni.uniform:
        report = curvature_torsion(minimal_lift_section(grid, fibers))
        homogeneity = homogeneity_verdict(uni, report).verdict
    return (uni.verdict, sorted({f.dim for f in fibers}), set(uni.isotropy_dims), homogeneity)


@lru_cache(maxsize=None)
def reference(kind: str) -> tuple:
    return verdicts(builtin_body(kind))


def test_reference_verdicts():
    """The untransformed answers the charts are compared with."""
    assert [reference(kind) for kind in KINDS] == [
        ("uniform", [6], {3}, "homogeneous_evidence"),
        ("uniform", [3], {0}, "obstructed"),
        ("uniform", [3], {0}, "homogeneous_evidence"),
        ("not_uniform", [3, 5], {1, 3}, "n/a"),
    ]


@pytest.mark.parametrize("kind", KINDS)
def test_fixed_affine_chart_keeps_the_verdicts(kind):
    S, b = np.diag([2.0, 1.0, 0.5]), np.array([0.3, -0.2, 0.1])
    assert verdicts(affine_chart(builtin_body(kind), S, b)) == reference(kind)


@settings(max_examples=24)
@given(st.sampled_from(KINDS),
       st.lists(st.floats(0.5, 2.0), min_size=3, max_size=3),
       st.lists(st.floats(-0.3, 0.3), min_size=3, max_size=3))
def test_random_affine_charts_keep_the_verdicts(kind, scales, shift):
    body = affine_chart(builtin_body(kind), np.diag(scales), np.array(shift))
    assert verdicts(body) == reference(kind)


# ---------------------------------------------------------------------------
# monotone reparametrizations of the response
# ---------------------------------------------------------------------------

MONOTONE = {"w_plus_w3": lambda w: w + w ** 3, "log1p": np.log1p}


def reparametrized(body: Body, h) -> Body:
    return Body(f"{body.name}_h", body.lo, body.hi, lambda F, x: h(body.response(F, x)))


def member_jet(kind: str, rng) -> tuple:
    """(x, y, P) with (x -> y, P) in the material groupoid of the built-in ``kind``."""
    x, y = rng.uniform(-0.9, 0.9, (2, 3))
    if kind == "homogeneous_isotropic":
        return x, y, random_rotation(rng)
    if kind == "nonuniform":
        # W depends on x through x1 only, and on F through F^T F and F11
        y[0] = x[0]
        angle = rng.uniform(0.0, 2.0 * np.pi)
        c, s = np.cos(angle), np.sin(angle)
        return x, y, np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    shear = E12 if kind == "uniform_fgm" else E21
    return x, y, (I3 + y[0] * shear) @ np.linalg.inv(I3 + x[0] * shear)


def membership_answers(body: Body, jets: list) -> list:
    tol = membership_tol(body, SAMPLES, [np.zeros(3)])
    return [is_material_isomorphism(body, Jet1(x, y, P), SAMPLES, tol) for x, y, P in jets]


def pointwise_answers(body: Body) -> tuple:
    """(uniformity verdict, fibre dim and isotropy dim per point) at 3^3."""
    fibers = fibers_at(body, make_grid(body.lo, body.hi, 3, 0.1).points, SAMPLES)
    uni = uniformity_verdict(fibers)
    return uni.verdict, [f.dim for f in fibers], list(uni.isotropy_dims)


@pytest.mark.parametrize("h", sorted(MONOTONE))
@pytest.mark.parametrize("kind", KINDS)
def test_monotone_reparametrization_keeps_the_answers(kind, h):
    body = builtin_body(kind)
    moved = reparametrized(body, MONOTONE[h])
    rng = np.random.default_rng(5)
    members = [member_jet(kind, rng) for _ in range(8)]
    perturbed = []
    for x, y, P in members:
        S = rng.normal(size=(3, 3))
        perturbed.append((x, y, P @ (I3 + 0.05 * S / np.linalg.norm(S))))
    answers = membership_answers(body, members + perturbed)
    assert answers == [True] * 8 + [False] * 8
    assert membership_answers(moved, members + perturbed) == answers
    assert pointwise_answers(moved) == pointwise_answers(body)
