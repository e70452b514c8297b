"""Verdicts do not depend on the affine chart a body is written in.

A body read in coordinates y = S x + b has the response
W'(F', y) = W(F' S, S^-1 (y - b)) on the box S [lo, hi] + b.  Uniformity,
the fibre and isotropy dimensions and the homogeneity verdict are properties
of the material, so the public stages must return the same answers in either
chart.  The maps are diagonal with positive entries, so the image of the box
is again a box.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matbody import (
    Body,
    builtin_body,
    curvature_torsion,
    fibers_at,
    homogeneity_verdict,
    make_grid,
    make_samples,
    minimal_lift_section,
    uniformity_verdict,
)

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
