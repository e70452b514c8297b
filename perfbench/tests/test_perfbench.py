"""Tests of the benchmark's own logic (not part of the package's test suite).

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import matbody as mb  # noqa: E402
import matbody.cli  # noqa: E402,F401  imports `fiber` by name
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_times_on_a_synthetic_span_tree():
    # a [0, 100] has children b [10, 40] and b [50, 70]; c [15, 25] is inside
    # the first b.
    spans = [
        (3, 1, "c", 15, 25),
        (1, 0, "b", 10, 40),
        (2, 0, "b", 50, 70),
        (0, None, "a", 0, 100),
    ]
    agg = tracing.self_times(spans)
    assert agg["a"] == (1, 100, 50)
    assert agg["b"] == (2, 50, 40)
    assert agg["c"] == (1, 10, 10)


def test_tracer_records_parents_and_self_time_with_a_fake_clock():
    ticks = iter(range(0, 1000, 10))
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("bodies.evaluate", lambda body, F, x: 0.0)
    outer = tracer.wrap("algebroid.fiber", lambda: [inner(None, np.eye(3), np.zeros(3))
                                                     for _ in range(2)])
    outer()
    spans, counts = tracer.drain()
    by_name = {}
    for sid, parent, name, _start, _end in spans:
        by_name.setdefault(name, []).append((sid, parent))
    (fiber_id, fiber_parent), = by_name["algebroid.fiber"]
    assert fiber_parent is None
    assert [p for _sid, p in by_name["bodies.evaluate"]] == [fiber_id, fiber_id]
    # outer opens at 0, inner spans take [10, 20] and [30, 40], outer ends at 50.
    metrics = tracing.layer_metrics(spans, counts)
    assert metrics["algebroid.fiber_s"] == pytest.approx(30e-9)
    assert metrics["bodies.evaluate_s"] == pytest.approx(20e-9)
    assert metrics["bodies.evaluations"] == 2
    assert tracer.drain() == ([], {})


def test_evaluation_pairs_counts_broadcast_batches():
    one = ((None, np.eye(3), np.zeros(3)), {}, None)
    batch = ((None, np.zeros((5, 3, 3)), np.zeros((5, 3))), {}, None)
    broadcast = ((None, np.zeros((4, 1, 3, 3)), np.zeros((7, 3))), {}, None)
    assert tracing.evaluation_pairs(*one) == 1
    assert tracing.evaluation_pairs(*batch) == 5
    assert tracing.evaluation_pairs(*broadcast) == 28


def test_hooks_wrap_every_binding_and_restore_them():
    original, svd = mb.algebroid.fiber, np.linalg.svd
    tracer = tracing.Tracer()
    hooks = tracing.Hooks(tracer).install()
    try:
        assert mb.algebroid.fiber is not original
        assert matbody.cli.fiber is mb.algebroid.fiber
        assert mb.analysis.fiber is mb.algebroid.fiber
        body = mb.builtin_body("homogeneous_isotropic")
        samples = mb.make_samples(12, 5)
        matbody.cli.fiber(body, np.zeros(3), samples)
        metrics = tracing.layer_metrics(*tracer.drain())
    finally:
        hooks.uninstall()
    assert hooks.missing == []
    assert mb.algebroid.fiber is original and matbody.cli.fiber is original
    assert np.linalg.svd is svd
    # 24 central-difference evaluations per sample gradient, 16 gradients.
    assert metrics["bodies.evaluations"] == 24 * samples.count
    assert metrics["algebroid.fiber_calls"] == 1
    assert metrics["algebroid.svd_calls"] == 1


def test_missing_hook_target_is_listed_not_raised():
    hooks = tracing.Hooks(tracing.Tracer(), hooks=(
        ("matbody.bodies", "no_such_function", "bodies.gone", "span"),
        ("matbody.no_such_module", "f", "x.gone", "span"),
        ("matbody.grid", "NoSuchClass.__call__", "grid.gone", "span"),
    )).install()
    hooks.uninstall()
    assert hooks.missing == ["matbody.bodies.no_such_function", "matbody.no_such_module.f",
                             "matbody.grid.NoSuchClass.__call__"]


def test_parse_importtime_reads_cumulative_microseconds():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       120 |        350 |   matbody.grid",
        "import time:        40 |       1500 | matbody",
        "import time:        10 |         10 |   numpy.other",
    ])
    assert tracing.parse_importtime(stderr) == {"grid.import_s": 350e-6,
                                                "matbody.import_s": 1500e-6}


def test_isotropic_polynomial_matches_the_builtin_response():
    terms = workloads.isotropic_polynomial_terms()
    assert len(terms) == 46
    poly = mb.polynomial_body(terms)
    iso = mb.builtin_body("homogeneous_isotropic")
    rng = np.random.default_rng(0)
    for _ in range(5):
        F = np.eye(3) + rng.uniform(-0.5, 0.5, (3, 3))
        x = rng.uniform(-0.9, 0.9, 3)
        assert mb.evaluate(poly, F, x) == pytest.approx(mb.evaluate(iso, F, x), rel=1e-12)


FIXED_SPEED = speed.Speed(read=lambda: 1.0, reference=1.0)


def test_speed_scales_by_the_mean_reading_over_an_interval():
    readings = iter([2.0, 4.0, 1.0, 6.0])
    s = speed.Speed(read=lambda: next(readings), reference=3.0)
    token = s.start()                  # reading 2.0
    s.read()                           # reading 4.0, as the alarm handler takes it
    measured, reference = s.stop(token)  # closing reading 1.0
    assert reference == pytest.approx(measured * (3.0 / 2.0 + 3.0 / 4.0 + 3.0 / 1.0) / 3.0)
    assert s.readings == [2.0, 4.0, 1.0]


def _small_analysis(name, expected):
    config = {"body": "homogeneous_isotropic", "grid": {"resolution": [3, 3, 3], "margin": 0.1},
              "samples": {"count": 12, "seed": 7}}
    return workloads.analysis_op(mb, name, config, expected)


def test_wrong_expected_verdict_raises_fail_ratio():
    right = workloads.EXPECTED["homogeneous_isotropic"]
    wrong = workloads.Expected("uniform", "obstructed", (6,), {6: 3}, False)
    workload = workloads.Workload("test", _small_analysis("right", right),
                                  [_small_analysis("wrong", wrong)], [])
    result = run.measure(workload, seconds=0.0, trace=False, speed=FIXED_SPEED)
    assert result["attempted"] == 2
    assert result["failed"] == 1
    assert "homogeneity" in result["problems"][0]
    metrics = run.end_to_end(result, setup_s=1.0)
    assert metrics["ok_ratio"] == 0.5


def test_exception_in_an_operation_counts_as_failed():
    def boom():
        raise mb.NotFlat("synthetic")

    op = workloads.Op("boom", boom, lambda result: workloads.Outcome())
    measured, reference, outcome = workloads.timed(op, FIXED_SPEED)
    assert reference == pytest.approx(measured)
    assert outcome.problems == ["NotFlat: synthetic"]


def test_membership_jets_have_their_constructed_answers():
    rng = np.random.default_rng(3)
    samples = mb.make_samples(12, 3)
    jets = workloads.jet_inputs(rng, per_body=4)
    op = workloads.membership_op(mb, "jets", samples, jets)
    _, _, outcome = workloads.timed(op, FIXED_SPEED)
    assert outcome.problems == []
    assert outcome.units == {"jets": 16}


def test_traced_report_is_byte_identical_to_untraced():
    expected = workloads.EXPECTED["homogeneous_isotropic"]
    op = _small_analysis("iso", expected)
    workload = workloads.Workload("test", op, [op], [])
    result = run.measure(workload, seconds=0.0, trace=True, speed=FIXED_SPEED)
    assert result["failed"] == 0 and result["attempted"] == 3
    layers = run.per_layer(result, {})
    # 27 fibre points x 24 stencil evaluations x 16 gradients, plus the
    # cross-check's membership tolerance (16) and membership defect (2 x 16).
    assert layers["bodies.evaluations"] == 27 * 24 * 16 + 3 * 16
    assert layers["analysis.report_bytes"] > 0
    assert set(layers) == {name for name, _unit in tracing.LAYER_METRICS}
