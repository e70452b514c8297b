"""Pipeline configuration, report serialization, determinism, and the CLI."""

import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matbody import (
    AnalysisConfig,
    ConfigError,
    MatbodyError,
    NonFiniteResponse,
    SectionField,
    emit_report,
    exp_trajectory,
    minimal_lift_section,
    parse_report,
    run_analysis,
    uniformity_verdict,
)
from matbody.analysis import (_SETTINGS, _exponential_cross_check, _native, canonical_json,
                              fiber_stage, resolve_body)
from matbody.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from oracles import isotropic_polynomial_terms, item_native, json_dumps_document

FAST = dict(resolution=(3, 3, 3), sample_count=16, seed=41)


# ---------------------------------------------------------------------------
# config parsing and validation
# ---------------------------------------------------------------------------

def test_config_defaults_round_trip():
    cfg = AnalysisConfig.from_dict({})
    assert cfg.body_kind == "homogeneous_isotropic"
    assert cfg.resolution == (5, 5, 5)
    assert cfg.sample_count == 24
    echo = cfg.echo()
    for key in ("rank_tol", "v_tol", "flat_tol", "fd_step", "membership_tol"):
        assert key in echo["tolerances"]
    assert "point_tol" in echo["constants"] and "det_tol" in echo["constants"]


def test_readme_config_section_matches_schema():
    """The README's config example parses to the defaults and its key table,
    with ``flags.*`` expanded to the example's flags, lists exactly the schema keys."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Config file (JSON)\n", 1)[1].split("\n## ", 1)[0]
    example = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    assert AnalysisConfig.from_dict(example) == AnalysisConfig()
    keys = re.findall(r"^\| `([^`]+)` \|", section, flags=re.MULTILINE)
    keys.remove("flags.*")
    keys += [f"flags.{k}" for k in example["flags"]]
    assert sorted(keys) == sorted(f.metadata["path"] for f in _SETTINGS)


@pytest.mark.parametrize("raw", [
    {"grid": {"resolution": [2, 5, 5]}},
    {"samples": {"count": 8}},
    {"tolerances": {"rank_tol": 0.0}},
    {"tolerances": {"fd_step": 0.2}},          # margin must exceed fd_step
    {"body": {"builtin": "no_such"}},
    {"body": 17},
    {"mystery": {}},
    {"grid": {"resolutoin": [5, 5, 5]}},       # typo must be rejected
    # tolerances that would silently flip a verdict
    {"body": "nonuniform", "tolerances": {"rank_tol": math.inf}},
    {"body": "nonuniform", "tolerances": {"rank_tol": 2.0}},
    {"body": "uniform_fgm", "tolerances": {"flat_tol": math.inf}},
    {"tolerances": {"v_tol": math.inf}},
    {"tolerances": {"v_tol": 1.0}},
    # values that used to end in a traceback
    {"grid": {"margin": math.nan}},
    {"samples": {"seed": -1}},
    {"body": {"polynomial": {"terms": [[[2] + [0] * 11, 1.0]],
                             "lo": [-1, -1], "hi": [1, 1]}}},
    {"body": {"polynomial": {"terms": [[[2] + [0] * 11, 1.0]],
                             "lo": [1, 1, 1], "hi": [-1, -1, -1]}}},
    # silent coercions
    {"grid": {"resolution": [3.7, 3, 3]}},
    {"flags": {"emit_chart": "no"}},
    # numbers too large for a float or a C integer
    {"body": {"polynomial": {"terms": [[[2] + [0] * 11, 10**400]]}}},
    {"body": {"polynomial": {"terms": [[[10**400] + [0] * 11, 1.0]]}}},
    # non-finite coefficients, which used to surface as a non-finite response
    {"body": {"polynomial": {"terms": [[[2] + [0] * 11, math.nan]]}}},
    {"body": {"polynomial": {"terms": [[[2] + [0] * 11, 1e400]]}}},
    # polynomial keys the body never reads, which the config echo would copy
    {"body": {"polynomial": {"terms": [[[2] + [0] * 11, 1.0]], "nmae": "iso"}}},
    {"body": {"polynomial": {"terms": [[[2] + [0] * 11, 1.0]], "note": math.nan}}},
    {"body": {"polynomial": {"terms": [[[2] + [0] * 11, 1.0]], "name": 3}}},
])
def test_config_rejects_bad_input(raw):
    with pytest.raises(ConfigError):
        cfg = AnalysisConfig.from_dict(raw)
        run_analysis(cfg)


@pytest.mark.parametrize("key, floor, flipped_at", [
    ("fd_step", 1e-7, 3e-8),        # nonuniform read uniform
    ("rank_tol", 1e-10, 3e-12),     # uniform_fgm read not_uniform
    ("v_tol", 1e-10, 1e-11),        # nonuniform read uniform
])
def test_tolerance_floors(key, floor, flipped_at):
    """A tolerance below its floor is refused; the floor itself is accepted."""
    assert getattr(AnalysisConfig.from_dict({"tolerances": {key: floor}}), key) == floor
    for value in (flipped_at, floor * (1 - 1e-12)):
        with pytest.raises(ConfigError, match=f"tolerances.{key} must be"):
            AnalysisConfig.from_dict({"tolerances": {key: value}})


def test_cross_check_leaving_grid_hull_is_null():
    # margin 0.9 leaves a hull 0.2 wide; the t = 0.1 cross-check flow exits it
    r = run_analysis(AnalysisConfig.from_dict(
        {"grid": {"resolution": [3, 3, 3], "margin": 0.9},
         "flags": {"emit_trajectories": True}}))
    assert (r.uniformity, r.homogeneity) == ("uniform", "homogeneous_evidence")
    assert r.exp_membership_defect is None and r.trajectory is None
    doc = parse_report(emit_report(r, "structured"))
    assert doc["diagnostics"]["exp_membership_defect"] is None


def test_polynomial_body_config_runs():
    # x-independent anisotropic quadratic: (F12)^2 + 2 (F11 - ... ) keep simple
    e = [0] * 12; e[1] = 2
    cfg = AnalysisConfig.from_dict({
        "body": {"polynomial": {"terms": [[e, 1.0]], "name": "f12sq"}},
        "grid": {"resolution": [3, 3, 3]},
        "samples": {"count": 12, "seed": 3},
    })
    report = run_analysis(cfg)
    assert report.body_name == "f12sq"
    assert report.uniformity == "uniform"      # no x dependence anywhere


# ---------------------------------------------------------------------------
# verdict table and report content
# ---------------------------------------------------------------------------

def test_verdict_table_fast():
    expected = {
        "homogeneous_isotropic": ("uniform", "homogeneous_evidence"),
        "uniform_fgm": ("uniform", "obstructed"),
        "nonuniform": ("not_uniform", "n/a"),
    }
    for kind, (uni, hom) in expected.items():
        r = run_analysis(AnalysisConfig(body_kind=kind, **FAST))
        assert (r.uniformity, r.homogeneity) == (uni, hom), kind


def test_report_structure_and_round_trip():
    r = run_analysis(AnalysisConfig(body_kind="uniform_fgm", **FAST))
    blob = emit_report(r, "structured")
    doc = parse_report(blob)
    assert doc == _native(r.to_canonical_dict())
    assert doc["uniformity"]["verdict"] == "uniform"
    assert doc["homogeneity"]["verdict"] == "obstructed"
    assert len(doc["points"]) == 27
    rec = doc["points"][0]
    for key in ("index", "x", "fiber_dim", "isotropy_dim", "anchor_rank", "sv_gap"):
        assert key in rec
    assert doc["diagnostics"]["membership_tol"] > 0
    assert doc["diagnostics"]["exp_membership_defect"] is not None
    # timings never enter the canonical payload
    assert "timings" not in doc
    assert r.timings


def test_analysis_decides_uniformity_and_converts_report_once(monkeypatch):
    """One anchor_rank call per grid point and one _native walk per analyze."""
    import matbody.algebroid as algebroid
    import matbody.analysis as analysis

    anchor_rank, native = algebroid.anchor_rank, analysis._native
    ranks, walks, depth = [], [], [0]

    def counting_rank(*args):
        ranks.append(1)
        return anchor_rank(*args)

    def counting_native(obj):
        walks.append(depth[0] == 0)
        depth[0] += 1
        try:
            return native(obj)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(algebroid, "anchor_rank", counting_rank)
    monkeypatch.setattr(analysis, "_native", counting_native)
    cfg = AnalysisConfig(body_kind="uniform_fgm_integrable", emit_chart=True,
                         emit_singular_values=True, emit_trajectories=True, **FAST)
    doc = parse_report(emit_report(run_analysis(cfg), "structured"))
    assert doc["homogeneity"]["verdict"] == "homogeneous_evidence" and doc["chart"]
    assert len(ranks) == 27
    assert sum(walks) == 1


def test_singular_values_flag():
    cfg = AnalysisConfig(body_kind="homogeneous_isotropic",
                         emit_singular_values=True, **FAST)
    doc = parse_report(emit_report(run_analysis(cfg), "structured"))
    assert len(doc["points"][0]["singular_values"]) == 12


def test_determinism_byte_identical():
    cfg1 = AnalysisConfig(body_kind="uniform_fgm", **FAST)
    cfg2 = AnalysisConfig(body_kind="uniform_fgm", **FAST)
    b1 = emit_report(run_analysis(cfg1), "structured")
    b2 = emit_report(run_analysis(cfg2), "structured")
    assert b1 == b2


def test_text_report_lists_offenders_sorted():
    r = run_analysis(AnalysisConfig(body_kind="nonuniform", **FAST))
    text = emit_report(r, "text").decode()
    assert "not_uniform" in text
    lines = [ln for ln in text.splitlines() if ln.strip().startswith("index")]
    indices = [json.loads(ln.split("index", 1)[1].split("x =")[0]) for ln in lines]
    assert indices == sorted(indices)
    assert len(indices) == len(r.offending_points)


def test_chart_in_report():
    cfg = AnalysisConfig(body_kind="uniform_fgm_integrable", emit_chart=True, **FAST)
    r = run_analysis(cfg)
    assert r.homogeneity == "homogeneous_evidence"
    assert r.chart is not None
    assert r.chart["gamma_prime_interior_max"] <= 1e-3
    doc = parse_report(emit_report(r, "structured"))
    assert doc["chart"]["gamma_prime_interior_max"] <= 1e-3


def test_trajectory_flag():
    cfg = AnalysisConfig(body_kind="homogeneous_isotropic",
                         emit_trajectories=True, **FAST)
    r = run_analysis(cfg)
    assert r.trajectory is not None and len(r.trajectory) > 10
    assert set(r.trajectory[0]) == {"t", "y", "F"}


# ---------------------------------------------------------------------------
# canonical writer and JSON-native conversion
# ---------------------------------------------------------------------------

class _Float(float):
    def __repr__(self):
        return "not a JSON number"


class _Int(int):
    def __repr__(self):
        return "not a JSON number"


_EDGE_FLOATS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e16, 9999999999999998.0,
                1e-7, 1e-4, 0.1, 1e308, -1e308, 1.7976931348623157e308]
_floats = st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS + [math.nan, math.inf, -math.inf]))
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(10**30, 10**40).map(lambda n: -n),
    st.integers(10**30, 10**40), _floats, st.text(),
    st.sampled_from(["", "\x00\x1f\x7f", "é ñ ∂Γ", "\U0001f600", '"\\/\b\n\t', "\ud800"]))
_leaves = st.one_of(
    _scalars,
    st.lists(_floats, max_size=8),                               # float-list fast path
    st.lists(st.sampled_from([1e308, 1.5e308, -1e308]), min_size=2, max_size=4),  # sum overflows
    st.lists(st.one_of(st.integers(), st.integers(10**30, 10**40)), max_size=8),
    st.lists(st.sampled_from([True, False, 1, 0, 1.0, 0.0]), max_size=6),
)
_documents = st.recursive(
    _leaves,
    lambda kids: st.one_of(st.lists(kids, max_size=5), st.tuples(kids, kids),
                           st.dictionaries(st.text(max_size=6), kids, max_size=5)),
    max_leaves=40)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_documents)
@example({})
@example([[], {}, (), [[]], {"": {}}])
@example([1e308, 1e308])
@example([1e16, 1e-7, -0.0, 5e-324, math.nan, math.inf, -math.inf])
@example([True, 1, 1.0, False, 0, 0.0, None])
@example({"b": (10**31, -(10**35)), "a": "é\x00", "é": [_Float(0.5), _Int(7)]})
@example([_Float(1.5), _Float(2.5)])
def test_canonical_json_is_the_json_dumps_layout(doc):
    assert canonical_json(doc) == json_dumps_document(doc)


def test_canonical_json_refuses_what_json_refuses():
    """Values outside the JSON-native types raise TypeError, as json.dumps does."""
    for doc in ({"x": object()}, [1.0, {1, 2}], {"x": b"raw"}, [np.int64(3)]):
        for write in (canonical_json, json_dumps_document):
            with pytest.raises(TypeError):
                write(doc)


@pytest.mark.parametrize("body", ["homogeneous_isotropic", "uniform_fgm", "uniform_fgm_integrable",
                                  "nonuniform", "polynomial"])
def test_reports_are_the_json_dumps_layout(body):
    flags = {"emit_chart": True, "emit_singular_values": True, "emit_trajectories": True}
    raw = {"grid": {"resolution": [3, 3, 3]}, "flags": flags,
           "body": ({"polynomial": {"terms": isotropic_polynomial_terms(), "name": "iso_poly"}}
                    if body == "polynomial" else body)}
    doc = run_analysis(AnalysisConfig.from_dict(raw)).to_canonical_dict()
    assert canonical_json(doc) == json_dumps_document(doc)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([np.float64, np.float32]),
       st.sampled_from([(7,), (4, 3), (2, 3, 3), ()]),
       st.data())
def test_native_maps_exactly_the_non_finite_entries_to_none(dtype, shape, data):
    n = int(np.prod(shape))
    values = np.array(data.draw(st.lists(st.floats(-1e30, 1e30), min_size=n, max_size=n)))
    bad = data.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=n, unique=True)) if n else []
    for i in bad:
        values[i] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    a = values.astype(dtype).reshape(shape)
    got = _native(a)
    assert repr(got) == repr(item_native(a))
    flat = np.ravel(np.array(got, dtype=object))
    assert [i for i, v in enumerate(flat) if v is None] == sorted(bad)
    # the same values as nested lists of Python floats take the list path
    assert repr(_native(a.tolist())) == repr(got)


@pytest.mark.parametrize("obj", [
    np.arange(6).reshape(2, 3), np.arange(4, dtype=np.int32), [[1, 2], [3, 10**40]], (1, 2),
    [[1.5, -0.0], [2.5, 1e308]], [1e308, 1e308], [True, 1, 1.0], [], [[]], np.zeros((0, 3)),
    {"a": [np.float64(0.5), np.int64(3)], "b": (np.nan, 1.0)}, [np.float32(0.1), 0.1],
])
def test_native_converts_ints_and_nested_lists_as_each_item_would(obj):
    assert repr(_native(obj)) == repr(item_native(obj))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def write_config(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def test_cli_bodies(capsys):
    assert main(["bodies"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "homogeneous_isotropic" in out and "uniform_fgm" in out


def test_cli_analyze_structured(tmp_path):
    cfg = write_config(tmp_path, {
        "body": "nonuniform",
        "grid": {"resolution": [3, 3, 3]},
        "samples": {"count": 12, "seed": 9},
    })
    out = tmp_path / "report.json"
    assert main(["analyze", "--config", cfg, "--format", "structured",
                 "--out", str(out)]) == EXIT_OK
    doc = parse_report(out.read_bytes())
    assert doc["uniformity"]["verdict"] == "not_uniform"
    assert doc["homogeneity"]["verdict"] == "n/a"


def test_cli_analyze_text_stdout(tmp_path, capsys):
    cfg = write_config(tmp_path, {"grid": {"resolution": [3, 3, 3]},
                                  "samples": {"count": 12, "seed": 2}})
    assert main(["analyze", "--config", cfg]) == EXIT_OK
    out = capsys.readouterr().out
    assert "homogeneous_evidence" in out
    assert "timings" in out


def test_cli_config_errors(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["analyze", "--config", missing]) == EXIT_CONFIG
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert main(["analyze", "--config", str(bad_json)]) == EXIT_CONFIG
    bad_utf8 = tmp_path / "bad_utf8.json"
    bad_utf8.write_bytes(b"\xff{}")
    assert main(["analyze", "--config", str(bad_utf8)]) == EXIT_CONFIG
    bad_body = write_config(tmp_path, {"body": "unknown_body"})
    assert main(["analyze", "--config", bad_body]) == EXIT_CONFIG
    flow_cfg = write_config(tmp_path, {"body": "uniform_fgm", "grid": {"resolution": [3, 3, 3]}})
    for options in (["--x", "a,b,c"], ["--x", "0,0,nan"], ["--x", "0,0,0", "--step", "abc"],
                    ["--x", "0,0,0", "--step", "0"], ["--x", "0,0,0", "--step", "0.05"],
                    ["--x", "0,0,0", "--direction", "0,0,0"]):
        assert main(["flow", "--config", flow_cfg, "--t", "0.05", *options]) == EXIT_CONFIG


@pytest.mark.parametrize("coeff", ["NaN", "1e400", "-Infinity"])
def test_cli_refuses_non_finite_polynomial_coefficient(tmp_path, capsys, coeff):
    """A config error, exit 2 naming the term, not a numerical failure (exit 3)."""
    doc = {"body": {"polynomial": {"terms": [[[2] + [0] * 11, 1.0], [[0] * 12, "COEFF"]]}},
           "grid": {"resolution": [3, 3, 3]}}
    cfg = tmp_path / "poly.json"
    cfg.write_text(json.dumps(doc).replace('"COEFF"', coeff))   # the literal JSON text
    assert main(["analyze", "--config", str(cfg)]) == EXIT_CONFIG
    assert "polynomial term 1 has a non-finite coefficient" in capsys.readouterr().err


@pytest.mark.parametrize("command, options", [
    ("analyze", ["--format", "structured"]),
    ("flow", ["--t", "0.05", "--x", "0,0,0"]),
])
def test_cli_write_errors_are_config_errors(tmp_path, capsys, command, options):
    cfg = write_config(tmp_path, {"body": "uniform_fgm", "grid": {"resolution": [3, 3, 3]},
                                  "samples": {"count": 12, "seed": 5}})
    for out in (tmp_path / "missing" / "r.json", tmp_path):
        assert main([command, "--config", cfg, *options, "--out", str(out)]) == EXIT_CONFIG
        assert "config error: cannot write" in capsys.readouterr().err


@pytest.mark.parametrize("data", [b"[]", b"{not json", b"\xff", b'{"schema": "other"}'])
def test_parse_report_refuses_other_documents(data):
    with pytest.raises(ConfigError, match="not a matbody.report.v1 document"):
        parse_report(data)


def test_cli_flow(tmp_path):
    cfg = write_config(tmp_path, {
        "body": "uniform_fgm",
        "grid": {"resolution": [3, 3, 3]},
        "samples": {"count": 12, "seed": 5},
    })
    out = tmp_path / "traj.json"
    rc = main(["flow", "--config", cfg, "--t", "0.05", "--x", "0,0,0",
               "--direction", "1,0,0", "--out", str(out)])
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["schema"] == "matbody.trajectory.v1"
    assert len(doc["records"]) == 51          # ceil(0.05/1e-3) steps + initial
    last = doc["records"][-1]
    assert last["t"] == pytest.approx(0.05)
    assert np.allclose(last["y"], [0.05, 0, 0], atol=1e-9)


def test_cli_documents_are_the_json_dumps_layout(tmp_path):
    cfg = write_config(tmp_path, {"body": "uniform_fgm", "grid": {"resolution": [3, 3, 3]}})
    outs = []
    for t in ("0.05", "0.5"):
        outs.append(tmp_path / f"flow_{t}.json")
        assert main(["flow", "--config", cfg, "--t", t, "--x", "0.1,0.2,-0.1",
                     "--direction", "1,0.5,0", "--out", str(outs[-1])]) == EXIT_OK
    outs.append(tmp_path / "report.json")
    assert main(["analyze", "--config", cfg, "--format", "structured",
                 "--out", str(outs[-1])]) == EXIT_OK
    for out in outs:
        data = out.read_bytes()
        assert data == json_dumps_document(json.loads(data)), out.name


def test_cli_analyze_numerical_failure(tmp_path, capsys):
    # a response that overflows to inf is a numerical failure, not a traceback
    cfg = write_config(tmp_path, {
        "body": {"polynomial": {"terms": [[[0] * 12, 1e308], [[2] + [0] * 11, 1e308]]}},
        "grid": {"resolution": [3, 3, 3]},
    })
    assert main(["analyze", "--config", cfg]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "at grid point [-0.9, -0.9, -0.9]: response of 'polynomial' is non-finite" in err


def test_cli_cross_check_overflow_is_quiet(tmp_path):
    """An exponential cross-check whose RK4 state overflows reads null, silently."""
    # v_tol at the smallest subnormal counts nonuniform's rank-2 anchor as rank 3,
    # so the lift divides by singular values of 1e-13..1e-10 and the flow overflows.
    # The CLI refuses a v_tol below its floor, so the library path is checked.
    doc = {"body": "nonuniform", "grid": {"resolution": [3, 3, 3]}, "samples": {"count": 12},
           "tolerances": {"v_tol": 5e-324}}
    assert main(["analyze", "--config", write_config(tmp_path, doc)]) == EXIT_CONFIG
    cfg = AnalysisConfig(body_kind="nonuniform", resolution=(3, 3, 3), sample_count=12)
    body = resolve_body(cfg)
    grid, samples, fibers = fiber_stage(body, cfg)
    assert uniformity_verdict(fibers, 5e-324).uniform
    section = minimal_lift_section(grid, fibers, v_tol=5e-324)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        center = grid.points[grid.n_points // 2]
        assert _exponential_cross_check(body, section, samples, center,
                                        keep_records=True) == (None, None)
        # the flow command's trajectory refuses the same non-finite flow: exit 3
        with pytest.raises(MatbodyError):
            exp_trajectory(section.flow_field([1.0, 0.0, 0.0]), 0.1, np.zeros(3))


_TOLERANCE_RANGES = {
    "rank_tol": st.floats(1e-10, 0.5),
    "v_tol": st.floats(1e-10, 0.5),
    "flat_tol": st.floats(1e-12, 1e3),
    "fd_step": st.floats(1e-7, 0.05),
}
_OUT_OF_RANGE = [(name, value) for name in _TOLERANCE_RANGES
                 for value in [math.inf, -math.inf, math.nan, 0.0, -1e-3]
                 + ([1.0, 2.0, 1e-11] if name in ("rank_tol", "v_tol") else [])
                 + ([1e-8] if name == "fd_step" else [])]


@st.composite
def config_documents(draw):
    """3^3 config documents; about eight in nine carry one out-of-range tolerance."""
    tolerances = {name: draw(good) for name, good in _TOLERANCE_RANGES.items()
                  if draw(st.booleans())}
    bad = draw(st.sampled_from(_OUT_OF_RANGE + [None] * 4))
    if bad is not None:
        tolerances[bad[0]] = bad[1]
    doc = {
        "body": draw(st.sampled_from(["homogeneous_isotropic", "uniform_fgm",
                                      "uniform_fgm_integrable", "nonuniform"])),
        "grid": {"resolution": [3, 3, 3], "margin": draw(st.floats(0.06, 0.95))},
        "samples": {"count": 12, "seed": draw(st.integers(0, 2**32))},
        "tolerances": tolerances,
        "flags": {"emit_chart": draw(st.booleans())},
    }
    return doc, bad is not None


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(config_documents())
def test_cli_analyze_exit_contract(tmp_path_factory, case):
    doc, bad = case
    tmp = tmp_path_factory.mktemp("contract")
    cfg = write_config(tmp, doc)
    rc = main(["analyze", "--config", cfg, "--format", "structured",
               "--out", str(tmp / "report.json")])
    assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL)
    if bad:
        assert rc == EXIT_CONFIG


def test_cli_flow_numerical_failure(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "body": "uniform_fgm",
        "grid": {"resolution": [3, 3, 3]},
        "samples": {"count": 12, "seed": 5},
    })
    # start outside the grid hull: LeftDomain; |t| / step overflows, or exceeds
    # MAX_FLOW_STEPS while a sub-ulp direction keeps y inside: NonFiniteResponse
    for t, x, u in (("0.5", "0.95,0,0", "1,0,0"), ("1e308", "0,0,0", "1,0,0"),
                    ("1e20", "0,0,0", "1e-300,0,0")):
        rc = main(["flow", "--config", cfg, "--t", t, "--x", x, "--direction", u])
        assert rc == EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith("numerical failure:")
    still = SectionField.constant(np.zeros(3), np.zeros((3, 3)), -np.ones(3), np.ones(3))
    for t in (1e308, 1e20, -math.inf):
        with pytest.raises(NonFiniteResponse):
            exp_trajectory(still, t, np.zeros(3))
