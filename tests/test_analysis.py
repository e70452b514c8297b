"""Pipeline configuration, report serialization, determinism, and the CLI."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matbody import (
    AnalysisConfig,
    ConfigError,
    emit_report,
    parse_report,
    run_analysis,
)
from matbody.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main

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
])
def test_config_rejects_bad_input(raw):
    with pytest.raises(ConfigError):
        cfg = AnalysisConfig.from_dict(raw)
        run_analysis(cfg)


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
    from matbody.analysis import _native
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
    bad_body = write_config(tmp_path, {"body": "unknown_body"})
    assert main(["analyze", "--config", bad_body]) == EXIT_CONFIG
    flow_cfg = write_config(tmp_path, {"body": "uniform_fgm", "grid": {"resolution": [3, 3, 3]}})
    for options in (["--x", "a,b,c"], ["--x", "0,0,nan"], ["--x", "0,0,0", "--step", "abc"],
                    ["--x", "0,0,0", "--step", "0"], ["--x", "0,0,0", "--step", "0.05"],
                    ["--x", "0,0,0", "--direction", "0,0,0"]):
        assert main(["flow", "--config", flow_cfg, "--t", "0.05", *options]) == EXIT_CONFIG


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


def test_cli_analyze_numerical_failure(tmp_path, capsys):
    # a response that overflows to inf is a numerical failure, not a traceback
    cfg = write_config(tmp_path, {
        "body": {"polynomial": {"terms": [[[0] * 12, 1e308], [[2] + [0] * 11, 1e308]]}},
        "grid": {"resolution": [3, 3, 3]},
    })
    assert main(["analyze", "--config", cfg]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "at grid point [-0.9, -0.9, -0.9]: response of 'polynomial' is non-finite" in err


_TOLERANCE_RANGES = {
    "rank_tol": st.floats(1e-12, 0.5),
    "v_tol": st.floats(1e-12, 0.5),
    "flat_tol": st.floats(1e-12, 1e3),
    "fd_step": st.floats(1e-9, 0.05),
}
_OUT_OF_RANGE = [(name, value) for name in _TOLERANCE_RANGES
                 for value in [math.inf, -math.inf, math.nan, 0.0, -1e-3]
                 + ([1.0, 2.0] if name in ("rank_tol", "v_tol") else [])]


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


def test_cli_flow_numerical_failure(tmp_path):
    cfg = write_config(tmp_path, {
        "body": "uniform_fgm",
        "grid": {"resolution": [3, 3, 3]},
        "samples": {"count": 12, "seed": 5},
    })
    # start outside the grid hull: LeftDomain -> exit 3
    rc = main(["flow", "--config", cfg, "--t", "0.5", "--x", "0.95,0,0"])
    assert rc == EXIT_NUMERICAL
