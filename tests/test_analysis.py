"""Pipeline configuration, report serialization, determinism, and the CLI."""

import ast
import inspect
import io
import json
import math
import re
import sys
import tokenize
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matbody import (
    AnalysisConfig,
    AnalysisReport,
    ConfigError,
    MatbodyError,
    NonFiniteResponse,
    SectionField,
    SingularMatrix,
    anchor_rank,
    constraint_rows,
    curvature_torsion,
    emit_report,
    exp_trajectory,
    fiber,
    fibers_at,
    homogeneity_verdict,
    isotropy_algebra,
    minimal_lift_section,
    parse_report,
    run_analysis,
    uniformity_verdict,
)
from matbody.analysis import (CONSTANTS, _SETTINGS, _exponential_cross_check, canonical_json,
                              fiber_stage)
from matbody.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from oracles import WIDE_GAP_TERMS, isotropic_polynomial_terms, json_dumps_document, opaque

FAST = dict(resolution=(3, 3, 3), sample_count=16, seed=41)


# ---------------------------------------------------------------------------
# config parsing and validation
# ---------------------------------------------------------------------------

def test_config_defaults_round_trip():
    cfg = AnalysisConfig.from_dict({})
    assert cfg.body == "homogeneous_isotropic"
    assert cfg.resolution == (5, 5, 5)
    assert cfg.sample_count == 24
    echo = cfg.echo()
    assert "tolerances" not in echo
    tolerances = {"rank_tol": 1e-6, "v_tol": 1e-8, "flat_tol": 1e-4, "fd_step": 1e-5}
    assert {k: echo["constants"][k] for k in tolerances} == tolerances
    assert {k: getattr(cfg, k) for k in tolerances} == tolerances
    assert "point_tol" in echo["constants"] and "det_tol" in echo["constants"]
    poly = {"polynomial": {"terms": [[[2] + [0] * 11, 1.0]], "name": "f11sq"}}
    for other in (cfg, AnalysisConfig(body={"builtin": "nonuniform"}, resolution=(3, 4, 5),
                                      margin=0.2, sample_count=12, seed=3, emit_chart=True,
                                      emit_singular_values=True, emit_trajectories=True),
                  AnalysisConfig(body=poly, resolution=(3, 3, 3))):
        assert AnalysisConfig.from_dict(other.echo()) == other


def test_library_tolerance_defaults_are_the_constants():
    """Every library tolerance parameter defaults to the value a config runs at."""
    for fn in (fibers_at, fiber, constraint_rows, anchor_rank, isotropy_algebra,
               uniformity_verdict, minimal_lift_section, curvature_torsion):
        params = inspect.signature(fn).parameters
        tolerances = [name for name in params if name in CONSTANTS]
        assert tolerances, fn.__name__
        for name in tolerances:
            assert params[name].default == CONSTANTS[name] == getattr(AnalysisConfig, name)


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


def test_readme_quick_tour_runs_as_commented():
    """The README's library quick tour runs, and each expression line whose comment
    starts with a Python literal (before any '; ') evaluates to that literal."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library quick tour\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    comments = {tok.start[0]: tok.string[1:].strip().split("; ", 1)[0]
                for tok in tokenize.generate_tokens(io.StringIO(code).readline)
                if tok.type == tokenize.COMMENT}
    scope, checked = {}, 0
    for stmt in ast.parse(code).body:
        comment = comments.get(stmt.end_lineno, "")
        if isinstance(stmt, ast.Expr) and re.match(r"[-\d'\"(\[{]|True\b|False\b", comment):
            got = eval(compile(ast.Expression(stmt.value), "README", "eval"), scope)
            assert got == ast.literal_eval(comment), ast.unparse(stmt)
            checked += 1
        else:
            exec(compile(ast.Module(body=[stmt], type_ignores=[]), "README", "exec"), scope)
    assert checked >= 6


@pytest.mark.parametrize("raw", [
    {"grid": {"resolution": [2, 5, 5]}},
    {"samples": {"count": 8}},
    {"tolerances": {"rank_tol": 1e-6}},        # no section sets a tolerance, not even its value
    {"grid": {"margin": 1e-5}},                # margin must exceed fd_step
    {"body": {"builtin": "no_such"}},
    {"body": 17},
    {"mystery": {}},
    {"grid": {"resolutoin": [5, 5, 5]}},       # typo must be rejected
    # documents and sections that are not objects, and a resolution that is not 3 integers
    [],
    {"grid": [5, 5, 5]},
    {"grid": {"resolution": [5, 5]}},
    # the tolerances are constants: a tolerances section, even an empty one, and constants
    # other than the package's (a parent's echo without the tolerances, a moved one) exit 2
    {"tolerances": {}},
    {"body": "uniform_fgm_integrable", "tolerances": {"fd_step": 1e-3, "flat_tol": 1e-6}},
    {"constants": {"point_tol": 1e-9, "det_tol": 1e-12, "rank_gap_floor": 10.0}},
    {"constants": dict(CONSTANTS, flat_tol=1e-6)},
    {"grid": {"margin": math.inf}},
    {"grid": {"margin": 5e-6}},
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
    {"body": {"polynomial": {"terms": [[[2.9] + [0] * 11, 1.0]]}}},
    {"body": {"polynomial": {"terms": [[[2] + [0] * 11, "2"]]}}},
    {"body": {"polynomial": {"terms": [[[2] + [0] * 11, True]]}}},
    {"body": {"polynomial": {"terms": [[[2] + [0] * 11, 1.0]], "lo": ["-1", "-1", "-1"]}}},
    {"body": {"polynomial": {"terms": [[[2] + [0] * 11, 1.0]], "lo": [False, -1, -1]}}},
    {"body": {"polynomial": {"terms": [[[2] + [0] * 11, 1.0]], "hi": [1, 1, "1"]}}},
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
    # body objects hold exactly one key, builtin or polynomial
    {"body": {"builtin": "uniform_fgm", "typo": 1}},
    {"body": {"builtin": "uniform_fgm", "polynomial": {"terms": [[[2] + [0] * 11, 1.0]]}}},
    {"body": {"polynomial": {"terms": [[[2] + [0] * 11, 1.0]]}, "extra": 3}},
    # a built-in name is a string, and a polynomial object holds its terms
    {"body": {"builtin": 17}},
    {"body": {"builtin": {"polynomial": {"terms": [[[2] + [0] * 11, 1.0]]}}}},
    {"body": {"polynomial": [[[2] + [0] * 11, 1.0]]}},
    {"body": {"polynomial": {"lo": [-1, -1, -1]}}},
    # a key that decided nothing and is gone
    {"tolerances": {"membership_tol": 1e-6}},
    # a box whose extent overflows, which used to build a NaN lattice
    {"body": {"polynomial": {"terms": [[[2] + [0] * 11, 1.0]],
                             "lo": [-1e308] * 3, "hi": [1e308] * 3}},
     "grid": {"resolution": [3, 3, 3]}},
])
def test_config_rejects_bad_input(raw):
    """Every malformed config is refused when it is read, before any work is done."""
    with pytest.raises(ConfigError):
        AnalysisConfig.from_dict(raw)


def test_builtin_body_object_is_its_name():
    """{"builtin": name} is read as name by the constructor and from_dict alike."""
    cfg = AnalysisConfig(body={"builtin": "uniform_fgm"})
    assert cfg == AnalysisConfig(body="uniform_fgm")
    assert cfg == AnalysisConfig.from_dict({"body": {"builtin": "uniform_fgm"}})
    assert cfg.echo()["body"] == "uniform_fgm"
    assert cfg.material_body.name == "uniform_fgm"
    poly = {"polynomial": {"terms": [[[2] + [0] * 11, 1.0]], "name": "f11sq"}}
    assert AnalysisConfig(body=poly).material_body.name == "f11sq"
    for body in ({"builtin": 17}, {"builtin": poly}):
        with pytest.raises(ConfigError, match="body must be a name"):
            AnalysisConfig(body=body)


# verdicts of the built-ins and the 46-term polynomial at the package tolerances
_SWEEP_VERDICTS = {
    "homogeneous_isotropic": ("uniform", "homogeneous_evidence"),
    "uniform_fgm": ("uniform", "obstructed"),
    "uniform_fgm_integrable": ("uniform", "homogeneous_evidence"),
    "nonuniform": ("not_uniform", "n/a"),
    "polynomial": ("uniform", "homogeneous_evidence"),
}


def _answers(grid, fibers, v_tol=AnalysisConfig.v_tol, flat_tol=AnalysisConfig.flat_tol):
    """Verdicts, fibre dims, isotropy dims and anchor ranks of a fibre stage."""
    uni = uniformity_verdict(fibers, v_tol)
    hom = "n/a"
    if uni.uniform:
        report = curvature_torsion(minimal_lift_section(grid, fibers, v_tol), flat_tol)
        hom = homogeneity_verdict(uni, report).verdict
    return uni.verdict, hom, [f.dim for f in fibers], list(uni.isotropy_dims), uni.anchor_ranks


@pytest.mark.parametrize("kind, res", [(k, n) for k in _SWEEP_VERDICTS for n in (3, 5)])
def test_tolerances_keep_every_answer_a_decade_either_way(kind, res):
    """rank_tol, v_tol, flat_tol and fd_step, each moved x0.1 and x10 through the library
    parameters, keep every verdict, fibre dim, isotropy dim and anchor rank, at the default
    seed and two more.  The v_tol and flat_tol moves reuse the fibres of the constants; the
    fd_step moves difference the body (``opaque``), as its exact gradient reads no step."""
    body = {"polynomial": {"terms": isotropic_polynomial_terms()}} if kind == "polynomial" else kind
    for seed in (20240, 1, 2):
        cfg = AnalysisConfig(body=body, resolution=(res,) * 3, seed=seed)
        grid, samples, fibers = fiber_stage(cfg)
        want = _answers(grid, fibers)
        assert want[:2] == _SWEEP_VERDICTS[kind], seed
        for factor in (0.1, 10.0):
            moved = {
                "rank_tol": fibers_at(cfg.material_body, grid.points, samples,
                                      rank_tol=cfg.rank_tol * factor),
                "fd_step": fibers_at(opaque(cfg.material_body), grid.points, samples,
                                     fd_step=cfg.fd_step * factor),
            }
            got = {name: _answers(grid, f) for name, f in moved.items()}
            got["v_tol"] = _answers(grid, fibers, v_tol=cfg.v_tol * factor)
            got["flat_tol"] = _answers(grid, fibers, flat_tol=cfg.flat_tol * factor)
            for name, answers in got.items():
                assert answers == want, (seed, name, factor)


def test_cross_check_leaving_grid_hull_is_null():
    # margin 0.9 leaves a hull 0.2 wide; the t = 0.1 cross-check flow exits it
    r = run_analysis(AnalysisConfig.from_dict(
        {"grid": {"resolution": [3, 3, 3], "margin": 0.9},
         "flags": {"emit_trajectories": True}}))
    assert (r.document["uniformity"]["verdict"],
            r.document["homogeneity"]["verdict"]) == ("uniform", "homogeneous_evidence")
    assert (r.document["diagnostics"]["exp_membership_defect"] is None
            and r.document["trajectory"] is None)
    doc = parse_report(emit_report(r, "structured"))
    assert doc["diagnostics"]["exp_membership_defect"] is None


@pytest.mark.parametrize("body", ["uniform_fgm", "polynomial"])
def test_config_echo_reruns_to_identical_bytes(tmp_path, capsys, body):
    """A report's config echo is a config: fed back, through the library or the CLI,
    it reproduces the report's bytes; constants other than the fixed ones exit 2."""
    if body == "polynomial":
        body = {"polynomial": {"terms": isotropic_polynomial_terms(), "name": "iso_poly"}}
    raw = {"body": body, "grid": {"resolution": [3, 3, 3]}, "samples": {"count": 12}}
    blob = emit_report(run_analysis(AnalysisConfig.from_dict(raw)), "structured")
    echo = parse_report(blob)["config"]
    assert emit_report(run_analysis(AnalysisConfig.from_dict(echo)), "structured") == blob
    out = tmp_path / "rerun.json"
    assert main(["analyze", "--config", write_config(tmp_path, echo), "--format", "structured",
                 "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == blob
    echo["constants"]["det_tol"] *= 10
    assert main(["analyze", "--config", write_config(tmp_path, echo)]) == EXIT_CONFIG
    assert "config error: constants are fixed at {'point_tol': 1e-09" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="constants are fixed at"):
        AnalysisConfig.from_dict(echo)


@pytest.mark.parametrize("resolution", [(4, 4, 4), (5, 4, 5)])
def test_grid_centre_is_the_middle_node_on_even_grids(resolution):
    """The cross-check and the chart start at the node at index n // 2 on every axis."""
    cfg = AnalysisConfig(body="uniform_fgm_integrable", resolution=resolution, sample_count=12,
                         emit_chart=True, emit_trajectories=True)
    doc = run_analysis(cfg).document
    middle = [n // 2 for n in resolution]
    centre = next(rec["x"] for rec in doc["points"] if rec["index"] == middle)
    assert doc["chart"]["x0"] == centre
    assert doc["trajectory"][0]["y"] == centre


def test_polynomial_body_config_runs():
    # x-independent anisotropic quadratic: (F12)^2 + 2 (F11 - ... ) keep simple
    e = [0] * 12; e[1] = 2
    cfg = AnalysisConfig.from_dict({
        "body": {"polynomial": {"terms": [[e, 1.0]], "name": "f12sq"}},
        "grid": {"resolution": [3, 3, 3]},
        "samples": {"count": 12, "seed": 3},
    })
    report = run_analysis(cfg)
    assert report.document["body"] == "f12sq"
    assert report.document["uniformity"]["verdict"] == "uniform"      # no x dependence anywhere


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
        doc = run_analysis(AnalysisConfig(body=kind, **FAST)).document
        assert (doc["uniformity"]["verdict"], doc["homogeneity"]["verdict"]) == (uni, hom), kind


def test_report_structure_and_round_trip():
    r = run_analysis(AnalysisConfig(body="uniform_fgm", **FAST))
    blob = emit_report(r, "structured")
    doc = parse_report(blob)
    assert doc == r.document
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
    # the document is the report's one representation: a stored report renders
    # the same text as the run that wrote it, less the timings line
    for kind in ("homogeneous_isotropic", "uniform_fgm", "uniform_fgm_integrable", "nonuniform"):
        r = run_analysis(AnalysisConfig(body=kind, emit_chart=True, **FAST))
        blob = emit_report(r, "structured")
        assert parse_report(blob) == r.document, kind
        text = emit_report(r, "text").decode().splitlines(keepends=True)
        untimed = [line for line in text if not line.startswith("timings (s): ")]
        assert len(untimed) == len(text) - 1
        stored = emit_report(AnalysisReport(parse_report(blob)), "text").decode()
        assert stored == "".join(untimed), kind


def test_analysis_decides_uniformity_and_converts_report_once(monkeypatch):
    """One uniformity_verdict call, which cuts the fibre table as one array pass with
    no per-point anchor_rank call, and one curvature/torsion pass for both the
    verdict and the chart.  The report needs no conversion pass: its values are
    JSON-native as built (see test_report_structure_and_round_trip)."""
    import matbody.algebroid as algebroid
    import matbody.analysis as analysis
    import matbody.connection as connection

    anchor_rank, verdict = algebroid.anchor_rank, algebroid.uniformity_verdict
    curvature_torsion = connection.curvature_torsion
    ranks, verdicts, passes = [], [], []

    def counting_rank(*args):
        ranks.append(1)
        return anchor_rank(*args)

    def counting_verdict(*args):
        verdicts.append(1)
        return verdict(*args)

    def counting_pass(*args):
        passes.append(1)
        return curvature_torsion(*args)

    for module in (algebroid, analysis, connection):
        monkeypatch.setattr(module, "anchor_rank", counting_rank, raising=False)
        monkeypatch.setattr(module, "uniformity_verdict", counting_verdict, raising=False)
    for module in (analysis, connection):
        monkeypatch.setattr(module, "curvature_torsion", counting_pass)
    cfg = AnalysisConfig(body="uniform_fgm_integrable", emit_chart=True,
                         emit_singular_values=True, emit_trajectories=True, **FAST)
    doc = parse_report(emit_report(run_analysis(cfg), "structured"))
    assert doc["homogeneity"]["verdict"] == "homogeneous_evidence" and doc["chart"]
    assert len(ranks) == 0
    assert len(verdicts) == 1
    assert len(passes) == 1


def test_text_report_of_a_stored_document_lists_rank_ambiguous_points():
    r = run_analysis(AnalysisConfig(body="uniform_fgm", **FAST))
    doc = parse_report(emit_report(r, "structured"))
    assert doc["diagnostics"]["rank_ambiguous_points"] == []
    doc["diagnostics"]["rank_ambiguous_points"] = [[2, 0, 1], [0, 1, 2]]
    text = emit_report(AnalysisReport(doc), "text").decode()
    assert "\nrank-ambiguous points (sv gap < 10x): [[0, 1, 2], [2, 0, 1]]\n" in text
    with pytest.raises(ConfigError, match="unknown report format 'xml'"):
        emit_report(r, "xml")


def test_singular_values_flag():
    cfg = AnalysisConfig(body="homogeneous_isotropic",
                         emit_singular_values=True, **FAST)
    doc = parse_report(emit_report(run_analysis(cfg), "structured"))
    assert len(doc["points"][0]["singular_values"]) == 12


def test_determinism_byte_identical():
    cfg1 = AnalysisConfig(body="uniform_fgm", **FAST)
    cfg2 = AnalysisConfig(body="uniform_fgm", **FAST)
    b1 = emit_report(run_analysis(cfg1), "structured")
    b2 = emit_report(run_analysis(cfg2), "structured")
    assert b1 == b2


def test_text_report_lists_offenders_sorted():
    r = run_analysis(AnalysisConfig(body="nonuniform", **FAST))
    text = emit_report(r, "text").decode()
    assert "not_uniform" in text
    lines = [ln for ln in text.splitlines() if ln.strip().startswith("index")]
    indices = [json.loads(ln.split("index", 1)[1].split("x =")[0]) for ln in lines]
    assert indices == sorted(indices)
    assert len(indices) == len(r.document["uniformity"]["offending_points"])


def test_chart_in_report():
    cfg = AnalysisConfig(body="uniform_fgm_integrable", emit_chart=True, **FAST)
    r = run_analysis(cfg)
    assert r.document["homogeneity"]["verdict"] == "homogeneous_evidence"
    assert r.document["chart"] is not None
    assert r.document["chart"]["gamma_prime_interior_max"] <= 1e-3
    doc = parse_report(emit_report(r, "structured"))
    assert doc["chart"]["gamma_prime_interior_max"] <= 1e-3


def test_trajectory_flag():
    cfg = AnalysisConfig(body="homogeneous_isotropic",
                         emit_trajectories=True, **FAST)
    r = run_analysis(cfg)
    trajectory = r.document["trajectory"]
    assert trajectory is not None and len(trajectory) > 10
    assert set(trajectory[0]) == {"t", "y", "F"}


# ---------------------------------------------------------------------------
# canonical writer
# ---------------------------------------------------------------------------

class _Float(float):
    def __repr__(self):
        return "not a JSON number"


class _Int(int):
    def __repr__(self):
        return "not a JSON number"


class _Str(str):
    def __repr__(self):
        return "not a JSON string"


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


@settings(max_examples=400)
@given(_documents)
@example({})
@example([[], {}, (), [[]], {"": {}}])
@example([1e308, 1e308])
@example([1e16, 1e-7, -0.0, 5e-324, math.nan, math.inf, -math.inf])
@example([True, 1, 1.0, False, 0, 0.0, None])
@example({"b": (10**31, -(10**35)), "a": "é\x00", "é": [_Float(0.5), _Int(7)]})
@example([_Float(1.5), _Float(2.5)])
@example({"s": _Str('é "quoted"'), "t": [_Str(""), "plain"]})
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
    doc = run_analysis(AnalysisConfig.from_dict(raw)).document
    assert canonical_json(doc) == json_dumps_document(doc)


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


def test_cli_config_errors(tmp_path, capsys):
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
    extra_key = write_config(tmp_path, {"body": {"builtin": "uniform_fgm", "typo": 1}},
                             name="extra.json")
    assert main(["analyze", "--config", extra_key]) == EXIT_CONFIG
    assert main(["flow", "--config", extra_key, "--t", "0.05", "--x", "0,0,0"]) == EXIT_CONFIG
    empty = write_config(tmp_path, {"grid": {"resolution": [3, 3, 3], "margin": 1.0}},
                         name="empty.json")
    capsys.readouterr()
    assert main(["analyze", "--config", empty]) == EXIT_CONFIG
    assert main(["flow", "--config", empty, "--t", "0.05", "--x", "0,0,0"]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: grid: margin leaves an empty box\n" * 2
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
    assert "at point [-0.9, -0.9, -0.9]: response of 'polynomial' is non-finite" in err


def test_run_analysis_fiber_error_keeps_its_point():
    """A fibre-stage error out of run_analysis names its grid point and keeps its index."""
    cfg = AnalysisConfig(body={"polynomial": {"terms": [[[0] * 12, 1e308],
                                                        [[2] + [0] * 11, 1e308]]}},
                         resolution=(3, 3, 3))
    with pytest.raises(NonFiniteResponse) as err:
        run_analysis(cfg)
    assert err.value.index == (0,)
    assert str(err.value).startswith("at point [-0.9, -0.9, -0.9]: ")


def test_cli_refuses_a_tolerances_section(tmp_path, capsys):
    """The tolerances are constants: a config with a tolerances section, here the fd_step
    and flat_tol that read the exactly flat body obstructed, exits 2 from analyze and flow."""
    cfg = write_config(tmp_path, {"body": "uniform_fgm_integrable",
                                  "grid": {"resolution": [3, 3, 3]},
                                  "tolerances": {"fd_step": 1e-3, "flat_tol": 1e-6}})
    for command in (["analyze", "--config", cfg],
                    ["flow", "--config", cfg, "--t", "0.1", "--x", "0,0,0"]):
        assert main(command) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: unknown config sections: ['tolerances']\n"


def test_cli_cross_check_overflow_is_quiet(tmp_path):
    """An exponential cross-check whose RK4 state overflows reads null, silently."""
    # v_tol at the smallest subnormal counts nonuniform's rank-2 anchor as rank 3,
    # so the lift divides by singular values of 1e-13..1e-10 and the flow overflows.
    # A config sets no tolerance (a tolerances section exits 2): the library path is checked.
    doc = {"body": "nonuniform", "grid": {"resolution": [3, 3, 3]}, "samples": {"count": 12},
           "tolerances": {"v_tol": 5e-324}}
    assert main(["analyze", "--config", write_config(tmp_path, doc)]) == EXIT_CONFIG
    cfg = AnalysisConfig(body="nonuniform", resolution=(3, 3, 3), sample_count=12)
    body = cfg.material_body
    grid, samples, fibers = fiber_stage(cfg)
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


# homogeneous_evidence (max|Gamma| = 1e6), but the frame transported for its chart turns singular
SINGULAR_CHART_TERMS = [[[0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0], 1e306],
                        [[0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0], 1e300],
                        [[0] * 12, 1e-300]]


@pytest.mark.parametrize("terms, flags, message", [
    ([[[4] + [0] * 11, 1e307]], {}, "constraint rows of 'polynomial' are non-finite"),
    ([[[0, 1, 0, 1, 1, 0, 0, 0, 0, 0, 1, 0], 1.7e308], [[0] * 7 + [1, 0, 0, 0, 1], 1e300]], {},
     "singular values of the constraint rows overflow"),
    (SINGULAR_CHART_TERMS, {"emit_chart": True}, "the transported frame became singular"),
])
def test_cli_refuses_overflow_with_one_line(tmp_path, capsys, terms, flags, message):
    """Overflowing rows or spectra (analyze and flow) and a singular chart transport
    exit 3 with one line on stderr: no traceback, no RuntimeWarning."""
    cfg = write_config(tmp_path, {"body": {"polynomial": {"terms": terms}},
                                  "grid": {"resolution": [3, 3, 3]}, "flags": flags})
    commands = [["analyze", "--config", cfg, "--format", "structured"]]
    if not flags:
        commands.append(["flow", "--config", cfg, "--t", "0.1", "--x", "0,0,0"])
    for command in commands:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(command) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical failure: ") and captured.err.count("\n") == 1
        assert message in captured.err


def assert_out_of_memory_exits_3(tmp_path, capsys, doc):
    """analyze and flow on ``doc`` exit 3 with one stderr line naming memory."""
    cfg = write_config(tmp_path, doc)
    for command in (["analyze", "--config", cfg],
                    ["flow", "--config", cfg, "--t", "0.1", "--x", "0,0,0"]):
        assert main(command) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical failure: out of memory: ")
        assert captured.err.count("\n") == 1


def test_cli_out_of_memory_exits_3_with_one_line(tmp_path, capsys):
    """A lattice axis numpy refuses to allocate (72.8 TiB, refused before any memory
    is touched) exits 3 with one stderr line from analyze and flow."""
    assert_out_of_memory_exits_3(tmp_path, capsys, {
        "body": "uniform_fgm", "grid": {"resolution": [3, 3, 10000000000000]}})


def test_cli_absurd_sample_count_exits_3_at_once(tmp_path, capsys):
    """A sample count numpy refuses to draw (10^15 matrices, 64 PiB) fails at the
    first draw, not in a loop that grows until memory runs out."""
    assert_out_of_memory_exits_3(tmp_path, capsys, {
        "body": "homogeneous_isotropic", "grid": {"resolution": [3, 3, 3]},
        "samples": {"count": 10**15}})


def test_singular_chart_transport_is_refused_not_nulled():
    body = dict(body={"polynomial": {"terms": SINGULAR_CHART_TERMS}})
    doc = run_analysis(AnalysisConfig(resolution=(3, 3, 3), **body)).document
    assert (doc["homogeneity"]["verdict"] == "homogeneous_evidence"
            and doc["connection"]["max_abs_gamma"] == pytest.approx(1e6))
    with pytest.raises(SingularMatrix):
        run_analysis(AnalysisConfig(resolution=(3, 3, 3), emit_chart=True, **body))


def test_sv_gap_past_the_float_range_is_null(tmp_path, capsys):
    """Where kept / dropped overflows, sv_gap is null (a clean cut), silently."""
    cfg = AnalysisConfig(body={"polynomial": {"terms": WIDE_GAP_TERMS}},
                         resolution=(3, 3, 3), emit_singular_values=True)
    overflowed = 0
    for rec in run_analysis(cfg).document["points"]:      # a RuntimeWarning would raise here
        sv, cut = rec["singular_values"], 12 - rec["fiber_dim"]
        if rec["sv_gap"] is None and sv[cut] > 0:
            assert sv[cut - 1] / sv[cut] > sys.float_info.max
            overflowed += 1
    assert overflowed > 0
    doc = {"body": {"polynomial": {"terms": WIDE_GAP_TERMS}}, "grid": {"resolution": [3, 3, 3]}}
    assert main(["analyze", "--config", write_config(tmp_path, doc)]) == EXIT_OK
    assert capsys.readouterr().err == ""


# invalid parts of a config document, merged into its sections; each exits 2
_INVALID = [("tolerances", {}), ("tolerances", {"flat_tol": 1e-6, "fd_step": 1e-3}),
            ("tolerances", {"v_tol": 1e-10}), ("tolerances", {"rank_tol": 1e-6}),
            ("constants", {"point_tol": 1e-9, "det_tol": 1e-12, "rank_gap_floor": 10.0}),
            ("constants", dict(CONSTANTS, fd_step=1e-3)), ("grid", {"margin": 1e-5}),
            ("grid", {"margin": math.nan}), ("grid", {"margin": math.inf}),
            ("grid", {"margin": -1e-3}), ("samples", {"count": 11}),
            ("samples", {"seed": -1}), ("flags", {"emit_chart": 1})]


@st.composite
def config_documents(draw):
    """3^3 config documents; about three in four carry one invalid part."""
    doc = {
        "body": draw(st.sampled_from(["homogeneous_isotropic", "uniform_fgm",
                                      "uniform_fgm_integrable", "nonuniform"])),
        "grid": {"resolution": [3, 3, 3], "margin": draw(st.floats(0.06, 0.95))},
        "samples": {"count": 12, "seed": draw(st.integers(0, 2**32))},
        "flags": {"emit_chart": draw(st.booleans())},
    }
    bad = draw(st.sampled_from(_INVALID + [None] * 4))
    if bad is not None:
        doc.setdefault(bad[0], {}).update(bad[1])
    return doc, bad is not None


@settings(max_examples=80)
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
