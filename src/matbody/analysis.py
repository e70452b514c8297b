"""Config-driven analysis pipeline and report serialization.

run_analysis computes, per grid point, the material-algebroid fiber with its
singular-value audit, then the uniformity verdict, and -- when uniform -- the
minimal-lift connection, its curvature/torsion, and the homogeneity verdict.
Structured reports are canonical JSON (sorted keys, native floats) and are
byte-identical across runs with the same config; wall-clock timings therefore
appear only in the text rendering.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import jets
from .algebroid import (
    DEFAULT_FD_STEP,
    DEFAULT_RANK_TOL,
    DEFAULT_V_TOL,
    fibers_at,
    uniformity_verdict,
)
from .bodies import Body, body_from_config, coerce, make_samples, membership_defect, membership_tol
from .connection import (
    DEFAULT_FLAT_TOL,
    build_homogeneous_chart,
    chart_christoffels,
    curvature_torsion,
    homogeneity_verdict,
    minimal_lift_section,
)
from .errors import ConfigError, LeftDomain, SingularMatrix
from .flows import exp_trajectory
from .grid import make_grid

SCHEMA_NAME = "matbody.report.v1"

# Gap threshold below which the rank decision at a point is flagged ambiguous.
RANK_GAP_FLOOR = 10.0
# Flow time of the exponential cross-check in direction e1 from the grid centre.
CROSS_CHECK_T = 0.1
# Package constants no setting changes, the four tolerances among them; a config echo
# writes them and from_dict accepts a `constants` section only when it holds exactly
# these values.
CONSTANTS = {"point_tol": jets.POINT_TOL, "det_tol": jets.DET_TOL,
             "rank_gap_floor": RANK_GAP_FLOOR, "rank_tol": DEFAULT_RANK_TOL,
             "v_tol": DEFAULT_V_TOL, "flat_tol": DEFAULT_FLAT_TOL, "fd_step": DEFAULT_FD_STEP}


def _setting(default, path: str, kind, check=None):
    """Field read from config key ``path`` ('section.key') as ``kind``, range-checked."""
    return field(default=default, metadata={"path": path, "kind": kind, "check": check})


def _nest(pairs) -> dict:
    """Nested dict from (dotted path, value) pairs: ('a.b', v) -> {'a': {'b': v}}."""
    doc = {}
    for path, value in pairs:
        section, _, key = path.rpartition(".")
        (doc.setdefault(section, {}) if section else doc)[key] = value
    return doc


@dataclass(frozen=True)
class AnalysisConfig:
    """Analysis settings; each field declares its config key, type and range once."""

    # A body form that ``body_from_config`` reads; a polynomial document is kept
    # as given, and a name, in either form, as the Body's name.
    body: object = "homogeneous_isotropic"
    resolution: tuple = _setting((5, 5, 5), "grid.resolution", tuple,
                                 (lambda r: min(r) >= 3, "3 integers >= 3"))
    # difference stencils reach fd_step past a lattice point, so the margin must exceed it
    margin: float = _setting(0.1, "grid.margin", float,
                             (lambda v: math.isfinite(v) and v > DEFAULT_FD_STEP,
                              f"finite and > fd_step {DEFAULT_FD_STEP:g}"))
    sample_count: int = _setting(24, "samples.count", int, (lambda n: n >= 12, ">= 12"))
    seed: int = _setting(20240, "samples.seed", int, (lambda n: n >= 0, ">= 0"))
    emit_singular_values: bool = _setting(False, "flags.emit_singular_values", bool)
    emit_chart: bool = _setting(False, "flags.emit_chart", bool)
    emit_trajectories: bool = _setting(False, "flags.emit_trajectories", bool)
    # the Body that ``body`` names, made once here
    material_body: Body = field(init=False, repr=False, compare=False)
    # the package's tolerances: read-only class attributes, not settings
    rank_tol, v_tol, flat_tol, fd_step = (DEFAULT_RANK_TOL, DEFAULT_V_TOL,
                                          DEFAULT_FLAT_TOL, DEFAULT_FD_STEP)

    def __post_init__(self):
        object.__setattr__(self, "material_body", body_from_config(self.body))
        if not (isinstance(self.body, dict) and "polynomial" in self.body):
            object.__setattr__(self, "body", self.material_body.name)
        for f in _SETTINGS:
            path, check = f.metadata["path"], f.metadata["check"]
            value = getattr(self, f.name)
            try:
                value = coerce(value, f.metadata["kind"])
            except (TypeError, OverflowError) as exc:
                raise ConfigError(f"malformed {path} = {value!r}: {exc}") from None
            if check and not check[0](value):
                raise ConfigError(f"{path} must be {check[1]}, got {value!r}")
            object.__setattr__(self, f.name, value)

    @staticmethod
    def from_dict(raw: dict) -> "AnalysisConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config document must be a JSON object")
        sections = _nest((f.metadata["path"], f.name) for f in _SETTINGS)
        unknown = set(raw) - set(sections) - {"body", "constants"}
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")
        # The echo of a report carries the constants it ran with; they are not settings.
        if raw.get("constants", CONSTANTS) != CONSTANTS:
            raise ConfigError(f"constants are fixed at {CONSTANTS}, got {raw['constants']!r}")
        kwargs = {"body": raw.get("body", "homogeneous_isotropic")}
        for name, keys in sections.items():
            user = raw.get(name, {})
            if not isinstance(user, dict):
                raise ConfigError(f"config section '{name}' must be an object")
            bad = set(user) - set(keys)
            if bad:
                raise ConfigError(f"unknown keys in '{name}': {sorted(bad)}")
            kwargs.update((keys[k], v) for k, v in user.items())
        return AnalysisConfig(**kwargs)

    def echo(self) -> dict:
        """Full configuration echo, including the package-level constants; a valid config."""
        doc = _nest((f.metadata["path"], getattr(self, f.name)) for f in _SETTINGS)
        doc["grid"]["resolution"] = list(self.resolution)
        doc.update(body=self.body, constants=dict(CONSTANTS))
        return doc


_SETTINGS = tuple(f for f in fields(AnalysisConfig) if "path" in f.metadata)


def fiber_stage(cfg: AnalysisConfig) -> tuple:
    """Grid, sample set and the ``Fibers`` table of the config's body, for analyze and flow."""
    body = cfg.material_body
    try:
        grid = make_grid(body.lo, body.hi, cfg.resolution, cfg.margin)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc
    samples = make_samples(cfg.sample_count, cfg.seed)
    return grid, samples, fibers_at(body, grid.points, samples, cfg.rank_tol, cfg.fd_step)


@dataclass
class AnalysisReport:
    """A run's canonical document, JSON-native as made, and its wall-clock timings."""

    document: dict
    timings: dict = field(default_factory=dict)


def run_analysis(cfg: AnalysisConfig) -> AnalysisReport:
    """Full uniformity/homogeneity pipeline; deterministic for a fixed config."""
    body = cfg.material_body
    timings = {}

    t0 = time.perf_counter()
    grid, samples, fibers = fiber_stage(cfg)
    timings["fibers_s"] = time.perf_counter() - t0

    uni = uniformity_verdict(fibers, cfg.v_tol)
    index = np.stack(np.unravel_index(np.arange(grid.n_points), grid.shape), axis=-1).tolist()
    records = [{"index": idx, "x": x, "fiber_dim": dim, "isotropy_dim": iso, "anchor_rank": rank,
                "sv_gap": gap if gap < math.inf else None}     # null: a clean cut
               for idx, x, dim, gap, iso, rank in zip(index, grid.points.tolist(),
                                                      fibers.dims.tolist(), fibers.sv_gap.tolist(),
                                                      uni.isotropy_dims, uni.anchor_ranks)]
    for rec, sv in zip(records, fibers.singular_values.tolist() if cfg.emit_singular_values
                       else ()):
        rec["singular_values"] = sv

    # The not-uniform document; the uniform branch overwrites what it computes.
    doc = {
        "schema": SCHEMA_NAME,
        "config": cfg.echo(),
        "body": body.name,
        "grid_shape": list(grid.shape),
        "points": records,
        "uniformity": {"verdict": uni.verdict,
                       "offending_points": sorted(index[p] for p in uni.offending)},
        "homogeneity": {"verdict": "n/a",
                        "reason": "body is not uniform; no material connection exists"},
        "connection": {"max_abs_gamma": None, "lift_residual_max": None},
        "flatness": dict.fromkeys(["max_abs_R", "max_abs_T",
                                   "interior_max_abs_R", "interior_max_abs_T"]),
        "diagnostics": {
            "rank_ambiguous_points": [index[p] for p in
                                      np.flatnonzero(fibers.sv_gap < RANK_GAP_FLOOR).tolist()],
            "fiber_dim_levels": np.unique(fibers.dims).tolist(),
            "membership_tol": None,
            "exp_membership_defect": None,
        },
        "chart": None,
        "trajectory": None,
    }
    if uni.uniform:
        t0 = time.perf_counter()
        section = minimal_lift_section(grid, fibers, cfg.v_tol)
        report = curvature_torsion(section, cfg.flat_tol)
        hom = homogeneity_verdict(uni, report)
        timings["connection_s"] = time.perf_counter() - t0
        doc["homogeneity"] = {"verdict": hom.verdict, "reason": hom.reason}
        doc["connection"] = {"max_abs_gamma": section.max_abs(),
                             "lift_residual_max": float(np.max(section.residuals))}
        doc["flatness"] = {"max_abs_R": report.max_abs_R, "max_abs_T": report.max_abs_T,
                           "interior_max_abs_R": report.interior_max_abs_R,
                           "interior_max_abs_T": report.interior_max_abs_T}

        t0 = time.perf_counter()
        # The lattice node at index n // 2 on every axis, for odd and even resolutions.
        center = grid.points[np.ravel_multi_index([n // 2 for n in grid.shape], grid.shape)]
        diagnostics = doc["diagnostics"]
        diagnostics["membership_tol"] = membership_tol(body, samples, [center])
        diagnostics["exp_membership_defect"], doc["trajectory"] = _exponential_cross_check(
            body, section, samples, center, keep_records=cfg.emit_trajectories
        )
        timings["cross_check_s"] = time.perf_counter() - t0

        if cfg.emit_chart and report.flat:
            t0 = time.perf_counter()
            chart = build_homogeneous_chart(report, center)
            interior_max, full_max = chart_christoffels(chart)
            doc["chart"] = {
                "x0": chart.x0.tolist(),
                "coords": chart.coords.tolist(),
                "frames": chart.frames.tolist(),
                "gamma_prime_interior_max": interior_max,
                "gamma_prime_max": full_max,
            }
            timings["chart_s"] = time.perf_counter() - t0

    return AnalysisReport(doc, timings)


def _exponential_cross_check(body: Body, section, samples, center,
                             keep_records: bool = False) -> tuple:
    """Membership defect of the exponentiated lift in direction e1 at the grid center.

    Links the infinitesimal fiber computation back to the finite membership
    test along the flow; reported as a diagnostic, never gated.  Optionally
    returns the per-step trajectory records for the report.  When the check
    cannot run -- the trajectory leaves the grid hull, or its jet is singular
    or non-finite -- it yields (None, None).
    """
    try:
        records = exp_trajectory(section.flow_field([1.0, 0.0, 0.0]), CROSS_CHECK_T, center)
        t_end, y_end, f_end = records[-1]
        defect = membership_defect(body, jets.Jet1(center, y_end, f_end), samples)
    except (LeftDomain, SingularMatrix, ValueError):
        return None, None
    return defect, trajectory_records(records) if keep_records else None


def trajectory_records(records) -> list:
    """(t, y, F) steps of an exponential trajectory as JSON-ready dicts."""
    return [{"t": t, "y": y.tolist(), "F": F.tolist()} for t, y, F in records]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_encode_str = json.encoder.encode_basestring_ascii
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(v: float) -> str:
    text = float.__repr__(v)
    return _NON_FINITE.get(text, text)


# JSON text of each exactly-typed scalar (repr is the type's __repr__ there, and
# cheaper to call); subclasses of str, int and float take the isinstance chain.
_SCALAR_TEXT = {str: _encode_str, int: repr, float: _float_text,
                bool: {True: "true", False: "false"}.__getitem__, type(None): lambda _: "null"}
# The element-type sets of lists that are written with one repr map, without a per-item walk.
_FLOAT, _INT = frozenset([float]), frozenset([int])


def _encode(obj, pad: str) -> str:
    """JSON text of obj whose nested lines start with ``pad`` ("\\n" + indent)."""
    text = _SCALAR_TEXT.get(type(obj))
    if text is not None:
        return text(obj)
    inner = f"{pad}  "
    sep = f",{inner}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        kinds = set(map(type, obj))
        if (kinds == _FLOAT and math.isfinite(sum(obj))) or kinds == _INT:
            body = sep.join(map(repr, obj))
        else:
            body = sep.join([_encode(v, inner) for v in obj])
        return f"[{inner}{body}{pad}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = sep.join([f"{_encode_str(k)}: {_encode(obj[k], inner)}" for k in sorted(obj)])
        return f"{{{inner}{body}{pad}}}"
    if isinstance(obj, str):
        return _encode_str(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float_text(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def canonical_json(doc) -> bytes:
    """The bytes of ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"`` in UTF-8.

    ``doc`` is made of dicts with str keys, lists, tuples, str, int, float, bool
    and None.  json's indented encoder runs in Python, one generator step per
    value; this writer formats a whole list of finite floats, or of ints, with
    one ``repr`` map and one join, both in C.
    """
    return (_encode(doc, "\n") + "\n").encode("utf-8")


def emit_report(report: AnalysisReport, format: str = "structured") -> bytes:
    """Render a report: canonical JSON ('structured') or human tables ('text')."""
    if format == "structured":
        return canonical_json(report.document)
    if format == "text":
        return _text_report(report).encode("utf-8")
    raise ConfigError(f"unknown report format '{format}'")


def parse_report(data: bytes) -> dict:
    """Parse a structured report; the inverse of emit_report('structured').

    Bytes that are not UTF-8 JSON holding an object of this schema raise ConfigError.
    """
    try:
        doc = json.loads(data.decode("utf-8"))
    except ValueError:                  # UnicodeDecodeError and JSONDecodeError
        doc = None
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA_NAME:
        raise ConfigError(f"not a {SCHEMA_NAME} document")
    return doc


def _text_report(r: AnalysisReport) -> str:
    doc = r.document
    nx, ny, nz = doc["grid_shape"]
    recs = {tuple(rec["index"]): rec for rec in doc["points"]}
    uni, hom, diag = doc["uniformity"], doc["homogeneity"], doc["diagnostics"]
    conn, flat, chart = doc["connection"], doc["flatness"], doc["chart"]
    lines = []
    lines.append(f"matbody analysis: body = {doc['body']}")
    lines.append(f"grid {nx}x{ny}x{nz}; cells show fiber dim / isotropy dim / anchor rank")
    for ix in range(nx):
        lines.append(f"-- slice ix={ix} (rows iy, cols iz) " + "-" * 28)
        for iy in range(ny):
            cells = []
            for iz in range(nz):
                rec = recs[(ix, iy, iz)]
                cells.append(f"{rec['fiber_dim']}/{rec['isotropy_dim']}/{rec['anchor_rank']}")
            lines.append("  " + "  ".join(f"{c:>7}" for c in cells))
    lines.append("")
    lines.append(f"uniformity verdict : {uni['verdict']}")
    if uni["offending_points"]:
        lines.append("offending grid points (anchor rank < 3), lexicographic:")
        for idx in sorted(uni["offending_points"]):
            rec = recs[tuple(idx)]
            lines.append(f"  index {idx}  x = {rec['x']}  anchor_rank = {rec['anchor_rank']}")
    if conn["max_abs_gamma"] is not None:
        lines.append(f"connection         : max|Gamma| = {conn['max_abs_gamma']:.6e}, "
                     f"lift residual max = {conn['lift_residual_max']:.3e}")
        lines.append(f"flatness           : max|R| = {flat['max_abs_R']:.6e}, "
                     f"max|T| = {flat['max_abs_T']:.6e}")
    lines.append(f"homogeneity verdict: {hom['verdict']}")
    lines.append(f"  reason: {hom['reason']}")
    if diag["rank_ambiguous_points"]:
        floor = doc["config"]["constants"]["rank_gap_floor"]
        lines.append(f"rank-ambiguous points (sv gap < {floor:g}x): "
                     f"{sorted(diag['rank_ambiguous_points'])}")
    if diag["exp_membership_defect"] is not None:
        lines.append(f"exponential cross-check: membership defect "
                     f"{diag['exp_membership_defect']:.3e} (tol {diag['membership_tol']:.3e})")
    if chart is not None:
        lines.append(f"chart: recomputed interior max|Gamma'| = "
                     f"{chart['gamma_prime_interior_max']:.3e}")
    if r.timings:
        stamps = ", ".join(f"{k} = {v:.3f}" for k, v in sorted(r.timings.items()))
        lines.append(f"timings (s): {stamps}")
    return "\n".join(lines) + "\n"
