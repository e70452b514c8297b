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
import numbers
import time
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from . import jets
from .algebroid import (
    DEFAULT_FD_STEP,
    DEFAULT_RANK_TOL,
    DEFAULT_V_TOL,
    fibers_at,
    sv_gaps,
    uniformity_verdict,
)
from .bodies import (
    Body,
    builtin_body,
    make_samples,
    membership_defect,
    membership_tol,
    polynomial_body,
)
from .connection import (
    DEFAULT_FLAT_TOL,
    build_homogeneous_chart,
    chart_christoffels,
    christoffels,
    curvature_torsion,
    homogeneity_verdict,
    minimal_lift_section,
)
from .errors import ConfigError, LeftDomain, MatbodyError, SingularMatrix
from .flows import exp_trajectory
from .grid import make_grid

SCHEMA_NAME = "matbody.report.v1"

# Gap threshold below which the rank decision at a point is flagged ambiguous.
RANK_GAP_FLOOR = 10.0


def _coerce(value, kind):
    """A JSON value as ``kind`` (bool, int, float, or tuple for 3 ints), never lossily."""
    if kind is tuple:
        if not isinstance(value, (list, tuple)) or len(value) != 3:
            raise TypeError("expected a list of 3 integers")
        return tuple(_coerce(v, int) for v in value)
    if (isinstance(value, bool) != (kind is bool) or not isinstance(value, numbers.Real)
            or (kind is int and not float(value).is_integer())):
        raise TypeError(f"expected {'true or false' if kind is bool else kind.__name__}")
    return kind(value)


_POSITIVE = (lambda v: math.isfinite(v) and v > 0, "finite and > 0")
# rank_tol cuts sv / sv_max and v_tol the singular values of an orthonormal basis's
# anchor block; both lie in [0, 1], so a tolerance >= 1 would discard every direction.
# The floors of these two and of fd_step are the lowest values at which no verdict
# moved in a sweep over the built-ins and a 46-term polynomial (3^3 and 5^3, six
# seeds, 12 to 40 samples); rank_tol 3e-12, v_tol 1e-11 and fd_step 3e-8 each flip one.
_UNIT = (lambda v: 1e-10 <= v < 1, "in [1e-10, 1)")
_FD_STEP = (lambda v: 1e-7 <= v < math.inf, "finite and >= 1e-7")


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

    body_kind: Optional[str] = "homogeneous_isotropic"
    body_polynomial: Optional[dict] = None
    resolution: tuple = _setting((5, 5, 5), "grid.resolution", tuple,
                                 (lambda r: min(r) >= 3, "3 integers >= 3"))
    margin: float = _setting(0.1, "grid.margin", float, _POSITIVE)
    sample_count: int = _setting(24, "samples.count", int, (lambda n: n >= 12, ">= 12"))
    seed: int = _setting(20240, "samples.seed", int, (lambda n: n >= 0, ">= 0"))
    rank_tol: float = _setting(DEFAULT_RANK_TOL, "tolerances.rank_tol", float, _UNIT)
    v_tol: float = _setting(DEFAULT_V_TOL, "tolerances.v_tol", float, _UNIT)
    flat_tol: float = _setting(DEFAULT_FLAT_TOL, "tolerances.flat_tol", float, _POSITIVE)
    fd_step: float = _setting(DEFAULT_FD_STEP, "tolerances.fd_step", float, _FD_STEP)
    # None selects the relative default rule (see bodies.membership_tol).
    membership_tol: Optional[float] = _setting(None, "tolerances.membership_tol", float,
                                               _POSITIVE)
    emit_singular_values: bool = _setting(False, "flags.emit_singular_values", bool)
    emit_chart: bool = _setting(False, "flags.emit_chart", bool)
    emit_trajectories: bool = _setting(False, "flags.emit_trajectories", bool)

    def __post_init__(self):
        for f in _SETTINGS:
            value = getattr(self, f.name)
            if value is None and f.default is None:
                continue
            try:
                object.__setattr__(self, f.name, _coerce(value, f.metadata["kind"]))
            except (TypeError, OverflowError) as exc:
                raise ConfigError(f"malformed {f.metadata['path']} = {value!r}: {exc}") from None
        self.validate()

    def validate(self) -> "AnalysisConfig":
        if (self.body_kind is None) == (self.body_polynomial is None):
            raise ConfigError("config must select exactly one of builtin body or polynomial")
        poly = self.body_polynomial
        if poly is not None:
            # resolve_body reads only these keys, and echo() copies the object whole
            if not isinstance(poly, dict) or "terms" not in poly:
                raise ConfigError("polynomial body needs a 'terms' list")
            unknown = set(poly) - {"terms", "lo", "hi", "name"}
            if unknown:
                raise ConfigError(f"unknown keys in 'body.polynomial': {sorted(unknown)}")
            if not isinstance(poly.get("name", ""), str):
                raise ConfigError(f"body.polynomial.name must be a string, got {poly['name']!r}")
        for f in _SETTINGS:
            value, check = getattr(self, f.name), f.metadata["check"]
            if check and value is not None and not check[0](value):
                raise ConfigError(f"{f.metadata['path']} must be {check[1]}, got {value!r}")
        if self.margin <= self.fd_step:
            raise ConfigError("grid margin must exceed fd_step so stencils stay in the box")
        return self

    @staticmethod
    def from_dict(raw: dict) -> "AnalysisConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config document must be a JSON object")
        sections = _nest((f.metadata["path"], f.name) for f in _SETTINGS)
        unknown = set(raw) - set(sections) - {"body"}
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")

        body = raw.get("body", "homogeneous_isotropic")
        if isinstance(body, str):
            kwargs = {"body_kind": body}
        elif isinstance(body, dict) and "builtin" in body:
            kwargs = {"body_kind": body["builtin"]}
        elif isinstance(body, dict) and "polynomial" in body:
            kwargs = {"body_kind": None, "body_polynomial": body["polynomial"]}
        else:
            raise ConfigError("body must be a builtin name or {'polynomial': {...}}")

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
        """Full configuration echo, including the package-level constants."""
        doc = _nest((f.metadata["path"], getattr(self, f.name)) for f in _SETTINGS)
        doc["body"] = self.body_kind if self.body_kind else {"polynomial": self.body_polynomial}
        doc["constants"] = {
            "point_tol": jets.POINT_TOL,
            "det_tol": jets.DET_TOL,
            "rank_gap_floor": RANK_GAP_FLOOR,
        }
        return doc


_SETTINGS = tuple(f for f in fields(AnalysisConfig) if "path" in f.metadata)


def resolve_body(cfg: AnalysisConfig) -> Body:
    if cfg.body_kind is not None:
        return builtin_body(cfg.body_kind)
    poly = cfg.body_polynomial
    try:
        return polynomial_body(
            poly["terms"], poly.get("lo"), poly.get("hi"), poly.get("name", "polynomial")
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed polynomial body: {exc}") from exc


def fiber_stage(body: Body, cfg: AnalysisConfig) -> tuple:
    """Grid, sample set and per-point fibers: the stage shared by analyze and flow."""
    try:
        grid = make_grid(body.lo, body.hi, cfg.resolution, cfg.margin)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc
    samples = make_samples(cfg.sample_count, cfg.seed)
    try:
        fibers = fibers_at(body, grid.points, samples, cfg.rank_tol, cfg.fd_step)
    except MatbodyError as exc:
        x = grid.points[exc.index[0]]
        raise type(exc)(f"at grid point {x.tolist()}: {exc}") from exc
    return grid, samples, fibers


def _entry(path: str, **kw):
    """Report field stored at ``path`` of the canonical document."""
    return field(metadata={"path": path}, **kw)


@dataclass
class AnalysisReport:
    """Pipeline results; each field declares its place in the canonical document."""

    config: AnalysisConfig
    body_name: str = _entry("body")
    grid_shape: list = _entry("grid_shape")
    point_records: list = _entry("points")
    uniformity: str = _entry("uniformity.verdict")
    offending_points: list = _entry("uniformity.offending_points")
    rank_ambiguous_points: list = _entry("diagnostics.rank_ambiguous_points")
    fiber_dim_levels: list = _entry("diagnostics.fiber_dim_levels")
    membership_tol_used: Optional[float] = _entry("diagnostics.membership_tol")
    homogeneity: str = _entry("homogeneity.verdict", default="n/a")
    homogeneity_reason: str = _entry(
        "homogeneity.reason", default="body is not uniform; no material connection exists")
    max_abs_gamma: Optional[float] = _entry("connection.max_abs_gamma", default=None)
    lift_residual_max: Optional[float] = _entry("connection.lift_residual_max", default=None)
    max_abs_R: Optional[float] = _entry("flatness.max_abs_R", default=None)
    max_abs_T: Optional[float] = _entry("flatness.max_abs_T", default=None)
    interior_max_abs_R: Optional[float] = _entry("flatness.interior_max_abs_R", default=None)
    interior_max_abs_T: Optional[float] = _entry("flatness.interior_max_abs_T", default=None)
    exp_membership_defect: Optional[float] = _entry("diagnostics.exp_membership_defect",
                                                    default=None)
    chart: Optional[dict] = _entry("chart", default=None)
    trajectory: Optional[list] = _entry("trajectory", default=None)
    timings: dict = field(default_factory=dict)

    def to_canonical_dict(self) -> dict:
        """Deterministic payload: everything except wall-clock timings."""
        doc = _nest((f.metadata["path"], getattr(self, f.name))
                    for f in fields(self) if "path" in f.metadata)
        doc.update(schema=SCHEMA_NAME, config=self.config.echo())
        return doc


# The element-type sets of lists that convert and write without a per-item walk.
_FLOAT, _INT = frozenset([float]), frozenset([int])


def _native(obj):
    """Recursively convert numpy scalars/arrays to JSON-native values for the report.

    Non-finite floats become None.  ``run_analysis`` passes its results through
    this once, so a report's fields already hold JSON-native values.  A float
    array with only finite entries is one ``tolist()``, and a list of only
    floats (with a finite sum, so no NaN or +-inf) or only ints is copied as it
    is; both tests run in C.
    """
    if isinstance(obj, dict):
        return {k: _native(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        kinds = set(map(type, obj))
        if kinds == _INT or (kinds <= _FLOAT and math.isfinite(sum(obj))):
            return list(obj)
        return [_native(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and np.isfinite(obj).all():
            return obj.tolist()
        return _native(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def run_analysis(cfg: AnalysisConfig) -> AnalysisReport:
    """Full uniformity/homogeneity pipeline; deterministic for a fixed config."""
    body = resolve_body(cfg)
    timings = {}

    t0 = time.perf_counter()
    grid, samples, fibers = fiber_stage(body, cfg)
    timings["fibers_s"] = time.perf_counter() - t0

    uni = uniformity_verdict(fibers, cfg.v_tol)
    dims = [f.dim for f in fibers]
    spectra = np.stack([f.singular_values for f in fibers])
    index = np.stack(grid.index_of(np.arange(grid.n_points)), axis=-1).tolist()
    gaps = sv_gaps(spectra, dims).tolist()
    records = [{"index": idx, "x": x, "fiber_dim": dim, "isotropy_dim": iso,
                "anchor_rank": rank, "sv_gap": gap}
               for idx, x, dim, iso, rank, gap in zip(index, grid.points.tolist(), dims,
                                                      uni.isotropy_dims, uni.anchor_ranks, gaps)]
    for rec, sv in zip(records, spectra.tolist() if cfg.emit_singular_values else ()):
        rec["singular_values"] = sv

    out = dict(
        body_name=body.name,
        grid_shape=grid.shape,
        point_records=records,
        uniformity=uni.verdict,
        offending_points=sorted(index[p] for p in uni.offending),
        rank_ambiguous_points=[idx for idx, gap in zip(index, gaps) if gap < RANK_GAP_FLOOR],
        fiber_dim_levels=sorted(set(dims)),
        membership_tol_used=cfg.membership_tol,
    )
    if uni.uniform:
        t0 = time.perf_counter()
        section = minimal_lift_section(grid, fibers, cfg.v_tol)
        conn = christoffels(section)
        report = curvature_torsion(conn)
        hom = homogeneity_verdict(uni, report, cfg.flat_tol)
        timings["connection_s"] = time.perf_counter() - t0
        out.update(
            homogeneity=hom.verdict,
            homogeneity_reason=hom.reason,
            max_abs_gamma=conn.max_abs(),
            lift_residual_max=float(np.max(section.residuals)),
            max_abs_R=report.max_abs_R,
            max_abs_T=report.max_abs_T,
            interior_max_abs_R=report.interior_max_abs_R,
            interior_max_abs_T=report.interior_max_abs_T,
        )

        t0 = time.perf_counter()
        center = grid.points[grid.n_points // 2]
        if cfg.membership_tol is None:
            out["membership_tol_used"] = membership_tol(body, samples, [center])
        out["exp_membership_defect"], out["trajectory"] = _exponential_cross_check(
            body, section, samples, center, keep_records=cfg.emit_trajectories
        )
        timings["cross_check_s"] = time.perf_counter() - t0

        if cfg.emit_chart and hom.verdict == "homogeneous_evidence":
            t0 = time.perf_counter()
            chart = build_homogeneous_chart(conn, center, cfg.flat_tol)
            interior_max, full_max = chart_christoffels(conn, chart)
            out["chart"] = {
                "x0": chart.x0.tolist(),
                "coords": chart.coords,
                "frames": chart.frames,
                "gamma_prime_interior_max": interior_max,
                "gamma_prime_max": full_max,
            }
            timings["chart_s"] = time.perf_counter() - t0

    return AnalysisReport(cfg, **_native(out), timings=timings)


def _exponential_cross_check(body: Body, section, samples, center,
                             t: float = 0.1, keep_records: bool = False) -> tuple:
    """Membership defect of the exponentiated lift in direction e1 at the grid center.

    Links the infinitesimal fiber computation back to the finite membership
    test along the flow; reported as a diagnostic, never gated.  Optionally
    returns the per-step trajectory records for the report.  When the check
    cannot run -- the trajectory leaves the grid hull, or its jet is singular
    or non-finite -- it yields (None, None).
    """
    try:
        records = exp_trajectory(section.flow_field([1.0, 0.0, 0.0]), t, center)
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
        return canonical_json(report.to_canonical_dict())
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
    nx, ny, nz = r.grid_shape
    recs = {tuple(rec["index"]): rec for rec in r.point_records}
    lines = []
    lines.append(f"matbody analysis: body = {r.body_name}")
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
    lines.append(f"uniformity verdict : {r.uniformity}")
    if r.offending_points:
        lines.append("offending grid points (anchor rank < 3), lexicographic:")
        for idx in sorted(r.offending_points):
            rec = recs[tuple(idx)]
            lines.append(f"  index {idx}  x = {rec['x']}  anchor_rank = {rec['anchor_rank']}")
    if r.max_abs_gamma is not None:
        lines.append(f"connection         : max|Gamma| = {r.max_abs_gamma:.6e}, "
                     f"lift residual max = {r.lift_residual_max:.3e}")
        lines.append(f"flatness           : max|R| = {r.max_abs_R:.6e}, "
                     f"max|T| = {r.max_abs_T:.6e}")
    lines.append(f"homogeneity verdict: {r.homogeneity}")
    lines.append(f"  reason: {r.homogeneity_reason}")
    if r.rank_ambiguous_points:
        lines.append(f"rank-ambiguous points (sv gap < {RANK_GAP_FLOOR:g}x): "
                     f"{sorted(r.rank_ambiguous_points)}")
    if r.exp_membership_defect is not None:
        lines.append(f"exponential cross-check: membership defect {r.exp_membership_defect:.3e} "
                     f"(tol {r.membership_tol_used:.3e})")
    if r.chart is not None:
        lines.append(f"chart: recomputed interior max|Gamma'| = "
                     f"{r.chart['gamma_prime_interior_max']:.3e}")
    if r.timings:
        stamps = ", ".join(f"{k} = {v:.3f}" for k, v in sorted(r.timings.items()))
        lines.append(f"timings (s): {stamps}")
    return "\n".join(lines) + "\n"
