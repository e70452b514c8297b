"""Command-line entry point.

Subcommands:
  analyze  run the uniformity/homogeneity pipeline from a JSON config
  bodies   list the built-in analytic test bodies
  flow     integrate one exponential trajectory of the material lift

Exit codes: 0 analysis completed (whatever the verdicts), 2 config error,
3 numerical failure (out of memory included).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .analysis import (AnalysisConfig, canonical_json, emit_report, fiber_stage, run_analysis,
                       trajectory_records)
from .bodies import BUILTIN_DESCRIPTIONS
from .connection import minimal_lift_section
from .errors import ConfigError, MatbodyError
from .flows import MAX_STEP, exp_trajectory

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _load_config(path: str) -> AnalysisConfig:
    p = Path(path)
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except ValueError as exc:           # JSONDecodeError and UnicodeDecodeError
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    return AnalysisConfig.from_dict(raw)


def _write_out(data: bytes, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        try:
            Path(out).write_bytes(data)
        except OSError as exc:
            raise ConfigError(f"cannot write {out}: {exc}")


def _cmd_analyze(args) -> int:
    cfg = _load_config(args.config)
    report = run_analysis(cfg)
    _write_out(emit_report(report, args.format), args.out)
    return EXIT_OK


def _cmd_bodies(_args) -> int:
    width = max(len(n) for n in BUILTIN_DESCRIPTIONS)
    for name in sorted(BUILTIN_DESCRIPTIONS):
        print(f"{name:<{width}}  {BUILTIN_DESCRIPTIONS[name]}")
    return EXIT_OK


def _reals(text: str, n: int, option: str) -> np.ndarray:
    """Parse ``n`` comma-separated finite reals given to a command-line option."""
    try:
        values = np.array([float(v) for v in text.split(",")])
    except ValueError:
        values = None
    if values is None or values.shape != (n,) or not np.all(np.isfinite(values)):
        raise ConfigError(f"{option} expects {n} comma-separated finite real(s), got {text!r}")
    return values


def _cmd_flow(args) -> int:
    cfg = _load_config(args.config)
    x = _reals(args.x, 3, "--x")
    u = _reals(args.direction, 3, "--direction")
    if not np.any(u):
        raise ConfigError("--direction must not be all zero")
    t = float(_reals(args.t, 1, "--t")[0])
    step = float(_reals(args.step, 1, "--step")[0])
    if not 0 < step <= MAX_STEP:
        raise ConfigError(f"--step must be in (0, {MAX_STEP:g}], got {step:g}")

    grid, _, fibers = fiber_stage(cfg)
    section = minimal_lift_section(grid, fibers, cfg.v_tol)
    records = trajectory_records(exp_trajectory(section.flow_field(u), t, x, step))
    doc = {
        "schema": "matbody.trajectory.v1",
        "body": cfg.material_body.name,
        "x0": x.tolist(),
        "direction": u.tolist(),
        "t": t,
        "step": step,
        "records": records,
    }
    _write_out(canonical_json(doc), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="matbody",
        description="Uniformity and homogeneity analysis of simple elastic bodies",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="run the full analysis pipeline")
    a.add_argument("--config", required=True, help="path to JSON config")
    a.add_argument("--format", choices=["text", "structured"], default="text")
    a.add_argument("--out", default=None, help="output path (default stdout)")
    a.set_defaults(fn=_cmd_analyze)

    b = sub.add_parser("bodies", help="list built-in bodies")
    b.set_defaults(fn=_cmd_bodies)

    f = sub.add_parser("flow", help="dump one exponential trajectory of the material lift")
    f.add_argument("--config", required=True, help="path to JSON config")
    f.add_argument("--t", required=True, help="flow time")
    f.add_argument("--x", required=True, help="start point 'x,y,z'")
    f.add_argument("--direction", default="1,0,0", help="anchor direction 'x,y,z'")
    f.add_argument("--step", default="1e-3", help="RK4 step")
    f.add_argument("--out", default=None, help="output path (default stdout)")
    f.set_defaults(fn=_cmd_flow)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MatbodyError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"numerical failure: out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
