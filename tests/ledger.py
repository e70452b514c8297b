"""The report ledger: the answers of the 32 built-in reports, kept in ``ledger.json``.

The configs are the four built-in bodies at 3^3, 4^3, 5^3 and 9^3, each with no
flags and with every ``emit_*`` flag, at the default samples.  Per config the
ledger holds the discrete answers (verdicts, per-point fibre dims, isotropy dims
and anchor ranks, offending and rank-ambiguous points), which
``test_ledger.py`` compares exactly, and the float summaries (connection,
flatness, diagnostics, chart Gamma'), which it compares to REL_TOL.  ABS_TOL is
the rounding floor: an exactly flat lift reads max(|R|, |T|) near 1e-10 and a
lift residual near 1e-16, and LAPACK builds differ there.

    PYTHONPATH=src python tests/ledger.py write     # regenerate tests/ledger.json
    PYTHONPATH=src python tests/ledger.py sha256    # hash each structured report
    PYTHONPATH=src python tests/ledger.py fibres    # one hash over the fibre bytes

``sha256`` prints, per config, the hash of the structured report and of the report
without its ``config`` echo.  ``fibres`` prints one hash over the fibres (basis,
spectrum, anchor singular values, sv_gap) of the four built-ins at 3^3, 5^3 and
9^3 with the default samples, each from its exact gradient and differenced
(``oracles.opaque``), so it covers the row path that no report takes.  Run them
on two trees to compare their bytes; the hashes are not in the ledger, and no
test reads them.
"""

import hashlib
import json
import struct
import sys
from pathlib import Path

from matbody import AnalysisConfig, emit_report, fibers_at, make_grid, make_samples, run_analysis
from matbody.analysis import canonical_json
from oracles import opaque

LEDGER_PATH = Path(__file__).with_name("ledger.json")
REL_TOL = 1e-6
ABS_TOL = 1e-8
BODIES = ("homogeneous_isotropic", "uniform_fgm", "uniform_fgm_integrable", "nonuniform")
ALL_FLAGS = dict(emit_singular_values=True, emit_chart=True, emit_trajectories=True)
# (section, key) of each float summary; a section that is null reads null for each key
FLOATS = [("connection", "max_abs_gamma"), ("connection", "lift_residual_max"),
          ("flatness", "max_abs_R"), ("flatness", "max_abs_T"),
          ("flatness", "interior_max_abs_R"), ("flatness", "interior_max_abs_T"),
          ("diagnostics", "membership_tol"), ("diagnostics", "exp_membership_defect"),
          ("chart", "gamma_prime_interior_max"), ("chart", "gamma_prime_max")]


def configs() -> dict:
    """Ledger name -> AnalysisConfig keyword arguments, in ledger order."""
    return {f"{body} {n}^3{' all-flags' if flags else ''}":
            dict(body=body, resolution=(n, n, n), **flags)
            for body in BODIES for n in (3, 4, 5, 9) for flags in ({}, ALL_FLAGS)}


def entry(doc: dict) -> dict:
    """The ledger entry of a structured report document."""
    points = doc["points"]
    return {
        "discrete": {
            "body": doc["body"],
            "grid_shape": doc["grid_shape"],
            "uniformity": doc["uniformity"]["verdict"],
            "offending_points": doc["uniformity"]["offending_points"],
            "homogeneity": doc["homogeneity"]["verdict"],
            "reason": doc["homogeneity"]["reason"],
            "dims": [[p["fiber_dim"], p["isotropy_dim"], p["anchor_rank"]] for p in points],
            "fiber_dim_levels": doc["diagnostics"]["fiber_dim_levels"],
            "rank_ambiguous_points": doc["diagnostics"]["rank_ambiguous_points"],
            "emitted": [k for k in ("chart", "trajectory") if doc[k] is not None]
                       + ["singular_values"] * ("singular_values" in points[0]),
        },
        "floats": {f"{section}.{key}": (doc[section] or {}).get(key) for section, key in FLOATS},
    }


def run(kwargs: dict) -> dict:
    return run_analysis(AnalysisConfig(**kwargs)).document


def write() -> None:
    ledger = {name: entry(run(kwargs)) for name, kwargs in configs().items()}
    lines = [json.dumps(name) + ": " + json.dumps(e, sort_keys=True, separators=(",", ":"))
             for name, e in ledger.items()]
    LEDGER_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


def sha256() -> None:
    for name, kwargs in configs().items():
        report = run_analysis(AnalysisConfig(**kwargs))
        full = emit_report(report, "structured")
        bare = canonical_json({k: v for k, v in report.document.items() if k != "config"})
        print(hashlib.sha256(full).hexdigest(), hashlib.sha256(bare).hexdigest(), name)


def fibres() -> None:
    digest = hashlib.sha256()
    for name in BODIES:
        for n in (3, 5, 9):
            cfg = AnalysisConfig(body=name, resolution=(n, n, n))
            body = cfg.material_body
            points = make_grid(body.lo, body.hi, cfg.resolution, cfg.margin).points
            samples = make_samples(cfg.sample_count, cfg.seed)
            for rows_from in (body, opaque(body)):
                for f in fibers_at(rows_from, points, samples, cfg.rank_tol, cfg.fd_step):
                    for part in (f.basis, f.singular_values, f.anchor_sv):
                        digest.update(part.tobytes())
                    digest.update(struct.pack("<d", f.sv_gap))
    print(digest.hexdigest())


if __name__ == "__main__":
    commands = {"write": write, "sha256": sha256, "fibres": fibres}
    if len(sys.argv) != 2 or sys.argv[1] not in commands:
        sys.exit(f"usage: python {sys.argv[0]} {{write|sha256|fibres}}")
    commands[sys.argv[1]]()
