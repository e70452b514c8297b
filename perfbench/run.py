"""matbody benchmark: one workload, measured for a fixed time, outputs checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verdict_table --seed 1 --seconds 30 --trace 0

The load is closed-loop: one process, pinned to one CPU, runs the workload's
operations back to back, with BLAS capped at one thread. After a warm-up
operation (the workload's first code paths at a small size), whole passes
over the operations repeat until the time is up (at least one pass). Each
operation's time is its median over the run, in reference seconds (see
speed.py), and a pass costs the sum of those medians.

--trace 0 prints the end-to-end metrics; --trace 1 wraps the package's layer
boundaries in spans and prints per-layer metrics per pass instead. Either way
the last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from tracing import LAYER_METRICS, Hooks, Tracer, layer_metrics, parse_importtime

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 4
PROBE_TIMEOUT_S = 60
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("points_per_s", "1/s"),
    ("jets_per_s", "1/s"),
    ("rk4_steps_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["verdict_table", "flat_chart", "jet_flows"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def probe_setup(root: Path, configs: list, importtime: bool, speed) -> tuple:
    """Median set-up seconds over SETUP_RUNS fresh interpreters, and import times.

    One unmeasured probe first fills the bytecode cache. Each probe's own
    figure is scaled to reference seconds by the readings around it.
    """
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += [str(HERE / "probe_setup.py"), json.dumps(configs)]
    seconds, imports = [], defaultdict(list)
    for k in range(SETUP_RUNS + 1):
        token = speed.start()
        done = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        measured, reference = speed.stop(token)
        if k == 0:
            continue
        scale = reference / measured
        seconds.append(float(done.stdout.strip().splitlines()[-1]) * scale)
        for name, value in parse_importtime(done.stderr).items():
            imports[name].append(value * scale)
    return statistics.median(seconds), {k: statistics.median(v) for k, v in imports.items()}


def measure(workload, seconds: float, trace: bool, speed) -> dict:
    """Warm up, then run passes over the operations until ``seconds`` have elapsed.

    Every structured report must be byte-identical to the first one its
    operation produced. With tracing on, the warm-up runs once untraced and
    once traced: their reports must match, and the time difference is the
    tracing overhead. Times are in reference seconds (see speed.py), the
    measured ones are kept as ``raw``. Traced runs take readings only around
    operations, so that no reading lands inside a span.
    """
    from workloads import timed

    tracer = Tracer() if trace else None
    hooks = None
    digests = {}
    times, raw, units, layers = defaultdict(list), defaultdict(list), {}, defaultdict(list)
    attempted = failed = 0
    problems_seen = []

    def record(op, outcome):
        nonlocal attempted, failed
        if outcome.report is not None:
            digest = hashlib.sha256(outcome.report).hexdigest()
            if digests.setdefault(op.name, digest) != digest:
                outcome.problems.append("structured report differs from the first run")
        attempted += 1
        if outcome.problems:
            failed += 1
            problems_seen.append(f"{op.name}: {'; '.join(outcome.problems)}")
        units.setdefault(op.name, outcome.units)

    ops, warmup = workload.ops, workload.warmup
    sampling = contextlib.nullcontext() if trace else speed.sampling()
    with sampling:
        _, warm_s, warm = timed(warmup, speed)
        record(warmup, warm)
        overhead_s = 0.0
        if tracer is not None:
            hooks = Hooks(tracer).install()
        try:
            if tracer is not None:
                _, traced_s, traced = timed(warmup, speed)
                tracer.drain()
                record(warmup, traced)
                overhead_s = traced_s - warm_s
            deadline = time.perf_counter() + seconds
            i = 0
            while True:
                op = ops[i % len(ops)]
                # After the first pass, start no operation that would overrun.
                left = deadline - time.perf_counter()
                if i >= len(ops) and left < statistics.median(raw[op.name]):
                    break
                measured, reference, outcome = timed(op, speed)
                if tracer is not None:
                    scale = reference / measured
                    layers[op.name].append({k: v * scale if k.endswith("_s") else v
                                            for k, v in layer_metrics(*tracer.drain()).items()})
                record(op, outcome)
                raw[op.name].append(measured)
                times[op.name].append(reference)
                i += 1
        finally:
            if hooks is not None:
                hooks.uninstall()
    return {"overhead_s": overhead_s, "times": times, "raw": raw, "units": units, "layers": layers,
            "attempted": attempted, "failed": failed, "problems": problems_seen,
            "missing": hooks.missing if hooks is not None else []}


def per_pass(samples: dict) -> float:
    """Cost of one pass: sum over operations of the median of their samples."""
    return sum(statistics.median(v) for v in samples.values())


def end_to_end(run: dict, setup_s: float) -> dict:
    """The end-to-end metrics of an untraced run."""
    med = {name: statistics.median(v) for name, v in run["times"].items()}

    def rate(unit):
        # Units per second of the operations that produce this kind of unit.
        names = [n for n in med if run["units"].get(n, {}).get(unit)]
        work = sum(run["units"][n][unit] for n in names)
        busy = sum(med[n] for n in names)
        return work / busy if busy else 0.0

    return {
        "wall_s": sum(med.values()),
        "setup_s": setup_s,
        "points_per_s": rate("points"),
        "jets_per_s": rate("jets"),
        "rk4_steps_per_s": rate("rk4_steps"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (run["attempted"] - run["failed"]) / run["attempted"],
    }


def per_layer(run: dict, imports: dict) -> dict:
    """The per-layer metrics of a traced run, per pass; 0 where nothing was recorded."""
    names = {name for sample in run["layers"].values() for s in sample for name in s}
    out = {name: per_pass({op: [s[name] for s in samples]
                           for op, samples in run["layers"].items()})
           for name in names}
    evals = out.get("bodies.evaluations", 0)
    if evals:
        out["bodies.ns_per_evaluation"] = out["bodies.evaluate_s"] * 1e9 / evals
    out["trace.wall_s"] = per_pass(run["times"])
    out["trace.overhead_s"] = run["overhead_s"]
    out.update(imports)
    return {name: out.get(name, 0.0) for name, _unit in LAYER_METRICS}


def machine() -> str:
    import numpy

    blas = ",".join(f"{k}={os.environ.get(k)}" for k in BLAS_ENV)
    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"nproc {os.cpu_count()}, {blas}, pinned to cpu {sorted(os.sched_getaffinity(0))}")


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "matbody" / "__init__.py").is_file():
        print(f"no matbody sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # Cap BLAS threads before numpy loads and keep the benchmark and its set-up
    # probes on one CPU, where the speed readings are taken too.
    for key in BLAS_ENV:
        os.environ[key] = "1"
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(src))
    import matbody as mb

    if not Path(mb.__file__).resolve().is_relative_to(src.resolve()):
        print(f"imported matbody from {mb.__file__}, not from {src}", file=sys.stderr)
        return 2
    from speed import Speed
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](mb, args.seed)
    speed = Speed()
    setup_s, imports = probe_setup(root, workload.setup_configs, bool(args.trace), speed)
    run = measure(workload, args.seconds, bool(args.trace), speed)

    if args.trace:
        metrics = per_layer(run, imports)
        units = dict(LAYER_METRICS)
    else:
        metrics = end_to_end(run, setup_s)
        units = dict(END_TO_END)
    print(f"# {args.workload} seed {args.seed}: {machine()}")
    print("# ops per name: " + ", ".join(f"{k}={len(v)}" for k, v in run["times"].items()))
    print(f"# measured seconds per pass {per_pass(run['raw']):.4f}; speed readings "
          f"median {statistics.median(speed.readings) * 1e3:.3f} ms, "
          f"range {min(speed.readings) * 1e3:.3f}-{max(speed.readings) * 1e3:.3f} ms")
    for problem in run["problems"]:
        print(f"# FAILED {problem}")
    if run["missing"]:
        print("# missing hooks (reported as 0): " + ", ".join(run["missing"]))
    print(f"# fail_ratio {run['failed'] / run['attempted']:.6g}")
    for name, value in metrics.items():
        print(f"{args.workload:<14} {name:<34} {value:>16.6f} {units[name]}")
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
