#!/usr/bin/env python3
"""drivenqubit benchmark: one workload, one seed, one JSON result line.

Run from the root of a source checkout (the package is imported from
``src/``, never from an installed copy):

    python3 perfbench/run.py --workload scan_map --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --smoke

Each run measures set-up in fresh processes, then runs the workload as a
closed loop (one caller, BLAS/OpenMP pools pinned to one thread) for
``--seconds``, checks the outputs of the last pass against independent
references, and prints a readable summary followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` spends half the time untraced and
half traced and reports the per-layer metrics with the tracing overhead.
``--workload all`` runs the three workloads in turn, each with its summary
and JSON line; ``--smoke`` does so at tiny sizes, traced, in a few seconds.
Results, provenance and spans go to ``.perfbench_out/``.  The exit code is
0 when the outputs are correct, 1 when a check failed, 2 when the package
cannot be found or a set-up probe fails.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# Pin the thread pools before anything imports numpy or scipy.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import importlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 5
SMOKE_SECONDS = 0.2
sys.path.insert(0, str(HERE))

E2E_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "point_ms_p50": "ms",
    "point_ms_p90": "ms",
}
# Printed and saved on every run, but kept out of the JSON metrics, which
# carry a regression bound.  On a correct program the check values are 0 or
# rounding noise, so a relative bound cannot apply; they decide "correct"
# instead.  The p99 point latency is set by host stalls of a few ms that hit
# some runs and not others, so from run to run it is not reproducible enough
# to bound.
REPORT_ONLY_UNITS = {"point_ms_p99": "ms", "max_err": "1", "mismatches": "count", "failed_share": "1"}

LAYER_UNITS = {
    "setup.import_s": "s",
    "dynamics.propagate_exact.calls": "count",
    "dynamics.propagate_exact.substeps": "count",
    "dynamics.propagate_exact.self_s": "s",
    "dynamics.propagate_exact.us_per_substep": "us",
    "dynamics.Unitary2.constructions": "count",
    "analysis.extract_frequency.calls": "count",
    "analysis.extract_frequency.samples": "count",
    "analysis.extract_frequency.self_s": "s",
    "analysis.extract_frequency.ms_per_msample": "ms",
    "analysis.scan_cell.ms_p50": "ms",
    "analysis.scan_cell.ms_p90": "ms",
    "transfer_matrix.quad.calls": "count",
    "transfer_matrix.quad.self_s": "s",
    "transfer_matrix.cycle_phases.self_s": "s",
    "transfer_matrix.full_cycle_matrix.self_s": "s",
    "transfer_matrix.tm_slow_resonance_lhs.self_s": "s",
    "transfer_matrix.propagate_tm.self_s": "s",
    "rwa.rwa_predict.self_s": "s",
    "specfun.bessel_jn.calls": "count",
    "specfun.bessel_jn.self_s": "s",
    "specfun.stokes_phase.calls": "count",
    "specfun.stokes_phase.self_s": "s",
    "cli.main.self_s": "s",
    "cli.bytes_out": "bytes",
    "trace.overhead_s": "s",
}
# Counts that must repeat exactly from pass to pass (and run to run).
EXACT_COUNTS = (
    "dynamics.propagate_exact.substeps",
    "transfer_matrix.quad.calls",
    "dynamics.Unitary2.constructions",
)


def load_package():
    """Import drivenqubit, CLI included, from this checkout's src/ and return the package."""
    init = SRC / "drivenqubit" / "__init__.py"
    if not init.is_file():
        print(f"perfbench: no package source at {init.relative_to(ROOT)}; run from a drivenqubit checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("drivenqubit")
    importlib.import_module("drivenqubit.cli")
    if Path(package.__file__).resolve() != init.resolve():
        print(f"perfbench: imported drivenqubit from {package.__file__}, not from {init}", file=sys.stderr)
        sys.exit(2)
    return package


def probe_setup(workload: str, seed: int) -> None:
    """Fresh-process set-up: import the package, then generate the inputs."""
    t0 = time.perf_counter()
    load_package()
    t1 = time.perf_counter()
    import workloads

    workloads.WORKLOADS[workload](seed, OUT_DIR)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1}))


def measure_setup(workload: str, seed: int, probes: int) -> tuple[float, float]:
    """Median wall time of fresh set-up processes, and their median import time."""
    walls, imports = [], []
    cmd = [sys.executable, str(HERE / "run.py"), "--probe-setup", "--workload", workload, "--seed", str(seed)]
    for _ in range(probes):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        walls.append(time.perf_counter() - t0)
        if done.returncode != 0:
            print(f"perfbench: set-up probe failed ({done.returncode}): {done.stderr.strip()}", file=sys.stderr)
            sys.exit(2)
        imports.append(json.loads(done.stdout.strip().splitlines()[-1])["import_s"])
    return statistics.median(walls), statistics.median(imports)


def run_passes(wl, package, seconds: float, min_passes: int, tracer=None) -> tuple[list[float], list[float], int]:
    """Closed loop: whole passes until ``seconds`` have elapsed (at least ``min_passes``).

    Returns each pass's timed work (the sum of its operation latencies, so
    reading back and hashing outputs between operations is left out), all
    operation latencies, and the number of failed operations.
    """
    walls: list[float] = []
    latencies: list[float] = []
    failed = 0
    set_op = tracer.set_op if tracer is not None else _no_op
    started = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - started < seconds:
        gc.collect()
        if tracer is not None:
            tracer.begin_pass(len(walls))
        lat, bad = wl.run_pass(package, set_op)
        walls.append(sum(lat))
        if tracer is not None:
            tracer.end_pass()
        latencies += lat
        failed += bad
    return walls, latencies, failed


def _no_op(_op: int) -> None:
    pass


def percentile(values: list[float], q: int) -> float:
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1]) if len(values) > 1 else values[0]


def layer_metrics(tracer, traced_walls, untraced_walls, import_s, bytes_out) -> tuple[dict, list[str]]:
    """Per-layer metrics: medians over traced passes of per-pass values."""
    rows = tracer.per_pass()
    problems = []
    for key in EXACT_COUNTS:
        values = {row.get(key, 0) for row in rows}
        if len(values) != 1:
            problems.append(f"{key} differs between passes: {sorted(values)}")

    def med(key: str) -> float:
        return statistics.median(row.get(key, 0) for row in rows)

    cells, unpaired = tracer.scan_cells_ms()
    if unpaired:
        problems.append(f"{unpaired} scan cells without exactly one propagate_exact call")
    m = {key: med(key) for key in LAYER_UNITS}
    m.update({
        "setup.import_s": import_s,
        "analysis.scan_cell.ms_p50": percentile(cells, 50) if cells else 0.0,
        "analysis.scan_cell.ms_p90": percentile(cells, 90) if cells else 0.0,
        "cli.bytes_out": bytes_out,
        "trace.overhead_s": statistics.median(traced_walls) - statistics.median(untraced_walls),
    })
    substeps = m["dynamics.propagate_exact.substeps"]
    samples = m["analysis.extract_frequency.samples"]
    m["dynamics.propagate_exact.us_per_substep"] = 1e6 * m["dynamics.propagate_exact.self_s"] / substeps if substeps else 0.0
    m["analysis.extract_frequency.ms_per_msample"] = 1e9 * m["analysis.extract_frequency.self_s"] / samples if samples else 0.0
    return m, problems


def provenance(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "drivenqubit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, probes: int, tiny: bool = False) -> dict:
    package = load_package()
    import tracing
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    setup_s, import_s = measure_setup(name, seed, probes)
    wl = workloads.WORKLOADS[name](seed, OUT_DIR, tiny=tiny)
    warm = workloads.WORKLOADS[name](seed, OUT_DIR, tiny=True)
    warm.run_pass(package, _no_op)

    budget = seconds / 2 if trace else seconds
    walls, latencies, failed = run_passes(wl, package, budget, 1)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    passes = len(walls)

    layers, problems = None, []
    if trace:
        tracer = tracing.Tracer()
        tracer.install(package)
        try:
            traced_walls, _, traced_failed = run_passes(wl, package, budget, 2, tracer)
        finally:
            tracer.uninstall()
        passes += len(traced_walls)
        failed += traced_failed
        bytes_out = wl.out.stat().st_size if wl.out else 0
        layers, problems = layer_metrics(tracer, traced_walls, walls, import_s, bytes_out)
        tracer.write(OUT_DIR / f"{name}-spans.json")

    chk = wl.check()
    attempted = passes * wl.ops_per_pass
    mismatches = chk.mismatches + len(problems)
    e2e = {
        "setup_s": setup_s,
        "run_s": statistics.median(walls),
        "peak_rss_mb": peak_rss_mb,
        "point_ms_p50": 1e3 * percentile(latencies, 50),
        "point_ms_p90": 1e3 * percentile(latencies, 90),
        "point_ms_p99": 1e3 * percentile(latencies, 99),
        "max_err": chk.max_err,
        "mismatches": mismatches,
        "failed_share": failed / attempted,
    }
    return {
        "correct": mismatches == 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "e2e": e2e,
        "layers": layers,
        "notes": chk.notes + problems,
        "pass_walls_s": walls,
        "point_samples": len(latencies),
        "provenance": provenance(name, seed, seconds, int(trace)),
    }


def report(result: dict, trace: bool) -> dict:
    """Print the readable summary; return the contract's JSON object."""
    prov = result["provenance"]
    print(f"perfbench {prov['workload']} seed={prov['seed']} trace={prov['trace']} "
          f"passes={len(result['pass_walls_s'])} points={result['point_samples']} "
          f"git={prov['git_sha']} python={prov['python']} numpy={prov['numpy']} scipy={prov['scipy']} "
          f"nproc={prov['nproc']} threads=1")
    for key, unit in {**E2E_UNITS, **REPORT_ONLY_UNITS}.items():
        print(f"  {key:<44} {result['e2e'][key]:>14.6g} {unit}")
    if result["layers"] is not None:
        for key, unit in LAYER_UNITS.items():
            print(f"  {key:<44} {result['layers'][key]:>14.6g} {unit}")
    for note in result["notes"]:
        print(f"  CHECK FAILED: {note}")
    values, units = (result["layers"], LAYER_UNITS) if trace else (result["e2e"], E2E_UNITS)
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("scan_map", "simulate_trace", "predict_grid", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload at tiny size, traced, in a few seconds")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        args.workload, args.seconds, args.trace = "all", SMOKE_SECONDS, 1
    if args.workload is None:
        parser.error("--workload is required")
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    names = ("scan_map", "simulate_trace", "predict_grid") if args.workload == "all" else (args.workload,)
    correct = True
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace),
                              1 if args.smoke else SETUP_PROBES, tiny=args.smoke)
        line = report(result, bool(args.trace))
        path = OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
        path.write_text(json.dumps({**result, "result": line}, indent=1) + "\n", encoding="utf-8")
        print(json.dumps(line))
        correct &= result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
