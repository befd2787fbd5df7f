#!/usr/bin/env python3
"""hbvm benchmark: run one workload closed-loop for a fixed time and print
its metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds T --trace 0|1

NAME is one of the workloads in workloads.py.  With ``--trace 0`` the run
measures set-up time in fresh interpreters, then throughput and peak memory
with tracing off.  With ``--trace 1`` it alternates untraced and traced
units, and reports per-layer counts and self times normalised per operation
(a step or a spec).  The run prints a full report as one JSON line (also
written to ``--out`` if given), then, as its last line, one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The package is imported from ``src/`` of the checkout that holds this file;
without it the run exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# numpy, scipy and hbvm are imported only after load_workloads() has pinned
# the BLAS threads, and inside the set-up probe only after its clock starts.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("sextic-fixed", "kepler-gamma", "fpu-newton", "verify-sweep")

# Fresh interpreters per set-up measurement; one more runs first, unused,
# to compile the package's bytecode.
SETUP_PROBES = 7

# One BLAS thread (never more than nproc): a single-threaded baseline that
# does not depend on how many cores the host lends to the run.  On a 2-vCPU
# host the 512 x 512 LU of fpu-newton took the same time with 1 and 2.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}

# Host-speed references: fixed jobs of the kind of work that dominates a
# workload, "interpreter" (Python arithmetic around small numpy calls) or
# "blas" (LU factorisations of a 512 x 512 matrix).  The workload's job runs
# before the first unit and after every unit, outside the units' timing.  On
# a shared host its time follows the host's speed from second to second, so
# throughput is reported as on a host that runs the job in the nominal time.
REFERENCE_NOMINAL_S = {"interpreter": 0.025, "blas": 0.0125}

SELF_TIME_LAYERS = (
    "legendre.node_systems", "tableau.build", "spectral.eigenvalues",
    "spectral.stability_function", "spectral.a_stability_scan",
    "spectral.checks", "problems.catalog", "problems.H", "problems.grad_H",
    "integrator.driver", "integrator.step", "integrator.stage_solve",
    "integrator.jacobian", "integrator.lu_factor", "integrator.lu_solve",
    "cli.main", "cli.output",
)
CALL_METRICS = {
    "legendre.node_systems.calls": "legendre.node_systems",
    "tableau.build.calls": "tableau.build",
    "spectral.eigenvalues.calls": "spectral.eigenvalues",
    "spectral.stability_function.calls": "spectral.stability_function",
    "problems.H.calls": "problems.H",
    "problems.grad_H.calls_per_step": "problems.grad_H",
    "integrator.jacobian.calls": "integrator.jacobian",
    "integrator.lu_factor.calls": "integrator.lu_factor",
    "integrator.lu_solve.calls": "integrator.lu_solve",
}


def load_workloads():
    """Import the workloads against this checkout's sources."""
    if not (SRC / "hbvm" / "__init__.py").is_file():
        raise SystemExit(f"error: no hbvm package under {SRC}")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import hbvm
    if Path(hbvm.__file__).resolve().parent != SRC / "hbvm":
        raise SystemExit(f"error: imported hbvm from {hbvm.__file__}, not {SRC}")
    import workloads
    return workloads


def environment(seed: int) -> dict:
    import numpy
    import scipy

    def blas(module):
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info['name']} {info.get('version', '')}".strip()
        except (TypeError, KeyError):
            return "unknown"

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            commit = out.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": int(BLAS_THREADS),
        "commit": commit,
        "seed": seed,
    }


def probe_setup(name: str, seed: int) -> None:
    """Child side of the set-up measurement: import and build, then print
    the seconds it took."""
    t0 = time.perf_counter()
    workloads = load_workloads()
    workloads.make(name, seed, OUT_DIR)
    print(repr(time.perf_counter() - t0))


def measure_setup(name: str, seed: int) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES + 1):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout.split()[-1]))
    return samples[1:]


def reference_job(kind: str) -> float:
    """Seconds this host takes for the fixed reference job of a kind."""
    import numpy as np
    from scipy.linalg import lu_factor

    rng = np.random.default_rng(0)
    if kind == "interpreter":
        M, x = rng.standard_normal((8, 8)), np.ones(8)
        acc = 0.0
        t0 = time.perf_counter()
        for i in range(4000):
            acc += float(np.max(np.abs(M @ x - x))) + i * i % 7
    elif kind == "blas":
        A = rng.standard_normal((512, 512))
        t0 = time.perf_counter()
        for _ in range(2):
            lu_factor(A)
    else:
        raise ValueError(f"unknown reference job {kind!r}")
    return time.perf_counter() - t0


def closed_loop(wl, seconds: float) -> tuple[list, list[float]]:
    """Units in a closed loop, with the workload's reference job before the
    first and after each one."""
    units, refs = [], [reference_job(wl.reference)]
    start = time.perf_counter()
    while not units or time.perf_counter() - start < seconds:
        units.append(wl.run_unit())
        refs.append(reference_job(wl.reference))
    return units, refs


def throughput(wl, units, refs) -> float:
    """Median over units of operations per second, each unit scaled by the
    mean of the reference jobs on either side of it."""
    nominal = REFERENCE_NOMINAL_S[wl.reference]
    return statistics.median(
        u.ops / u.wall_s * (before + after) / (2 * nominal)
        for u, before, after in zip(units, refs, refs[1:]))


def alternating_loop(wl, seconds: float, tracer) -> tuple[list, list]:
    """Untraced and traced units in turn, so that a drift in the host's
    speed reaches both halves alike."""
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(wl.run_unit())
        with tracer:
            traced.append(wl.run_unit(tracer))
    return plain, traced


def per_op_wall(units) -> float:
    return statistics.median(u.wall_s / u.ops for u in units)


def counts(summary: dict, units) -> dict:
    """Machine-independent totals of a traced pass."""
    out = {layer: stats["calls"] for layer, stats in summary["layers"].items()}
    out["lu_order"] = summary["sizes"].get("hbvm.integrator:lu_factor", 0)
    out["ops"] = sum(u.ops for u in units)
    out["iterations"] = sum(u.iterations for u in units)
    out["out_bytes"] = sum(u.out_bytes for u in units)
    return out


def layer_metrics(summary: dict, traced, plain) -> dict:
    import numpy as np

    ops = sum(u.ops for u in traced)
    layers = summary["layers"]
    metrics = {}
    for layer in SELF_TIME_LAYERS:
        metrics[f"{layer}.self_s"] = (layers[layer]["self_s"] / ops, "s/op")
    for name, layer in CALL_METRICS.items():
        metrics[name] = (layers[layer]["calls"] / ops, "calls/op")
    steps = summary["step_durations_s"]
    p50, p99 = np.percentile(steps, [50, 99]) * 1e6 if steps.size else (0.0, 0.0)
    metrics.update({
        "integrator.iters_per_step": (sum(u.iterations for u in traced) / ops, "iters/op"),
        "integrator.lu_factor.order": (
            summary["sizes"].get("hbvm.integrator:lu_factor", 0), "rows"),
        "integrator.step.p50_us": (float(p50), "us"),
        "integrator.step.p99_us": (float(p99), "us"),
        "cli.output.bytes": (sum(u.out_bytes for u in traced) / ops, "B/op"),
        "trace.overhead_ratio": (per_op_wall(traced) / per_op_wall(plain), "ratio"),
        "trace.unattributed_s": (
            (sum(u.wall_s for u in traced) - summary["total_self_s"]) / ops, "s/op"),
    })
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workloads = load_workloads()
    report = {"workload": name, "seconds": seconds, "trace": int(trace),
              "env": environment(seed)}
    setup = None if trace else measure_setup(name, seed)
    wl = workloads.make(name, seed, OUT_DIR)
    report["op"] = wl.op
    warm = [wl.run_unit()]  # first calls and lazy set-up are not timed
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        plain, traced = alternating_loop(wl, seconds, tracer)
        summary = tracer.summary()
        units = warm + plain + traced
        metrics = layer_metrics(summary, traced, plain)
        report["counts"] = counts(summary, traced)
        report["targets"] = summary["targets"]
        report["absent_targets"] = tracer.absent
        report["absent_layers"] = tracer.absent_layers()
        report["step_samples"] = int(summary["step_durations_s"].size)
    else:
        loop, refs = closed_loop(wl, seconds)
        units = warm + loop
        metrics = {
            "setup_s": statistics.median(setup),
            "ops_per_s": throughput(wl, loop, refs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
        report["setup_samples_s"] = setup
    attempted = sum(u.ops for u in units)
    failed = sum(u.failed for u in units)
    if not trace:
        # Further names for the same run: the throughput under the
        # workload's own operation, and the gated quantities.
        end_to_end = dict(metrics)
        end_to_end[f"{wl.op}s_per_s"] = metrics["ops_per_s"]
        # Unscaled, and the host's speed while they ran.
        end_to_end["wall_ops_per_s"] = (
            statistics.median(u.ops / u.wall_s for u in loop), "1/s")
        end_to_end["ref_job_s"] = (statistics.median(refs), "s")
        end_to_end["failed_ratio"] = (failed / attempted, "1")
        drifts = [u.energy_drift_rel for u in units if u.energy_drift_rel is not None]
        refs = [u.ref_error for u in units if u.ref_error is not None]
        if drifts:
            end_to_end["energy_drift_rel"] = (max(drifts), "1")
        if refs:
            end_to_end["ref_error"] = (max(refs), "1")
        report["end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}
    report.update({
        "units": len(units),
        "attempted": attempted,
        "failed": failed,
        "errors": [e for u in units for e in u.errors][:10],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    return report


def result_line(report: dict) -> dict:
    return {"correct": report["failed"] == 0, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": report["metrics"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the report as JSON here")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0

    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(result_line(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
