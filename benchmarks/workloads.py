"""The benchmark's workloads.

Each workload is built once (its set-up) and then runs units of work in a
closed loop: one unit is one CLI call or one library ``integrate`` call, and
the next starts only when the previous one has returned.  Units are meant to
be independent: before each one, every cache in ``hbvm`` is cleared, so that
a unit costs what one CLI process costs after its set-up, however many units
ran before it in this process.  ``run_unit`` times the call alone, then
checks its outputs; an output that fails a check counts its operations
(steps or specs) as failed.  ``run_unit`` takes the tracer only to wrap a
system the workload builds itself; CLI workloads get theirs wrapped through
``get_problem``.  ``reference`` names the host-speed reference job in run.py
that does the same kind of work as the workload.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import hbvm
from hbvm import cli, integrator
from hbvm.spectral import spec_matrix
from hbvm.tableau import HbvmSpec, abscissae, basis_matrices, hbvm_tableau

# Energy is conserved exactly (to round-off) when k >= nu * s / 2; the
# ceilings leave about two orders of magnitude above the drift measured on
# x86-64 with double precision.  Kepler is not polynomial, so its ceilings
# bound the large-k conservation and the order-8 error at h = 0.05.
EXACT_DRIFT_CEILING = 1e-12
KEPLER_DRIFT_CEILING = 1e-10
KEPLER_REF_CEILING = 1e-7


@dataclass
class UnitResult:
    """One timed call and the outcome of its output checks."""

    ops: int
    failed: int
    wall_s: float
    iterations: int = 0
    out_bytes: int = 0
    energy_drift_rel: float | None = None
    ref_error: float | None = None
    errors: list[str] = field(default_factory=list)

    def fail(self, message: str, ops: int | None = None) -> None:
        self.errors.append(message)
        self.failed = self.ops if ops is None else min(self.ops, self.failed + ops)


def reset_caches() -> None:
    """Clear every cache in the ``hbvm`` modules: each module-level callable
    with a ``cache_clear``, also behind wrappers such as the tracer's."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "hbvm" or name.startswith("hbvm.")):
            continue
        for value in list(vars(module).values()):
            while callable(value):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()
                value = getattr(value, "__wrapped__", None)


def _call_cli(argv: list[str]) -> tuple[int, float, str]:
    """Run the CLI in-process; returns (exit code, seconds, captured text)."""
    reset_caches()
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        wall = time.perf_counter() - t0
    return code, wall, captured.getvalue()


def _relative_drift(energies: np.ndarray) -> float:
    h0 = abs(energies[0])
    dev = float(np.max(np.abs(energies - energies[0])))
    return dev / h0 if h0 > 0 else dev


class CliIntegrate:
    """``hbvm integrate`` with a CSV written, one call per unit."""

    op = "step"
    # The time goes to the interpreter: grad_H calls and iteration
    # bookkeeping.
    reference = "interpreter"

    def __init__(self, name: str, argv: list[str], steps: int, outdir: Path,
                 drift_ceiling: float, ref_ceiling: float | None = None):
        self.steps = steps
        self.path = outdir / f"{name}.csv"
        self.argv = argv + ["--steps", str(steps), "--out", str(self.path)]
        self.drift_ceiling = drift_ceiling
        self.ref_ceiling = ref_ceiling
        # What every CLI call builds before its first step.
        args = cli.build_parser().parse_args(self.argv)
        self.problem = hbvm.get_problem(args.problem)
        spec = HbvmSpec(args.k, args.s)
        if args.mode == "gamma":
            self.method = basis_matrices(abscissae(spec), spec.s)
        else:
            self.method = hbvm_tableau(spec)

    def run_unit(self, tracer=None) -> UnitResult:
        self.path.unlink(missing_ok=True)  # never check a stale file
        code, wall, text = _call_cli(self.argv)
        res = UnitResult(ops=self.steps, failed=0, wall_s=wall)
        if code != 0:
            res.fail(f"exit code {code}: {text.strip()[-300:]}")
            return res
        try:
            data = self.path.read_text()
            lines = data.splitlines()
            rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        except (OSError, ValueError) as exc:
            res.fail(f"CSV does not parse back: {exc}")
            return res
        res.out_bytes = len(data.encode())
        dim = self.problem.system.dim
        if rows.shape != (self.steps + 1, dim + 3):
            res.fail(f"CSV shape {rows.shape}, expected {(self.steps + 1, dim + 3)}")
            return res
        res.iterations = int(rows[1:, -1].sum())
        res.energy_drift_rel = _relative_drift(rows[:, -2])
        if not res.energy_drift_rel <= self.drift_ceiling:
            res.fail(f"energy drift {res.energy_drift_rel:.3e} above "
                     f"{self.drift_ceiling:.0e}")
        if self.ref_ceiling is not None:
            ref = self.problem.reference_solution(rows[-1, 0])
            res.ref_error = float(np.max(np.abs(rows[-1, 1:dim + 1] - ref)))
            if not res.ref_error <= self.ref_ceiling:
                res.fail(f"reference error {res.ref_error:.3e} above "
                         f"{self.ref_ceiling:.0e}")
        return res


def fpu_chain(m: int, beta: float) -> integrator.HamiltonianSystem:
    """Fixed-end beta Fermi-Pasta-Ulam chain of m unit masses.

    H = sum p_i^2 / 2 + sum over the m + 1 springs of
    (dq)^2 / 2 + beta (dq)^4 / 4, with q_0 = q_{m+1} = 0 (Hairer, Lubich
    and Wanner, Geometric Numerical Integration, ch. I).  Degree 4.
    """

    def stretches(q):
        return np.diff(np.concatenate(([0.0], q, [0.0])))

    def H(y):
        d = stretches(y[:m])
        p = y[m:]
        return 0.5 * float(p @ p) + float(np.sum(0.5 * d * d + 0.25 * beta * d ** 4))

    def grad_H(y):
        tension = stretches(y[:m])
        tension = tension + beta * tension ** 3
        return np.concatenate((tension[:-1] - tension[1:], y[m:]))

    return integrator.HamiltonianSystem(dim=2 * m, H=H, grad_H=grad_H, poly_degree=4)


class FpuNewton:
    """Library ``integrate`` of a 64-mass FPU chain with simplified Newton.

    Each step factors the (k * 2m)^2 = 512^2 full-stage Newton matrix.
    """

    op = "step"
    # Half the time goes to the BLAS LU, and a shared host slows the rest,
    # large numpy calls in the Jacobian, as it slows the LU.
    reference = "blas"
    m = 64
    steps = 20

    def __init__(self, seed: int):
        self.system = fpu_chain(self.m, beta=1.0)
        self.y0 = 0.5 * np.random.default_rng(seed).standard_normal(2 * self.m)
        self.spec = HbvmSpec(4, 2)
        self.cfg = integrator.SolverConfig(mode="newton")
        # Built once for the set-up measurement; integrate builds its own
        # from the spec.
        self.method = hbvm_tableau(self.spec)

    def run_unit(self, tracer=None) -> UnitResult:
        system = self.system if tracer is None else tracer.instrument_system(self.system)
        res = UnitResult(ops=self.steps, failed=0, wall_s=0.0)
        reset_caches()
        t0 = time.perf_counter()
        try:
            traj = integrator.integrate(self.spec, system, self.y0, 0.05,
                                        self.steps, self.cfg)
        except integrator.StageConvergenceError as exc:
            res.wall_s = time.perf_counter() - t0
            res.fail(f"integrate failed: {exc}")
            return res
        res.wall_s = time.perf_counter() - t0
        if traj.states.shape != (self.steps + 1, 2 * self.m) \
                or not np.all(np.isfinite(traj.states)):
            res.fail("trajectory has the wrong shape or non-finite states")
            return res
        res.iterations = int(traj.iteration_counts[1:].sum())
        res.energy_drift_rel = _relative_drift(traj.energies)
        if not res.energy_drift_rel <= EXACT_DRIFT_CEILING:
            res.fail(f"energy drift {res.energy_drift_rel:.3e} above "
                     f"{EXACT_DRIFT_CEILING:.0e}")
        return res


class VerifySweep:
    """``hbvm verify --smax 4 --kmax 10 --seed <seed>`` with JSON written."""

    op = "spec"
    # The time goes to stability scans in the interpreter.
    reference = "interpreter"

    def __init__(self, seed: int, outdir: Path):
        self.path = outdir / "verify-sweep.json"
        self.argv = ["verify", "--smax", "4", "--kmax", "10", "--seed", str(seed),
                     "--out", str(self.path)]
        args = cli.build_parser().parse_args(self.argv)
        self.n_specs = len(spec_matrix(args.smax, args.kmax, args.seed))

    def run_unit(self, tracer=None) -> UnitResult:
        self.path.unlink(missing_ok=True)  # never check a stale file
        code, wall, text = _call_cli(self.argv)
        res = UnitResult(ops=self.n_specs, failed=0, wall_s=wall)
        try:
            data = self.path.read_text()
            entries = json.loads(data)
        except (OSError, ValueError) as exc:
            res.fail(f"exit code {code}; JSON does not parse back: {exc}")
            return res
        res.out_bytes = len(data.encode())
        if len(entries) != self.n_specs:
            res.fail(f"{len(entries)} entries, expected {self.n_specs}")
            return res
        not_passed = sum(e.get("passed") is not True for e in entries)
        if not_passed:
            res.fail(f"{not_passed} specs did not pass", ops=not_passed)
        if code != 0 and not res.failed:
            res.fail(f"exit code {code} although every spec passed: "
                     f"{text.strip()[-300:]}")
        return res


def make(name: str, seed: int, outdir: Path):
    """Build a workload: import-time and construction costs are its set-up."""
    outdir.mkdir(parents=True, exist_ok=True)
    if name == "sextic-fixed":
        return CliIntegrate(
            name, ["integrate", "--problem", "sextic", "--k", "6", "--s", "2",
                   "--h", "0.1", "--tol", "1e-15"],
            steps=1000, outdir=outdir, drift_ceiling=EXACT_DRIFT_CEILING)
    if name == "kepler-gamma":
        return CliIntegrate(
            name, ["integrate", "--problem", "kepler", "--k", "12", "--s", "4",
                   "--h", "0.05", "--mode", "gamma", "--solver", "newton"],
            steps=500, outdir=outdir, drift_ceiling=KEPLER_DRIFT_CEILING,
            ref_ceiling=KEPLER_REF_CEILING)
    if name == "fpu-newton":
        return FpuNewton(seed)
    if name == "verify-sweep":
        return VerifySweep(seed, outdir)
    raise ValueError(f"unknown workload {name!r}")
