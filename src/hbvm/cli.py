"""Command-line surface: tableau construction, spectrum and verification
reports, trajectory integration, order measurement, and stability scans.

Every command is a thin shell over the library with one output rule: its
machine output, JSON or CSV with reals written as their shortest
round-trip repr, goes to --out (stdout by default), and every line meant
for a person (summaries, failures, the order table) goes to stderr.  Exit
codes: 0 success, 1 failed check or non-convergent solver, 2 bad arguments
or an unreadable or unwritable file (nothing written).

Each option is declared once, in one of three shared groups: the method
spec, the check --tol, and the run options, whose solver defaults are
``SolverConfig``'s.  The check --tol and verify's --smax, --kmax and --seed
take their defaults from ``verification_sweep``'s signature.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import math
import sys

import numpy as np

from . import __version__
from .integrator import (
    SolverConfig,
    StageConvergenceError,
    convergence_order,
    energy_drift,
    integrate,
    trajectory_to_csv,
)
from .legendre import NodeFamily
from .problems import _BUILDERS, get_problem
from .spectral import (
    _entry,
    a_stability_scan,
    classify_spectrum,
    isospectral_check,
    verification_sweep,
)
from .tableau import (
    HbvmSpec,
    _dump_json,
    _spec_record,
    hbvm_tableau,
    tableau_from_json,
    tableau_to_json,
)


def _color(text: str, code: str) -> str:
    if not sys.stderr.isatty():
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


def _ok(flag: bool) -> str:
    return _color("PASS", "32") if flag else _color("FAIL", "31")


def _say(line: str) -> None:
    print(line, file=sys.stderr)


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _node_list(text: str) -> tuple[float, ...] | None:
    """--nodes: comma-separated numbers; an empty value means no nodes."""
    try:
        return tuple(float(v) for v in text.split(",")) if text else None
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None


def _parse_spec(args) -> HbvmSpec:
    return HbvmSpec(k=args.k, s=args.s, family=args.family, nodes=args.nodes)


def _solver_config(args) -> SolverConfig:
    return SolverConfig(mode=args.solver.replace("-", "_"), tol=args.tol,
                        max_iter=args.max_iter)


# -- subcommands -------------------------------------------------------------


def cmd_tableau(args) -> int:
    spec = _parse_spec(args)
    tab = hbvm_tableau(spec)
    _write(args.out, tableau_to_json(tab))
    return 0


def cmd_spectrum(args) -> int:
    spec = _parse_spec(args)
    report = isospectral_check(spec)
    passed = report.passes(args.tol)
    payload = {
        "spec": _spec_record(spec),
        "eigenvalues": list(report.eigenvalues),
        "zero_count": report.zero_count,
        "expected_zero_count": spec.k - spec.s,
        "nonzero": list(report.nonzero),
        "reference": list(report.reference),
        "max_match_distance": report.max_match_distance,
        "passed": passed,
    }
    _write(args.out, _dump_json(payload))
    _say(f"spectrum k={spec.k} s={spec.s} {spec.family.value}: "
         f"{report.zero_count} zero eigenvalues, "
         f"match distance {report.max_match_distance:.3e} {_ok(passed)}")
    return 0 if passed else 1


def cmd_verify(args) -> int:
    # a bad tableau file fails before the sweep runs
    checked = []
    if args.tableau_file:
        with open(args.tableau_file) as fh:
            tab = tableau_from_json(fh.read())
        if tab.s is None:
            raise ValueError("tableau file does not declare s")
        checked.append(_entry(
            {"k": tab.k, "s": tab.s, "family": f"file:{args.tableau_file}",
             "seed": None}, classify_spectrum(tab.A, tab.s), args.tol))
    entries = verification_sweep(args.smax, args.kmax, args.tol,
                                 args.seed) + checked
    _write(args.out, _dump_json(entries))
    failed = [e for e in entries if not e["passed"]]
    for e in failed:  # every count and residual the record holds
        fields = [f"{key} " + np.array2string(np.asarray(value), formatter={
                      "float": "{:.3e}".format}) for key, value in e.items()
                  if key not in ("spec", "passed") and value is not None]
        _say(f"  {e['spec']}: {_ok(False)} ({', '.join(fields)})")
    _say(f"verify: {len(entries)} specs, {len(entries) - len(failed)} "
         f"passed, {len(failed)} failed {_ok(not failed)}")
    return 1 if failed else 0


def cmd_integrate(args) -> int:
    problem = get_problem(args.problem)
    spec = _parse_spec(args)
    cfg = _solver_config(args)
    traj = integrate(spec, problem.system, problem.default_y0, args.h,
                     args.steps, cfg, mode=args.mode)
    _write(args.out, trajectory_to_csv(traj))
    max_dev, _ = energy_drift(traj)
    h0 = abs(traj.energies[0])
    rel = max_dev / h0 if h0 > 0 else max_dev
    _say(f"integrate {problem.name} k={spec.k} s={spec.s} mode={args.mode}: "
         f"{args.steps} steps, max |H - H0| = {max_dev:.3e} "
         f"(relative {rel:.3e})")
    return 0


def cmd_order(args) -> int:
    problem = get_problem(args.problem)
    spec = _parse_spec(args)
    cfg = _solver_config(args)
    # past 2100 halvings every finite --hmax is 0.0, which is refused
    h_list = [math.ldexp(args.hmax, -i)
              for i in range(min(args.levels, 2100))]
    fit = convergence_order(spec, problem, args.t_end, h_list, cfg,
                            mode=args.mode)
    payload = {
        "problem": problem.name,
        "spec": _spec_record(spec),
        "expected_order": 2 * spec.s,
        **dataclasses.asdict(fit),
    }
    _write(args.out, _dump_json(payload))
    _say(f"order {problem.name} k={spec.k} s={spec.s} "
         f"(expected {2 * spec.s}):")
    _say("  h                 error")
    for h, err in zip(fit.step_sizes, fit.errors):
        _say(f"  {h:<16.10g}  {err:.6e}")
    _say(f"  measured slope: {fit.slope:.4f}  "
         f"({fit.n_trimmed} point(s) at rounding floor trimmed)")
    return 0


def cmd_stability(args) -> int:
    spec = _parse_spec(args)
    tab = hbvm_tableau(spec)
    scan = a_stability_scan(tab)
    payload = {
        "spec": _spec_record(spec),
        "imag_axis_max_deviation": scan.imag_axis_max_deviation,
        "lhp_max_modulus": scan.lhp_max_modulus,
        "max_deviation": scan.max_deviation,
        "poles": list(scan.poles),
    }
    passed = scan.passes(args.tol)
    _write(args.out, _dump_json(payload))
    _say(f"stability k={spec.k} s={spec.s} {spec.family.value}: "
         f"max ||R(iy)|-1| = {scan.imag_axis_max_deviation:.3e}, "
         f"max |R| over left half-plane = {scan.lhp_max_modulus:.12f} "
         f"{_ok(passed)}")
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hbvm",
        description="Energy-preserving implicit Runge-Kutta toolbox",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared option groups.  argparse hands a parent's action objects to
    # every child, so a child sets no default for a dest a parent declares.
    spec = argparse.ArgumentParser(add_help=False)
    spec.add_argument("--k", type=int, required=True, help="number of stages")
    spec.add_argument("--s", type=int, required=True, help="polynomial degree")
    spec.add_argument("--family", choices=[f.value for f in NodeFamily],
                      default=HbvmSpec.family.value)
    spec.add_argument("--nodes", type=_node_list,
                      help="comma-separated custom nodes in (0, 1]")

    sweep = {name: param.default for name, param in
             inspect.signature(verification_sweep).parameters.items()}
    check = argparse.ArgumentParser(add_help=False)
    check.add_argument("--tol", type=float, default=sweep["tol"])

    run = argparse.ArgumentParser(add_help=False, parents=[spec])
    run.add_argument("--problem", required=True,
                     help="one of: " + ", ".join(_BUILDERS))
    run.add_argument("--mode", choices=["rk", "gamma"], default="rk")
    run.add_argument("--solver", choices=["fixed-point", "newton"],
                     default="fixed-point")
    run.add_argument("--tol", type=float, default=SolverConfig.tol,
                     help="stage residual tolerance")
    run.add_argument("--max-iter", type=int, default=SolverConfig.max_iter)

    def command(name, func, parents, summary, **defaults):
        p = sub.add_parser(name, parents=parents, help=summary)
        p.add_argument("--out", default="-",
                       help="file for the JSON or CSV output (default: stdout)")
        p.set_defaults(func=func, **defaults)
        return p

    command("tableau", cmd_tableau, [spec], "emit a tableau as JSON")
    command("spectrum", cmd_spectrum, [spec, check],
            "classify a stage-matrix spectrum")
    p = command("verify", cmd_verify, [check],
                "run structural checks over the spec matrix")
    p.add_argument("--smax", type=int, default=sweep["smax"])
    p.add_argument("--kmax", type=int, default=sweep["kmax"])
    p.add_argument("--seed", type=int, default=sweep["seed"],
                   help="seed for the random custom node sets")
    p.add_argument("--tableau-file", help="also check a serialised tableau")
    p = command("integrate", cmd_integrate, [run],
                "integrate a catalog problem to CSV",
                failure="integration failed")
    p.add_argument("--h", type=float, required=True, help="step size")
    p.add_argument("--steps", type=int, required=True)
    p = command("order", cmd_order, [run], "measure the convergence order",
                failure="order run failed")
    p.add_argument("--hmax", type=float, default=0.1)
    p.add_argument("--levels", type=int, default=4)
    p.add_argument("--t-end", type=float, default=2.0 * np.pi)
    command("stability", cmd_stability, [spec, check],
            "scan the linear stability function")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StageConvergenceError as exc:
        _say(f"{args.failure}: {exc}")
        return 1
    except (ValueError, KeyError, OSError) as exc:
        # str() of a KeyError is the repr of its message
        _say(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
