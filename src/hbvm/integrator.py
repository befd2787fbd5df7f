"""Implicit Runge-Kutta stepping for canonical systems dy/dt = J grad H(y).

Two equivalent formulations are provided: the full k-stage form driven by a
Butcher tableau, and the reduced form that solves for the s expansion
coefficients of the underlying degree-s polynomial, shrinking the nonlinear
system from k*2m to s*2m unknowns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .tableau import (
    ButcherTableau,
    HbvmSpec,
    _format_real,
    abscissae,
    basis_matrices,
    hbvm_tableau,
)

__all__ = [
    "HamiltonianSystem",
    "SolverConfig",
    "StageConvergenceError",
    "StepDiagnostics",
    "GammaState",
    "Trajectory",
    "OrderFit",
    "canonical_symplectic_matrix",
    "rk_step",
    "gamma_step",
    "integrate",
    "energy_drift",
    "convergence_order",
    "trajectory_to_csv",
]

_SQRT_EPS = math.sqrt(float(np.finfo(float).eps))


class StageConvergenceError(RuntimeError):
    """Stage solver failed; carries the last residual and iteration count."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


def canonical_symplectic_matrix(dim: int) -> np.ndarray:
    """The 2m x 2m block matrix [[0, I], [-I, 0]] (coordinates first)."""
    if dim % 2:
        raise ValueError("state dimension must be even")
    m = dim // 2
    J = np.zeros((dim, dim))
    J[:m, m:] = np.eye(m)
    J[m:, :m] = -np.eye(m)
    return J


@dataclass(frozen=True)
class HamiltonianSystem:
    """Energy function, its gradient, and the structure matrix of the flow.

    poly_degree records the total degree when the energy is polynomial;
    None marks non-polynomial energies.
    """

    dim: int
    H: Callable[[np.ndarray], float]
    grad_H: Callable[[np.ndarray], np.ndarray]
    J: np.ndarray | None = None
    poly_degree: int | None = None

    def __post_init__(self):
        J = canonical_symplectic_matrix(self.dim) if self.J is None \
            else np.asarray(self.J, dtype=float)
        if J.shape != (self.dim, self.dim):
            raise ValueError("J must be dim x dim")
        if np.any(J != -J.T):
            raise ValueError("J must be exactly skew-symmetric")
        object.__setattr__(self, "J", J)

    def f(self, y: np.ndarray) -> np.ndarray:
        """Vector field J grad H."""
        return self.J @ self.grad_H(y)


@dataclass(frozen=True)
class SolverConfig:
    """Stage-solver settings; tol is an absolute max-norm residual bound."""

    mode: str = "fixed_point"  # or "newton"
    tol: float = 1e-13
    max_iter: int = 100
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.mode not in ("fixed_point", "newton"):
            raise ValueError("mode must be 'fixed_point' or 'newton'")
        if self.tol <= 0 or self.max_iter < 1:
            raise ValueError("need tol > 0 and max_iter >= 1")


@dataclass(frozen=True)
class StepDiagnostics:
    iterations: int
    residual: float
    mode: str


@dataclass(frozen=True)
class GammaState:
    """Expansion coefficients (s, 2m) and the k reconstructed stage states."""

    gamma: np.ndarray
    stage_values: np.ndarray


@dataclass
class Trajectory:
    """Uniform-step integration record; all arrays share one length."""

    times: np.ndarray
    states: np.ndarray
    energies: np.ndarray
    iteration_counts: np.ndarray


def _field_jacobian(sys: HamiltonianSystem, y: np.ndarray,
                    cfg: SolverConfig) -> np.ndarray:
    """Jacobian of f at y: user-supplied or central finite differences."""
    if cfg.jacobian is not None:
        return np.asarray(cfg.jacobian(y), dtype=float)
    n = y.size
    Jf = np.empty((n, n))
    for i in range(n):
        step = _SQRT_EPS * (1.0 + abs(y[i]))
        yp = y.copy()
        ym = y.copy()
        yp[i] += step
        ym[i] -= step
        Jf[:, i] = (sys.f(yp) - sys.f(ym)) / (2.0 * step)
    return Jf


def _fixed_point(residual_map, U0, cfg: SolverConfig):
    """Fixed-point iteration U <- G(U); residual is max |G(U) - U|."""
    U = U0
    last = math.inf
    growth = 0
    for it in range(cfg.max_iter):
        G = residual_map(U)
        res = float(np.max(np.abs(G - U)))
        U = G
        if res <= cfg.tol:
            return U, it + 1, res
        if res > last:
            growth += 1
            if growth >= 5:
                raise StageConvergenceError(
                    "fixed-point iteration diverging (residual grew over 5 "
                    "consecutive iterations); try mode='newton'",
                    residual=res, iterations=it + 1)
        else:
            growth = 0
        last = res
    raise StageConvergenceError(
        f"fixed-point iteration did not reach tol={cfg.tol} in "
        f"{cfg.max_iter} iterations", residual=last, iterations=cfg.max_iter)


def _simplified_newton(residual_map, U0, iteration_matrix, cfg: SolverConfig):
    """Newton iteration with a single LU factorisation of the frozen matrix."""
    lu = lu_factor(iteration_matrix)
    U = U0.copy()
    shape = U.shape
    last = math.inf
    for it in range(cfg.max_iter + 1):
        G = residual_map(U)
        res = float(np.max(np.abs(G - U)))
        if res <= cfg.tol:
            return U, it, res
        delta = lu_solve(lu, (G - U).reshape(-1))
        U = U + delta.reshape(shape)
        last = res
    raise StageConvergenceError(
        f"Newton iteration did not reach tol={cfg.tol} in "
        f"{cfg.max_iter} iterations", residual=last, iterations=cfg.max_iter)


def rk_step(tab: ButcherTableau, sys: HamiltonianSystem, y0,
            h: float, cfg: SolverConfig | None = None):
    """One step of the k-stage method from y0 with step size h.

    Solves the stage states Y_i = y0 + h sum_j A_ij f(Y_j) to the configured
    residual tolerance, then returns (y1, diagnostics) with
    y1 = y0 + h sum_i b_i f(Y_i).  Step sizes are normally positive; the
    sign is not enforced so that reversibility experiments can step back.
    """
    cfg = cfg or SolverConfig()
    y0 = np.asarray(y0, dtype=float)
    if h == 0.0:
        raise ValueError("step size must be nonzero")
    k = tab.k

    def fmap(Y):
        return np.array([sys.f(Y[i]) for i in range(k)])

    def gmap(Y):
        return y0 + h * (tab.A @ fmap(Y))

    Y0 = np.tile(y0, (k, 1))
    if cfg.mode == "fixed_point":
        Y, iters, res = _fixed_point(gmap, Y0, cfg)
    else:
        Jf = _field_jacobian(sys, y0, cfg)
        M = np.eye(k * y0.size) - h * np.kron(tab.A, Jf)
        Y, iters, res = _simplified_newton(gmap, Y0, M, cfg)
    y1 = y0 + h * (tab.b @ fmap(Y))
    return y1, StepDiagnostics(iterations=iters, residual=res, mode=cfg.mode)


def gamma_step(spec: HbvmSpec, sys: HamiltonianSystem, y0,
               h: float, cfg: SolverConfig | None = None):
    """One step in the reduced coefficient formulation.

    The unknowns are the s coefficient vectors of the derivative expansion
    of the underlying polynomial; stages are reconstructed from them through
    the integral matrix, and the update is y1 = y0 + h * gamma_1 because
    only the constant basis polynomial has nonzero mean.
    """
    sysq = abscissae(spec)
    bm = basis_matrices(sysq, spec.s)
    return _gamma_step_matrices(bm, sys, np.asarray(y0, dtype=float), h,
                                cfg or SolverConfig())


def _gamma_step_matrices(bm, sys: HamiltonianSystem, y0, h, cfg):
    if h == 0.0:
        raise ValueError("step size must be nonzero")
    PTW = bm.P_s.T @ bm.Omega  # (s, k)
    I_s = bm.I_s               # (k, s)
    s = I_s.shape[1]

    def stages_of(gamma):
        return y0 + h * (I_s @ gamma)

    def gmap(gamma):
        stages = stages_of(gamma)
        F = np.array([sys.f(stages[i]) for i in range(stages.shape[0])])
        return PTW @ F

    g0 = np.zeros((s, y0.size))
    if cfg.mode == "fixed_point":
        gamma, iters, res = _fixed_point(gmap, g0, cfg)
    else:
        Jf = _field_jacobian(sys, y0, cfg)
        M = np.eye(s * y0.size) - h * np.kron(PTW @ I_s, Jf)
        gamma, iters, res = _simplified_newton(gmap, g0, M, cfg)
    y1 = y0 + h * gamma[0]
    state = GammaState(gamma=gamma, stage_values=stages_of(gamma))
    return y1, state, StepDiagnostics(iterations=iters, residual=res,
                                      mode=cfg.mode)


def integrate(method, sys: HamiltonianSystem, y0, h: float, n_steps: int,
              cfg: SolverConfig | None = None, mode: str = "rk") -> Trajectory:
    """March n_steps of size h > 0, recording states and energy per step.

    method is a ButcherTableau (mode 'rk') or an HbvmSpec (either mode).
    Fails on the first non-converged step, marking the step index.
    """
    if h <= 0.0:
        raise ValueError("step size must be positive")
    if n_steps < 1:
        raise ValueError("need n_steps >= 1")
    if mode not in ("rk", "gamma"):
        raise ValueError("mode must be 'rk' or 'gamma'")
    cfg = cfg or SolverConfig()
    y0 = np.asarray(y0, dtype=float)

    if mode == "gamma":
        if not isinstance(method, HbvmSpec):
            raise TypeError("gamma mode requires an HbvmSpec")
        bm = basis_matrices(abscissae(method), method.s)

        def stepper(y):
            y1, _, diag = _gamma_step_matrices(bm, sys, y, h, cfg)
            return y1, diag
    else:
        tab = hbvm_tableau(method) if isinstance(method, HbvmSpec) else method

        def stepper(y):
            return rk_step(tab, sys, y, h, cfg)

    times = np.arange(n_steps + 1) * h
    states = np.empty((n_steps + 1, y0.size))
    energies = np.empty(n_steps + 1)
    iters = np.zeros(n_steps + 1, dtype=int)
    states[0] = y0
    energies[0] = sys.H(y0)
    y = y0
    for n in range(n_steps):
        try:
            y, diag = stepper(y)
        except StageConvergenceError as exc:
            raise StageConvergenceError(
                f"step {n + 1} failed: {exc}", residual=exc.residual,
                iterations=exc.iterations) from exc
        states[n + 1] = y
        energies[n + 1] = sys.H(y)
        iters[n + 1] = diag.iterations
    return Trajectory(times=times, states=states, energies=energies,
                      iteration_counts=iters)


def energy_drift(traj: Trajectory, sys: HamiltonianSystem | None = None):
    """(max_n |H(y_n) - H(y_0)|, |H(y_N) - H(y_0)|) along a trajectory."""
    if traj.states.shape[0] == 0:
        raise ValueError("trajectory is empty")
    energies = traj.energies if sys is None else \
        np.array([sys.H(y) for y in traj.states])
    dev = np.abs(energies - energies[0])
    return float(np.max(dev)), float(dev[-1])


@dataclass(frozen=True)
class OrderFit:
    """Least-squares convergence slope with the round-off floor trimmed."""

    slope: float
    step_sizes: np.ndarray
    errors: np.ndarray
    n_trimmed: int


def convergence_order(method, problem, t_end: float, h_list,
                      cfg: SolverConfig | None = None,
                      mode: str = "rk") -> OrderFit:
    """Measured order on a problem with a known (or proxy) solution.

    Each successive h must halve the previous one.  The horizon is snapped
    to a whole number of coarsest steps, so every run shares the same
    endpoint.  The reference state there is the problem's closed-form
    solution when available, otherwise a run at an eighth of the smallest h
    with a 1e-14 solver tolerance.  Errors that have hit the rounding floor
    are trimmed before the fit.
    """
    h_list = np.asarray(sorted(h_list, reverse=True), dtype=float)
    if h_list.size < 3:
        raise ValueError("need at least 3 step sizes")
    if np.max(np.abs(h_list[1:] / h_list[:-1] - 0.5)) > 1e-12:
        raise ValueError("step sizes must halve")
    cfg = cfg or SolverConfig()
    sys = problem.system
    y0 = np.asarray(problem.default_y0, dtype=float)
    n0 = max(1, int(round(t_end / h_list[0])))
    horizon = n0 * h_list[0]

    if problem.reference_solution is not None:
        y_ref = np.asarray(problem.reference_solution(horizon), dtype=float)
    else:
        h_ref = h_list[-1] / 8.0
        ref_cfg = SolverConfig(mode=cfg.mode, tol=1e-14,
                               max_iter=max(cfg.max_iter, 100),
                               jacobian=cfg.jacobian)
        traj = integrate(method, sys, y0, h_ref,
                         int(round(horizon / h_ref)), ref_cfg, mode=mode)
        y_ref = traj.states[-1]

    errors = np.empty(h_list.size)
    for i, h in enumerate(h_list):
        traj = integrate(method, sys, y0, h, n0 * 2 ** i, cfg, mode=mode)
        errors[i] = np.max(np.abs(traj.states[-1] - y_ref))

    floor = 100.0 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(y_ref))))
    keep = errors > floor
    kept_h, kept_e = h_list[keep], errors[keep]
    if kept_h.size < 2:
        raise ValueError("all errors are at the rounding floor; "
                         "increase the step sizes")
    slope = float(np.polyfit(np.log(kept_h), np.log(kept_e), 1)[0])
    return OrderFit(slope=slope, step_sizes=h_list, errors=errors,
                    n_trimmed=int(np.sum(~keep)))


def trajectory_to_csv(traj: Trajectory) -> str:
    """CSV text with header t,y_1..y_2m,H,iters; 17 significant digits."""
    dim = traj.states.shape[1]
    header = "t," + ",".join(f"y_{i + 1}" for i in range(dim)) + ",H,iters"
    lines = [header]
    for n in range(traj.times.size):
        cells = [_format_real(traj.times[n])]
        cells += [_format_real(v) for v in traj.states[n]]
        cells.append(_format_real(traj.energies[n]))
        cells.append(str(int(traj.iteration_counts[n])))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
