"""Implicit Runge-Kutta stepping for canonical systems dy/dt = J grad H(y).

Two equivalent formulations are provided: the full k-stage form driven by a
Butcher tableau, and the reduced form that solves for the s expansion
coefficients of the underlying degree-s polynomial, shrinking the nonlinear
system from k*2m to s*2m unknowns.

Every stage, Jacobian and energy evaluation goes through the system on a
whole block of states: one `HamiltonianSystem.f` call per iteration on the
k stage states, one on the 2*dim perturbed states of a finite-difference
Jacobian, and one `H` call on a trajectory's states.  A vectorized system
answers each with one `grad_H` (or `H`) call, so a step's cost barely grows
with k; any other system is called one state at a time.

Both forms are one iteration.  A stage matrix factored as A = L R, with L
(k, r) and R (r, k), turns the stage equations into u = R f(y0 + h L u) for
the r x 2m unknowns u, with stage states Y = y0 + h L u.  The full-stage
form takes (L, R) from `ButcherTableau.low_rank`, a thin SVD; the
coefficient form takes (I_s, P_s^T Omega), and u is the coefficients.  r is
s for an HBVM in either form and k for collocation and other full-rank
tableaux.  One solver core runs fixed-point iteration or simplified Newton
on u, and the Newton matrix is I - h (R L) (x) Jf, r*2m square.  Each form
keeps its own stopping residual: the change in the stage states for the
full-stage form, the change in the coefficients for the coefficient form.

`integrate` builds a step plan once per run: h L, R, M = R L, the form's
stopping residual and its update (y0 + h b^T f(Y) in the full-stage form,
y0 + h u_1 in the coefficient form).  For an HbvmSpec the plan also holds
an r x r shift that starts each step from the previous step's polynomial
carried one step ahead: in the coefficient form S = P_s^T Omega V, with
V[l, j] the j-th basis polynomial at 1 + c_l, exact for the degree s - 1
derivative polynomial because the nodes integrate degree 2s - 1; in the
full-stage form u = T gamma with T = L^+ I_s, so the shift is T S T^-1.
The first step starts from u = 0, as does every `rk_step`, `gamma_step`
and run of a bare ButcherTableau, which carries no polynomial.

The converged stages do not depend on which matrix Newton iterates with, so
`integrate` keeps the Jacobian and the factored matrix from one step to the
next and builds a fresh pair only when
  (a) the iterations spent beyond those of the step that built the matrix,
      at k f-evaluations each, reach the 2*dim f-evaluations of a
      finite-difference Jacobian;
  (b) the last step's final residual ratio exceeds REFRESH_CONTRACTION; or
  (c) a step fails with the kept matrix: it is retried once from the same
      state and the same starting guess with a fresh one, and only a
      failure with a fresh matrix propagates.
A single `rk_step` or `gamma_step` always builds a fresh matrix.

The Newton matrix is inverted once, when it is built (`lu_factor`), and
each correction is one matrix-vector product with that inverse
(`lu_solve`): the matrix is only r*2m square, and the same inverse serves
every iteration of every step that keeps it.  A non-finite Jacobian, a
non-finite Newton matrix and an exactly singular one each fail the step
with a `StageConvergenceError` naming the cause.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .legendre import _shift_matrix
from .tableau import ButcherTableau, HbvmSpec, _hbvm_build

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

# A Newton step whose final residual ratio res_j / res_(j-1) exceeds this
# contracts too slowly for its matrix to be kept for the next step.
REFRESH_CONTRACTION = 0.1


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
    None marks non-polynomial energies.  vectorized declares that H and
    grad_H act on the last axis of any (..., dim) array, so that a block of
    states costs one call; otherwise they are called one state at a time.
    """

    dim: int
    H: Callable[[np.ndarray], float]
    grad_H: Callable[[np.ndarray], np.ndarray]
    J: np.ndarray | None = None
    poly_degree: int | None = None
    vectorized: bool = False

    def __post_init__(self):
        J = canonical_symplectic_matrix(self.dim) if self.J is None \
            else np.asarray(self.J, dtype=float)
        if J.shape != (self.dim, self.dim):
            raise ValueError("J must be dim x dim")
        if np.any(J != -J.T):
            raise ValueError("J must be exactly skew-symmetric")
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "_canonical", self.dim % 2 == 0 and
                           np.array_equal(J, canonical_symplectic_matrix(self.dim)))

    def f(self, y: np.ndarray) -> np.ndarray:
        """Vector field J grad H at one state or at each row of an (n, dim)
        block.  A canonical J swaps the halves of the gradient and negates
        one, which gives exactly the values of J @ grad H."""
        if self.vectorized or y.ndim == 1:
            g = self.grad_H(y)
        else:
            g = np.array([self.grad_H(row) for row in y])
        if self._canonical:
            m = self.dim // 2
            return np.concatenate((g[..., m:], -g[..., :m]), axis=-1)
        return g @ self.J.T

    def energies(self, Y: np.ndarray) -> np.ndarray:
        """H at each row of an (n, dim) block of states."""
        if self.vectorized:
            return np.asarray(self.H(Y), dtype=float)
        return np.array([self.H(y) for y in Y], dtype=float)


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
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ValueError(f"tol must be finite and positive, "
                             f"got tol={self.tol}")
        if self.max_iter < 1:
            raise ValueError("need max_iter >= 1")


@dataclass(frozen=True)
class StepDiagnostics:
    """Stage-solve outcome; contraction is the final residual ratio
    res_j / res_(j-1), 0.0 when the first residual already met tol."""

    iterations: int
    residual: float
    mode: str
    contraction: float = 0.0


@dataclass(frozen=True)
class GammaState:
    """Expansion coefficients (s, 2m) and the k reconstructed stage states."""

    gamma: np.ndarray
    stage_values: np.ndarray


@dataclass
class Trajectory:
    """Uniform-step integration record; all arrays share one length.

    jacobian_counts marks each Newton step: 0 if it reused the previous
    step's matrix, 1 if it built a fresh one, 2 if it failed with a reused
    matrix and was retried with a fresh one.  Zeros for fixed point.
    """

    times: np.ndarray
    states: np.ndarray
    energies: np.ndarray
    iteration_counts: np.ndarray
    jacobian_counts: np.ndarray | None = None

    def __post_init__(self):
        if self.jacobian_counts is None:
            self.jacobian_counts = np.zeros(len(self.times), dtype=int)


def _field_jacobian(sys: HamiltonianSystem, y: np.ndarray,
                    cfg: SolverConfig) -> np.ndarray:
    """Jacobian of f at y: user-supplied or central finite differences.

    A non-finite Jacobian fails the step here, with the cause named, rather
    than as a non-finite Newton matrix.
    """
    if cfg.jacobian is not None:
        Jf = np.asarray(cfg.jacobian(y), dtype=float)
    else:
        n = y.size
        steps = _SQRT_EPS * (1.0 + np.abs(y))
        D = np.diag(steps)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            F = sys.f(np.concatenate((y + D, y - D)))
            Jf = (F[:n] - F[n:]).T / (2.0 * steps)
    if not np.isfinite(Jf).all():
        raise StageConvergenceError(
            "Jacobian of f is non-finite at the step's initial state",
            residual=math.nan, iterations=0)
    return Jf


def lu_factor(a: np.ndarray) -> np.ndarray:
    """Inverse of a Newton matrix; a non-finite or exactly singular matrix
    fails the step.  This pair keeps its LU names because the benchmark
    tracer times the Newton layers under them."""
    if not np.isfinite(a).all():
        raise StageConvergenceError("Newton matrix is non-finite",
                                    residual=math.nan, iterations=0)
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise StageConvergenceError(
            f"Newton matrix is singular ({a.shape[0]} x {a.shape[0]})",
            residual=math.nan, iterations=0) from exc


def lu_solve(inverse: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve with an inverse from `lu_factor`.  b is not checked: the stage
    solvers pass only residuals already checked finite."""
    return inverse @ b


def _check_finite(res: float, iterations: int) -> None:
    """Stop at once when the stage values overflow or turn NaN."""
    if not math.isfinite(res):
        raise StageConvergenceError(
            f"stage values are non-finite after {iterations} iterations",
            residual=res, iterations=iterations)


def _fixed_point(residual_map, U0, cfg: SolverConfig):
    """Fixed-point iteration U <- G(U), where residual_map(U) returns G(U)
    and the residual of that iteration.

    Returns (U, iterations, residual, final residual ratio).  Overflow is
    left to the non-finite check rather than warned about.
    """
    U = U0
    last = math.inf
    growth = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(cfg.max_iter):
            G, res = residual_map(U)
            _check_finite(res, it + 1)
            U = G
            if res <= cfg.tol:
                return U, it + 1, res, res / last
            if res > last:
                growth += 1
                if growth >= 5:
                    raise StageConvergenceError(
                        "fixed-point iteration diverging (residual grew over "
                        "5 consecutive iterations); try mode='newton'",
                        residual=res, iterations=it + 1)
            else:
                growth = 0
            last = res
    raise StageConvergenceError(
        f"fixed-point iteration did not reach tol={cfg.tol} in "
        f"{cfg.max_iter} iterations", residual=last, iterations=cfg.max_iter)


def _simplified_newton(residual_map, U0, correction, cfg: SolverConfig):
    """Newton iteration U <- U + correction(G(U) - U), where correction
    applies the inverse of a frozen iteration matrix and residual_map(U)
    returns G(U) and the residual of U.

    Returns (U, iterations, residual, final residual ratio).  Overflow is
    left to the non-finite check rather than warned about.
    """
    U = U0.copy()
    last = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(cfg.max_iter + 1):
            G, res = residual_map(U)
            _check_finite(res, it)
            if res <= cfg.tol:
                return U, it, res, res / last
            U = U + correction(G - U)
            last = res
    raise StageConvergenceError(
        f"Newton iteration did not reach tol={cfg.tol} in "
        f"{cfg.max_iter} iterations", residual=last, iterations=cfg.max_iter)


def _check_step_size(h: float) -> None:
    if h == 0.0 or not math.isfinite(h):
        raise ValueError(f"step size must be finite and nonzero, got h={h}")


def _check_state(sys: HamiltonianSystem, y0: np.ndarray) -> None:
    if y0.shape != (sys.dim,):
        raise ValueError(f"initial state has shape {y0.shape}, but the "
                         f"system has dim {sys.dim}")


def _newton_correction(M: np.ndarray, sys: HamiltonianSystem, y0, h,
                       cfg: SolverConfig):
    """Newton correction for u = R f(y0 + h L u) with M = R L: the inverse
    of I - h M (x) Jf, with Jf taken at y0."""
    Jf = _field_jacobian(sys, y0, cfg)
    inverse = lu_factor(np.eye(M.shape[0] * y0.size) - h * np.kron(M, Jf))

    def correction(E):
        return lu_solve(inverse, E.reshape(-1)).reshape(E.shape)

    return correction


@dataclass(frozen=True)
class _StepPlan:
    """What every step of a run shares: the stage equations
    u = R f(y0 + hL u) with M = R L, the form's stopping residual of a
    change E = G(u) - u, its update (y0, u, Y) -> y1, and the r x r shift
    that carries one step's u to the next step's starting guess (None: each
    step starts from u = 0)."""

    sys: HamiltonianSystem
    h: float
    cfg: SolverConfig
    hL: np.ndarray
    R: np.ndarray
    M: np.ndarray
    residual: Callable[[np.ndarray], float]
    update: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    shift: np.ndarray | None = None

    def cold(self) -> np.ndarray:
        """The starting guess u = 0."""
        return np.zeros((self.R.shape[0], self.sys.dim))


def _rk_plan(tab: ButcherTableau, sys: HamiltonianSystem, h: float,
             cfg: SolverConfig, shift=None) -> _StepPlan:
    """Full-stage plan: (L, R) = tab.low_rank, the residual is the change in
    the stage states and the update is y0 + h b^T f(Y)."""
    L, R = tab.low_rank
    b = tab.b

    def stage_change(E):
        # |h| max |L E| is max |h L E| exactly: rounding is monotone and
        # symmetric in sign
        return abs(h) * float(np.abs(L @ E).max())

    def update(y0, u, Y):
        return y0 + h * (b @ sys.f(Y))

    return _StepPlan(sys, h, cfg, h * L, R, R @ L, stage_change, update,
                     shift)


def _gamma_plan(bm, sys: HamiltonianSystem, h: float, cfg: SolverConfig,
                shift=None) -> _StepPlan:
    """Coefficient-form plan: (L, R) = (I_s, P_s^T Omega), so u is the
    coefficients gamma; the residual is the change in them and the update
    is y0 + h gamma_1, since only the constant basis polynomial has nonzero
    mean."""
    R = bm.P_s.T @ bm.Omega

    def coefficient_change(E):
        return float(np.abs(E).max())

    def update(y0, u, Y):
        return y0 + h * u[0]

    return _StepPlan(sys, h, cfg, h * bm.I_s, R, R @ bm.I_s,
                     coefficient_change, update, shift)


def _run_plan(method, sys: HamiltonianSystem, h: float, cfg: SolverConfig,
              mode: str) -> _StepPlan:
    """The plan of an `integrate` run.  An HbvmSpec carries each step's
    polynomial into the next: the coefficient form through the s x s shift
    S of `legendre._shift_matrix`, the full-stage form through T S T^-1,
    since there u = T gamma with T = L^+ I_s.  A bare ButcherTableau has no
    polynomial to carry, so its steps start from u = 0."""
    if mode == "gamma":
        if not isinstance(method, HbvmSpec):
            raise TypeError("gamma mode requires an HbvmSpec")
        quad, bm, _ = _hbvm_build(method)
        return _gamma_plan(bm, sys, h, cfg, _shift_matrix(quad, method.s))
    if not isinstance(method, HbvmSpec):
        return _rk_plan(method, sys, h, cfg)
    quad, bm, tab = _hbvm_build(method)
    T = np.linalg.lstsq(tab.low_rank[0], bm.I_s, rcond=None)[0]
    shift = T @ _shift_matrix(quad, method.s) @ np.linalg.inv(T)
    return _rk_plan(tab, sys, h, cfg, shift)


def _gamma_step_matrices(plan: _StepPlan, y0, u0, correction):
    """One step of a plan from y0, iterating on u from u0; returns
    (y1, u, stages, diagnostics) with stages = y0 + h L u.  Newton iterates
    with the given correction or a fresh one built at y0.  It runs both
    forms but keeps its coefficient-form name, because the benchmark tracer
    times the step layer under it."""
    sys, hL, R, cfg = plan.sys, plan.hL, plan.R, plan.cfg
    residual = plan.residual

    def residual_map(u):
        G = R @ sys.f(y0 + hL @ u)
        return G, residual(G - u)

    if cfg.mode == "fixed_point":
        u, iters, res, ratio = _fixed_point(residual_map, u0, cfg)
    else:
        if correction is None:
            correction = _newton_correction(plan.M, sys, y0, plan.h, cfg)
        u, iters, res, ratio = _simplified_newton(residual_map, u0,
                                                  correction, cfg)
    Y = y0 + hL @ u
    return plan.update(y0, u, Y), u, Y, StepDiagnostics(
        iterations=iters, residual=res, mode=cfg.mode, contraction=ratio)


def rk_step(tab: ButcherTableau, sys: HamiltonianSystem, y0,
            h: float, cfg: SolverConfig | None = None):
    """One step of the k-stage method from y0 with step size h.

    Solves the stage states Y_i = y0 + h sum_j A_ij f(Y_j) to the configured
    residual tolerance, then returns (y1, diagnostics) with
    y1 = y0 + h sum_i b_i f(Y_i).  The unknowns are the r rows of
    u = R f(Y), Y = y0 + h L u, with A = L R from `tab.low_rank`, iterated
    from u = 0; the residual is the change in Y.  Step sizes are normally
    positive; the sign is not enforced so that reversibility experiments
    can step back.  Newton iterates with a fresh matrix built at y0.
    """
    cfg = cfg or SolverConfig()
    y0 = np.asarray(y0, dtype=float)
    _check_state(sys, y0)
    _check_step_size(h)
    plan = _rk_plan(tab, sys, h, cfg)
    y1, _, _, diag = _gamma_step_matrices(plan, y0, plan.cold(), None)
    return y1, diag


def gamma_step(spec: HbvmSpec, sys: HamiltonianSystem, y0,
               h: float, cfg: SolverConfig | None = None):
    """One step in the reduced coefficient formulation.

    The unknowns are the s coefficient vectors of the derivative expansion
    of the underlying polynomial, iterated from zero; stages are
    reconstructed from them through the integral matrix, and the update is
    y1 = y0 + h * gamma_1 because only the constant basis polynomial has
    nonzero mean.
    """
    y0 = np.asarray(y0, dtype=float)
    _check_state(sys, y0)
    _, bm, _ = _hbvm_build(spec)
    _check_step_size(h)
    plan = _gamma_plan(bm, sys, h, cfg or SolverConfig())
    y1, gamma, Y, diag = _gamma_step_matrices(plan, y0, plan.cold(), None)
    return y1, GammaState(gamma=gamma, stage_values=Y), diag


def integrate(method, sys: HamiltonianSystem, y0, h: float, n_steps: int,
              cfg: SolverConfig | None = None, mode: str = "rk") -> Trajectory:
    """March n_steps of size h > 0, recording states and energy per step.

    method is a ButcherTableau (mode 'rk') or an HbvmSpec (either mode).
    The step plan is built once; an HbvmSpec starts each step after the
    first from the previous step's polynomial.  Newton keeps its matrix
    across steps under the rules in the module docstring.  Fails on the
    first step that does not converge with a fresh matrix, marking the step
    index.
    """
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError(f"step size must be finite and positive, got h={h}")
    if n_steps < 1:
        raise ValueError("need n_steps >= 1")
    if mode not in ("rk", "gamma"):
        raise ValueError("mode must be 'rk' or 'gamma'")
    cfg = cfg or SolverConfig()
    y0 = np.asarray(y0, dtype=float)
    _check_state(sys, y0)
    plan = _run_plan(method, sys, h, cfg, mode)

    times = np.arange(n_steps + 1) * h
    states = np.empty((n_steps + 1, y0.size))
    iters = np.zeros(n_steps + 1, dtype=int)
    jacs = np.zeros(n_steps + 1, dtype=int)
    states[0] = y0
    y = y0
    newton = cfg.mode == "newton"
    # f-evaluations a finite-difference Jacobian costs; extra iterations of
    # k f-evaluations each are charged against it (rule a).
    k = plan.hL.shape[0]
    jacobian_cost = 2 * y0.size
    correction, refresh = None, newton
    fresh_iters = extra = 0
    guess = plan.cold()
    for n in range(n_steps):
        try:
            if refresh:
                correction = _newton_correction(plan.M, sys, y, h, cfg)
                jacs[n + 1] = 1
            try:
                y, u, _, diag = _gamma_step_matrices(plan, y, guess,
                                                     correction)
            except StageConvergenceError:
                if not newton or jacs[n + 1]:
                    raise
                correction = _newton_correction(plan.M, sys, y, h, cfg)
                jacs[n + 1] = 2
                y, u, _, diag = _gamma_step_matrices(plan, y, guess,
                                                     correction)
        except StageConvergenceError as exc:
            raise StageConvergenceError(
                f"step {n + 1} failed: {exc}", residual=exc.residual,
                iterations=exc.iterations) from exc
        states[n + 1] = y
        iters[n + 1] = diag.iterations
        if plan.shift is not None:
            guess = plan.shift @ u
        if newton:
            if jacs[n + 1]:
                fresh_iters, extra = diag.iterations, 0
            else:
                extra += max(0, diag.iterations - fresh_iters)
            refresh = (k * extra >= jacobian_cost
                       or diag.contraction > REFRESH_CONTRACTION)
    return Trajectory(times=times, states=states,
                      energies=sys.energies(states),
                      iteration_counts=iters, jacobian_counts=jacs)


def energy_drift(traj: Trajectory, sys: HamiltonianSystem | None = None):
    """(max_n |H(y_n) - H(y_0)|, |H(y_N) - H(y_0)|) along a trajectory."""
    if traj.states.shape[0] == 0:
        raise ValueError("trajectory is empty")
    energies = traj.energies if sys is None else sys.energies(traj.states)
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
    """CSV text with header t,y_1..y_2m,H,iters; reals are written as their
    shortest round-trip repr."""
    dim = traj.states.shape[1]
    header = "t," + ",".join(f"y_{i + 1}" for i in range(dim)) + ",H,iters"
    rows = np.column_stack((traj.times, traj.states, traj.energies)).tolist()
    lines = [header]
    lines += [",".join(map(repr, row)) + f",{n}"
              for row, n in zip(rows, traj.iteration_counts.tolist())]
    return "\n".join(lines) + "\n"
