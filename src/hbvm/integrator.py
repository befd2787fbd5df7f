"""Implicit Runge-Kutta stepping for Hamiltonian systems dy/dt = J grad H(y).

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
the r x 2m unknowns u, with stage states Y = y0 + h L u.  Every method runs
on `ButcherTableau.low_rank`: an HBVM tableau carries its own factors
(I_s, P_s^T Omega), so u is the s coefficients gamma and R L = X_s; any
other tableau takes the thin SVD factors of A, r = k for full rank.  One
solver core runs fixed-point iteration or simplified Newton on u, and the
Newton matrix is I - h M (x) Jf with M = R L, r*2m square.

`integrate` builds a step plan once per run: h L, R, M = R L, the stopping
residual and the update, which alone tell the forms apart (the change in Y
and y0 + h b^T f(Y) in the full-stage form, the change in u and
y0 + h gamma_1 in the coefficient form).  Newton returns the u whose
stages its last residual evaluated, so the full-stage update reads that
f(Y) instead of calling f again; fixed point returns G(u), whose stages
no iteration evaluated.  For an HbvmSpec the plan holds
the s x s shift S = P_s^T Omega V, with V[l, j] the j-th basis polynomial
at 1 + c_l, that starts each step from the previous step's polynomial
carried one step ahead; it is exact because the nodes integrate degree
2s - 1.  The first step starts from u = 0, as does every `rk_step`,
`gamma_step` and run of a bare ButcherTableau, which carries no polynomial.

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

The Newton matrix is inverted once, when it is built, and each
correction is one matrix-vector product with that inverse (`lu_solve`):
the same inverse serves every iteration of every step that keeps it.  The
inverse is assembled from the eigen-split M = V diag(lam) V^-1, taken once
per Newton run (Butcher, BIT 16, 1976):
  (I - h M (x) Jf)^-1 = I + sum_j P_j (x) (I - h lam_j Jf)^-1 h lam_j Jf,
with P_j = V[:, j] V^-1[j, :].  A conjugate pair gives conjugate terms, so
only its eigenvalue with Im > 0 is solved for, at weight 2, and
`lu_factor` sees one 2m-square block per pair (complex) and per real
eigenvalue (real).  An HBVM's M = X_s has the s-stage Gauss spectrum
whatever its k, so its matrix costs ceil(s/2) blocks.  With I split off,
the rest is O(h |lam Jf|), and so is the rounding of its sum over the
P_j, whose norms grow with cond(V) (563 at s = 6).  Summing the
P_j (x) (I - h lam_j Jf)^-1 themselves, the s = 6 inverse was off by
~8e-13, enough to cost some runs an extra iteration.  An M that is
empty, or whose eigenbasis has cond(V) > 1/sqrt(eps), as for a defective
M (classical RK4, an SDIRK's double eigenvalue), has its whole
r*2m-square matrix inverted instead.
A non-finite Jacobian, a non-finite Newton matrix and an exactly singular
block each fail the step with a `StageConvergenceError` naming the cause.
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
            else np.array(self.J, dtype=float)
        if J.shape != (self.dim, self.dim):
            raise ValueError("J must be dim x dim")
        if np.any(J != -J.T):
            raise ValueError("J must be exactly skew-symmetric")
        J.setflags(write=False)
        object.__setattr__(self, "J", J)

    def f(self, y: np.ndarray) -> np.ndarray:
        """Vector field J grad H at one state or at each row of an (n, dim)
        block, applied as one product with J for every structure matrix."""
        if self.vectorized or y.ndim == 1:
            g = self.grad_H(y)
        else:
            g = np.array([self.grad_H(row) for row in y])
        return g @ self.J.T

    def energies(self, Y: np.ndarray) -> np.ndarray:
        """H at each row of an (n, dim) block of states."""
        if self.vectorized:
            return np.asarray(self.H(Y), dtype=float)
        return np.array([self.H(y) for y in Y], dtype=float)


@dataclass(frozen=True)
class SolverConfig:
    """Stage-solver settings; tol is an absolute max-norm residual bound.
    Newton always takes the central finite-difference Jacobian of f."""

    mode: str = "fixed_point"  # or "newton"
    tol: float = 1e-13
    max_iter: int = 100

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
    """Stage-solve outcome: iterations, the final residual, and the final
    residual ratio res_j / res_(j-1) as contraction (0.0 when the first
    residual already met tol)."""

    iterations: int
    residual: float
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


def _field_jacobian(sys: HamiltonianSystem, y: np.ndarray) -> np.ndarray:
    """Jacobian of f at y by central finite differences, from one f call on
    the block of 2*dim perturbed states.

    A non-finite Jacobian fails the step here, with the cause named, rather
    than as a non-finite Newton matrix.
    """
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


def lu_factor(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """a^-1 b, or the inverse of a when b is None, for a 2m-square block
    I - h lam Jf of the Newton matrix or the whole matrix; a non-finite or
    exactly singular a fails the step.  This pair keeps its LU names
    because the benchmark tracer times the Newton layers under them."""
    if not np.isfinite(a).all():
        raise StageConvergenceError("Newton matrix is non-finite",
                                    residual=math.nan, iterations=0)
    try:
        return np.linalg.inv(a) if b is None else np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise StageConvergenceError(
            f"Newton matrix is singular (factored block {a.shape[0]} x "
            f"{a.shape[0]})",
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
    U = U0
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
    bad = [f"y0[{i}] = {y0[i]}" for i in np.flatnonzero(~np.isfinite(y0))]
    if bad:
        raise ValueError("initial state must be finite: " + ", ".join(bad))


def _eigen_split(M: np.ndarray):
    """The eigen-split of M = V diag(lam) V^-1 that Newton assembles its
    inverse from: one (lam_j, w_j P_j) pair per kept eigenvalue, with
    P_j = V[:, j] V^-1[j, :], keeping from each conjugate pair the one with
    Im > 0 at weight w_j = 2, and every real one at weight 1 as a real
    (lam_j, Re P_j), so that its block is solved in real arithmetic.  None
    when M is empty or its eigenbasis is ill-conditioned
    (cond(V) > 1/sqrt(eps)), as for a defective M."""
    if M.size == 0:
        return None
    lam, V = np.linalg.eig(M)
    if not np.linalg.cond(V) <= 1.0 / _SQRT_EPS:
        return None
    Vinv = np.linalg.inv(V)
    return tuple((lam[j], 2.0 * np.outer(V[:, j], Vinv[j]))
                 if lam[j].imag > 0
                 else (lam[j].real, np.outer(V[:, j], Vinv[j]).real)
                 for j in np.flatnonzero(lam.imag >= 0))


@dataclass(frozen=True)
class _StepPlan:
    """What every step of a run shares: the stage equations
    u = R f(y0 + hL u) with M = R L, the form's stopping residual of a
    change E = G(u) - u, its update (y0, u, Y, F) -> y1 with F = f(Y) when
    already evaluated (else None), the r x r shift that carries one step's
    u to the next step's starting guess (None: each step starts from
    u = 0), and the eigen-split of M that Newton inverts through (None: it
    inverts the whole matrix; always None for fixed point)."""

    sys: HamiltonianSystem
    h: float
    cfg: SolverConfig
    hL: np.ndarray
    R: np.ndarray
    M: np.ndarray
    residual: Callable[[np.ndarray], float]
    update: Callable[[np.ndarray, np.ndarray, np.ndarray,
                      np.ndarray | None], np.ndarray]
    shift: np.ndarray | None = None
    split: tuple | None = None

    def cold(self) -> np.ndarray:
        """The starting guess u = 0."""
        return np.zeros((self.R.shape[0], self.sys.dim))


def _run_plan(method, sys: HamiltonianSystem, h: float, cfg: SolverConfig,
              mode: str) -> _StepPlan:
    """The plan of a run on the `low_rank` factors A = L R and weights b of
    a tableau, or of the one an HbvmSpec builds, which adds the s x s shift
    of `legendre._shift_matrix`.  Mode 'rk' stops on the change in the
    stages and updates with y0 + h b^T f(Y); 'gamma' stops on the change in
    u = gamma and updates with y0 + h gamma_1, since only the constant basis
    polynomial has nonzero mean."""
    shift = None
    if isinstance(method, HbvmSpec):
        quad, _, method = _hbvm_build(method)
        shift = _shift_matrix(quad, method.s)
    elif mode == "gamma":
        raise TypeError("gamma mode requires an HbvmSpec")
    L, R = method.low_rank
    b = method.b

    if mode == "gamma":
        def residual(E):
            return float(np.abs(E).max())

        def update(y0, u, Y, F):
            return y0 + h * u[0]
    else:
        def residual(E):
            # |h| max |L E| is max |h L E| exactly: rounding is monotone and
            # symmetric in sign
            return abs(h) * float(np.abs(L @ E).max())

        def update(y0, u, Y, F):
            return y0 + h * (b @ (sys.f(Y) if F is None else F))

    M = R @ L
    split = _eigen_split(M) if cfg.mode == "newton" else None
    return _StepPlan(sys, h, cfg, h * L, R, M, residual, update, shift,
                     split)


def _newton_correction(plan: _StepPlan, y0):
    """Newton correction for u = R f(y0 + h L u) with M = R L: the inverse
    of I - h M (x) Jf, with Jf taken at y0.  With the plan's eigen-split it
    is I + sum_j Re[w_j P_j (x) (I - h lam_j Jf)^-1 h lam_j Jf], one
    2m-square solve per kept eigenvalue; without one the whole matrix is
    inverted."""
    Jf = _field_jacobian(plan.sys, y0)
    n = plan.M.shape[0] * y0.size
    if plan.split is None:
        inverse = lu_factor(np.eye(n) - plan.h * np.kron(plan.M, Jf))
    else:
        # accumulated into a C-contiguous real array: the real part of a
        # complex product is a strided view, slower to multiply with
        inverse = np.eye(n)
        for lam, P in plan.split:
            hJ = (plan.h * lam) * Jf
            inverse += np.kron(P, lu_factor(np.eye(y0.size) - hJ, hJ)).real

    def correction(E):
        return lu_solve(inverse, E.reshape(-1)).reshape(E.shape)

    return correction


def _gamma_step_matrices(plan: _StepPlan, y0, u0, correction):
    """One step of a plan from y0, iterating on u from u0; returns
    (y1, u, stages, diagnostics) with stages = y0 + h L u.  Newton iterates
    with the given correction or a fresh one built at y0; u = gamma for an
    HBVM tableau, in either form."""
    sys, hL, R, cfg = plan.sys, plan.hL, plan.R, plan.cfg
    residual = plan.residual
    u_seen = F_seen = None  # the last u whose stages f was evaluated at

    def residual_map(u):
        nonlocal u_seen, F_seen
        u_seen, F_seen = u, sys.f(y0 + hL @ u)
        G = R @ F_seen
        return G, residual(G - u)

    if cfg.mode == "fixed_point":
        u, iters, res, ratio = _fixed_point(residual_map, u0, cfg)
    else:
        if correction is None:
            correction = _newton_correction(plan, y0)
        u, iters, res, ratio = _simplified_newton(residual_map, u0,
                                                  correction, cfg)
    Y = y0 + hL @ u
    # Newton returns the u whose stages it last evaluated, so f(Y) is
    # known; fixed point returns G(u), whose stages were never evaluated
    F = F_seen if u_seen is u else None
    return plan.update(y0, u, Y, F), u, Y, StepDiagnostics(
        iterations=iters, residual=res, contraction=ratio)


def _single_step(method, sys: HamiltonianSystem, y0, h: float,
                 cfg: SolverConfig | None, mode: str):
    """One cold-started step of `rk_step` or `gamma_step`, its arguments
    checked before the plan is built."""
    y0 = np.asarray(y0, dtype=float)
    _check_state(sys, y0)
    _check_step_size(h)
    plan = _run_plan(method, sys, h, cfg or SolverConfig(), mode)
    return _gamma_step_matrices(plan, y0, plan.cold(), None)


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
    y1, _, _, diag = _single_step(tab, sys, y0, h, cfg, "rk")
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
    y1, gamma, Y, diag = _single_step(spec, sys, y0, h, cfg, "gamma")
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
                correction = _newton_correction(plan, y)
                jacs[n + 1] = 1
            try:
                y, u, _, diag = _gamma_step_matrices(plan, y, guess,
                                                     correction)
            except StageConvergenceError:
                if not newton or jacs[n + 1]:
                    raise
                correction = _newton_correction(plan, y)
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


def energy_drift(traj: Trajectory):
    """(max_n |H(y_n) - H(y_0)|, |H(y_N) - H(y_0)|) from a trajectory's
    recorded energies."""
    if traj.states.shape[0] == 0:
        raise ValueError("trajectory is empty")
    dev = np.abs(traj.energies - traj.energies[0])
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

    t_end and every h must be finite and positive, and each successive h
    must halve the previous one.  The horizon is snapped to a whole number
    of coarsest steps, so every run shares the same endpoint.  The reference
    state there is the problem's closed-form solution when available,
    otherwise a run at an eighth of the smallest h with a 1e-14 solver
    tolerance.  Errors that have hit the rounding floor are trimmed before
    the fit.
    """
    if not (t_end > 0.0 and math.isfinite(t_end)):
        raise ValueError(f"t_end must be finite and positive, "
                         f"got t_end={t_end}")
    h_list = [float(h) for h in h_list]
    for h in h_list:
        if not (h > 0.0 and math.isfinite(h)):
            raise ValueError(f"step sizes must be finite and positive, "
                             f"got h={h}")
    h_list = np.asarray(sorted(h_list, reverse=True))
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
                               max_iter=max(cfg.max_iter, 100))
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
