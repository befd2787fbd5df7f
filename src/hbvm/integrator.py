"""Implicit Runge-Kutta stepping for Hamiltonian systems dy/dt = J grad H(y).

Two equivalent formulations are provided: the full k-stage form driven by a
Butcher tableau, and, for an HbvmSpec, the coefficient form, whose unknowns
are the s expansion coefficients gamma of the underlying degree-s
polynomial.  Neither iterates on the k stages: both iterate on the same
r x 2m unknowns u of the stage matrix's factors, which for an HBVM are
(I_s, P_s^T Omega), so that u is gamma and r = s.  The forms differ only in
their stopping residual and their update, told apart by the plan's
weights b alone (see the step plan below).

Every stage, Jacobian and energy evaluation goes through the system on a
whole block of states: one `HamiltonianSystem.f` call per iteration on the
k stage states, one on the dim + 1 states (dim perturbed ones and the
point itself) of a one-sided finite-difference Jacobian, and one `H` call
on a trajectory's states; on the second-order form below, one `grad_V`
call on the k stage coordinates, and one on m + 1 coordinate states for
the Hessian of V.  A vectorized system answers each with one `grad_H`,
`grad_V` (or `H`) call, so a step's cost barely grows with k; any other
system is called one state at a time.

Both forms are one iteration on one stage map.  A stage matrix factored
as A = L R, with L (k, r) and R (r, k), turns the stage equations into
u = R f(y0 + h L u) for the r x 2m unknowns u, with stage states
Y = y0 + h L u.  Every method runs on `ButcherTableau.low_rank`: an HBVM
tableau carries its own factors (I_s, P_s^T Omega), so u is the s
coefficients gamma and M = R L = X_s; any other tableau takes the thin SVD
factors of A, r = k for full rank.  A system that carries `grad_V`,
H = |p|^2/2 + V(q), on a J that is exactly `canonical_symplectic_matrix(dim)`
has f = (p, -grad V), so with m = dim/2 the q-half of u is
R Y_p = r1 p0^T + h M u_p exactly, with r1 = R 1 (e_1 for an HBVM), for
any factors of A, and the same equations hold in the r x m unknowns u_p
alone, with -grad V as the field:
  u_p = -R grad V(q0 + (h L r1) p0^T + (h L h M) u_p).
The whole-u fixed point contracts like h, this one like h^2 (Hairer,
Lubich & Wanner, Geometric Numerical Integration, sec. VIII.6; Brugnano &
Iavernaro, Line Integral Methods for Conservative Problems, 2016).  So
every run solves one map,
  u = RF field(base + h A u),
with field = f on stage states and RF = R, base = y0, h A = h L on the
whole u, or field = grad_V on stage coordinates and RF = -R,
base = q0 + (h L r1) p0^T, h A = h L h M on u_p.  A system without grad_V,
and any other J, iterates on the whole u.  An iteration is one field call
on the k stages, the product G = RF F and the change E = G - u, formed once
and shared by the stopping residual and Newton's correction.  The residual
is the change in the whole u, or in Y, taken with one operator S on E:
none (the identity) or L on the whole u, and, as the q-half of a change E
in u_p is h M E, [I; h M] or [L; L h M] on u_p.  `_lift` rebuilds the
whole u = (r1 p0^T + h M u_p, u_p) from u_p wherever the whole u is read.
One iteration loop (`_iterate`) runs fixed-point iteration or simplified
Newton; they differ only in their correction, and the Newton matrix is
I - h M (x) Jf, r*2m square, on the whole u, or I + h^2 M^2 (x) grad^2 V,
r*m square, on u_p, with the Jacobian of the field taken at y0 (q0).  The
loop names why it stops: non-finite stage values, a residual that grew
over 5 consecutive iterations (either solver), or max_iter corrections
short of tol.

For the catalog problems the stage blocks hold at most 12 x 4 numbers, so
the interpreter's dispatch costs more than their arithmetic: every
product on the path (h A u, RF F, S E, grad H J^T, the Newton inverse
times E, the warm-start shift, b^T F) is one `np.dot`, a direct BLAS
call, and every max-norm is one `np.maximum.reduce(np.abs(x), axis=None)`,
which skips ndarray.max's Python wrapper.  The latter is the reduction
`.max()` runs, and on these contiguous float blocks `np.dot` and `@` give
bit-identical results.

`integrate` builds a step plan once per run, and the plan holds nothing
that depends on h, so one plan steps at any step size: L, M = R L, the
field, RF and r1 of its stage map (r1 None on the whole u) and the weights
b, which alone tell the forms apart.  With b, the full-stage form stops on
the change in Y, |h| max |S E|, and updates with y0 + h b^T f(Y), where
f(Y) = (p0 + h L u_p, -grad V) on u_p; with None in its place, the
coefficient form stops on the change in u, max |S E|, and updates with
y0 + h gamma_1.  `_steps` forms h L, h M, h A, h L r1 and S once per run,
from its own h (see `_step_operators`).  Newton returns its accepted u
with the field its last iteration evaluated at the stages, which the
full-stage update reads; fixed point returns G(u) with None, as no
iteration evaluated its stages, and only that update then evaluates them.
A plan runs Newton iff it holds a Newton split.  For an HbvmSpec the plan
holds the s x s shift P_s^T Omega V, with V[l, j] the j-th basis
polynomial at 1 + c_l, that starts each step from the previous step's
polynomial carried one step ahead; it is exact because the nodes
integrate degree 2s - 1, and on u_p it shifts u_p alone.  The first step
starts from u = 0, as does every step of a bare ButcherTableau, which
carries no polynomial.

The converged stages do not depend on which matrix Newton iterates with, so
a run keeps the Jacobian and the factored matrix from one step to the next
and builds a fresh pair only when
  (a) the iterations spent beyond those of the step that built the matrix,
      at k field evaluations each, reach the n + 1 of a one-sided
      finite-difference Jacobian on the n columns of u: dim for f, m for
      the second-order form's grad V;
  (b) the last step's final residual ratio exceeds REFRESH_CONTRACTION; or
  (c) a step fails with the kept matrix: it is retried once from the same
      state and the same starting guess with a fresh one, and only a
      failure with a fresh matrix propagates.
One generator (`_steps`) alone chooses each step's starting guess and
Newton matrix, and a single `rk_step` or `gamma_step` is step 1 of a run.

The Newton matrix is inverted once, when it is built, and each
correction is one matrix-vector product with that inverse (`lu_solve`):
the same inverse serves every iteration of every step that keeps it.  It
is one sum over the blocks (P, B) of a split M = sum P (x) B, taken once
per Newton run (Butcher, BIT 16, 1976):
  (I - h M (x) Jf)^-1 = I + sum Re[P (x) (I - h B (x) Jf)^-1 h B (x) Jf].
The eigen-split M = V diag(lam) V^-1 gives a block (P_j, [[lam_j]]) with
P_j = V[:, j] V^-1[j, :] per eigenvalue; of a conjugate pair only the one
with Im > 0 is kept, at weight 2, so `lu_factor` sees one 2m-square block
per pair (complex) and per real eigenvalue (real): ceil(s/2) for an HBVM,
whose M = X_s has the s-stage Gauss spectrum whatever its k.  With I split
off, the rounding of the sum over the P_j, whose norms grow with cond(V)
(563 at s = 6), is O(h |lam Jf|); summing P_j (x) (I - h lam_j Jf)^-1
instead left the s = 6 inverse off by ~8e-13, enough to cost some runs an
extra iteration.  An empty M, or one with cond(V) > 1/sqrt(eps) (a
defective M: classical RK4, an SDIRK's double eigenvalue), is one whole
block ([[1]], M), whose term makes the sum the whole matrix's inverse.
The second-order matrix I + h^2 M^2 (x) grad^2 V splits over the same
blocks with -(h B)^2 (x) grad^2 V in place of h B (x) Jf, since
M^2 = sum P_j lam_j^2: its blocks are m-square.  A non-finite Jacobian,
a non-finite Newton matrix and an exactly singular block each fail the
step with a `StageConvergenceError` naming the cause.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .legendre import (_check_finite, _check_integers, _check_positive,
                       _shift_matrix)
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
    _check_integers(2, dim=dim)
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

    poly_degree records the total degree when the energy is polynomial; None
    marks non-polynomial energies.  vectorized declares that H, grad_H and
    grad_V act on the last axis of any (..., n) array, so that a block of
    states costs one call; otherwise they are called one state at a time, by
    `_blockwise` alone for all three.  grad_V, when given, declares
    H = |p|^2/2 + V(q) on states (q, p) and is the gradient of V: it takes a
    float (..., m) block of coordinates, m = dim/2, returns the gradient at
    each, and may overwrite its argument.  On the canonical J it lets both
    solvers iterate on the momentum half of the stage unknowns alone (see
    the module docstring).  Neither declaration is checked beyond grad_V
    being callable: a grad_V that is not the gradient of H's potential, or
    an H that is not separable, converges to the stages of a different
    system, one whose q-velocity is p and whose force is -grad_V.
    """

    dim: int
    H: Callable[[np.ndarray], float]
    grad_H: Callable[[np.ndarray], np.ndarray]
    J: np.ndarray | None = None
    poly_degree: int | None = None
    vectorized: bool = False
    grad_V: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        _check_integers(2, dim=self.dim)
        if self.grad_V is not None and not callable(self.grad_V):
            raise TypeError(f"grad_V must be callable or None, got "
                            f"{type(self.grad_V).__name__}")
        J = canonical_symplectic_matrix(self.dim) if self.J is None \
            else np.array(self.J, dtype=float)
        if J.shape != (self.dim, self.dim):
            raise ValueError("J must be dim x dim")
        # before the skew test, which inf == -(-inf) would pass
        _check_finite("J", J=J)
        if np.any(J != -J.T):
            raise ValueError("J must be exactly skew-symmetric")
        J.setflags(write=False)
        object.__setattr__(self, "J", J)

    def _blockwise(self, fn):
        """fn on a whole block: fn itself if vectorized, else per row."""
        if self.vectorized:
            return fn
        return lambda Y: np.array([fn(y) for y in Y])

    def f(self, y: np.ndarray) -> np.ndarray:
        """Vector field J grad H at one state or at each row of an (n, dim)
        block, applied as one product with J for every structure matrix."""
        g = self.grad_H(y) if y.ndim == 1 else self._blockwise(self.grad_H)(y)
        return np.dot(g, self.J.T)

    def energies(self, Y: np.ndarray) -> np.ndarray:
        """H at each row of an (n, dim) block of states."""
        return np.asarray(self._blockwise(self.H)(Y), dtype=float)


@dataclass(frozen=True)
class SolverConfig:
    """Stage-solver settings; tol is an absolute max-norm residual bound.
    max_iter bounds the corrections made before the accepted iterate, for
    both solvers; fixed point counts its accepted iterate's free update G
    as one more iteration, so it may report max_iter + 1.  Newton always
    takes the one-sided finite-difference Jacobian of the stage map's
    field: of f, or of grad_V on the second-order form."""

    mode: str = "fixed_point"  # or "newton"
    tol: float = 1e-13
    max_iter: int = 100

    def __post_init__(self):
        if self.mode not in ("fixed_point", "newton"):
            raise ValueError("mode must be 'fixed_point' or 'newton'")
        _check_positive(self.tol, "tol")
        _check_integers(1, max_iter=self.max_iter)


@dataclass(frozen=True)
class StepDiagnostics:
    """Stage-solve outcome: iterations, the final residual, and the final
    residual ratio res_j / res_(j-1) as contraction (0.0 when the first
    residual already met tol)."""

    iterations: int
    residual: float
    contraction: float


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
    jacobian_counts: np.ndarray


def _field_jacobian(field, y: np.ndarray, name: str = "f") -> np.ndarray:
    """Jacobian at y of a field named name, f or grad V, by one-sided
    finite differences, from one field call on the block of the y.size
    perturbed states and y itself.

    The step sqrt(eps) (1 + |y|) balances truncation against rounding for
    a one-sided difference (Dennis & Schnabel, 1983, sec. 5.4).  Against
    the analytic J grad^2 H of every catalog problem, at its default state
    and at 20 random states within 0.2 of it, the worst entry error is
    1.1e-7 of max(1, max |J grad^2 H|), up from 4.0e-9 for central
    differences on 2*dim states.  That is far below what changes the rate
    of a frozen-matrix Newton iteration: the iteration and Jacobian counts
    of every run tested are those of the central difference.

    A non-finite Jacobian fails the step here, with the cause named, rather
    than as a non-finite Newton matrix.
    """
    n = y.size
    steps = _SQRT_EPS * (1.0 + np.abs(y))
    D = np.diag(steps)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        F = field(np.concatenate((y + D, y[None])))
        Jf = (F[:n] - F[n]).T / steps
    if not np.isfinite(Jf).all():
        raise StageConvergenceError(
            f"Jacobian of {name} is non-finite at the step's initial state",
            residual=math.nan, iterations=0)
    return Jf


def lu_factor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^-1 b for a block I - h B (x) Jf of the Newton matrix, or
    I + (h B)^2 (x) grad^2 V on the second-order form; a non-finite or
    exactly singular a fails the step.  This pair keeps its LU names
    because the benchmark tracer times the Newton layers under them."""
    if not np.isfinite(a).all():
        raise StageConvergenceError("Newton matrix is non-finite",
                                    residual=math.nan, iterations=0)
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise StageConvergenceError(
            f"Newton matrix is singular (factored block {a.shape[0]} x "
            f"{a.shape[0]})",
            residual=math.nan, iterations=0) from exc


def lu_solve(inverse: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve with an inverse from `lu_factor`, as one `np.dot`, a direct
    BLAS matrix-vector product.  b is not checked: the stage solvers pass
    only residuals already checked finite."""
    return np.dot(inverse, b)


def _iterate(residual_map, U, correct, cfg: SolverConfig, name: str,
             advice: str):
    """The stage iteration of both solvers, where residual_map(U) returns
    G(U), the change E = G(U) - U, F = f at the stages of U and the
    residual of U: accept U once its residual meets tol, else apply
    U <- correct(U, G(U), E).  Fails, naming the cause, at once on a
    non-finite residual, after 5 consecutive residual growths, or after
    max_iter corrections.  Returns (U, G(U), F, corrections, residual,
    final residual ratio) of the accepted U; overflow is left to the
    non-finite check rather than warned about."""
    last, growth = math.inf, 0
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(cfg.max_iter + 1):
            G, E, F, res = residual_map(U)
            if not math.isfinite(res):
                raise StageConvergenceError(
                    f"stage values are non-finite after {it} iterations",
                    residual=res, iterations=it)
            if res <= cfg.tol:
                return U, G, F, it, res, res / last
            growth = growth + 1 if res > last else 0
            if growth >= 5:
                raise StageConvergenceError(
                    f"{name} iteration diverging (residual grew over 5 "
                    f"consecutive iterations); {advice}",
                    residual=res, iterations=it)
            U, last = correct(U, G, E), res
    raise StageConvergenceError(
        f"{name} iteration did not reach tol={cfg.tol} in "
        f"{cfg.max_iter} iterations", residual=last, iterations=cfg.max_iter)


def _fixed_point(residual_map, U0, cfg: SolverConfig):
    """Fixed-point iteration U <- G(U); returns (G(U), None, diagnostics)
    of the accepted U: no iteration evaluated f at the stages of G(U), and
    the free update G(U) counts as one more iteration."""
    _, G, _, it, res, ratio = _iterate(residual_map, U0,
                                       lambda U, G, E: G, cfg,
                                       "fixed-point", "try mode='newton'")
    return G, None, StepDiagnostics(it + 1, res, ratio)


def _simplified_newton(residual_map, U0, inverse, cfg: SolverConfig):
    """Newton iteration U <- U + inverse (G(U) - U), with the inverse of a
    frozen iteration matrix from `_newton_correction`; returns (U, F,
    diagnostics) of the accepted U, with F = f at its stages."""
    def correct(U, G, E):
        return U + lu_solve(inverse, E.reshape(-1)).reshape(U.shape)

    U, _, F, it, res, ratio = _iterate(residual_map, U0, correct, cfg,
                                       "Newton", "try a smaller h")
    return U, F, StepDiagnostics(it, res, ratio)


def _check_step_size(h: float) -> None:
    if isinstance(h, (bool, np.bool_)) or h == 0.0 or not math.isfinite(h):
        raise ValueError(f"step size must be finite and nonzero, got h={h}")


def _check_state(sys: HamiltonianSystem, y0: np.ndarray) -> None:
    if y0.shape != (sys.dim,):
        raise ValueError(f"initial state has shape {y0.shape}, but the "
                         f"system has dim {sys.dim}")
    _check_finite("initial state", y0=y0)


def _eigen_split(M: np.ndarray):
    """The blocks (P, B), M = sum P (x) B, that Newton sums its inverse
    over: (w_j P_j, [[lam_j]]) per kept eigenvalue of M = V diag(lam) V^-1,
    with P_j = V[:, j] V^-1[j, :], keeping of each conjugate pair the one
    with Im > 0 at weight w_j = 2, and every real one at weight 1 as the
    real (Re P_j, [[Re lam_j]]), so that its block is solved in real
    arithmetic.  One whole block ([[1]], M) when M is empty or its
    eigenbasis is ill-conditioned (cond(V) > 1/sqrt(eps)), as for a
    defective M."""
    whole = ((np.ones((1, 1)), M),)
    if M.size == 0:
        return whole
    lam, V = np.linalg.eig(M)
    if not np.linalg.cond(V) <= 1.0 / _SQRT_EPS:
        return whole
    Vinv = np.linalg.inv(V)
    return tuple((2.0 * np.outer(V[:, j], Vinv[j]), np.array([[lam[j]]]))
                 if lam[j].imag > 0
                 else (np.outer(V[:, j], Vinv[j]).real,
                       np.array([[lam[j].real]]))
                 for j in np.flatnonzero(lam.imag >= 0))


@dataclass(frozen=True)
class _StepPlan:
    """What every step of a run shares, at any step size h: the stage map
    u = RF field(base + h A u) of the module docstring, with M = R L, the
    field called on a block of stage states (f) or stage coordinates
    (grad_V), RF = R or -R, and r1 = R 1 on u_p (None: the run iterates on
    the whole u); the full-stage weights b (None: the coefficient form); the
    r x r shift that carries one step's u to the next step's starting guess
    (None: each step starts from u = 0); and the blocks of
    `_eigen_split(M)` that Newton sums its inverse over (None: the run is
    fixed point).  Of the system it holds the field alone."""

    cfg: SolverConfig
    L: np.ndarray
    M: np.ndarray
    b: np.ndarray | None
    field: Callable[[np.ndarray], np.ndarray]
    RF: np.ndarray
    r1: np.ndarray | None = None
    shift: np.ndarray | None = None
    split: tuple | None = None


def _run_plan(method, sys: HamiltonianSystem, cfg: SolverConfig,
              mode: str) -> _StepPlan:
    """The plan of a run on the `low_rank` factors A = L R and weights b of
    a tableau, or of the one an HbvmSpec builds, which adds the s x s shift
    of `legendre._shift_matrix`.  Mode 'rk' keeps b; 'gamma' keeps None in
    its place, which is all that tells the forms apart.  A run of a system
    with grad_V, on the canonical J, iterates on u_p with either solver;
    the system applies any per-state fallback to the field."""
    shift = None
    if isinstance(method, HbvmSpec):
        quad, _, method = _hbvm_build(method)
        shift = _shift_matrix(quad, method.s)
    elif mode == "gamma":
        raise TypeError("gamma mode requires an HbvmSpec")
    L, R = method.low_rank
    M = R @ L
    split = _eigen_split(M) if cfg.mode == "newton" else None
    field, RF, r1 = sys.f, R, None
    dim, grad_V = sys.dim, sys.grad_V
    if (grad_V is not None and dim % 2 == 0
            and np.array_equal(sys.J, canonical_symplectic_matrix(dim))):
        field = sys._blockwise(grad_V)
        # R 1 as a product: for an HBVM at (6, 2) it is e_1 exactly, where
        # R.sum(axis=1) leaves 2.8e-17 in the second entry
        RF, r1 = -R, np.dot(R, np.ones(R.shape[1]))
    b = None if mode == "gamma" else method.b
    return _StepPlan(cfg, L, M, b, field, RF, r1, shift, split)


def _step_operators(plan: _StepPlan, h: float):
    """(h L, h M, h A, h L r1, S, scale) for the steps of size h of a plan,
    formed once per run: the stage map's operator h A is h L on the whole
    u and h L h M on u_p, whose base adds (h L r1) p0^T (h L r1 is None on
    the whole u).  The residual is scale * max |S E|, S E the change in u
    (coefficient form, scale 1) or in the stage states (full-stage form,
    scale |h|): S is None (the identity) or L on the whole u, and, as the
    q-half of a change E in u_p is h M E, the stack [I; h M] or
    [L; L h M] on u_p."""
    hL, hM = h * plan.L, h * plan.M
    scale = 1.0 if plan.b is None else abs(h)
    if plan.r1 is None:
        S = None if plan.b is None else plan.L
        return hL, hM, hL, None, S, scale
    top = np.eye(plan.r1.size) if plan.b is None else plan.L
    return (hL, hM, np.dot(hL, hM), np.dot(hL, plan.r1),
            np.concatenate((top, np.dot(top, hM))), scale)


def _lift(plan: _StepPlan, hM: np.ndarray, y0, u, rows) -> np.ndarray:
    """u[rows] of the whole u of a step from y0, rows an index or a slice:
    u itself, or, from u_p, (r1 p0^T + h M u_p, u_p).  An index takes its
    row with one vector product hM[rows] u, as the coefficient form's
    gamma_1 needs: row 0 of the whole np.dot(hM, u) can differ in the last
    bit."""
    if plan.r1 is None:
        return u[rows]
    return np.concatenate((plan.r1[rows, None] * y0[u.shape[1]:]
                           + np.dot(hM[rows], u), u[rows]), axis=-1)


def _newton_correction(plan: _StepPlan, h: float, y0):
    """The inverse of the matrix that Newton iterates with, the Jacobian of
    the plan's field taken at y0 (at q0 on u_p): I - h M (x) Jf with
    M = R L on the whole u, I + h^2 M^2 (x) grad^2 V on u_p, as
    I + sum Re[P (x) (I - C (x) J)^-1 C (x) J] over the blocks (P, B) of
    the plan's split, one solve per block, with C = h B and J = Jf, or
    C = -(h B)^2 and J = grad^2 V."""
    reduced = plan.r1 is not None
    x = y0[:y0.size // 2] if reduced else y0
    Jf = _field_jacobian(plan.field, x, "grad V" if reduced else "f")
    # accumulated into a C-contiguous real array: the real part of a
    # complex product is a strided view, slower to multiply with
    inverse = np.eye(plan.M.shape[0] * x.size)
    for P, B in plan.split:
        hB = h * B
        hJ = np.kron(-np.dot(hB, hB) if reduced else hB, Jf)
        inverse += np.kron(P, lu_factor(np.eye(hJ.shape[0]) - hJ, hJ)).real
    return inverse


def _gamma_step_matrices(plan: _StepPlan, h: float, ops, y0, u0, inverse):
    """One step of size h of a plan from y0, iterating on u from u0, with
    ops = `_step_operators(plan, h)`; returns (y1, u, diagnostics).  Newton
    iterates with the given inverse, fixed point when it is None.  u =
    gamma for an HBVM tableau, in either form, and u_p alone on a plan
    with r1; the plan's b picks the form's residual and update, as the
    module docstring says."""
    b, field, RF, dot = plan.b, plan.field, plan.RF, np.dot
    # bound once for the residual, which runs every iteration; ndarray.max
    # would add a Python frame to each call
    amax = np.maximum.reduce
    hL, hM, hA, hLr1, S, scale = ops
    # the product np.outer forms, without its wrapper's conversions
    base = y0 if hLr1 is None \
        else y0[:u0.shape[1]] + hLr1[:, None] * y0[u0.shape[1]:]

    def residual_map(u):
        F = field(base + dot(hA, u))
        G = dot(RF, F)
        E = G - u
        # |h| max |L E| is max |h L E| exactly: rounding is monotone and
        # symmetric in sign
        SE = E if S is None else dot(S, E)
        return G, E, F, scale * float(amax(np.abs(SE), axis=None))

    if inverse is None:
        u, F, diag = _fixed_point(residual_map, u0, plan.cfg)
    else:
        u, F, diag = _simplified_newton(residual_map, u0, inverse, plan.cfg)
    if b is None:
        return y0 + h * _lift(plan, hM, y0, u, 0), u, diag
    if F is None:
        F = field(base + dot(hA, u))
    if hLr1 is None:
        return y0 + h * dot(b, F), u, diag
    # f(Y) = (p0 + h L u_p, -grad V) at the stages
    return (y0 + h * np.concatenate((dot(b, y0[u.shape[1]:] + dot(hL, u)),
                                     -dot(b, F))), u, diag)


def _steps(plan: _StepPlan, h: float, y):
    """The steps of size h of a run from y, without end: yields (y1, u,
    diagnostics, jacobian_count) per step, the count as in
    `Trajectory.jacobian_counts`, and u only u_p on a plan with r1.
    Each step starts from u = 0, or from the shifted previous u.  A plan
    with a split runs Newton, whose matrix is kept, fresh or retried under
    rules (a)-(c) of the module docstring; one without runs fixed point."""
    newton = plan.split is not None
    guess = np.zeros((plan.M.shape[0],
                      y.size if plan.r1 is None else y.size // 2))
    # rule (a) charges k field evaluations per extra iteration against the
    # n + 1 of a one-sided finite-difference Jacobian on the n columns of u
    k, jacobian_cost = plan.L.shape[0], guess.shape[1] + 1
    # formed once per run rather than once per step
    ops = _step_operators(plan, h)
    inverse, refresh = None, newton
    fresh_iters = extra = 0
    while True:
        jacobians = 0
        if refresh:
            inverse, jacobians = _newton_correction(plan, h, y), 1
        try:
            y, u, diag = _gamma_step_matrices(plan, h, ops, y, guess,
                                               inverse)
        except StageConvergenceError:
            if not newton or jacobians:
                raise
            inverse, jacobians = _newton_correction(plan, h, y), 2
            y, u, diag = _gamma_step_matrices(plan, h, ops, y, guess,
                                               inverse)
        yield y, u, diag, jacobians
        if plan.shift is not None:
            guess = np.dot(plan.shift, u)
        if newton:
            if jacobians:
                fresh_iters, extra = diag.iterations, 0
            else:
                extra += max(0, diag.iterations - fresh_iters)
            refresh = (k * extra >= jacobian_cost
                       or diag.contraction > REFRESH_CONTRACTION)


def _single_step(method, sys: HamiltonianSystem, y0, h: float,
                 cfg: SolverConfig | None, mode: str):
    """Step 1 of a run, for `rk_step` and `gamma_step`, its arguments
    checked before the plan is built; returns the plan, y0 as a float array
    and the step's (y1, u, diagnostics, jacobian_count)."""
    y0 = np.asarray(y0, dtype=float)
    _check_state(sys, y0)
    _check_step_size(h)
    plan = _run_plan(method, sys, cfg or SolverConfig(), mode)
    return plan, y0, next(_steps(plan, h, y0))


def rk_step(tab: ButcherTableau, sys: HamiltonianSystem, y0,
            h: float, cfg: SolverConfig | None = None):
    """One step of the k-stage method from y0 with step size h.

    Solves the stage states Y_i = y0 + h sum_j A_ij f(Y_j) to the configured
    residual tolerance, then returns (y1, diagnostics) with
    y1 = y0 + h sum_i b_i f(Y_i).  The unknowns are the r rows of
    u = R f(Y), Y = y0 + h L u, with A = L R from `tab.low_rank`, or their
    momentum half u_p alone on a system with grad_V (see the module
    docstring), iterated from u = 0; the residual is the change in Y.  Step
    sizes are normally positive; the sign is not enforced so that
    reversibility experiments can step back.  Newton iterates with a fresh
    matrix built at y0.
    """
    _, _, (y1, _, diag, _) = _single_step(tab, sys, y0, h, cfg, "rk")
    return y1, diag


def gamma_step(spec: HbvmSpec, sys: HamiltonianSystem, y0,
               h: float, cfg: SolverConfig | None = None):
    """One step in the reduced coefficient formulation.

    The unknowns are the s coefficient vectors of the derivative expansion
    of the underlying polynomial, iterated from zero (on a system with
    grad_V, their momentum halves, from which `_lift` rebuilds the whole
    gamma); stages are reconstructed from them through the integral matrix,
    and the update is y1 = y0 + h * gamma_1 because only the constant basis
    polynomial has nonzero mean.
    """
    plan, y0, (y1, u, diag, _) = _single_step(spec, sys, y0, h, cfg,
                                              "gamma")
    gamma = _lift(plan, h * plan.M, y0, u, slice(None))
    return y1, GammaState(gamma, y0 + np.dot(h * plan.L, gamma)), diag


def integrate(method, sys: HamiltonianSystem, y0, h: float, n_steps: int,
              cfg: SolverConfig | None = None, mode: str = "rk") -> Trajectory:
    """March n_steps of size h > 0, recording states and energy per step.

    method is a ButcherTableau (mode 'rk') or an HbvmSpec (either mode).
    The step plan is built once and stepped through `_steps`, which starts
    each step as the module docstring says: an HbvmSpec from the previous
    step's polynomial, Newton with a kept matrix where the rules allow.
    Fails on the first step that does not converge with a fresh matrix,
    marking the step index.
    """
    _check_positive(h, "h", "step size")
    _check_integers(1, n_steps=n_steps)
    # an int past the float range is compared exactly, not converted
    if not (n_steps <= float(np.finfo(float).max)
            and math.isfinite(float(n_steps) * float(h))):
        raise ValueError(f"step size h={h} times n_steps={n_steps} "
                         f"overflows the time axis")
    if mode not in ("rk", "gamma"):
        raise ValueError("mode must be 'rk' or 'gamma'")
    cfg = cfg or SolverConfig()
    y0 = np.asarray(y0, dtype=float)
    _check_state(sys, y0)
    plan = _run_plan(method, sys, cfg, mode)

    try:
        states = np.empty((n_steps + 1, y0.size))
        iters = np.zeros(n_steps + 1, dtype=int)
        jacs = np.zeros(n_steps + 1, dtype=int)
    except (MemoryError, ValueError) as exc:
        raise ValueError(f"cannot allocate the records of "
                         f"n_steps={n_steps} steps: {exc}") from exc
    states[0] = y0
    steps = _steps(plan, h, y0)
    for n in range(1, n_steps + 1):
        try:
            states[n], _, diag, jacs[n] = next(steps)
        except StageConvergenceError as exc:
            raise StageConvergenceError(
                f"step {n} failed: {exc}", residual=exc.residual,
                iterations=exc.iterations) from exc
        iters[n] = diag.iterations
    return Trajectory(times=np.arange(n_steps + 1) * h, states=states,
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
    _check_positive(t_end, "t_end")
    h_list = [float(h) for h in h_list]
    for h in h_list:
        _check_positive(h, "h", "step sizes")
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
        ref_cfg = replace(cfg, tol=1e-14, max_iter=max(cfg.max_iter, 100))
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
