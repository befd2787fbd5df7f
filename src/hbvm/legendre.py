"""Orthonormal shifted-Legendre basis on [0, 1] and quadrature node systems.

The basis is indexed from 1: the j-th member has degree j - 1 and unit L2
norm on [0, 1].  Everything downstream (tableau construction, spectral
checks) is built on the matrices of these evaluations and of their exact
antiderivatives at the nodes (basis_values, basis_integrals).  Gauss and
Lobatto rules come from numpy's Golub-Welsch eigenvalue construction;
custom interpolatory weights and collocation matrices are solved in the
same basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "NodeFamily",
    "AbscissaeSystem",
    "eval_orthonormal",
    "integral_orthonormal",
    "basis_values",
    "basis_integrals",
    "xi",
    "gauss_system",
    "lobatto_system",
    "custom_system",
    "random_custom_system",
    "interpolatory_weights",
    "exactness_degree",
]

# Unit-sum check on quadrature weights at construction time.
WEIGHT_SUM_TOL = 1e-12


class NodeFamily(str, Enum):
    GAUSS = "gauss"
    LOBATTO = "lobatto"
    CUSTOM = "custom"


@dataclass(frozen=True)
class AbscissaeSystem:
    """k quadrature nodes tau on [0, 1] with weights omega summing to 1.

    Nodes are strictly increasing and positive, except that the Lobatto
    family includes the endpoint 0.
    """

    tau: np.ndarray
    omega: np.ndarray
    family: NodeFamily

    def __post_init__(self):
        tau = np.atleast_1d(np.asarray(self.tau, dtype=float))
        omega = np.atleast_1d(np.asarray(self.omega, dtype=float))
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "omega", omega)
        if tau.ndim != 1 or tau.shape != omega.shape:
            raise ValueError("tau and omega must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(tau)) and np.all(np.isfinite(omega))):
            raise ValueError("nodes and weights must be finite")
        if np.any(np.diff(tau) <= 0):
            raise ValueError("nodes must be strictly increasing")
        low = 0.0 if self.family is NodeFamily.LOBATTO else np.nextafter(0.0, 1.0)
        if tau[0] < low or tau[-1] > 1.0:
            raise ValueError("nodes must lie in (0, 1] (Lobatto may include 0)")
        if abs(math.fsum(omega) - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError("weights must sum to 1")

    @property
    def k(self) -> int:
        return self.tau.size


def eval_orthonormal(j: int, t):
    """Evaluate the j-th orthonormal shifted-Legendre polynomial at t.

    Three-term recurrence, starting from the constant 1 and sqrt(3)(2t - 1).
    Accepts a scalar or an ndarray in [0, 1].
    """
    _check_index(j)
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0) or np.any(t_arr > 1.0):
        raise ValueError("t must lie in [0, 1]")
    x = 2.0 * t_arr - 1.0
    p_prev = np.ones_like(t_arr)
    if j == 1:
        return p_prev if t_arr.ndim else float(p_prev)
    p_cur = math.sqrt(3.0) * x
    for m in range(1, j - 1):
        a, b = _recurrence(m)
        p_prev, p_cur = p_cur, a * x * p_cur - b * p_prev
    return p_cur if t_arr.ndim else float(p_cur)


def _recurrence(m: int) -> tuple[float, float]:
    """(a, b) in p_{m+2} = a x p_{m+1} - b p_m, x = 2t - 1, for m >= 1."""
    a = (2 * m + 1) / (m + 1) * math.sqrt((2 * m + 3) / (2 * m + 1))
    b = m / (m + 1) * math.sqrt((2 * m + 3) / (2 * m - 1))
    return a, b


def integral_orthonormal(j: int, c):
    """Exact antiderivative of the j-th basis polynomial from 0 to c.

    Closed form in terms of neighbouring basis values: the integral of the
    first polynomial is c itself, and for j >= 2 it telescopes to
    xi(j) P_{j+1}(c) - xi(j-1) P_{j-1}(c).  No quadrature is involved, so
    tableau entries built from this are exact to rounding.
    """
    _check_index(j)
    c_arr = np.asarray(c, dtype=float)
    if np.any(c_arr < 0.0) or np.any(c_arr > 1.0):
        raise ValueError("c must lie in [0, 1]")
    if j == 1:
        out = 0.5 * eval_orthonormal(1, c) + xi(1) * eval_orthonormal(2, c)
    else:
        out = xi(j) * eval_orthonormal(j + 1, c) - xi(j - 1) * eval_orthonormal(j - 1, c)
    return out


def xi(j: int) -> float:
    """Off-diagonal coupling coefficient 1 / (2 sqrt((2j+1)(2j-1)))."""
    _check_index(j)
    return 1.0 / (2.0 * math.sqrt((2 * j + 1) * (2 * j - 1)))


def _check_index(j: int) -> None:
    if not isinstance(j, (int, np.integer)) or j < 1:
        raise ValueError(f"basis index must be an integer >= 1, got {j!r}")


def basis_values(tau, n: int) -> np.ndarray:
    """(len(tau), n) matrix of the first n basis polynomials at the points tau.

    One pass of the recurrence of eval_orthonormal fills every column, with
    the same operations in the same order, so the columns are bit-identical
    to eval_orthonormal(j, tau).
    """
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    if n < 1:
        raise ValueError("need at least one basis polynomial")
    if np.any(tau < 0.0) or np.any(tau > 1.0):
        raise ValueError("t must lie in [0, 1]")
    return _recurrence_values(tau, n)


def _recurrence_values(t: np.ndarray, n: int) -> np.ndarray:
    """The first n basis polynomials at the 1-d points t, which may lie
    outside [0, 1]; the recurrence of basis_values, unchecked."""
    x = 2.0 * t - 1.0
    P = np.empty((t.size, n))
    P[:, 0] = 1.0
    if n >= 2:
        P[:, 1] = math.sqrt(3.0) * x
    for m in range(1, n - 1):
        a, b = _recurrence(m)
        P[:, m + 1] = a * x * P[:, m] - b * P[:, m - 1]
    return P


def basis_integrals(tau, n: int) -> np.ndarray:
    """(len(tau), n) matrix of the first n basis antiderivatives from 0 to tau.

    Built from one basis_values matrix with the closed form of
    integral_orthonormal, so the columns are bit-identical to it.
    """
    if n < 1:
        raise ValueError("need at least one basis polynomial")
    P = basis_values(tau, n + 1)
    out = np.empty((P.shape[0], n))
    out[:, 0] = 0.5 * P[:, 0] + xi(1) * P[:, 1]
    for j in range(2, n + 1):
        out[:, j - 1] = xi(j) * P[:, j] - xi(j - 1) * P[:, j - 2]
    return out


def _shift_matrix(sys: AbscissaeSystem, s: int) -> np.ndarray:
    """(s, s) matrix S = P_s^T Omega V, V[l, j] the j-th basis polynomial
    at 1 + tau_l: S maps the coefficients of p = sum_j gamma_j P_j to those
    of p(1 + t), p carried one interval ahead.  Exact whenever the rule
    integrates degree 2s - 2, as every HBVM rule (degree 2s - 1) does."""
    P = basis_values(sys.tau, s)
    return P.T @ (sys.omega[:, None] * _recurrence_values(1.0 + sys.tau, s))


# ---------------------------------------------------------------------------
# Node systems.  Gauss and Lobatto rules are computed on [-1, 1] from the
# eigenvalues of symmetric Jacobi matrices (Golub-Welsch), then mapped to
# [0, 1].


def gauss_system(k: int) -> AbscissaeSystem:
    """Gauss-Legendre nodes and weights on [0, 1]; exact through degree 2k-1."""
    if k < 1:
        raise ValueError("gauss_system requires k >= 1")
    x, w = np.polynomial.legendre.leggauss(k)
    return AbscissaeSystem((x + 1.0) / 2.0, w / 2.0, NodeFamily.GAUSS)


def lobatto_system(k: int) -> AbscissaeSystem:
    """Lobatto nodes on [0, 1] including both endpoints; exact through 2k-3."""
    if k < 2:
        raise ValueError("lobatto_system requires k >= 2")
    n = k - 1
    # Interior nodes are the roots of P_n', i.e. the Gauss nodes of the
    # weight 1 - x^2, whose Jacobi matrix has a zero diagonal.  It is built
    # at its true size k - 2, so k = 2 has no interior node.
    j = np.arange(1, k - 2)
    off = np.sqrt(j * (j + 2) / ((2 * j + 1) * (2 * j + 3)))
    J = np.zeros((k - 2, k - 2))
    J[j - 1, j] = J[j, j - 1] = off
    x = np.concatenate(([-1.0], np.linalg.eigvalsh(J), [1.0]))
    p = np.polynomial.legendre.legval(x, [0.0] * n + [1.0])
    omega = 1.0 / (k * n * p ** 2)
    return AbscissaeSystem((x + 1.0) / 2.0, omega, NodeFamily.LOBATTO)


def custom_system(nodes) -> AbscissaeSystem:
    """Wrap user-supplied nodes in (0, 1] with interpolatory weights."""
    tau = np.sort(np.asarray(nodes, dtype=float))
    omega = interpolatory_weights(tau)
    return AbscissaeSystem(tau, omega, NodeFamily.CUSTOM)


def random_custom_system(k: int, seed: int) -> AbscissaeSystem:
    """Seeded random node set: one node jittered inside each of k bins.

    The jitter keeps a minimum separation of 0.6/k, so the basis matrix
    behind the interpolatory weights stays well conditioned up to the
    supported stage counts.
    """
    return custom_system(_random_nodes(k, seed))


def _random_nodes(k: int, seed: int) -> np.ndarray:
    """The nodes of `random_custom_system(k, seed)`, without its weights;
    increasing, since each lies in its own bin."""
    rng = np.random.default_rng(seed)
    i = np.arange(1, k + 1)
    return (i - 0.5 + 0.4 * (rng.random(k) - 0.5)) / k


def interpolatory_weights(tau) -> np.ndarray:
    """Weights exact for degree k-1 at k nodes: the solution of
    P_k^T omega = e_1, since only the first basis polynomial has a nonzero
    mean on [0, 1]."""
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    if not np.all((tau >= 0.0) & (tau <= 1.0)):
        raise ValueError("nodes must be finite and lie in [0, 1]")
    if np.unique(tau).size != tau.size:
        raise ValueError("nodes must be pairwise distinct")
    e1 = np.zeros(tau.size)
    e1[0] = 1.0
    return np.linalg.solve(basis_values(tau, tau.size).T, e1)


def exactness_degree(sys: AbscissaeSystem, tol: float = 1e-9) -> int:
    """Largest d such that the rule integrates every basis polynomial of
    degree up to d within tol, scanning degrees up to 2k + 2; -1 if even
    the constant fails.

    The moments are taken in the orthonormal basis, omega @ P against e_1,
    where an inexact moment stands far above rounding; monomial moments
    1/(e+1) shrink with e, so an absolute tol on them passes inexact high
    degrees.
    """
    moments = sys.omega @ basis_values(sys.tau, 2 * sys.k + 3)
    moments[0] -= 1.0
    inexact = np.flatnonzero(np.abs(moments) > tol)
    return int(inexact[0]) - 1 if inexact.size else moments.size - 1
