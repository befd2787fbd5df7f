"""Orthonormal shifted-Legendre basis on [0, 1] and quadrature node systems.

The basis is indexed from 1: the j-th member has degree j - 1 and unit L2
norm on [0, 1].  One three-term recurrence evaluates it, a whole table of
columns per pass.  Everything downstream (tableau construction, spectral
checks) reads each node system's cached basis table
(`AbscissaeSystem.basis`) and the exact antiderivatives taken from it;
basis_values and basis_integrals evaluate at arbitrary points.  Gauss and
Lobatto rules come from numpy's Golub-Welsch eigenvalue construction;
custom interpolatory weights and collocation matrices are solved in the
same basis.  Every family's systems are built once per node set and
shared, and each system computes its collocation matrix, weight matrix,
Gram matrix and moment errors once, on first use.  The constants that
depend only on a size, the recurrence coefficients and the xi vector per
table width n, and the structure matrix per degree s (tableau.py), are
built once per size.
The argument checks every module shares live here, at the bottom of the
import graph.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "NodeFamily",
    "AbscissaeSystem",
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


def _is_integer(value) -> bool:
    """True for a Python or numpy integer that is not a bool."""
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, bool))


def _check_integers(least: int | None = None, **values) -> None:
    """ValueError unless each value is an integer, and >= least if given."""
    for name, value in values.items():
        if not _is_integer(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and any(v < least for v in values.values()):
        need = " and ".join(f"{name} >= {least}" for name in values)
        got = ", ".join(f"{name}={value}" for name, value in values.items())
        raise ValueError(f"need {need}" + (f", got {got}" if len(values) > 1
                                           else ""))


def _check_seed(seed) -> None:
    """ValueError unless seed is a non-negative integer (not a bool)."""
    if not (_is_integer(seed) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def _check_basis_count(n) -> None:
    """ValueError unless n, a count of basis polynomials, is an integer
    >= 1."""
    _check_integers(n=n)
    if n < 1:
        raise ValueError("need at least one basis polynomial")


def _check_positive(value: float, name: str, what: str | None = None) -> None:
    """ValueError unless value is finite and positive; what (default name)
    names it."""
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{what or name} must be finite and positive, "
                         f"got {name}={value}")


def _check_finite(what: str, **arrays: np.ndarray) -> None:
    """ValueError listing every non-finite entry as name[i, ...] = value."""
    if all(np.isfinite(x).all() for x in arrays.values()):
        return
    bad = [f"{name}[{', '.join(map(str, idx))}] = {x[idx]}"
           for name, x in arrays.items()
           for idx in zip(*np.nonzero(~np.isfinite(x)))]
    if bad:
        raise ValueError(f"{what} must be finite: " + ", ".join(bad))


class NodeFamily(str, Enum):
    GAUSS = "gauss"
    LOBATTO = "lobatto"
    CUSTOM = "custom"


@dataclass(frozen=True)
class AbscissaeSystem:
    """k quadrature nodes tau on [0, 1] with weights omega summing to 1.

    Nodes are strictly increasing and positive, except that the Lobatto
    family includes the endpoint 0.  tau and omega are private read-only
    copies, so the read-only values cached on first use (the basis table,
    the collocation matrix, and the private weight matrix, Gram matrix and
    moment errors) always describe the nodes.
    """

    tau: np.ndarray
    omega: np.ndarray
    family: NodeFamily

    def __post_init__(self):
        tau = np.atleast_1d(np.array(self.tau, dtype=float))
        omega = np.atleast_1d(np.array(self.omega, dtype=float))
        for name, x in (("tau", tau), ("omega", omega)):
            x.setflags(write=False)
            object.__setattr__(self, name, x)
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

    @functools.cached_property
    def basis(self) -> np.ndarray:
        """Read-only (k, 2k + 3) table of the first 2k + 3 basis polynomials
        at the nodes; its first n columns are basis_values(tau, n), bit for
        bit, for every n it holds."""
        return _read_only(_recurrence_values(self.tau, 2 * self.k + 3))

    @functools.cached_property
    def collocation_matrix(self) -> np.ndarray:
        """Read-only stage matrix of the k-stage collocation method at the
        nodes, A = I_k P_k^{-1}, solved once per system from its basis
        table: collocation integrates every polynomial of degree < k
        exactly from 0 to each node, so A P_k = I_k."""
        P, k = self.basis, self.k
        return _read_only(np.linalg.solve(P[:, :k].T, _integrals(P, k).T).T)

    # The per-system constants of the tableau build and its checks, each
    # computed once on first use.

    @functools.cached_property
    def _weight_matrix(self) -> np.ndarray:
        """Read-only diagonal matrix Omega of the weights."""
        return _read_only(np.diag(self.omega))

    @functools.cached_property
    def _gram(self) -> np.ndarray:
        """Read-only Gram matrix P_k^T Omega P_k of the first k basis
        polynomials under the rule."""
        P = self.basis[:, :self.k]
        return _read_only(P.T @ self._weight_matrix @ P)

    @functools.cached_property
    def _moment_errors(self) -> np.ndarray:
        """Read-only errors of the rule's moments of the basis table,
        omega @ P against e_1 (exactness_degree's scan)."""
        moments = self.omega @ self.basis
        moments[0] -= 1.0
        return _read_only(moments)


def _read_only(x: np.ndarray) -> np.ndarray:
    """x, marked read-only: a cached array is shared by every caller."""
    x.setflags(write=False)
    return x


def xi(j: int) -> float:
    """Off-diagonal coupling coefficient 1 / (2 sqrt((2j+1)(2j-1)))."""
    if not (_is_integer(j) and j >= 1):
        raise ValueError(f"basis index must be an integer >= 1, got {j!r}")
    return 1.0 / (2.0 * math.sqrt((2 * j + 1) * (2 * j - 1)))


def basis_values(tau, n: int) -> np.ndarray:
    """(len(tau), n) matrix of the first n basis polynomials at the points
    tau in [0, 1]; column j - 1 holds the j-th polynomial.  One pass of the
    recurrence fills every column, and each column is the same for every
    n that holds it."""
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    _check_basis_count(n)
    if not np.all((tau >= 0.0) & (tau <= 1.0)):
        raise ValueError("t must be finite and lie in [0, 1]")
    return _recurrence_values(tau, n)


def _recurrence_values(t: np.ndarray, n: int) -> np.ndarray:
    """The first n basis polynomials at the 1-d points t, which may lie
    outside [0, 1]: basis_values unchecked.  The one evaluation of the
    basis, by the three-term recurrence p_{m+2} = a x p_{m+1} - b p_m in
    x = 2t - 1, from the constant 1 and sqrt(3) x."""
    x = 2.0 * t - 1.0
    P = np.empty((t.size, n))
    P[:, 0] = 1.0
    if n >= 2:
        P[:, 1] = math.sqrt(3.0) * x
    for m, (a, b) in enumerate(_recurrence_coefficients(n), start=1):
        P[:, m + 1] = a * x * P[:, m] - b * P[:, m - 1]
    return P


@functools.lru_cache(maxsize=64)
def _recurrence_coefficients(n: int) -> tuple[tuple[float, float], ...]:
    """The coefficients (a, b) of the recurrence steps m = 1 .. n - 2."""
    return tuple(((2 * m + 1) / (m + 1) * math.sqrt((2 * m + 3) / (2 * m + 1)),
                  m / (m + 1) * math.sqrt((2 * m + 3) / (2 * m - 1)))
                 for m in range(1, n - 1))


def basis_integrals(tau, n: int) -> np.ndarray:
    """(len(tau), n) matrix of the first n basis antiderivatives from 0 to tau.

    Closed form on one basis_values table: the integral of the first
    polynomial is c = P_1(c)/2 + xi(1) P_2(c), and for j >= 2 it telescopes
    to xi(j) P_{j+1}(c) - xi(j-1) P_{j-1}(c).  No quadrature is involved,
    so tableau entries built from it are exact to rounding.
    """
    _check_basis_count(n)
    return _integrals(basis_values(tau, n + 1), n)


def _integrals(P: np.ndarray, n: int) -> np.ndarray:
    """The first n basis antiderivatives from a table P of at least n + 1
    basis values (basis_integrals on a table already built).  Column j - 1
    is xi(j) P_{j+1} - xi(j-1) P_{j-1}."""
    x = _xi_vector(n)
    out = np.empty((P.shape[0], n))
    out[:, 0] = 0.5 * P[:, 0] + x[0] * P[:, 1]
    out[:, 1:] = x[1:] * P[:, 2:n + 1] - x[:-1] * P[:, :n - 1]
    return out


@functools.lru_cache(maxsize=64)
def _xi_vector(n: int) -> np.ndarray:
    """Read-only (xi(1), ..., xi(n))."""
    return _read_only(np.array([xi(j) for j in range(1, n + 1)]))


def _shift_matrix(sys: AbscissaeSystem, s: int) -> np.ndarray:
    """(s, s) matrix S = P_s^T Omega V, V[l, j] the j-th basis polynomial
    at 1 + tau_l: S maps the coefficients of p = sum_j gamma_j P_j to those
    of p(1 + t), p carried one interval ahead.  Exact whenever the rule
    integrates degree 2s - 2, as every HBVM rule (degree 2s - 1) does."""
    # A contiguous copy: matmul over the strided slice rounds some entries
    # differently from the same product on a fresh basis matrix.
    P = np.ascontiguousarray(sys.basis[:, :s])
    return P.T @ (sys.omega[:, None] * _recurrence_values(1.0 + sys.tau, s))


# ---------------------------------------------------------------------------
# Node systems.  Gauss and Lobatto rules are computed on [-1, 1] from the
# eigenvalues of symmetric Jacobi matrices (Golub-Welsch), then mapped to
# [0, 1].  A system is immutable, so each rule is built once per node set
# (per k for Gauss and Lobatto) and shared, with its basis table.


@functools.lru_cache(maxsize=64)
def gauss_system(k: int) -> AbscissaeSystem:
    """Gauss-Legendre nodes and weights on [0, 1]; exact through degree 2k-1."""
    _check_integers(1, k=k)
    x, w = np.polynomial.legendre.leggauss(k)
    return AbscissaeSystem((x + 1.0) / 2.0, w / 2.0, NodeFamily.GAUSS)


@functools.lru_cache(maxsize=64)
def lobatto_system(k: int) -> AbscissaeSystem:
    """Lobatto nodes on [0, 1] including both endpoints; exact through 2k-3."""
    _check_integers(2, k=k)
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
    """User-supplied nodes in (0, 1], in any order, with interpolatory
    weights: one system per node set, built once and shared."""
    return _custom_system(tuple(np.sort(_node_array(nodes)).tolist()))


def _node_array(nodes) -> np.ndarray:
    """A node list as a float array; ValueError unless it is 1-d."""
    tau = np.asarray(nodes, dtype=float)
    if tau.ndim != 1:
        raise ValueError(f"nodes must be a 1-d list, got {tau.ndim}-d")
    return tau


@functools.lru_cache(maxsize=64)
def _custom_system(tau: tuple[float, ...]) -> AbscissaeSystem:
    return AbscissaeSystem(tau, interpolatory_weights(tau), NodeFamily.CUSTOM)


def random_custom_system(k: int, seed: int) -> AbscissaeSystem:
    """Seeded random node set: one node jittered inside each of k bins.

    The jitter keeps a minimum separation of 0.6/k, so the basis matrix
    behind the interpolatory weights stays well conditioned up to the
    supported stage counts.  k must be an integer >= 1 and seed a
    non-negative integer.
    """
    _check_integers(1, k=k)
    _check_seed(seed)
    return custom_system(_random_nodes(k, seed))


def _random_nodes(k: int, seed: int) -> np.ndarray:
    """The nodes of `random_custom_system(k, seed)`, without its weights;
    increasing, since each lies in its own bin."""
    rng = np.random.default_rng(seed)
    i = np.arange(1, k + 1)
    return (i - 0.5 + 0.4 * (rng.random(k) - 0.5)) / k


def interpolatory_weights(tau) -> np.ndarray:
    """Weights exact for degree k-1 at k nodes: the solution of
    P_k^T omega = e_1 on the k-column basis table, since only the first
    basis polynomial has a nonzero mean on [0, 1]."""
    tau = _node_array(tau)
    if tau.size == 0:
        raise ValueError("need at least one node")
    if not np.all((tau >= 0.0) & (tau <= 1.0)):
        raise ValueError("nodes must be finite and lie in [0, 1]")
    if np.unique(tau).size != tau.size:
        raise ValueError("nodes must be pairwise distinct")
    return np.linalg.solve(_recurrence_values(tau, tau.size).T,
                           np.eye(1, tau.size)[0])


def exactness_degree(sys: AbscissaeSystem, tol: float = 1e-9) -> int:
    """Largest d such that the rule integrates every basis polynomial of
    degree up to d within tol, scanning degrees up to 2k + 2; -1 if even
    the constant fails.

    The moments are taken in the orthonormal basis, omega @ P against e_1,
    where an inexact moment stands far above rounding; monomial moments
    1/(e+1) shrink with e, so an absolute tol on them passes inexact high
    degrees.
    """
    _check_positive(tol, "tol")
    errors = sys._moment_errors
    inexact = np.flatnonzero(np.abs(errors) > tol)
    return int(inexact[0]) - 1 if inexact.size else errors.size - 1
