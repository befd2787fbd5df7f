"""Catalog of Hamiltonian test systems with analytic gradients.

States are ordered coordinates-first, (q, p), matching the canonical
structure matrix.  Polynomial energies record their total degree; closed
form reference solutions, where present, correspond to the catalog's
default initial state.

Every energy and gradient is vectorized: it indexes components with
``y[..., i]``, so it acts on the last axis of a single state or of any
``(..., dim)`` block, and the integrator evaluates all stages of an
iteration in one call.  Each energy is ``|p|^2/2 + V(q)``, so the momentum
half of its gradient is ``p`` itself: a gradient starts from a float copy
of the state block and overwrites only the coordinate columns.  It never
writes into, or returns a view of, its input.  Energies and gradients
both compute in float64, so an integer state gets the same value as the
equal float state instead of wrapping around in integer powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .integrator import HamiltonianSystem

__all__ = ["ProblemSpec", "catalog", "get_problem", "KEPLER_ECCENTRICITY"]

KEPLER_ECCENTRICITY = 0.6


@dataclass(frozen=True)
class ProblemSpec:
    """A named system, its default initial state and, where known, the
    closed-form solution from that state as a function of t."""

    name: str
    system: HamiltonianSystem
    default_y0: np.ndarray
    reference_solution: Callable[[float], np.ndarray] | None = None

    def __post_init__(self):
        object.__setattr__(self, "default_y0",
                           np.asarray(self.default_y0, dtype=float))


# -- one-degree-of-freedom oscillators --------------------------------------


def _harmonic() -> ProblemSpec:
    """Unit-frequency oscillator; exact solution is a rotation."""
    def H(y):
        y = np.asarray(y, dtype=float)
        q, p = y[..., 0], y[..., 1]
        return 0.5 * (p * p + q * q)

    def grad(y):
        return y.astype(float)

    q0, p0 = 1.0, 0.0

    def exact(t):
        return np.array([q0 * math.cos(t) + p0 * math.sin(t),
                         -q0 * math.sin(t) + p0 * math.cos(t)])

    return ProblemSpec(
        name="harmonic",
        system=HamiltonianSystem(dim=2, H=H, grad_H=grad, poly_degree=2,
                                 vectorized=True),
        default_y0=[q0, p0],
        reference_solution=exact,
    )


def _quartic() -> ProblemSpec:
    """Stiffening quartic potential; degree-4 energy."""
    def H(y):
        y = np.asarray(y, dtype=float)
        q, p = y[..., 0], y[..., 1]
        return 0.5 * p * p + 0.25 * q ** 4

    def grad(y):
        g = y.astype(float)
        g[..., 0] **= 3
        return g

    return ProblemSpec(
        name="quartic",
        system=HamiltonianSystem(dim=2, H=H, grad_H=grad, poly_degree=4,
                                 vectorized=True),
        default_y0=[1.0, 1.0],
    )


def _sextic() -> ProblemSpec:
    """Degree-6 confinement; the standard high-degree conservation case."""
    def H(y):
        y = np.asarray(y, dtype=float)
        q, p = y[..., 0], y[..., 1]
        return 0.5 * p * p + q ** 6 / 6.0

    def grad(y):
        g = y.astype(float)
        g[..., 0] **= 5
        return g

    return ProblemSpec(
        name="sextic",
        system=HamiltonianSystem(dim=2, H=H, grad_H=grad, poly_degree=6,
                                 vectorized=True),
        default_y0=[1.0, 1.0],
    )


def _pendulum() -> ProblemSpec:
    """Non-polynomial energy; libration orbit well inside the separatrix."""
    def H(y):
        y = np.asarray(y, dtype=float)
        q, p = y[..., 0], y[..., 1]
        return 0.5 * p * p - np.cos(q)

    def grad(y):
        g = y.astype(float)
        g[..., 0] = np.sin(g[..., 0])
        return g

    return ProblemSpec(
        name="pendulum",
        system=HamiltonianSystem(dim=2, H=H, grad_H=grad, vectorized=True),
        default_y0=[1.5, 0.5],
    )


# -- two degrees of freedom --------------------------------------------------


def _henon_heiles() -> ProblemSpec:
    """Cubic coupling of two oscillators at a bounded energy level."""
    def H(y):
        y = np.asarray(y, dtype=float)
        q1, q2, p1, p2 = y[..., 0], y[..., 1], y[..., 2], y[..., 3]
        return (0.5 * (p1 * p1 + p2 * p2) + 0.5 * (q1 * q1 + q2 * q2)
                + q1 * q1 * q2 - q2 ** 3 / 3.0)

    def grad(y):
        g = y.astype(float)
        q1, q2 = g[..., 0], g[..., 1]
        g[..., 0], g[..., 1] = q1 + 2.0 * q1 * q2, q2 + q1 * q1 - q2 * q2
        return g

    return ProblemSpec(
        name="henon-heiles",
        system=HamiltonianSystem(dim=4, H=H, grad_H=grad, poly_degree=3,
                                 vectorized=True),
        default_y0=[0.1, -0.1, 0.4, 0.1],
    )


def _kepler_reference(t: float, e: float) -> np.ndarray:
    """State on the eccentricity-e orbit started at perihelion at t = 0.

    Unit gravitational parameter and unit semi-major axis, so the mean
    motion is 1 and t equals the mean anomaly.  The eccentric anomaly comes
    from a Newton solve of E - e sin E = t to 1e-14.
    """
    M = t
    E = M + e * math.sin(M)
    for _ in range(100):
        delta = (E - e * math.sin(E) - M) / (1.0 - e * math.cos(E))
        E -= delta
        if abs(delta) <= 1e-14:
            break
    else:
        raise RuntimeError("eccentric-anomaly iteration stalled")
    cosE, sinE = math.cos(E), math.sin(E)
    r = 1.0 - e * cosE
    b = math.sqrt(1.0 - e * e)
    return np.array([cosE - e, b * sinE, -sinE / r, b * cosE / r])


def _kepler() -> ProblemSpec:
    """Two-body orbit, eccentricity KEPLER_ECCENTRICITY, period 2*pi,
    perihelion start; reference via the eccentric anomaly."""
    def H(y):
        y = np.asarray(y, dtype=float)
        q1, q2, p1, p2 = y[..., 0], y[..., 1], y[..., 2], y[..., 3]
        return 0.5 * (p1 * p1 + p2 * p2) - 1.0 / np.sqrt(q1 * q1 + q2 * q2)

    def grad(y):
        g = y.astype(float)
        q1, q2 = g[..., 0], g[..., 1]
        r3 = (q1 * q1 + q2 * q2) ** 1.5
        g[..., :2] /= r3[..., None]
        return g

    e = KEPLER_ECCENTRICITY
    y0 = [1.0 - e, 0.0, 0.0, math.sqrt((1.0 + e) / (1.0 - e))]
    return ProblemSpec(
        name="kepler",
        system=HamiltonianSystem(dim=4, H=H, grad_H=grad, vectorized=True),
        default_y0=y0,
        reference_solution=lambda t: _kepler_reference(t, e),
    )


def catalog() -> list[ProblemSpec]:
    """All test problems, oscillators first."""
    return [_harmonic(), _quartic(), _sextic(), _pendulum(),
            _henon_heiles(), _kepler()]


def get_problem(name: str) -> ProblemSpec:
    """Look a problem up by name (dashes and underscores interchangeable)."""
    wanted = name.strip().lower().replace("_", "-")
    for prob in catalog():
        if prob.name == wanted:
            return prob
    known = ", ".join(p.name for p in catalog())
    raise KeyError(f"unknown problem {name!r}; known: {known}")
