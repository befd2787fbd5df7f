"""Catalog of Hamiltonian test systems with analytic gradients.

States are ordered coordinates-first, (q, p), matching the canonical
structure matrix.  Polynomial energies record their total degree; closed
form reference solutions, where present, correspond to the catalog's
default initial state.

Every catalog problem is separable, H = |p|^2/2 + V(q), and is one
``_separable`` call on its potential V and that potential's gradient
grad_V.  ``_separable`` computes the energy as the kinetic term plus V on
``np.asarray(y, dtype=float)``; the gradient starts from a float copy
``g = y.astype(float)`` of the state block, whose momentum half is already
p, and grad_V overwrites the coordinate columns of g.  So a gradient
never writes into, or returns a view of, its input, and an integer state
gets the value of the equal float state.  V and grad_V index with
``y[..., i]``, i < m, so energies and gradients act on the last axis of
one state or of any block, and all stages of an iteration cost one call.
The same grad_V overwrites a float ``(..., m)`` coordinate block with the
gradient of V and returns it, and ``_separable`` hands it to its system as
``HamiltonianSystem.grad_V``: both solvers then iterate on the momentum
half of the stage unknowns alone, calling grad_V on the stage
coordinates and never grad_H.

The polynomial oscillators harmonic, quartic and sextic are one builder,
``_power``, at nu = 2, 4 and 6: V = q^nu / nu, and grad_V raises the
coordinate column to the power nu - 1 in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
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


def _separable(name: str, V, grad_V, y0, poly_degree: int | None = None,
               reference: Callable[[float], np.ndarray] | None = None
               ) -> ProblemSpec:
    """The problem H = |p|^2/2 + V(q) on the canonical structure.

    V reads the coordinate columns of a float64 ``(..., dim)`` block.
    grad_V overwrites the coordinate columns, the first m, of a float64
    block with the gradient of V and returns that block: the system
    carries it as its grad_V, on ``(..., m)`` coordinate blocks, and
    grad_H passes it a float copy of its whole ``(..., dim)`` block, whose
    momentum columns keep p, the momentum half of grad H.  The system is
    vectorized.
    """
    m = len(y0) // 2

    def H(y):
        y = np.asarray(y, dtype=float)
        p = y[..., m:]
        return 0.5 * np.sum(p * p, axis=-1) + V(y)

    def grad_H(y):
        g = y.astype(float)
        grad_V(g)
        return g

    system = HamiltonianSystem(dim=len(y0), H=H, grad_H=grad_H,
                               poly_degree=poly_degree, vectorized=True,
                               grad_V=grad_V)
    return ProblemSpec(name, system, y0, reference)


# -- one-degree-of-freedom oscillators --------------------------------------


def _power(name: str, nu: int, y0,
           reference: Callable[[float], np.ndarray] | None = None
           ) -> ProblemSpec:
    """The oscillator V = q^nu / nu, a degree-nu energy: nu = 2 is the
    unit-frequency harmonic one, 4 a stiffening quartic and 6 the standard
    high-degree conservation case."""
    e = nu - 1

    def grad_V(g):
        g[..., 0] **= e
        return g

    return _separable(name, lambda y: y[..., 0] ** nu / nu, grad_V, y0,
                      poly_degree=nu, reference=reference)


def _rotation(t: float) -> np.ndarray:
    """Harmonic state at t from (1, 0) at t = 0: a rotation."""
    return np.array([math.cos(t), -math.sin(t)])


def _pendulum() -> ProblemSpec:
    """Non-polynomial energy; libration orbit well inside the separatrix."""
    def grad_V(g):
        g[..., 0] = np.sin(g[..., 0])
        return g

    return _separable("pendulum", lambda y: -np.cos(y[..., 0]), grad_V,
                      [1.5, 0.5])


# -- two degrees of freedom --------------------------------------------------


def _henon_heiles() -> ProblemSpec:
    """Cubic coupling of two oscillators at a bounded energy level."""
    def V(y):
        q1, q2 = y[..., 0], y[..., 1]
        return 0.5 * (q1 * q1 + q2 * q2) + q1 * q1 * q2 - q2 ** 3 / 3.0

    def grad_V(g):
        q1, q2 = g[..., 0], g[..., 1]
        g[..., 0], g[..., 1] = q1 + 2.0 * q1 * q2, q2 + q1 * q1 - q2 * q2
        return g

    return _separable("henon-heiles", V, grad_V, [0.1, -0.1, 0.4, 0.1],
                      poly_degree=3)


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
    def V(y):
        q1, q2 = y[..., 0], y[..., 1]
        return -1.0 / np.sqrt(q1 * q1 + q2 * q2)

    def grad_V(g):
        q1, q2 = g[..., 0], g[..., 1]
        g[..., :2] /= ((q1 * q1 + q2 * q2) ** 1.5)[..., None]
        return g

    e = KEPLER_ECCENTRICITY
    y0 = [1.0 - e, 0.0, 0.0, math.sqrt((1.0 + e) / (1.0 - e))]
    return _separable("kepler", V, grad_V, y0,
                      reference=lambda t: _kepler_reference(t, e))


# Name -> builder, in catalog order.  A lookup builds only the problem it
# returns, and the names are known without building any.
_BUILDERS = {"harmonic": partial(_power, "harmonic", 2, (1.0, 0.0), _rotation),
             "quartic": partial(_power, "quartic", 4, (1.0, 1.0)),
             "sextic": partial(_power, "sextic", 6, (1.0, 1.0)),
             "pendulum": _pendulum, "henon-heiles": _henon_heiles,
             "kepler": _kepler}


def catalog() -> list[ProblemSpec]:
    """All test problems, oscillators first."""
    return [build() for build in _BUILDERS.values()]


def get_problem(name: str) -> ProblemSpec:
    """Look a problem up by name (dashes and underscores interchangeable)."""
    build = _BUILDERS.get(name.strip().lower().replace("_", "-"))
    if build is None:
        raise KeyError(f"unknown problem {name!r}; "
                       f"known: {', '.join(_BUILDERS)}")
    return build()
