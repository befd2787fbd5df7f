"""Butcher tableau constructors: the energy-preserving k-stage method of
degree s, plain collocation, and the low-rank filtered form, plus the small
structural matrices that carry the Gauss spectrum.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .legendre import (
    AbscissaeSystem,
    NodeFamily,
    _check_finite,
    _check_integers,
    _integrals,
    _is_integer,
    _read_only,
    custom_system,
    exactness_degree,
    gauss_system,
    lobatto_system,
    xi,
)

__all__ = [
    "MAX_STAGES",
    "MAX_DEGREE",
    "BasisMatrices",
    "ButcherTableau",
    "HbvmSpec",
    "abscissae",
    "basis_matrices",
    "hbvm_tableau",
    "collocation_matrix",
    "filtered_tableau",
    "xs_matrix",
    "xhat_matrix",
    "xtilde_matrix",
    "tableau_to_json",
    "tableau_from_json",
]

# Supported envelope.  The stage cap stays because the interpolatory
# weights of seeded custom nodes fail the weight-sum check by k = 24.
MAX_STAGES = 12
MAX_DEGREE = 6

# Numerical rank cutoff on the singular values of A in
# ButcherTableau.low_rank.
RANK_SV_TOL = 1e-10


@dataclass(frozen=True)
class BasisMatrices:
    """Basis evaluations and integrals on a node system.

    P_s  : (k, s)   values of the first s basis polynomials at the nodes
    P_s1 : (k, s+1) same with one extra column
    I_s  : (k, s)   antiderivatives of the basis from 0 to each node
    Omega: (k, k)   diagonal weight matrix
    """

    P_s: np.ndarray
    P_s1: np.ndarray
    I_s: np.ndarray
    Omega: np.ndarray


@dataclass(frozen=True)
class ButcherTableau:
    """Nodes c, stage matrix A, and weights b of a k-stage implicit method.

    The arrays are private read-only copies, so the low_rank factors always
    describe A.
    """

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    s: int | None = None
    family: str | None = None

    def __post_init__(self):
        c = np.atleast_1d(np.array(self.c, dtype=float))
        A = np.array(self.A, dtype=float)
        b = np.atleast_1d(np.array(self.b, dtype=float))
        k = c.size
        if A.shape != (k, k) or b.size != k:
            what = (f"A has shape {A.shape}, not (k, k) = {(k, k)}"
                    if A.shape != (k, k)
                    else f"b has size {b.size}, not k = {k}")
            raise ValueError(f"inconsistent tableau dimensions: {what}")
        _check_finite("tableau entries", c=c, A=A, b=b)
        for name, x in (("c", c), ("A", A), ("b", b)):
            x.setflags(write=False)
            object.__setattr__(self, name, x)

    @property
    def k(self) -> int:
        return self.c.size

    @functools.cached_property
    def low_rank(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only thin factors A = L R, L (k, r) and R (r, k).  An HBVM
        tableau carries its construction's (I_s, P_s^T Omega), r = s; any
        other takes them once from the SVD of A: L = U_r S_r, R = V_r^T, r
        the count of singular values above RANK_SV_TOL (k for collocation)."""
        U, sv, Vt = np.linalg.svd(self.A)
        r = int(np.sum(sv > RANK_SV_TOL))
        L, R = U[:, :r] * sv[:r], Vt[:r]
        for x in (L, R):
            x.setflags(write=False)
        return L, R


@dataclass(frozen=True)
class HbvmSpec:
    """Method selector: k stages, polynomial degree s, node family.

    Custom families carry their node list; Gauss and Lobatto generate
    theirs.  Construction refuses a k or s that is a bool or not an
    integer (numpy integers are accepted), k < s, and anything past the
    supported k <= 12, s <= 6 envelope.
    """

    k: int
    s: int
    family: NodeFamily = NodeFamily.GAUSS
    nodes: tuple[float, ...] | None = None

    def __post_init__(self):
        _check_integers(k=self.k, s=self.s)
        object.__setattr__(self, "family", NodeFamily(self.family))
        if self.s < 1 or self.k < self.s:
            raise ValueError("need 1 <= s <= k")
        if self.k > MAX_STAGES or self.s > MAX_DEGREE:
            raise ValueError(f"supported envelope is k <= {MAX_STAGES}, s <= {MAX_DEGREE}")
        if self.family is NodeFamily.CUSTOM:
            if self.nodes is None or len(self.nodes) != self.k:
                raise ValueError("custom family requires exactly k nodes")
            object.__setattr__(self, "nodes", tuple(float(t) for t in self.nodes))
        elif self.nodes is not None:
            raise ValueError("nodes are only accepted for the custom family")


def _spec_record(spec: HbvmSpec) -> dict:
    """The spec as the JSON reports name it: k, s and the family's value."""
    return {"k": spec.k, "s": spec.s, "family": spec.family.value}


def abscissae(spec: HbvmSpec) -> AbscissaeSystem:
    """Node system for a method spec."""
    if spec.family is NodeFamily.GAUSS:
        return gauss_system(spec.k)
    if spec.family is NodeFamily.LOBATTO:
        return lobatto_system(spec.k)
    return custom_system(spec.nodes)


def basis_matrices(sys: AbscissaeSystem, s: int) -> BasisMatrices:
    """Evaluate the basis and its antiderivatives on the node system,
    from its cached basis table; P_s, P_s1 and Omega are the system's
    read-only cached arrays, I_s is fresh."""
    if not (_is_integer(s) and 1 <= s <= sys.k):
        raise ValueError(f"need 1 <= s <= k for an integer s, got s={s!r}, k={sys.k}")
    P = sys.basis
    return BasisMatrices(P_s=P[:, :s], P_s1=P[:, :s + 1], I_s=_integrals(P, s),
                         Omega=sys._weight_matrix)


def _require_exactness(sys: AbscissaeSystem, s: int) -> None:
    # Custom rules are held to their generic exactness k - 1, not to any
    # accidental extra degree a symmetric node set may pick up.
    if sys.family is NodeFamily.CUSTOM and sys.k - 1 < 2 * s - 1:
        raise ValueError(
            "quadrature too weak for B(2s): custom nodes guarantee exactness "
            f"k - 1 = {sys.k - 1} < {2 * s - 1}; need k >= 2s"
        )
    degree = exactness_degree(sys)
    if degree < 2 * s - 1:
        raise ValueError(
            "quadrature too weak for B(2s): "
            f"exactness degree {degree} < {2 * s - 1} for k={sys.k}, s={s}"
        )


def _hbvm_build(spec: HbvmSpec) -> tuple[AbscissaeSystem, BasisMatrices,
                                          ButcherTableau]:
    """Node system, basis matrices and tableau of a spec, each built once
    after the exactness check; the tableau carries its factors L = I_s,
    R = P_s^T Omega as low_rank."""
    sys = abscissae(spec)
    _require_exactness(sys, spec.s)
    bm = basis_matrices(sys, spec.s)
    tab = ButcherTableau(c=sys.tau, A=bm.I_s @ bm.P_s.T @ bm.Omega,
                         b=sys.omega, s=spec.s, family=spec.family.value)
    L, R = bm.I_s, bm.P_s.T @ bm.Omega
    for x in (L, R):
        x.setflags(write=False)
    object.__setattr__(tab, "low_rank", (L, R))
    return sys, bm, tab


def hbvm_tableau(spec: HbvmSpec) -> ButcherTableau:
    """Build the k-stage tableau of degree s: A = I_s P_s^T Omega.

    Requires the node weights to integrate polynomials of degree 2s - 1
    exactly; the stage matrix then has numerical rank s.
    """
    return _hbvm_build(spec)[2]


def collocation_matrix(sys: AbscissaeSystem) -> np.ndarray:
    """Stage matrix of the k-stage collocation method at the given nodes.

    Collocation integrates every polynomial of degree < k exactly from 0 to
    each node, so A P_k = I_k for the full basis, and A = I_k P_k^{-1}.
    The matrix is the node system's read-only cached
    AbscissaeSystem.collocation_matrix, solved once per system.
    """
    return sys.collocation_matrix


def _filtered_matrix(sys: AbscissaeSystem, bm: BasisMatrices) -> np.ndarray:
    """Stage matrix of filtered_tableau from basis matrices already built."""
    return collocation_matrix(sys) @ bm.P_s @ bm.P_s.T @ bm.Omega


def filtered_tableau(sys: AbscissaeSystem, s: int) -> ButcherTableau:
    """Rank-s filtering of the collocation method: A = (coll) P_s P_s^T Omega."""
    _require_exactness(sys, s)
    A = _filtered_matrix(sys, basis_matrices(sys, s))
    return ButcherTableau(c=sys.tau, A=A, b=sys.omega, s=s,
                          family=sys.family.value)


# The three structural matrices are fresh contiguous copies of blocks of
# one cached build per s: matmul over a strided slice can round differently.


def xs_matrix(s: int) -> np.ndarray:
    """s x s tridiagonal matrix carrying the order-2s Gauss spectrum."""
    _check_degree(s)
    return _xtilde(s)[:s, :s].copy()


def xhat_matrix(s: int) -> np.ndarray:
    """(s+1) x s extension of xs_matrix with a final row (0, ..., 0, xi(s))."""
    _check_degree(s)
    return _xtilde(s)[:, :s].copy()


def xtilde_matrix(s: int) -> np.ndarray:
    """xhat_matrix with an appended zero column, (s+1) x (s+1): 1/2 at
    (0, 0), xi(j) at (j, j-1) for j <= s and -xi(j) at (j-1, j) for j < s."""
    _check_degree(s)
    return _xtilde(s).copy()


def _check_degree(s) -> None:
    """ValueError unless s is an integer >= 1.  Checked before any cache
    lookup: True and 2.0 hash like 1 and 2."""
    if not (_is_integer(s) and s >= 1):
        raise ValueError(f"s must be >= 1 and an integer, got s={s!r}")


@functools.lru_cache(maxsize=64)
def _xtilde(s: int) -> np.ndarray:
    """Read-only xtilde_matrix(s) for a checked s, built once per s."""
    X = np.zeros((s + 1, s + 1))
    X[0, 0] = 0.5
    for j in range(1, s):
        X[j - 1, j] = -xi(j)
        X[j, j - 1] = xi(j)
    X[s, s - 1] = xi(s)
    return _read_only(X)


# ---------------------------------------------------------------------------
# Serialisation.  Reals are written as their shortest round-trip repr, so
# files round-trip float64 exactly.


def _jsonable(x):
    """json default hook: arrays and numpy scalars as Python values,
    complex numbers as [re, im]."""
    if isinstance(x, (np.ndarray, np.generic)):
        return x.tolist()
    if isinstance(x, complex):
        return [x.real, x.imag]
    raise TypeError(f"not serialisable: {type(x)}")


def _dump_json(obj) -> str:
    """JSON text for dicts, lists, tuples, arrays, scalars and complex
    numbers ([re, im]); ends with a newline."""
    return json.dumps(obj, default=_jsonable) + "\n"


def tableau_to_json(tab: ButcherTableau) -> str:
    """Serialise a tableau; ends with a newline."""
    return _dump_json({"k": tab.k, "s": tab.s, "family": tab.family,
                       "c": tab.c, "b": tab.b, "A": tab.A})


class _LongInt:
    """An integer literal with more digits than int() converts (4300 by
    default, sys.set_int_max_str_digits), which json.loads would refuse
    without naming its field.  Far too large for float64 as well."""

    def __init__(self, literal: str):
        self.digits = len(literal.lstrip("-"))

    def __repr__(self) -> str:
        return f"<{self.digits}-digit integer>"

    def __float__(self) -> float:
        raise OverflowError("integer too large for float64")


def _parse_int(literal: str):
    """json.loads' parse_int: the int, or a _LongInt past int()'s limit."""
    try:
        return int(literal)
    except ValueError:
        return _LongInt(literal)


def tableau_from_json(text: str) -> ButcherTableau:
    """Parse a tableau serialised by tableau_to_json.  A document that is
    not an object, a k or s that is not an integer, a family that is not a
    string, an s outside 1 <= s <= k, a c, A or b that is not an array, a
    row of A that is not an array or whose length is not that of c, an
    entry that is not a number, an integer entry too large for float64, or
    a k or s with more digits than int() converts is a ValueError naming
    the field; s and family may be null.  So is an A without len(c) rows
    or a b without len(c) entries (ButcherTableau names which)."""
    obj = json.loads(text, parse_int=_parse_int)
    if not isinstance(obj, dict):
        raise ValueError("tableau JSON must be an object, "
                         f"got {type(obj).__name__}")
    for name, kind, nullable in (("k", int, False), ("s", int, True),
                                 ("family", str, True), ("c", list, False),
                                 ("A", list, False), ("b", list, False)):
        value = obj.get(name)
        if kind is int and isinstance(value, _LongInt):
            raise ValueError(f"tableau field {name!r} holds an integer too "
                             f"large to read: {value!r}")
        if not ((value is None and nullable)
                or (isinstance(value, kind) and not isinstance(value, bool))):
            raise ValueError(f"tableau field {name!r} must be "
                             f"{kind.__name__}, got {value!r}")
    if obj.get("s") is not None and not 1 <= obj["s"] <= obj["k"]:
        raise ValueError(f"tableau field 's' must satisfy 1 <= s <= k = "
                         f"{obj['k']}, got {obj['s']!r}")
    rows = [("c", obj["c"]), ("b", obj["b"])] + [("A", r) for r in obj["A"]]
    for name, row in rows:
        if not isinstance(row, list):
            raise ValueError(f"tableau field 'A' must be a list of rows, "
                             f"got row {row!r}")
        for x in row:
            if not isinstance(x, (int, float, _LongInt)) \
                    or isinstance(x, bool):
                raise ValueError(f"tableau field {name!r} must hold "
                                 f"numbers, got {x!r}")
            try:
                float(x)
            except OverflowError:
                raise ValueError(f"tableau field {name!r} holds an integer "
                                 "too large for float64") from None
        if name == "A" and len(row) != len(obj["c"]):
            raise ValueError(f"tableau field 'A' must have rows of length "
                             f"len(c) = {len(obj['c'])}, got row {row!r}")
    tab = ButcherTableau(c=obj["c"], A=obj["A"], b=obj["b"],
                         s=obj.get("s"), family=obj.get("family"))
    if tab.k != obj["k"]:
        raise ValueError("declared k does not match array sizes")
    return tab
