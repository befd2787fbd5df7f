"""Structural checks on the constructed tableaux: spectrum classification
against the order-2s reference matrix (eigenvalues from numpy), invariant-
subspace and basis-transform residuals, and linear-stability scans.

The stability function is the determinant ratio
R(z) = det(I - z (A - 1 b^T)) / det(I - z A).  With the stage matrix
factored at its rank r, A = L R (ButcherTableau.low_rank), Sylvester's
identity makes each determinant a product over the eigenvalues of one
(r+1)-square matrix, so a whole scan costs two small spectra; r is s for
an HBVM, whose tableau carries its own factors (I_s, P_s^T Omega), so no
SVD of A is taken.

The verification sweep runs in phases: it builds every spec's node
system, basis matrices and tableau first, then runs each check over every
spec before it starts the next, and builds the records last.  The spectra
of all tableaux with the same stage count k come from one stacked
eigenvalues call.  Each node system's collocation matrix, weight matrix
and Gram matrix are computed once and cached on it, and the structure
matrix X~_s once per s.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .legendre import (AbscissaeSystem, NodeFamily, _check_finite,
                       _check_integers, _check_positive, _check_seed,
                       _random_nodes)
from .tableau import (
    ButcherTableau,
    HbvmSpec,
    BasisMatrices,
    _filtered_matrix,
    _hbvm_build,
    _spec_record,
    _xtilde,
    basis_matrices,
    hbvm_tableau,
    xs_matrix,
)

__all__ = [
    "PoleError",
    "SpectrumReport",
    "StabilityScan",
    "eigenvalues",
    "classify_spectrum",
    "isospectral_check",
    "invariant_subspace_residual",
    "w_transform_check",
    "stability_function",
    "a_stability_scan",
    "spec_matrix",
    "verification_sweep",
]

# |lambda| at or below this multiple of max(1, ||A||) counts as a zero
# eigenvalue; the nonzero spectrum sits above ~0.08 for s <= 6.
ZERO_EIG_REL_TOL = 1e-8


class PoleError(ArithmeticError):
    """The linear-stability resolvent is singular at the sampled point."""


def eigenvalues(M) -> np.ndarray:
    """All eigenvalues of a real square matrix, sorted by (real, imag).

    M may also be a stack (..., n, n) of square matrices: the result is the
    (..., n) stack of their spectra, each row sorted on its own and equal,
    bit for bit, to the spectrum of its matrix taken alone.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError("matrix must be square")
    _check_finite("matrix", M=M)
    return np.sort_complex(np.linalg.eigvals(M))


@dataclass(frozen=True)
class SpectrumReport:
    """Classified spectrum of a stage matrix against its reference.

    The k eigenvalues, sorted by (real, imag), split into zero_count values
    at or below ZERO_EIG_REL_TOL * max(1, ||A||_inf) and the rest, which
    are greedily paired with the reference spectrum; max_match_distance is
    the worst pairing distance (inf on a count mismatch).
    """

    k: int
    s: int
    eigenvalues: tuple[complex, ...]
    zero_count: int
    nonzero: tuple[complex, ...]
    reference: tuple[complex, ...]
    max_match_distance: float

    def passes(self, tol: float) -> bool:
        _check_positive(tol, "tol")
        return (self.zero_count == self.k - self.s
                and self.max_match_distance <= tol)


def _greedy_match_distance(found, reference) -> float:
    """Worst distance when each reference value in turn takes the nearest
    found value not yet taken."""
    if len(found) != len(reference):
        return math.inf
    remaining = list(found)
    worst = 0.0
    for ref in reference:
        dists = [abs(z - ref) for z in remaining]
        nearest = min(dists)
        worst = max(worst, nearest)
        remaining.pop(dists.index(nearest))
    return worst


@functools.lru_cache(maxsize=None)
def _reference_spectrum(s: int) -> tuple[complex, ...]:
    """The sorted eigenvalues of xs_matrix(s), the order-2s Gauss spectrum."""
    return tuple(map(complex, eigenvalues(xs_matrix(s))))


def classify_spectrum(A: np.ndarray, s: int) -> SpectrumReport:
    """Split the spectrum of A into zero and nonzero parts and pair the
    nonzero part with the degree-s reference spectrum."""
    A = np.asarray(A, dtype=float)
    return _classify(eigenvalues(A), A, s)


def _classify(eigs: np.ndarray, A: np.ndarray, s: int) -> SpectrumReport:
    """classify_spectrum of A from its sorted eigenvalues eigs."""
    k = eigs.size
    eigs = tuple(map(complex, eigs))
    threshold = ZERO_EIG_REL_TOL * max(1.0, float(np.linalg.norm(A, np.inf)))
    nonzero = tuple(z for z in eigs if abs(z) > threshold)
    reference = _reference_spectrum(s)
    return SpectrumReport(
        k=k,
        s=s,
        eigenvalues=eigs,
        zero_count=sum(abs(z) <= threshold for z in eigs),
        nonzero=nonzero,
        reference=reference,
        max_match_distance=_greedy_match_distance(nonzero, reference),
    )


def isospectral_check(spec: HbvmSpec) -> SpectrumReport:
    """Spectrum classification for the method's stage matrix.

    The report records, rather than hides, any mismatch: zero_count should
    equal k - s and max_match_distance should not exceed a tolerance; use
    SpectrumReport.passes(tol) to evaluate both.
    """
    tab = hbvm_tableau(spec)
    return classify_spectrum(tab.A, spec.s)


def _max_abs(X: np.ndarray) -> float:
    """Max-norm of the entries of X; NaN if any entry is NaN."""
    return float(np.maximum.reduce(np.abs(X), axis=None))


def _subspace_residual(A: np.ndarray, bm: BasisMatrices) -> float:
    return _max_abs(A @ bm.P_s1 - bm.P_s1 @ _xtilde(bm.P_s.shape[1]))


def invariant_subspace_residual(spec: HbvmSpec) -> float:
    """Max-norm residual of A P_{s+1} = P_{s+1} Xtilde."""
    _, bm, tab = _hbvm_build(spec)
    return _subspace_residual(tab.A, bm)


def w_transform_check(sys: AbscissaeSystem, s: int) -> tuple[float, float]:
    """Residuals of the two block-structure identities under the enlarged
    basis matrix P (all k basis polynomials at the nodes).

    First: P^T Omega P has the s x s identity in its top-left corner and
    zero off-diagonal blocks.  Second: P^{-1} A P carries xhat_matrix(s) in
    its top-left (s+1) x s block and zeros elsewhere in the first s columns
    and in all trailing k - s columns (for k = s this degenerates to the
    plain s x s similarity).  Gauss and Lobatto weights are exact for the
    basis products involved; weaker custom rules will show genuine residue.
    """
    bm = basis_matrices(sys, s)
    return _w_transform_residuals(sys, bm, bm.I_s @ bm.P_s.T @ bm.Omega)


def _w_transform_residuals(sys: AbscissaeSystem, bm: BasisMatrices,
                           A: np.ndarray) -> tuple[float, float]:
    """w_transform_check for the stage matrix A built from bm."""
    k, s = sys.k, bm.P_s.shape[1]
    P = sys.basis[:, :k]
    G = sys._gram
    E1 = np.zeros_like(G)
    E1[:s, :s] = np.eye(s)
    E1[s:, s:] = G[s:, s:]  # trailing block is unconstrained
    res_gram = _max_abs(G - E1)

    try:
        M = np.linalg.solve(P, A @ P)
    except np.linalg.LinAlgError as exc:
        raise ValueError("enlarged basis matrix is singular") from exc
    E2 = np.zeros((k, k))
    E2[: s + 1, :s] = _xtilde(s)[:k, :s]  # X_s itself when k == s
    res_similarity = _max_abs(M - E2)
    return res_gram, res_similarity


def _stability_values(tab: ButcherTableau, z: np.ndarray):
    """R(z) = det(I - z (A - 1 b^T)) / det(I - z A) at every point of the
    1-d array z, from the eigenvalues of two (r+1)-square matrices.

    With A = L R from tab.low_rank (r the rank of A) and M = R L,
    Sylvester's identity turns both k x k determinants into
    det(I - z S) = prod_j (1 - z lambda_j) over the eigenvalues of
    S0 = [[M, 0], [0, 0]] and S1 = [[M, R 1], [-b^T L, -sum(b)]].  r is s
    for an HBVM, k for collocation, and 0 for a zero tableau.

    Returns (R, pole): pole marks the points where det(I - z A) is zero;
    R is NaN there.
    """
    L, R = tab.low_rank
    r = R.shape[0]
    S = np.zeros((2, r + 1, r + 1))
    S[:, :r, :r] = R @ L
    S[1, :r, r] = np.sum(R, axis=1)
    S[1, r, :r] = -(tab.b @ L)
    S[1, r, r] = -np.sum(tab.b)
    # Row j of F holds the factors 1 - z lambda_j; the rows are multiplied
    # in a fixed order, so that a point's value does not depend on the size
    # of the batch it is evaluated in (numpy 2.4's np.prod(F, axis=1)
    # regroups a 1-point batch, whose reduced axis is the contiguous one).
    F = 1.0 - np.linalg.eigvals(S)[:, :, None] * z
    den, num = F[:, 0]
    for j in range(1, r + 1):
        den = den * F[0, j]
        num = num * F[1, j]
    pole = den == 0
    values = np.divide(num, den, out=np.full(z.shape, np.nan, dtype=complex),
                       where=~pole)
    return values, pole


def stability_function(tab: ButcherTableau, z: complex) -> complex:
    """Linear-stability value R(z) = 1 + z b^T (I - z A)^{-1} 1.  A z
    with a NaN or infinite real or imaginary part is a ValueError."""
    zs = np.array([z], dtype=complex)
    if not np.isfinite(zs[0]):
        raise ValueError(f"z must be finite, got z = {z}")
    R, pole = _stability_values(tab, zs)
    if pole[0]:
        raise PoleError(f"resolvent singular at z = {z}")
    return complex(R[0])


@dataclass(frozen=True)
class StabilityScan:
    """Worst-case stability-function statistics over the sample grids."""

    imag_axis_max_deviation: float
    lhp_max_modulus: float
    poles: tuple[complex, ...] = ()

    @property
    def max_deviation(self) -> float:
        """Single-scalar summary: distance from perfect A-stability; NaN
        when either statistic is NaN."""
        if math.isnan(self.imag_axis_max_deviation) \
                or math.isnan(self.lhp_max_modulus):
            return math.nan
        return max(self.imag_axis_max_deviation,
                   max(self.lhp_max_modulus - 1.0, 0.0))

    def passes(self, tol: float) -> bool:
        """max_deviation within tol of perfect A-stability; NaN fails."""
        _check_positive(tol, "tol")
        return self.max_deviation <= tol


# Sample counts of a_stability_scan: log-spaced points on the imaginary
# axis, and log-spaced real and imaginary parts of the half-plane grid.
SCAN_N_IMAG = 200
SCAN_N_LHP = 15


@functools.lru_cache(maxsize=None)
def _scan_grid() -> np.ndarray:
    """Read-only sample points of a_stability_scan: the SCAN_N_IMAG axis
    points, then the SCAN_N_LHP x (2 SCAN_N_LHP + 1) half-plane points."""
    im_half = np.logspace(-3.0, 3.0, SCAN_N_LHP)
    im = np.concatenate((-im_half[::-1], [0.0], im_half))
    z = np.concatenate((1j * np.logspace(-3.0, 3.0, SCAN_N_IMAG),
                        (-im_half[:, None] + 1j * im).ravel()))
    z.setflags(write=False)
    return z


def a_stability_scan(tab: ButcherTableau) -> StabilityScan:
    """Sample |R| on the imaginary axis and in the open left half-plane.

    The imaginary axis uses SCAN_N_IMAG log-spaced points with |y| in
    [1e-3, 1e3]; the half-plane grid crosses SCAN_N_LHP log-spaced negative
    real parts with symmetric log-spaced imaginary parts.  Both grids are
    one batch of _stability_values.  Points where det(I - z A) is zero are
    left out of both statistics and listed in poles, axis points first.
    """
    z = _scan_grid()
    values, pole = _stability_values(tab, z)
    modulus, finite = np.abs(values), ~pole
    n = SCAN_N_IMAG
    imag_dev = np.max(np.abs(modulus[:n] - 1.0), initial=0.0, where=finite[:n])
    lhp_max = np.max(modulus[n:], initial=0.0, where=finite[n:])
    return StabilityScan(imag_axis_max_deviation=float(imag_dev),
                         lhp_max_modulus=float(lhp_max),
                         poles=tuple(complex(p) for p in z[pole]))


# ---------------------------------------------------------------------------
# Verification sweep over the (s, k, family) test matrix.


def spec_matrix(smax: int, kmax: int, seed: int = 42):
    """All admissible specs with s <= smax, k <= kmax.

    Gauss for every k >= s, Lobatto when its exactness 2k - 3 reaches
    2s - 1, and three seeded random node sets once k >= 2s keeps their
    interpolatory exactness k - 1 sufficient.
    """
    _check_integers(1, smax=smax, kmax=kmax)
    _check_seed(seed)
    specs = []
    draws = {}  # each (k, seed) node set serves every degree s <= k / 2
    for s in range(1, smax + 1):
        for k in range(s, kmax + 1):
            specs.append((HbvmSpec(k, s, NodeFamily.GAUSS), None))
            if k >= max(2, s + 1):
                specs.append((HbvmSpec(k, s, NodeFamily.LOBATTO), None))
            if k >= 2 * s:
                for used in range(seed, seed + 3):
                    if (k, used) not in draws:
                        draws[k, used] = tuple(_random_nodes(k, used))
                    specs.append((HbvmSpec(k, s, NodeFamily.CUSTOM,
                                           nodes=draws[k, used]), used))
    return specs


def _entry(spec: dict, report: SpectrumReport, tol: float, subspace=None,
           filter_residual=None, wres=None, stab=None) -> dict:
    """One verify record: the zero count must be k - s, and every residual
    given must be within tol, so a NaN residual fails."""
    residuals = [subspace, filter_residual, *(wres or ())]
    return {
        "spec": spec,
        "zero_count": report.zero_count,
        "expected_zero_count": report.k - report.s,
        "max_match_distance": report.max_match_distance,
        "subspace_residual": subspace,
        "filter_residual": filter_residual,
        "wtransform_residuals": None if wres is None else list(wres),
        "a_stability_max_deviation": stab.max_deviation if stab else None,
        "passed": (report.passes(tol) and (not stab or stab.passes(tol))
                   and all(r <= tol for r in residuals if r is not None)),
    }


def verification_sweep(smax: int = 4, kmax: int = 10, tol: float = 1e-10,
                       seed: int = 42) -> list[dict]:
    """Run every structural check over the spec matrix.

    Returns one dict per spec, sorted by (s, k, family, seed), with the
    residuals and a 'passed' flag comparing each against tol.  The basis
    transform residuals are only evaluated for Gauss and Lobatto nodes,
    whose quadrature is exact for the basis products the identity needs.

    The sweep runs in phases.  It first builds every spec's node system,
    basis matrices and tableau, once each.  It then runs each check over
    every spec before it starts the next: the spectrum classification, the
    stability scan, the invariant-subspace residual, the filter residual
    and the basis-transform residuals.  The spectra come from one stacked
    eigenvalues call per stage count k.  Last, it builds the records.
    """
    _check_positive(tol, "tol")
    specs = spec_matrix(smax, kmax, seed)
    built = [_hbvm_build(spec) for spec, _ in specs]
    tabs = [tab for _, _, tab in built]

    by_k = {}
    for i, tab in enumerate(tabs):
        by_k.setdefault(tab.k, []).append(i)
    reports = [None] * len(tabs)
    for idx in by_k.values():
        spectra = eigenvalues(np.stack([tabs[i].A for i in idx]))
        for i, eigs in zip(idx, spectra):
            reports[i] = _classify(eigs, tabs[i].A, tabs[i].s)
    scans = [a_stability_scan(tab) for tab in tabs]
    subspace = [_subspace_residual(tab.A, bm) for _, bm, tab in built]
    filtered = [_max_abs(_filtered_matrix(sys, bm) - tab.A)
                for sys, bm, tab in built]
    wres = [None if spec.family is NodeFamily.CUSTOM
            else _w_transform_residuals(sys, bm, tab.A)
            for (spec, _), (sys, bm, tab) in zip(specs, built)]

    entries = [
        _entry({**_spec_record(spec), "seed": used_seed}, report, tol,
               subspace=sub, filter_residual=filt, wres=w, stab=stab)
        for (spec, used_seed), report, sub, filt, w, stab
        in zip(specs, reports, subspace, filtered, wres, scans)]
    entries.sort(key=lambda e: (e["spec"]["s"], e["spec"]["k"],
                                e["spec"]["family"], e["spec"]["seed"] or 0))
    return entries
