import dataclasses
import functools
import math
import re
import warnings

import numpy as np
import pytest

from hbvm import legendre, spectral, tableau
from hbvm.legendre import (
    AbscissaeSystem,
    NodeFamily,
    gauss_system,
    lobatto_system,
    random_custom_system,
)
from hbvm.spectral import (
    PoleError,
    StabilityScan,
    _entry,
    _reference_spectrum,
    _scan_grid,
    _stability_values,
    a_stability_scan,
    classify_spectrum,
    eigenvalues,
    invariant_subspace_residual,
    isospectral_check,
    spec_matrix,
    stability_function,
    verification_sweep,
    w_transform_check,
)
from hbvm.tableau import (
    MAX_DEGREE,
    MAX_STAGES,
    ButcherTableau,
    HbvmSpec,
    abscissae,
    collocation_matrix,
    filtered_tableau,
    hbvm_tableau,
    tableau_from_json,
    tableau_to_json,
    xs_matrix,
)


def greedy_distance(found, reference):
    remaining = sorted(found, key=lambda z: (z.real, z.imag))
    worst = 0.0
    for ref in sorted(reference, key=lambda z: (z.real, z.imag)):
        d = [abs(z - ref) for z in remaining]
        i = int(np.argmin(d))
        worst = max(worst, d[i])
        remaining.pop(i)
    return worst


def numpy_gauss_tableau(s):
    """Classical s-stage Gauss tableau via numpy's own polynomial tooling."""
    x, w = np.polynomial.legendre.leggauss(s)
    c = (x + 1.0) / 2.0
    A = np.empty((s, s))
    for j in range(s):
        roots = np.delete(c, j)
        ell = np.polynomial.Polynomial.fromroots(roots) if s > 1 else \
            np.polynomial.Polynomial([1.0])
        ell = ell / ell(c[j])
        anti = ell.integ()
        A[:, j] = anti(c) - anti(0.0)
    return c, A, w / 2.0


def scan_grid():
    """The imaginary-axis and left half-plane points of a_stability_scan."""
    im_half = np.logspace(-3.0, 3.0, 15)
    im = np.concatenate((-im_half[::-1], [0.0], im_half))
    return np.concatenate((1j * np.logspace(-3.0, 3.0, 200),
                           (-im_half[:, None] + 1j * im).ravel()))


def full_solve_stability_values(tab, z):
    """Reference: R(z) = 1 + z b^T (I - z A)^{-1} 1 from k x k solves."""
    M = np.eye(tab.k) - z[:, None, None] * tab.A
    w = np.linalg.solve(M, np.ones(M.shape[:-1] + (1,)))
    return 1.0 + z * np.sum(w[:, :, 0] * tab.b, axis=1)


class TestEigenvalues:
    def test_identity(self):
        assert eigenvalues(np.eye(3)) == pytest.approx(np.ones(3) + 0j)

    def test_two_by_two_complex_pair(self):
        # oracle: quadratic characteristic polynomial lam^2 - lam/2 + 1/12
        xi1 = 1 / (2 * math.sqrt(3))
        M = np.array([[0.5, -xi1], [xi1, 0.0]])
        expect = np.array([0.25 - 0.25j / math.sqrt(3), 0.25 + 0.25j / math.sqrt(3)])
        assert greedy_distance(eigenvalues(M), expect) <= 1e-14

    def test_against_companion_matrix_oracle(self):
        for s in range(1, 7):
            X = xs_matrix(s)
            ref = np.roots(np.poly(X))
            assert greedy_distance(eigenvalues(X), ref) <= 1e-12

    def test_trace_preservation(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 13))
            M = rng.standard_normal((n, n))
            assert np.sum(eigenvalues(M)).real == pytest.approx(
                np.trace(M), abs=1e-12 * max(1, abs(np.trace(M))))

    def test_against_numpy_on_random_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 13))
            M = rng.standard_normal((n, n))
            ref = np.linalg.eigvals(M)
            scale = max(1.0, float(np.linalg.norm(M)))
            assert greedy_distance(eigenvalues(M), ref) <= 1e-11 * scale

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            eigenvalues(np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_a_non_finite_matrix_naming_the_entry(self, bad):
        M = np.eye(2)
        M[1, 0] = bad
        with pytest.raises(ValueError, match=re.escape(
                f"matrix must be finite: M[1, 0] = {bad}")):
            eigenvalues(M)
        stack = np.stack([np.eye(2), M])
        with pytest.raises(ValueError, match=re.escape(
                f"matrix must be finite: M[1, 1, 0] = {bad}")):
            eigenvalues(stack)

    @pytest.mark.parametrize("shape", [(3,), (4, 2, 3), (2, 3, 3, 4)])
    def test_rejects_a_stack_of_non_square_matrices(self, shape):
        with pytest.raises(ValueError, match="matrix must be square"):
            eigenvalues(np.ones(shape))

    @pytest.mark.parametrize("k", range(1, 13))
    def test_stack_rows_are_the_per_matrix_spectra_bit_for_bit(self, k):
        # symmetric matrices have real spectra (a real eigvals result for
        # the whole stack); general ones mostly complex; the tableaux of
        # every spec with k stages mix zero, real and complex eigenvalues
        rng = np.random.default_rng(k)
        G = rng.standard_normal((6, k, k))
        tableaux = [hbvm_tableau(spec).A for spec, _ in spec_matrix(6, 12)
                    if spec.k == k]
        for stack in (G + G.transpose(0, 2, 1), G, np.stack(tableaux),
                      np.concatenate((G, G + G.transpose(0, 2, 1)))):
            found = eigenvalues(stack)
            assert found.shape == stack.shape[:-1]
            for row, M in zip(found, stack):
                assert row.tobytes() == eigenvalues(M).tobytes()
        nested = eigenvalues(G.reshape(2, 3, k, k))
        assert nested.tobytes() == eigenvalues(G).tobytes()

    def test_nilpotent(self):
        N = np.diag(np.ones(3), 1)
        assert np.max(np.abs(eigenvalues(N))) <= 1e-14


class TestIsospectral:
    def test_gauss2_spectrum_closed_form(self):
        rep = isospectral_check(HbvmSpec(2, 2))
        assert rep.zero_count == 0
        expect = [0.25 - 0.25j / math.sqrt(3), 0.25 + 0.25j / math.sqrt(3)]
        assert greedy_distance(rep.nonzero, expect) <= 1e-13

    def test_k6_s2_gauss(self):
        rep = isospectral_check(HbvmSpec(6, 2))
        assert rep.zero_count == 4
        expect = [0.25 - 0.25j / math.sqrt(3), 0.25 + 0.25j / math.sqrt(3)]
        assert greedy_distance(rep.nonzero, expect) <= 1e-11

    def test_k6_s2_lobatto_same_spectrum(self):
        rep = isospectral_check(HbvmSpec(6, 2, NodeFamily.LOBATTO))
        assert rep.zero_count == 4
        assert rep.max_match_distance <= 1e-11

    def test_full_matrix(self):
        for spec, _ in spec_matrix(4, 10, seed=42):
            rep = isospectral_check(spec)
            assert rep.zero_count == spec.k - spec.s, spec
            assert rep.max_match_distance <= 1e-10, spec

    @pytest.mark.parametrize("s", [True, 2.0], ids=repr)
    def test_rejects_a_bool_or_non_integer_degree(self, s):
        # True once paired the spectrum with a wrong (1, 1) reference
        A = hbvm_tableau(HbvmSpec(4, 2)).A
        with pytest.raises(ValueError,
                           match=rf"^s must be >= 1 and an integer, got s={s!r}$"):
            classify_spectrum(A, s)

    def test_mismatch_is_reported_not_hidden(self):
        tab = hbvm_tableau(HbvmSpec(6, 2))
        A = tab.A.copy()
        A[0, 0] += 1e-6
        rep = classify_spectrum(A, 2)
        assert not rep.passes(1e-10)


class TestInvariantSubspace:
    def test_gauss(self):
        assert invariant_subspace_residual(HbvmSpec(4, 2)) <= 1e-13

    def test_lobatto(self):
        assert invariant_subspace_residual(
            HbvmSpec(5, 3, NodeFamily.LOBATTO)) <= 1e-13

    def test_custom_nodes(self):
        spec = HbvmSpec(4, 2, NodeFamily.CUSTOM, nodes=(0.15, 0.35, 0.65, 0.85))
        assert invariant_subspace_residual(spec) <= 1e-12

    def test_across_matrix(self):
        for spec, _ in spec_matrix(4, 10, seed=42):
            assert invariant_subspace_residual(spec) <= 1e-12, spec


class TestWTransform:
    def test_gauss_4_2(self):
        r1, r2 = w_transform_check(gauss_system(4), 2)
        assert r1 <= 1e-12 and r2 <= 1e-12

    def test_square_case_gram_is_identity(self):
        for s in (2, 3, 4):
            r1, _ = w_transform_check(gauss_system(s), s)
            assert r1 <= 5e-15

    def test_lobatto_6_2(self):
        r1, r2 = w_transform_check(lobatto_system(6), 2)
        assert r1 <= 1e-12 and r2 <= 1e-12

    @pytest.mark.parametrize("s", [0, 4])
    def test_rejects_s_outside_1_to_k(self, s):
        with pytest.raises(ValueError, match="need 1 <= s <= k"):
            w_transform_check(gauss_system(3), s)

    @pytest.mark.parametrize("s", [1.5, True], ids=repr)
    def test_rejects_a_bool_or_non_integer_degree(self, s):
        with pytest.raises(ValueError, match=r"^need 1 <= s <= k for an "
                           rf"integer s, got s={s!r}, k=3$"):
            w_transform_check(gauss_system(3), s)


class TestStabilityFunction:
    def test_value_at_origin_is_one(self):
        for spec in (HbvmSpec(1, 1), HbvmSpec(5, 2), HbvmSpec(6, 3)):
            assert stability_function(hbvm_tableau(spec), 0.0) == pytest.approx(1.0)

    def test_midpoint_closed_form(self):
        tab = hbvm_tableau(HbvmSpec(1, 1))
        # (1 + z/2) / (1 - z/2) at z = -1
        assert stability_function(tab, -1.0) == pytest.approx(1 / 3, abs=1e-15)

    def test_rank_one_six_stage_matches_midpoint(self):
        tab = hbvm_tableau(HbvmSpec(6, 1))
        assert stability_function(tab, -1.0) == pytest.approx(1 / 3, abs=1e-12)

    def test_matches_classical_gauss_tableau(self):
        rng = np.random.default_rng(3)
        for s in (1, 2, 3):
            mine = hbvm_tableau(HbvmSpec(s, s))
            c, A, b = numpy_gauss_tableau(s)
            classical = ButcherTableau(c=c, A=A, b=b)
            for _ in range(20):
                z = complex(rng.uniform(-3, 1), rng.uniform(-3, 3))
                r1 = stability_function(mine, z)
                r2 = stability_function(classical, z)
                assert abs(r1 - r2) <= 1e-12

    def test_pole_raises(self):
        tab = hbvm_tableau(HbvmSpec(1, 1))
        with pytest.raises(PoleError):
            stability_function(tab, 2.0)  # I - 2 * (1/2) singular

    @pytest.mark.parametrize("z", [math.inf, -math.inf, math.nan,
                                   1j * math.inf, complex(0.0, math.inf),
                                   complex(1.0, math.nan)],
                             ids=["inf", "-inf", "nan", "1j*inf", "0+infj",
                                  "1+nanj"])
    def test_non_finite_z_is_refused_without_warning(self, z):
        tab = hbvm_tableau(HbvmSpec(4, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="z must be finite"):
                stability_function(tab, z)


class TestRankScan:
    """The rank-r values against the k x k resolvent solve."""

    def assert_matches_full_solve(self, tab):
        z = scan_grid()
        values, pole = _stability_values(tab, z)
        assert not pole.any()
        assert np.max(np.abs(values - full_solve_stability_values(tab, z))) <= 1e-10

    def test_every_spec_of_the_envelope(self):
        for spec, _ in spec_matrix(MAX_DEGREE, MAX_STAGES):
            tab = hbvm_tableau(spec)
            assert tab.low_rank[1].shape[0] == spec.s
            self.assert_matches_full_solve(tab)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_gauss_collocation_at_full_rank(self, k):
        sys = gauss_system(k)
        tab = ButcherTableau(c=sys.tau, A=collocation_matrix(sys), b=sys.omega)
        assert tab.low_rank[1].shape[0] == k
        self.assert_matches_full_solve(tab)

    def test_json_round_trip_scan_agrees(self):
        # the parsed tableau takes the SVD factors, the built one its own
        for spec, _ in spec_matrix(4, 8):
            tab = hbvm_tableau(spec)
            back = tableau_from_json(tableau_to_json(tab))
            built, parsed = a_stability_scan(tab), a_stability_scan(back)
            assert parsed.poles == built.poles
            assert abs(parsed.imag_axis_max_deviation
                       - built.imag_axis_max_deviation) <= 1e-13
            assert abs(parsed.lhp_max_modulus - built.lhp_max_modulus) <= 1e-13

    def test_rank_zero_tableau(self):
        tab = ButcherTableau(c=[0.5], A=[[0.0]], b=[1.0])
        assert tab.low_rank[1].shape[0] == 0
        z = scan_grid()
        values, pole = _stability_values(tab, z)
        assert not pole.any()
        assert np.array_equal(values, 1.0 + z * np.sum(tab.b))
        assert a_stability_scan(tab).poles == ()


class TestDeterminantRatio:
    """Values from the two (r+1)-square spectra where A is far from
    diagonalisable or has no structure at all."""

    def test_classical_rk4_with_a_nilpotent_stage_matrix(self):
        tab = ButcherTableau(c=[0.0, 0.5, 0.5, 1.0],
                             A=[[0.0, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0],
                                [0.0, 0.5, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]],
                             b=[1 / 6, 1 / 3, 1 / 3, 1 / 6])
        assert tab.low_rank[1].shape[0] == 3
        z = scan_grid()
        values, pole = _stability_values(tab, z)
        exact = 1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24
        assert not pole.any()
        assert np.max(np.abs(values - exact) / np.abs(exact)) <= 1e-12

    def test_random_full_tableaux_match_the_full_solve(self):
        rng = np.random.default_rng(12)
        z = scan_grid()
        for _ in range(20):
            A = rng.standard_normal((12, 12))
            tab = ButcherTableau(c=A.sum(axis=1), A=A, b=rng.standard_normal(12))
            values, pole = _stability_values(tab, z)
            ref = full_solve_stability_values(tab, z)
            assert not pole.any()
            assert np.max(np.abs(values - ref)
                          / np.maximum(1.0, np.abs(ref))) <= 1e-10

    @pytest.mark.parametrize("name", ["gauss", "lobatto", "custom", "rk4",
                                      "pole"])
    def test_a_point_does_not_depend_on_its_batch(self, name):
        tab = {
            "gauss": lambda: hbvm_tableau(HbvmSpec(4, 2)),
            "lobatto": lambda: hbvm_tableau(HbvmSpec(6, 3,
                                                     NodeFamily.LOBATTO)),
            "custom": lambda: hbvm_tableau(HbvmSpec(
                4, 2, NodeFamily.CUSTOM, nodes=(0.15, 0.35, 0.65, 0.85))),
            "rk4": lambda: ButcherTableau(
                c=[0.0, 0.5, 0.5, 1.0],
                A=[[0.0, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0],
                   [0.0, 0.5, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]],
                b=[1 / 6, 1 / 3, 1 / 3, 1 / 6]),
            "pole": lambda: ButcherTableau(c=[-1.0], A=[[-1.0]], b=[1.0]),
        }[name]()
        z = _scan_grid()
        values, pole = _stability_values(tab, z)
        for i in range(z.size):
            alone, alone_pole = _stability_values(tab, z[i:i + 1])
            assert values[i:i + 1].tobytes() == alone.tobytes(), (name, i)
            assert pole[i] == alone_pole[0], (name, i)
        if name == "pole":
            assert pole.any()

    def test_scan_grid_is_built_once_and_read_only(self):
        z = _scan_grid()
        assert _scan_grid() is z
        assert np.array_equal(z, scan_grid())
        with pytest.raises(ValueError):
            z[0] = 0.0

    def test_reference_spectrum_is_the_sorted_spectrum_of_xs(self):
        for s in range(1, MAX_DEGREE + 1):
            ref = _reference_spectrum(s)
            assert ref == tuple(complex(v) for v in eigenvalues(xs_matrix(s)))
            assert classify_spectrum(xs_matrix(s), s).reference == ref


class TestAStability:
    def test_gauss_4_2(self):
        scan = a_stability_scan(hbvm_tableau(HbvmSpec(4, 2)))
        assert scan.imag_axis_max_deviation <= 1e-10
        assert scan.lhp_max_modulus <= 1.0 + 1e-10

    def test_midpoint_unit_modulus_on_axis(self):
        scan = a_stability_scan(hbvm_tableau(HbvmSpec(1, 1)))
        assert scan.imag_axis_max_deviation <= 1e-13

    def test_lobatto_6_3(self):
        scan = a_stability_scan(hbvm_tableau(HbvmSpec(6, 3, NodeFamily.LOBATTO)))
        assert scan.lhp_max_modulus <= 1.0 + 1e-10
        assert not scan.poles

    def test_pole_on_grid_is_recorded(self):
        # R(z) = 1 + z / (1 + z) has its pole at z = -1, a grid point.
        tab = ButcherTableau(c=[1.0], A=[[-1.0]], b=[1.0])
        assert a_stability_scan(tab).poles == ((-1 + 0j),)

    def test_axis_deviation_matches_pointwise_values(self):
        tab = hbvm_tableau(HbvmSpec(6, 3, NodeFamily.LOBATTO))
        pointwise = np.array([stability_function(tab, 1j * y)
                              for y in np.logspace(-3.0, 3.0, 200)])
        assert (a_stability_scan(tab).imag_axis_max_deviation
                == np.max(np.abs(np.abs(pointwise) - 1.0)))


def test_verification_sweep_shape_and_order():
    entries = verification_sweep(smax=2, kmax=5, tol=1e-10, seed=42)
    assert all(e["passed"] for e in entries)
    keys = [(e["spec"]["s"], e["spec"]["k"], e["spec"]["family"],
             e["spec"]["seed"] or 0) for e in entries]
    assert keys == sorted(keys)
    gauss_entry = entries[0]
    assert gauss_entry["wtransform_residuals"] is not None
    custom = [e for e in entries if e["spec"]["family"] == "custom"]
    assert custom and all(e["wtransform_residuals"] is None for e in custom)
    assert {e["spec"]["seed"] for e in custom} == {42, 43, 44}


@pytest.mark.parametrize("smax,kmax,seed", [(2, 5, 42), (4, 10, 42),
                                             (4, 10, 7), (4, 10, 1)])
def test_verification_sweep_entries_match_public_checks(smax, kmax, seed,
                                                        monkeypatch):
    tol = 1e-10
    # the sweep scans through a_stability_scan, once per spec in
    # spec_matrix order, and keeps the whole scan
    swept_scans = []

    def recording(tab):
        swept_scans.append(a_stability_scan(tab))
        return swept_scans[-1]

    monkeypatch.setattr(spectral, "a_stability_scan", recording)
    swept = verification_sweep(smax=smax, kmax=kmax, seed=seed)
    monkeypatch.undo()
    entries = {(e["spec"]["k"], e["spec"]["s"], e["spec"]["family"],
                e["spec"]["seed"]): e for e in swept}
    specs = spec_matrix(smax, kmax, seed)
    assert len(entries) == len(specs) == len(swept_scans)
    for (spec, used_seed), swept_scan in zip(specs, swept_scans):
        e = entries[(spec.k, spec.s, spec.family.value, used_seed)]
        sys, tab = abscissae(spec), hbvm_tableau(spec)
        report = isospectral_check(spec)
        assert e["zero_count"] == report.zero_count
        assert e["expected_zero_count"] == report.k - report.s
        assert e["max_match_distance"] == report.max_match_distance
        assert e["subspace_residual"] == invariant_subspace_residual(spec)
        assert e["filter_residual"] == float(
            np.max(np.abs(filtered_tableau(sys, spec.s).A - tab.A)))
        if spec.family is NodeFamily.CUSTOM:
            assert e["wtransform_residuals"] is None
        else:
            assert e["wtransform_residuals"] == list(w_transform_check(sys, spec.s))
        scan = a_stability_scan(tab)
        assert swept_scan == scan
        assert e["a_stability_max_deviation"] == scan.max_deviation
        residuals = [e["subspace_residual"], e["filter_residual"],
                     *(e["wtransform_residuals"] or ())]
        assert e["passed"] == (report.passes(tol) and scan.passes(tol)
                               and all(r <= tol for r in residuals))


def test_spec_matrix_custom_nodes_are_those_of_random_custom_system():
    custom = [(spec, seed) for spec, seed in spec_matrix(6, 12)
              if spec.family is NodeFamily.CUSTOM]
    assert len(custom) == 108
    for spec, seed in custom:
        assert spec.nodes == tuple(random_custom_system(spec.k, seed).tau)


@pytest.mark.parametrize("smax,kmax", [(0, 10), (4, 0), (-1, -1)])
def test_spec_matrix_rejects_an_empty_range(smax, kmax):
    with pytest.raises(ValueError, match=f"got smax={smax}, kmax={kmax}"):
        spec_matrix(smax, kmax)


@pytest.mark.parametrize("seed", [-1, 1.5, True, np.float64(42.0)],
                         ids=repr)
def test_spec_matrix_and_sweep_reject_a_bad_seed(seed):
    # (1, 1) has no custom spec, so no seed is ever drawn from
    for build in (spec_matrix, verification_sweep):
        with pytest.raises(ValueError, match=r"^seed must be a "
                           r"non-negative integer, got "):
            build(1, 1, seed=seed)


@pytest.mark.parametrize("smax,kmax,named", [
    (True, 2, "smax"), (2.5, 3, "smax"), (2, np.float64(3.0), "kmax"),
], ids=repr)
def test_spec_matrix_and_sweep_reject_a_bool_or_non_integer_range(smax, kmax,
                                                                  named):
    for build in (spec_matrix, verification_sweep):
        with pytest.raises(ValueError,
                           match=rf"^{named} must be an integer, got "):
            build(smax, kmax)


def test_spec_matrix_accepts_numpy_integer_ranges():
    assert spec_matrix(np.int64(2), np.int32(4)) == spec_matrix(2, 4)


def test_spec_matrix_accepts_a_numpy_integer_seed():
    assert spec_matrix(2, 4, seed=np.int64(7)) == spec_matrix(2, 4, seed=7)


def test_verification_sweep_builds_each_custom_node_set_once(monkeypatch):
    # each (k, seed) node set serves every degree s <= k / 2
    for build in (gauss_system, lobatto_system, legendre._custom_system):
        build.cache_clear()
    calls = []

    def counting(nodes):
        calls.append(nodes)
        return legendre.custom_system(nodes)

    draws = []

    def drawing(k, seed):
        draws.append((k, seed))
        return legendre._random_nodes(k, seed)

    monkeypatch.setattr(tableau, "custom_system", counting)
    monkeypatch.setattr(spectral, "_random_nodes", drawing)
    verification_sweep(4, 10)
    assert len(calls) == 72
    assert len(set(calls)) == 27
    info = legendre._custom_system.cache_info()
    assert (info.misses, info.hits) == (27, 45)
    assert len(draws) == len(set(draws)) == 27


def test_verification_sweep_solves_one_collocation_matrix_per_node_system(
        monkeypatch):
    # 10 Gauss, 9 Lobatto and 27 custom node systems serve the 136 specs
    for build in (gauss_system, lobatto_system, legendre._custom_system):
        build.cache_clear()
    solve = AbscissaeSystem.collocation_matrix.func
    solved = []

    def counting(sys):
        solved.append(sys)
        return solve(sys)

    prop = functools.cached_property(counting)
    prop.__set_name__(AbscissaeSystem, "collocation_matrix")
    monkeypatch.setattr(AbscissaeSystem, "collocation_matrix", prop)
    entries = verification_sweep(4, 10)
    assert len(entries) == 136
    assert len(solved) == len(set(map(id, solved))) == 46


def test_verification_sweep_covers_whole_envelope():
    entries = verification_sweep(MAX_DEGREE, MAX_STAGES)
    assert len(entries) == 216
    assert all(e["passed"] for e in entries)


class TestVerifyRecord:
    """The one builder of `hbvm verify` records and their pass rule."""

    GIVEN = dict(subspace=1e-16, filter_residual=1e-16, wres=(1e-16, 1e-16),
                 stab=StabilityScan(imag_axis_max_deviation=1e-16,
                                    lhp_max_modulus=1.0))

    @staticmethod
    def report():
        return classify_spectrum(hbvm_tableau(HbvmSpec(4, 2)).A, 2)

    def test_small_residuals_pass_and_keys_are_the_sweep_keys(self):
        e = _entry({"k": 4, "s": 2}, self.report(), 1e-10, **self.GIVEN)
        assert e["passed"] is True
        assert list(e) == list(verification_sweep(1, 1)[0])
        assert e["wtransform_residuals"] == [1e-16, 1e-16]
        assert e["a_stability_max_deviation"] == 1e-16

    def test_spectrum_only_record(self):
        e = _entry({"k": 4, "s": 2}, self.report(), 1e-10)
        assert e["passed"] is True
        assert e["expected_zero_count"] == 2
        assert [e[key] for key in ("subspace_residual", "filter_residual",
                                   "wtransform_residuals",
                                   "a_stability_max_deviation")] == [None] * 4

    @pytest.mark.parametrize("position", [
        "match", "subspace", "filter_residual", "wres0", "wres1",
        "imag_axis", "lhp"])
    def test_nan_residual_in_any_position_fails(self, position):
        nan = float("nan")
        report, given = self.report(), dict(self.GIVEN)
        if position == "match":
            report = dataclasses.replace(report, max_match_distance=nan)
        elif position.startswith("wres"):
            wres = list(given["wres"])
            wres[int(position[-1])] = nan
            given["wres"] = tuple(wres)
        elif position == "imag_axis":
            given["stab"] = StabilityScan(nan, 1.0)
        elif position == "lhp":
            given["stab"] = StabilityScan(1e-16, nan)
        else:
            given[position] = nan
        assert _entry({}, report, 1e-10, **given)["passed"] is False

    def test_wrong_zero_count_fails(self):
        report = dataclasses.replace(self.report(), zero_count=1)
        assert _entry({}, report, 1e-10, **self.GIVEN)["passed"] is False


class TestToleranceIsChecked:
    BAD = [float("nan"), float("inf"), 0.0, -1.0, True]

    @pytest.mark.parametrize("tol", BAD)
    def test_verification_sweep(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and "
                                             f"positive, got tol={tol}"):
            verification_sweep(1, 1, tol)

    @pytest.mark.parametrize("tol", BAD)
    def test_spectrum_report_passes(self, tol):
        with pytest.raises(ValueError, match=f"got tol={tol}"):
            isospectral_check(HbvmSpec(4, 2)).passes(tol)

    @pytest.mark.parametrize("tol", BAD)
    def test_stability_scan_passes(self, tol):
        with pytest.raises(ValueError, match=f"got tol={tol}"):
            StabilityScan(0.0, 1.0).passes(tol)


class TestStabilityScanPasses:
    @pytest.mark.parametrize("imag,lhp", [
        (0.0, 1.0), (1e-10, 1.0), (2e-10, 1.0), (0.0, 1.0 + 2e-10),
        (0.0, 0.5), (5e-11, 1.0 + 5e-11)])
    def test_agrees_with_max_deviation(self, imag, lhp):
        scan = StabilityScan(imag, lhp)
        assert scan.passes(1e-10) is (scan.max_deviation <= 1e-10)

    @pytest.mark.parametrize("imag,lhp", [(float("nan"), 1.0),
                                          (0.0, float("nan"))])
    def test_nan_statistic_fails(self, imag, lhp):
        assert StabilityScan(imag, lhp).passes(1e-10) is False

    @pytest.mark.parametrize("imag,lhp", [(float("nan"), 1.0),
                                          (1e-16, float("nan")),
                                          (float("nan"), float("nan"))])
    def test_nan_statistic_makes_max_deviation_nan(self, imag, lhp):
        assert math.isnan(StabilityScan(imag, lhp).max_deviation)
