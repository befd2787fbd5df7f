import json
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hbvm.legendre import (
    NodeFamily,
    gauss_system,
    lobatto_system,
    random_custom_system,
)
from hbvm.spectral import _greedy_match_distance, spec_matrix
from hbvm.tableau import (
    ButcherTableau,
    HbvmSpec,
    _dump_json,
    abscissae,
    basis_matrices,
    collocation_matrix,
    filtered_tableau,
    hbvm_tableau,
    tableau_from_json,
    tableau_to_json,
    xhat_matrix,
    xs_matrix,
    xtilde_matrix,
)

SQRT3 = math.sqrt(3.0)

# the classical 2-stage Gauss tableau
GAUSS2_A = np.array([[0.25, 0.25 - SQRT3 / 6], [0.25 + SQRT3 / 6, 0.25]])


def both_family_systems(smax=4, kmax=10):
    for s in range(1, smax + 1):
        for k in range(s, kmax + 1):
            yield gauss_system(k), s
            if k >= max(2, s + 1):
                yield lobatto_system(k), s


class TestBasisMatrices:
    def test_single_midpoint_node(self):
        bm = basis_matrices(gauss_system(1), 1)
        assert bm.P_s == pytest.approx(np.array([[1.0]]))
        assert bm.I_s == pytest.approx(np.array([[0.5]]))
        assert bm.Omega == pytest.approx(np.array([[1.0]]))

    def test_gauss2_second_column(self):
        bm = basis_matrices(gauss_system(2), 2)
        assert bm.P_s[:, 1] == pytest.approx([-1.0, 1.0], abs=1e-14)

    def test_lobatto3_last_row_of_integrals(self):
        bm = basis_matrices(lobatto_system(3), 2)
        assert bm.I_s[-1] == pytest.approx([1.0, 0.0], abs=1e-15)

    def test_prefix_consistency(self):
        bm = basis_matrices(gauss_system(5), 3)
        assert np.array_equal(bm.P_s, bm.P_s1[:, :3])

    def test_weighted_basis_annihilates_constants(self):
        # P_s^T Omega 1 = e_1 whenever the rule integrates the basis exactly
        for sys, s in both_family_systems():
            bm = basis_matrices(sys, s)
            e1 = np.zeros(s)
            e1[0] = 1.0
            res = np.max(np.abs(bm.P_s.T @ bm.Omega @ np.ones(sys.k) - e1))
            assert res <= 1e-13, (sys.family, sys.k, s)

    def test_rejects_s_above_k(self):
        with pytest.raises(ValueError):
            basis_matrices(gauss_system(2), 3)


class TestHbvmTableau:
    def test_reduces_to_implicit_midpoint(self):
        tab = hbvm_tableau(HbvmSpec(1, 1))
        assert tab.A == pytest.approx(np.array([[0.5]]))
        assert tab.b == pytest.approx([1.0])
        assert tab.c == pytest.approx([0.5])

    def test_reduces_to_gauss2(self):
        tab = hbvm_tableau(HbvmSpec(2, 2))
        assert np.max(np.abs(tab.A - GAUSS2_A)) <= 1e-13

    def test_rank_and_row_sums(self):
        tab = hbvm_tableau(HbvmSpec(4, 2))
        sv = np.linalg.svd(tab.A, compute_uv=False)
        assert np.sum(sv > 1e-10) == 2
        assert np.max(np.abs(tab.A @ np.ones(4) - tab.c)) <= 1e-12

    def test_row_sums_and_weight_sums_across_matrix(self):
        for sys, s in both_family_systems():
            spec = HbvmSpec(sys.k, s, sys.family)
            tab = hbvm_tableau(spec)
            assert np.max(np.abs(tab.A @ np.ones(tab.k) - tab.c)) <= 1e-12
            assert math.fsum(tab.b) == pytest.approx(1.0, abs=1e-14)

    def test_rejects_weak_custom_quadrature(self):
        spec = HbvmSpec(3, 2, NodeFamily.CUSTOM, nodes=(0.2, 0.5, 0.8))
        with pytest.raises(ValueError, match="quadrature too weak for B"):
            hbvm_tableau(spec)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            HbvmSpec(2, 3)
        with pytest.raises(ValueError):
            HbvmSpec(13, 2)
        with pytest.raises(ValueError):
            HbvmSpec(3, 2, NodeFamily.CUSTOM)  # nodes missing
        with pytest.raises(ValueError):
            HbvmSpec(3, 2, NodeFamily.GAUSS, nodes=(0.1, 0.5, 0.9))


@st.composite
def admissible_specs(draw):
    """(k, s, family) inside the envelope; custom nodes need k >= 2s."""
    family = draw(st.sampled_from(list(NodeFamily)))
    s = draw(st.integers(1, 6))
    if family is NodeFamily.CUSTOM:
        k = draw(st.integers(2 * s, 12))
        sys = random_custom_system(k, draw(st.integers(0, 10_000)))
        return HbvmSpec(k, s, family, nodes=tuple(sys.tau))
    low = s + 1 if family is NodeFamily.LOBATTO else s
    return HbvmSpec(draw(st.integers(low, 12)), s, family)


class TestLowRank:
    @settings(max_examples=60, deadline=None, database=None)
    @given(spec=admissible_specs())
    def test_factors_carry_the_gauss_spectrum(self, spec):
        # the nonzero spectrum of A = L R is that of R L, isospectral to X_s
        tab = hbvm_tableau(spec)
        L, R = tab.low_rank
        assert L.shape == (spec.k, spec.s) and R.shape == (spec.s, spec.k)
        scale = max(1.0, float(np.abs(tab.A).max()))
        assert np.abs(L @ R - tab.A).max() <= 1e-13 * scale
        distance = _greedy_match_distance(np.linalg.eigvals(R @ L),
                                          np.linalg.eigvals(xs_matrix(spec.s)))
        assert distance <= 1e-10

    @pytest.mark.parametrize("k", range(1, 13))
    def test_collocation_has_full_rank(self, k):
        for sys in (gauss_system(k), random_custom_system(k, 42)):
            tab = ButcherTableau(c=sys.tau, A=collocation_matrix(sys),
                                 b=sys.omega)
            assert tab.low_rank[1].shape == (k, k)

    def test_is_computed_once(self):
        tab = hbvm_tableau(HbvmSpec(6, 2))
        assert tab.low_rank is tab.low_rank


class TestReadOnlyArrays:
    # The cached low_rank factors must keep describing A.
    def test_writes_raise(self):
        tab = hbvm_tableau(HbvmSpec(4, 2))
        L, R = tab.low_rank
        for x in (tab.c, tab.A, tab.b):
            with pytest.raises(ValueError, match="read-only"):
                x[:] = 0.0
        assert np.abs(L @ R - tab.A).max() <= 1e-13

    def test_caller_arrays_are_copied(self):
        c, A, b = np.array([0.25, 0.75]), GAUSS2_A.copy(), np.array([0.5, 0.5])
        tab = ButcherTableau(c=c, A=A, b=b)
        c[:], A[:], b[:] = 0.0, 0.0, 0.0
        assert np.array_equal(tab.c, [0.25, 0.75])
        assert np.array_equal(tab.A, GAUSS2_A)
        assert np.array_equal(tab.b, [0.5, 0.5])


class TestNonFiniteEntries:
    @pytest.mark.parametrize("field,value,named", [
        ("c", [0.5, np.nan], "c[1] = nan"),
        ("A", [[0.25, 0.0], [np.inf, 0.25]], "A[1, 0] = inf"),
        ("b", [-np.inf, 0.5], "b[0] = -inf"),
    ])
    def test_construction_names_the_entry(self, field, value, named):
        entries = {"c": [0.25, 0.75], "A": np.full((2, 2), 0.25),
                   "b": [0.5, 0.5], field: value}
        with pytest.raises(ValueError, match="entries must be finite") as info:
            ButcherTableau(**entries)
        assert named in str(info.value)

    def test_json_with_nan_is_rejected(self):
        obj = json.loads(tableau_to_json(hbvm_tableau(HbvmSpec(3, 2))))
        obj["A"][2][1] = math.nan
        with pytest.raises(ValueError, match=r"finite: A\[2, 1\] = nan$"):
            tableau_from_json(json.dumps(obj))


class TestCollocationMatrix:
    def test_midpoint(self):
        assert collocation_matrix(gauss_system(1)) == pytest.approx(np.array([[0.5]]))

    def test_trapezoid(self):
        # oracle: integrate ell_1 = 1 - x and ell_2 = x over [0, tau_i]
        A = collocation_matrix(lobatto_system(2))
        assert A == pytest.approx(np.array([[0.0, 0.0], [0.5, 0.5]]), abs=1e-15)

    def test_gauss2_collocation_is_gauss_method(self):
        A = collocation_matrix(gauss_system(2))
        assert np.max(np.abs(A - GAUSS2_A)) <= 1e-14

    def test_collocation_identity_needs_no_exactness(self):
        # I_s = (collocation) P_s holds for any distinct nodes
        for seed in (42, 43, 44):
            for k in (3, 6, 10):
                sys = random_custom_system(k, seed)
                for s in range(1, min(4, k) + 1):
                    bm = basis_matrices(sys, s)
                    res = np.max(np.abs(bm.I_s - collocation_matrix(sys) @ bm.P_s))
                    assert res <= 1e-12


class TestFilteredTableau:
    def test_identity_filter_at_k_equals_s(self):
        for s in (2, 3):
            sys = gauss_system(s)
            filt = filtered_tableau(sys, s)
            assert np.max(np.abs(filt.A - collocation_matrix(sys))) <= 1e-13

    def test_matches_direct_construction_gauss(self):
        tab = hbvm_tableau(HbvmSpec(6, 2))
        filt = filtered_tableau(gauss_system(6), 2)
        assert np.max(np.abs(tab.A - filt.A)) <= 1e-12

    def test_matches_direct_construction_lobatto(self):
        tab = hbvm_tableau(HbvmSpec(6, 3, NodeFamily.LOBATTO))
        filt = filtered_tableau(lobatto_system(6), 3)
        assert np.max(np.abs(tab.A - filt.A)) <= 1e-12

    def test_filter_equivalence_across_matrix(self):
        for sys, s in both_family_systems():
            spec = HbvmSpec(sys.k, s, sys.family)
            res = np.max(np.abs(filtered_tableau(sys, s).A - hbvm_tableau(spec).A))
            assert res <= 1e-12, (sys.family, sys.k, s)


class TestStructuralMatrices:
    def test_xs_one(self):
        assert xs_matrix(1) == pytest.approx(np.array([[0.5]]))

    def test_xs_two(self):
        xi1 = 1 / (2 * SQRT3)
        assert xs_matrix(2) == pytest.approx(np.array([[0.5, -xi1], [xi1, 0.0]]))

    def test_xtilde_two(self):
        X = xtilde_matrix(2)
        assert X.shape == (3, 3)
        assert np.all(X[:, 2] == 0.0)
        assert X[2, 1] == pytest.approx(1 / (2 * math.sqrt(15)))

    def test_transfer_identity_across_matrix(self):
        for sys, s in both_family_systems():
            bm = basis_matrices(sys, s)
            res = np.max(np.abs(bm.I_s - bm.P_s1 @ xhat_matrix(s)))
            assert res <= 1e-13, (sys.family, sys.k, s)

    def test_transfer_identity_custom_nodes(self):
        for seed in (42, 43, 44):
            sys = random_custom_system(8, seed)
            for s in (1, 2, 3, 4):
                bm = basis_matrices(sys, s)
                res = np.max(np.abs(bm.I_s - bm.P_s1 @ xhat_matrix(s)))
                assert res <= 1e-13


class TestGaussReduction:
    def test_tableau_equals_collocation_at_gauss_nodes(self):
        for s in range(1, 5):
            tab = hbvm_tableau(HbvmSpec(s, s))
            coll = collocation_matrix(gauss_system(s))
            assert np.max(np.abs(tab.A - coll)) <= 1e-13


class TestSerialization:
    def test_round_trip_is_exact(self):
        for spec, _ in spec_matrix(4, 10):
            tab = hbvm_tableau(spec)
            back = tableau_from_json(tableau_to_json(tab))
            for name in ("c", "A", "b"):
                assert getattr(back, name).tobytes() == \
                    getattr(tab, name).tobytes(), (spec, name)
            assert (back.s, back.family) == (spec.s, spec.family.value)

    def test_rejects_inconsistent_k(self):
        tab = hbvm_tableau(HbvmSpec(2, 1))
        text = tableau_to_json(tab).replace('"k": 2', '"k": 3')
        with pytest.raises(ValueError):
            tableau_from_json(text)

    @pytest.mark.parametrize("text,named", [
        ("[1, 2]", "must be an object, got list"),
        ('"tableau"', "must be an object, got str"),
        ('{"s": 1, "c": [0.5], "A": [[0.5]], "b": [1.0]}',
         "'k' must be int, got None"),
        ('{"k": true, "s": 1, "c": [0.5], "A": [[0.5]], "b": [1.0]}',
         "'k' must be int, got True"),
        ('{"k": 1.0, "s": 1, "c": [0.5], "A": [[0.5]], "b": [1.0]}',
         "'k' must be int, got 1.0"),
        ('{"k": 1, "s": "x", "c": [0.5], "A": [[0.5]], "b": [1.0]}',
         "'s' must be int, got 'x'"),
        ('{"k": 1, "s": false, "c": [0.5], "A": [[0.5]], "b": [1.0]}',
         "'s' must be int, got False"),
        ('{"k": 1, "s": 1, "family": 3, "c": [0.5], "A": [[0.5]], '
         '"b": [1.0]}', "'family' must be str, got 3"),
        ('{"k": 1, "s": 1, "c": {"a": 1}, "A": [[0.5]], "b": [1.0]}',
         "'c' must be list, got {'a': 1}"),
        ('{"k": 1, "s": 1, "c": [0.5], "A": 0.5, "b": [1.0]}',
         "'A' must be list, got 0.5"),
        ('{"k": 1, "s": 1, "c": [0.5], "A": [[0.5]]}',
         "'b' must be list, got None"),
        ('{"k": 1, "s": 1, "c": [{"a": 1}], "A": [[0.5]], "b": [1.0]}',
         "'c' must hold numbers, got {'a': 1}"),
        ('{"k": 1, "s": 1, "c": [0.5], "A": [["x"]], "b": [1.0]}',
         "'A' must hold numbers, got 'x'"),
        ('{"k": 1, "s": 1, "c": [true], "A": [[0.5]], "b": [1.0]}',
         "'c' must hold numbers, got True"),
        ('{"k": 1, "s": 1, "c": [0.5], "A": [[0.5]], "b": [null]}',
         "'b' must hold numbers, got None"),
        ('{"k": 1, "s": 1, "c": [0.5], "A": [0.5], "b": [1.0]}',
         "'A' must be a list of rows, got row 0.5"),
    ])
    def test_malformed_document_names_the_field(self, text, named):
        with pytest.raises(ValueError) as info:
            tableau_from_json(text)
        assert named in str(info.value)

    def test_null_s_and_family_are_accepted(self):
        tab = tableau_from_json('{"k": 1, "s": null, "family": null, '
                                '"c": [0.5], "A": [[0.5]], "b": [1.0]}')
        assert tab.s is None and tab.family is None


def _same_bits(a: float, b: float) -> bool:
    """Equal as float64 bit patterns; any NaN matches any NaN, since text
    carries no NaN sign or payload."""
    if math.isnan(a):
        return math.isnan(b)
    return struct.pack("<d", a) == struct.pack("<d", b)


class TestDumpJson:
    @settings(max_examples=200, deadline=None, database=None)
    @given(xs=st.lists(st.floats(width=64), max_size=20))
    @example(xs=[-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1.0, -3.0,
                 1e300, 0.1, math.inf, -math.inf, math.nan])
    def test_reals_round_trip_bit_exactly_as_floats(self, xs):
        for payload in (xs, np.array(xs, dtype=float),
                        [np.float64(x) for x in xs]):
            back = json.loads(_dump_json(payload))
            assert len(back) == len(xs)
            assert all(type(v) is float for v in back)
            assert all(_same_bits(x, v) for x, v in zip(xs, back))

    def test_numpy_and_complex_values(self):
        payload = {"i": np.int64(3), "ok": np.bool_(True), "z": 1 - 2j,
                   "zs": np.array([0.5j, 2.0]), "t": (1, None)}
        assert _dump_json(payload) == (
            '{"i": 3, "ok": true, "z": [1.0, -2.0], '
            '"zs": [[0.0, 0.5], [2.0, 0.0]], "t": [1, null]}\n')

    def test_non_finite_reals_use_the_json_module_spelling(self):
        assert _dump_json([math.nan, math.inf, -math.inf]) == \
            "[NaN, Infinity, -Infinity]\n"

    def test_unknown_objects_are_rejected(self):
        with pytest.raises(TypeError, match="not serialisable"):
            _dump_json({"x": object()})


def test_abscissae_dispatch():
    assert abscissae(HbvmSpec(3, 2)).family is NodeFamily.GAUSS
    assert abscissae(HbvmSpec(3, 1, NodeFamily.LOBATTO)).family is NodeFamily.LOBATTO
    spec = HbvmSpec(4, 2, NodeFamily.CUSTOM, nodes=(0.15, 0.35, 0.65, 0.85))
    assert abscissae(spec).tau == pytest.approx([0.15, 0.35, 0.65, 0.85])
