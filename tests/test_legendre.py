import hashlib
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from hbvm import legendre
from hbvm.legendre import (
    AbscissaeSystem,
    NodeFamily,
    _random_nodes,
    basis_integrals,
    basis_values,
    custom_system,
    exactness_degree,
    gauss_system,
    interpolatory_weights,
    lobatto_system,
    random_custom_system,
    xi,
)
from hbvm.spectral import spec_matrix
from hbvm.tableau import MAX_DEGREE, MAX_STAGES, abscissae

# Monomial coefficients (ascending) of the classical shifted Legendre
# polynomials on [0, 1]; the orthonormal basis is sqrt(2j - 1) times these.
SHIFTED_MONOMIALS = {
    1: [1],
    2: [-1, 2],
    3: [1, -6, 6],
    4: [-1, 12, -30, 20],
    5: [1, -20, 90, -140, 70],
    6: [-1, 30, -210, 560, -630, 252],
    7: [1, -42, 420, -1680, 3150, -2772, 924],
    8: [-1, 56, -756, 4200, -11550, 16632, -12012, 3432],
}


def monomial_eval(j, t):
    # exact rational sum, rounded once: the large alternating coefficients
    # of the higher degrees would otherwise cancel to ~1e-11
    x = Fraction(float(t))
    return math.sqrt(2 * j - 1) * float(
        sum(c * x ** d for d, c in enumerate(SHIFTED_MONOMIALS[j])))


def quad_01(f, a, b, n=20):
    x, w = np.polynomial.legendre.leggauss(n)
    mid, half = (a + b) / 2, (b - a) / 2
    return half * np.sum(w * np.array([f(mid + half * xx) for xx in x]))


class TestBasisValues:
    def test_first_is_constant_one(self):
        assert basis_values(0.73, 1)[0, 0] == 1.0

    def test_second_at_right_endpoint(self):
        assert basis_values(1.0, 2)[0, 1] == pytest.approx(math.sqrt(3), abs=1e-15)

    def test_second_vanishes_at_center(self):
        assert basis_values(0.5, 2)[0, 1] == 0.0

    def test_degree_three_against_monomial_expansion(self):
        # oracle: sqrt(7) * (20 t^3 - 30 t^2 + 12 t - 1) at t = 0.3
        assert basis_values(0.3, 4)[0, 3] == pytest.approx(1.1641305768684203,
                                                           abs=1e-12)

    def test_recurrence_matches_monomials_on_grid(self):
        t = np.linspace(0.0, 1.0, 50)
        P = basis_values(t, 8)
        for j in range(1, 9):
            ref = np.array([monomial_eval(j, tt) for tt in t])
            assert np.max(np.abs(P[:, j - 1] - ref)) <= 1e-12

    def test_rejects_bad_index_and_domain(self):
        with pytest.raises(ValueError, match="at least one"):
            basis_values(0.5, 0)
        with pytest.raises(ValueError, match="lie in"):
            basis_values(1.5, 2)
        for t in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="t must be finite"):
                basis_values([0.5, t], 3)


class TestBasisIntegrals:
    def test_constant_integrates_to_c(self):
        c = np.linspace(0.0, 1.0, 11)
        assert basis_integrals(c, 1)[:, 0] == pytest.approx(c, abs=1e-15)

    def test_orthogonality_against_constant(self):
        assert basis_integrals(1.0, 2)[0, 1] == pytest.approx(0.0, abs=1e-15)

    def test_against_numerical_quadrature(self):
        # oracle: 20-point Gauss quadrature of the monomial expansion
        val = quad_01(lambda t: monomial_eval(3, t), 0.0, 0.4)
        assert basis_integrals(0.4, 3)[0, 2] == pytest.approx(val, abs=1e-13)

    def test_identity_over_grid(self):
        c = np.arange(0.1, 1.05, 0.1)
        I = basis_integrals(c, 8)
        for j in range(1, 9):
            for cc, val in zip(c, I[:, j - 1]):
                ref = quad_01(lambda t: monomial_eval(j, t), 0.0, cc)
                assert val == pytest.approx(ref, abs=1e-12)


def test_xi_values():
    assert xi(1) == pytest.approx(1 / (2 * math.sqrt(3)), abs=1e-16)
    assert xi(2) == pytest.approx(1 / (2 * math.sqrt(15)), abs=1e-16)
    assert xi(5) == pytest.approx(1 / (2 * math.sqrt(99)), abs=1e-16)
    with pytest.raises(ValueError):
        xi(0)


def test_xi_rejects_a_bool_index():
    # xi(True) once returned xi(1)
    with pytest.raises(ValueError, match=r"^basis index must be an integer "
                                         r">= 1, got True$"):
        xi(True)


class TestGaussSystem:
    def test_midpoint_rule(self):
        sys = gauss_system(1)
        assert sys.tau == pytest.approx([0.5])
        assert sys.omega == pytest.approx([1.0])

    def test_two_point_closed_form(self):
        # roots of 6 t^2 - 6 t + 1 by the quadratic formula
        lo = 0.5 - math.sqrt(3) / 6
        hi = 0.5 + math.sqrt(3) / 6
        sys = gauss_system(2)
        assert sys.tau == pytest.approx([lo, hi], abs=1e-15)
        assert sys.omega == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_five_point_exactness(self):
        sys = gauss_system(5)
        assert math.fsum(sys.omega) == pytest.approx(1.0, abs=1e-14)
        assert np.sum(sys.omega * sys.tau ** 9) == pytest.approx(0.1, abs=1e-14)

    def test_node_and_weight_symmetry(self):
        for k in (2, 5, 10):
            sys = gauss_system(k)
            assert np.max(np.abs(sys.tau + sys.tau[::-1] - 1.0)) <= 1e-14
            assert np.max(np.abs(sys.omega - sys.omega[::-1])) <= 1e-14

    def test_rejects_k_zero(self):
        with pytest.raises(ValueError):
            gauss_system(0)

    def test_rejects_a_bool_k(self):
        # gauss_system(True) once built the 1-node rule
        with pytest.raises(ValueError, match=r"^k must be an integer, "
                                             r"got True$"):
            gauss_system(True)

    def test_rejects_a_float_k_by_name(self):
        # numpy's "deg must be an integer" named no argument
        with pytest.raises(ValueError, match=r"^k must be an integer, "
                                             r"got 2\.0$"):
            gauss_system(2.0)


class TestLobattoSystem:
    def test_trapezoid(self):
        sys = lobatto_system(2)
        assert sys.tau == pytest.approx([0.0, 1.0])
        assert sys.omega == pytest.approx([0.5, 0.5])

    def test_simpson(self):
        sys = lobatto_system(3)
        assert sys.tau == pytest.approx([0.0, 0.5, 1.0], abs=1e-15)
        assert sys.omega == pytest.approx([1 / 6, 2 / 3, 1 / 6], abs=1e-15)

    def test_four_point_exactness(self):
        sys = lobatto_system(4)
        assert np.sum(sys.omega * sys.tau ** 5) == pytest.approx(1 / 6, abs=1e-14)

    def test_rejects_single_node(self):
        with pytest.raises(ValueError):
            lobatto_system(1)

    def test_rejects_a_float_k_by_name(self):
        with pytest.raises(ValueError, match=r"^k must be an integer, "
                                             r"got 3\.0$"):
            lobatto_system(3.0)


class TestInterpolatoryWeights:
    def test_single_node(self):
        assert interpolatory_weights([0.5]) == pytest.approx([1.0])

    def test_trapezoid(self):
        assert interpolatory_weights([0.0, 1.0]) == pytest.approx([0.5, 0.5])

    def test_three_nodes_against_moment_system(self):
        tau = np.array([0.1, 0.5, 0.9])
        # oracle: solve the Vandermonde moment system V w = (1, 1/2, 1/3)
        V = np.vander(tau, 3, increasing=True).T
        ref = np.linalg.solve(V, np.array([1.0, 0.5, 1 / 3]))
        assert interpolatory_weights(tau) == pytest.approx(ref, abs=1e-14)

    def test_reproduces_gauss_weights(self):
        for k in (2, 4, 7, 10):
            sys = gauss_system(k)
            assert np.max(np.abs(interpolatory_weights(sys.tau) - sys.omega)) <= 1e-12

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            interpolatory_weights([0.3, 0.3, 0.8])

    def test_rejects_an_empty_node_list(self):
        for build in (interpolatory_weights, custom_system):
            with pytest.raises(ValueError, match="need at least one node"):
                build([])

    @pytest.mark.parametrize("nodes,ndim", [([[0.2, 0.8]], 2), (0.5, 0)],
                             ids=["2-d", "scalar"])
    def test_rejects_a_node_list_that_is_not_1d(self, nodes, ndim):
        # a 2-d list gave the weights of its flattened nodes
        for build in (interpolatory_weights, custom_system):
            with pytest.raises(ValueError, match=rf"^nodes must be a 1-d "
                                                 rf"list, got {ndim}-d$"):
                build(nodes)

    def test_custom_system_is_built_once_per_node_set(self, monkeypatch):
        # the weights are solved on a k-column table; the system's own
        # (k, 2k + 3) table is built on first use, as for every family
        tau = (0.9, 0.1, 0.6, 0.35)
        weights = interpolatory_weights(sorted(tau))
        values = basis_values(sorted(tau), 11)
        legendre._custom_system.cache_clear()
        calls = []
        recurrence = legendre._recurrence_values

        def counting(t, n):
            calls.append(n)
            return recurrence(t, n)

        monkeypatch.setattr(legendre, "_recurrence_values", counting)
        sys = custom_system(tau)
        assert calls == [4]
        assert sys.basis.shape == (4, 11)
        assert calls == [4, 11]
        assert custom_system(list(reversed(tau))) is sys
        assert custom_system(np.sort(tau)) is sys
        assert calls == [4, 11]
        assert sys.omega.tobytes() == weights.tobytes()
        assert sys.basis.tobytes() == values.tobytes()
        assert legendre._custom_system.cache_info()[:2] == (2, 1)

    @pytest.mark.parametrize("nodes,cause", [
        ([[0.2, 0.8]], "1-d"),
        (0.5, "1-d"),
        ((0.2, 0.8, 0.2), "pairwise distinct"),
    ], ids=["2-d", "scalar", "repeated"])
    def test_custom_system_rejects_bad_node_lists(self, nodes, cause):
        with pytest.raises(ValueError, match=cause):
            custom_system(nodes)


class TestExactnessDegree:
    def test_gauss_three(self):
        assert exactness_degree(gauss_system(3), 1e-11) == 5

    def test_lobatto_three(self):
        assert exactness_degree(lobatto_system(3), 1e-11) == 3

    def test_off_center_single_node(self):
        sys = custom_system([1 / 3])
        assert exactness_degree(sys, 1e-11) == 0

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-9, math.inf, True])
    def test_rejects_a_tol_that_is_not_finite_and_positive(self, tol):
        # a NaN tol once passed every moment: 8 for a rule exact through 5
        with pytest.raises(ValueError, match=r"^tol must be finite and "
                                             r"positive"):
            exactness_degree(gauss_system(3), tol)

    @pytest.mark.parametrize("tol", [1e-9, 1e-11])
    def test_true_degree_at_large_k(self, tol):
        # absolute monomial moments passed inexact degrees from k = 8 on
        for k in range(1, 49):
            assert exactness_degree(gauss_system(k), tol) == 2 * k - 1, k
        for k in range(2, 25):
            assert exactness_degree(lobatto_system(k), tol) == 2 * k - 3, k


def test_orthonormality_under_gauss_16():
    sys = gauss_system(16)
    vals = basis_values(sys.tau, 8)
    gram = vals.T @ np.diag(sys.omega) @ vals
    assert np.max(np.abs(gram - np.eye(8))) <= 1e-12


class TestBasisMatrices:
    def test_columns_do_not_depend_on_the_column_count(self):
        t = np.linspace(0.0, 1.0, 7)
        P = basis_values(t, 5)
        I = basis_integrals(t, 4)
        assert P.shape == (7, 5) and I.shape == (7, 4)
        for n in (1, 3, 12, 40):
            assert (np.ascontiguousarray(basis_values(t, n + 5)[:, :5]).tobytes()
                    == P.tobytes())
            assert (np.ascontiguousarray(basis_integrals(t, n + 4)[:, :4])
                    .tobytes() == I.tobytes())

    def test_columns_are_antiderivatives(self):
        t = np.array([0.0, 0.3, 1.0])
        I = basis_integrals(t, 4)
        assert I.shape == (3, 4)
        for j in range(1, 5):
            for c, val in zip(t, I[:, j - 1]):
                ref = quad_01(lambda u: monomial_eval(j, u), 0.0, c)
                assert val == pytest.approx(ref, abs=1e-14)

    def test_tables_are_bit_identical_to_golden(self):
        # SHA-256 of the little-endian float64 bytes.  The tables come from
        # elementwise operations only, so their bits do not depend on BLAS.
        t = (0.0, 0.125, 0.2, 0.3, 0.5, 2 / 3, 0.9, 1.0)
        golden = {
            "values": "538ec6b2ab500a088f1b3cff2e1e2983"
                      "b23675c1076b86ee428473b697dfaa07",
            "integrals": "6be8c56ddf1c51ce8470ccab02c71bdd"
                         "35f2e8adb511a30d70b213cc86112b24",
        }
        for name, table in (("values", basis_values(t, 14)),
                            ("integrals", basis_integrals(t, 13))):
            digest = hashlib.sha256(table.astype("<f8").tobytes()).hexdigest()
            assert digest == golden[name], name

    def test_rejects_points_outside_the_interval_and_empty_basis(self):
        with pytest.raises(ValueError, match="lie in"):
            basis_values([0.5, 1.5], 3)
        with pytest.raises(ValueError, match="at least one"):
            basis_integrals([0.5], 0)


@pytest.mark.parametrize("k", [24, 40, 64, 100])
def test_large_k_rules_are_orthonormal(k):
    # Gauss is exact through 2k - 1, Lobatto through 2k - 3: enough for the
    # Gram matrices of the first k (Gauss) and k - 1 (Lobatto) polynomials.
    for sys, n in ((gauss_system(k), k), (lobatto_system(k), k - 1)):
        P = basis_values(sys.tau, n)
        gram = P.T @ np.diag(sys.omega) @ P
        assert np.max(np.abs(gram - np.eye(n))) <= 1e-12


def test_random_custom_system_is_reproducible_and_valid():
    a = random_custom_system(7, 42)
    b = random_custom_system(7, 42)
    assert np.array_equal(a.tau, b.tau)
    assert exactness_degree(a, 1e-11) >= 6
    assert np.all(np.diff(a.tau) > 0) and a.tau[0] > 0 and a.tau[-1] <= 1


@pytest.mark.parametrize("build", [basis_values, basis_integrals],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("n", [2.0, True, np.float64(3.0)], ids=repr)
def test_basis_tables_reject_a_bool_or_non_integer_count(build, n):
    got = re.escape(repr(n))
    with pytest.raises(ValueError, match=rf"^n must be an integer, got {got}$"):
        build([0.5], n)


def test_basis_tables_accept_a_numpy_integer_count():
    assert np.array_equal(basis_values([0.5], np.int64(3)),
                          basis_values([0.5], 3))
    assert np.array_equal(basis_integrals([0.5], np.int32(3)),
                          basis_integrals([0.5], 3))


@pytest.mark.parametrize("build,warm,bad", [
    (gauss_system, np.int64(3), np.float64(3.0)),
    (lobatto_system, np.int32(4), 4.0),
    (gauss_system, 1, True),
], ids=["gauss-float", "lobatto-float", "gauss-bool"])
def test_a_cached_system_does_not_skip_the_k_check(build, warm, bad):
    # bad == warm: a cache keyed on the value alone would return warm's
    # system without checking bad
    build(warm)
    got = re.escape(repr(bad))
    with pytest.raises(ValueError, match=rf"^k must be an integer, got {got}$"):
        build(bad)


@pytest.mark.parametrize("seed", [1.5, -1, True, np.float64(42.0)], ids=repr)
def test_random_custom_system_rejects_a_bad_seed(seed):
    got = re.escape(repr(seed))
    with pytest.raises(ValueError, match=r"^seed must be a non-negative "
                                         rf"integer, got {got}$"):
        random_custom_system(4, seed)


@pytest.mark.parametrize("k", [2.0, True, np.float64(4.0)], ids=repr)
def test_random_custom_system_rejects_a_bool_or_non_integer_k(k):
    got = re.escape(repr(k))
    with pytest.raises(ValueError, match=rf"^k must be an integer, got {got}$"):
        random_custom_system(k, 1)


def test_random_custom_system_rejects_k_below_one():
    with pytest.raises(ValueError, match=r"^need k >= 1$"):
        random_custom_system(0, 1)


def test_random_nodes_are_those_of_random_custom_system():
    for k in range(1, 13):
        for seed in range(20):
            assert np.array_equal(np.sort(_random_nodes(k, seed)),
                                  random_custom_system(k, seed).tau)


class TestAbscissaeSystemValidation:
    @pytest.mark.parametrize("tau,omega", [
        ([0.25, 0.75], [1.0]),
        ([[0.25, 0.75]], [[0.5, 0.5]]),
    ], ids=["lengths", "2-d"])
    def test_rejects_mismatched_shapes(self, tau, omega):
        with pytest.raises(ValueError, match="tau and omega must be 1-d "
                                             "arrays of equal length"):
            AbscissaeSystem(np.array(tau), np.array(omega), NodeFamily.CUSTOM)

    def test_rejects_unsorted_nodes(self):
        with pytest.raises(ValueError):
            AbscissaeSystem(np.array([0.8, 0.2]), np.array([0.5, 0.5]),
                            NodeFamily.CUSTOM)

    def test_rejects_zero_node_outside_lobatto(self):
        with pytest.raises(ValueError):
            AbscissaeSystem(np.array([0.0, 1.0]), np.array([0.5, 0.5]),
                            NodeFamily.CUSTOM)

    def test_rejects_nan_weights(self):
        with pytest.raises(ValueError, match="finite"):
            AbscissaeSystem(np.array([0.25, 0.75]), np.array([np.nan, np.nan]),
                            NodeFamily.CUSTOM)

    def test_custom_system_rejects_nan_node(self):
        with pytest.raises(ValueError, match="finite"):
            custom_system((0.2, np.nan, 0.9))

    def test_rejects_bad_weight_sum(self):
        with pytest.raises(ValueError):
            AbscissaeSystem(np.array([0.25, 0.75]), np.array([0.5, 0.6]),
                            NodeFamily.CUSTOM)

    def test_node_system_arrays_are_read_only_copies(self):
        sys = gauss_system(4)
        with pytest.raises(ValueError):
            sys.tau[0] = 0.5
        with pytest.raises(ValueError):
            sys.omega[0] = 0.5
        tau = np.array([0.25, 0.75])
        sys = AbscissaeSystem(tau, np.array([0.5, 0.5]), NodeFamily.CUSTOM)
        tau[0] = 0.5
        assert sys.tau[0] == 0.25

    def test_gauss_and_lobatto_systems_are_built_once_per_k(self):
        assert gauss_system(5) is gauss_system(5)
        assert lobatto_system(5) is lobatto_system(5)
        assert gauss_system(5) is not gauss_system(6)


def _node_systems():
    yield from (gauss_system(k) for k in range(1, 13))
    yield from (lobatto_system(k) for k in range(2, 13))
    yield from (random_custom_system(k, seed)
                for k in range(1, 13) for seed in (42, 43, 44))


def test_basis_table_columns_are_basis_values_bit_for_bit():
    for sys in _node_systems():
        P = sys.basis
        assert P.shape == (sys.k, 2 * sys.k + 3)
        assert not P.flags.writeable
        assert sys.basis is P
        for n in range(1, 2 * sys.k + 4):
            assert (np.ascontiguousarray(P[:, :n]).tobytes()
                    == basis_values(sys.tau, n).tobytes())


def column_recurrence(t, n):
    """The recurrence one column of the (len(t), n) table at a time, with
    its coefficients taken in the loop: the reference _recurrence_values
    must match byte for byte."""
    x = 2.0 * t - 1.0
    P = np.empty((t.size, n))
    P[:, 0] = 1.0
    if n >= 2:
        P[:, 1] = math.sqrt(3.0) * x
    for m in range(1, n - 1):
        a = (2 * m + 1) / (m + 1) * math.sqrt((2 * m + 3) / (2 * m + 1))
        b = m / (m + 1) * math.sqrt((2 * m + 3) / (2 * m - 1))
        P[:, m + 1] = a * x * P[:, m] - b * P[:, m - 1]
    return P


def _assert_recurrence_matches_column_loop(t, n):
    P = legendre._recurrence_values(t, n)
    assert P.shape == (t.size, n) and P.flags.c_contiguous
    assert P.tobytes() == column_recurrence(t, n).tobytes(), (t.size, n)


@pytest.mark.parametrize("seed", [1, 42, 7])
def test_recurrence_matches_the_column_loop_on_every_node_system(seed):
    # every Gauss, Lobatto and seeded custom system of the k <= 12 sweep
    for spec, _ in spec_matrix(MAX_DEGREE, MAX_STAGES, seed):
        tau = abscissae(spec).tau
        for n in (1, 2, spec.s + 1, 2 * spec.k + 3):
            _assert_recurrence_matches_column_loop(tau, n)


@pytest.mark.parametrize("shift", [0.0, 1.0], ids=["[0,1]", "[1,2]"])
def test_recurrence_matches_the_column_loop_on_random_points(shift):
    # [1, 2] holds the points 1 + tau of the one-interval shift
    t = shift + np.random.default_rng(3).random(1000)
    for n in range(1, 2 * MAX_STAGES + 4):
        _assert_recurrence_matches_column_loop(t, n)


def test_cached_arrays_are_read_only_and_built_once():
    for sys in _node_systems():
        P, k = sys.basis, sys.k
        for name, want in (
                ("_weight_matrix", np.diag(sys.omega)),
                ("_gram", P[:, :k].T @ np.diag(sys.omega) @ P[:, :k]),
                ("_moment_errors", sys.omega @ P - np.eye(1, P.shape[1])[0])):
            X = getattr(sys, name)
            assert getattr(sys, name) is X
            assert X.tobytes() == want.tobytes(), (sys.family, k, name)
            with pytest.raises(ValueError, match="read-only"):
                X[...] = 0.0
    for n in range(1, 2 * MAX_STAGES + 4):
        with pytest.raises(ValueError, match="read-only"):
            legendre._xi_vector(n)[...] = 0.0
