import math

import numpy as np
import pytest

from hbvm.legendre import (
    AbscissaeSystem,
    NodeFamily,
    _random_nodes,
    basis_integrals,
    basis_values,
    custom_system,
    eval_orthonormal,
    exactness_degree,
    gauss_system,
    integral_orthonormal,
    interpolatory_weights,
    lobatto_system,
    random_custom_system,
    xi,
)

# Monomial coefficients (ascending) of the classical shifted Legendre
# polynomials on [0, 1]; the orthonormal basis is sqrt(2j - 1) times these.
SHIFTED_MONOMIALS = {
    1: [1.0],
    2: [-1.0, 2.0],
    3: [1.0, -6.0, 6.0],
    4: [-1.0, 12.0, -30.0, 20.0],
    5: [1.0, -20.0, 90.0, -140.0, 70.0],
    6: [-1.0, 30.0, -210.0, 560.0, -630.0, 252.0],
}


def monomial_eval(j, t):
    return math.sqrt(2 * j - 1) * sum(
        c * t ** d for d, c in enumerate(SHIFTED_MONOMIALS[j]))


def quad_01(f, a, b, n=20):
    x, w = np.polynomial.legendre.leggauss(n)
    mid, half = (a + b) / 2, (b - a) / 2
    return half * np.sum(w * np.array([f(mid + half * xx) for xx in x]))


class TestEvalOrthonormal:
    def test_first_is_constant_one(self):
        assert eval_orthonormal(1, 0.73) == 1.0

    def test_second_at_right_endpoint(self):
        assert eval_orthonormal(2, 1.0) == pytest.approx(math.sqrt(3), abs=1e-15)

    def test_second_vanishes_at_center(self):
        assert eval_orthonormal(2, 0.5) == 0.0

    def test_degree_three_against_monomial_expansion(self):
        # oracle: sqrt(7) * (20 t^3 - 30 t^2 + 12 t - 1) at t = 0.3
        assert eval_orthonormal(4, 0.3) == pytest.approx(1.1641305768684203,
                                                         abs=1e-12)

    def test_recurrence_matches_monomials_on_grid(self):
        t = np.linspace(0.0, 1.0, 50)
        for j in range(1, 7):
            ref = np.array([monomial_eval(j, tt) for tt in t])
            assert np.max(np.abs(eval_orthonormal(j, t) - ref)) <= 1e-12

    def test_rejects_bad_index_and_domain(self):
        with pytest.raises(ValueError):
            eval_orthonormal(0, 0.5)
        with pytest.raises(ValueError):
            eval_orthonormal(2, 1.5)


class TestIntegralOrthonormal:
    def test_constant_integrates_to_c(self):
        for c in np.linspace(0.0, 1.0, 11):
            assert integral_orthonormal(1, c) == pytest.approx(c, abs=1e-15)

    def test_orthogonality_against_constant(self):
        assert integral_orthonormal(2, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_against_numerical_quadrature(self):
        # oracle: 20-point Gauss quadrature of the evaluated polynomial
        val = quad_01(lambda t: eval_orthonormal(3, t), 0.0, 0.4)
        assert integral_orthonormal(3, 0.4) == pytest.approx(val, abs=1e-13)

    def test_identity_over_grid(self):
        for j in range(1, 9):
            for c in np.arange(0.1, 1.05, 0.1):
                ref = quad_01(lambda t: eval_orthonormal(j, t), 0.0, c)
                assert integral_orthonormal(j, c) == pytest.approx(ref, abs=1e-12)


def test_xi_values():
    assert xi(1) == pytest.approx(1 / (2 * math.sqrt(3)), abs=1e-16)
    assert xi(2) == pytest.approx(1 / (2 * math.sqrt(15)), abs=1e-16)
    assert xi(5) == pytest.approx(1 / (2 * math.sqrt(99)), abs=1e-16)
    with pytest.raises(ValueError):
        xi(0)


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


class TestExactnessDegree:
    def test_gauss_three(self):
        assert exactness_degree(gauss_system(3), 1e-11) == 5

    def test_lobatto_three(self):
        assert exactness_degree(lobatto_system(3), 1e-11) == 3

    def test_off_center_single_node(self):
        sys = custom_system([1 / 3])
        assert exactness_degree(sys, 1e-11) == 0

    @pytest.mark.parametrize("tol", [1e-9, 1e-11])
    def test_true_degree_at_large_k(self, tol):
        # absolute monomial moments passed inexact degrees from k = 8 on
        for k in range(1, 49):
            assert exactness_degree(gauss_system(k), tol) == 2 * k - 1, k
        for k in range(2, 25):
            assert exactness_degree(lobatto_system(k), tol) == 2 * k - 3, k


def test_orthonormality_under_gauss_16():
    sys = gauss_system(16)
    vals = np.column_stack([eval_orthonormal(j, sys.tau) for j in range(1, 9)])
    gram = vals.T @ np.diag(sys.omega) @ vals
    assert np.max(np.abs(gram - np.eye(8))) <= 1e-12


class TestBasisMatrices:
    def test_columns_are_basis_values(self):
        t = np.linspace(0.0, 1.0, 7)
        P = basis_values(t, 5)
        assert P.shape == (7, 5)
        for j in range(1, 6):
            assert np.array_equal(P[:, j - 1], eval_orthonormal(j, t))

    def test_columns_are_antiderivatives(self):
        t = np.array([0.0, 0.3, 1.0])
        I = basis_integrals(t, 4)
        assert I.shape == (3, 4)
        for j in range(1, 5):
            for c, val in zip(t, I[:, j - 1]):
                ref = quad_01(lambda u: eval_orthonormal(j, u), 0.0, c)
                assert val == pytest.approx(ref, abs=1e-14)


    @pytest.mark.parametrize("n", [1, 2, 12, 100])
    def test_one_pass_matrices_equal_per_column_functions(self, n):
        t = np.concatenate(([0.0, 1.0], gauss_system(n).tau))
        np.testing.assert_array_equal(
            basis_values(t, n),
            np.column_stack([eval_orthonormal(j, t) for j in range(1, n + 1)]))
        np.testing.assert_array_equal(
            basis_integrals(t, n),
            np.column_stack([integral_orthonormal(j, t)
                             for j in range(1, n + 1)]))

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


def test_random_nodes_are_those_of_random_custom_system():
    for k in range(1, 13):
        for seed in range(20):
            assert np.array_equal(np.sort(_random_nodes(k, seed)),
                                  random_custom_system(k, seed).tau)


class TestAbscissaeSystemValidation:
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
