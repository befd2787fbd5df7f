import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hbvm import problems
from hbvm.integrator import HamiltonianSystem, canonical_symplectic_matrix
from hbvm.problems import catalog, get_problem

EXPECTED_NAMES = {"harmonic", "quartic", "sextic", "pendulum",
                  "henon-heiles", "kepler"}

EXPECTED_DEGREES = {"harmonic": 2, "quartic": 4, "sextic": 6,
                    "henon-heiles": 3, "pendulum": None, "kepler": None}


def central_gradient(H, y, step=1e-6):
    g = np.empty_like(y)
    for i in range(y.size):
        yp, ym = y.copy(), y.copy()
        yp[i] += step
        ym[i] -= step
        g[i] = (H(yp) - H(ym)) / (2 * step)
    return g


def pairwise_skew_form(J, v):
    """v^T J v accumulated so exact skewness cancels term by term."""
    total = 0.0
    n = v.size
    for i in range(n):
        for j in range(i + 1, n):
            total += J[i, j] * (v[i] * v[j]) + J[j, i] * (v[j] * v[i])
    return total


def test_catalog_names_and_degrees():
    probs = {p.name: p for p in catalog()}
    assert set(probs) == EXPECTED_NAMES
    for name, nu in EXPECTED_DEGREES.items():
        assert probs[name].system.poly_degree == nu


def test_catalog_declares_separable_canonical_systems():
    # the declaration that turns on the second-order stage solve: every
    # catalog H is |p|^2/2 + V(q) on the canonical structure, with grad_V
    for prob in catalog():
        sys = prob.system
        assert callable(sys.grad_V)
        assert np.array_equal(sys.J, canonical_symplectic_matrix(sys.dim))
        y = prob.default_y0
        m = sys.dim // 2
        assert np.array_equal(sys.grad_H(y)[m:], y[m:])


@pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
def test_grad_H_coordinate_half_is_grad_V(name):
    # grad_H's q-half is grad_V bit for bit, at one state and on a block
    sys = get_problem(name).system
    m = sys.dim // 2
    rng = np.random.default_rng(3)
    Y = get_problem(name).default_y0 + rng.uniform(-0.2, 0.2, (7, sys.dim))
    for y in (Y[0], Y):
        g = sys.grad_V(y[..., :m].copy())
        assert g.shape == y[..., :m].shape
        assert sys.grad_H(y)[..., :m].tobytes() == g.tobytes()


def test_lookup_normalises_name():
    assert get_problem("henon_heiles").name == "henon-heiles"
    assert get_problem("  KEPLER ").name == "kepler"
    with pytest.raises(KeyError):
        get_problem("three-body")


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    for prob in catalog():
        sys = prob.system
        for _ in range(20):
            y = rng.uniform(0.3, 1.2, size=sys.dim)
            g = sys.grad_H(y)
            ref = central_gradient(sys.H, y)
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert np.max(np.abs(g - ref)) <= 1e-6 * scale, prob.name


def test_structure_matrix_skewness_is_exact():
    rng = np.random.default_rng(9)
    for prob in catalog():
        sys = prob.system
        assert np.all(sys.J == -sys.J.T)
        for _ in range(100):
            y = rng.uniform(0.2, 1.5, size=sys.dim)
            g = sys.grad_H(y)
            assert pairwise_skew_form(sys.J, g) == 0.0


def test_polynomial_degree_by_ray_scaling():
    # H(alpha y) grows like alpha^degree along generic rays
    rng = np.random.default_rng(13)
    for prob in catalog():
        nu = prob.system.poly_degree
        if nu is None:
            continue
        for _ in range(5):
            y = rng.uniform(0.5, 1.5, size=prob.system.dim)
            a = 1e8
            exponent = math.log(prob.system.H(2 * a * y)
                                / prob.system.H(a * y)) / math.log(2.0)
            assert exponent == pytest.approx(nu, abs=1e-6), prob.name


def test_harmonic_quarter_period_rotation():
    harm = get_problem("harmonic")
    assert harm.reference_solution(math.pi / 2) == pytest.approx([0.0, -1.0],
                                                                 abs=1e-15)


def test_pendulum_equilibrium_gradient():
    pend = get_problem("pendulum")
    assert np.array_equal(pend.system.grad_H(np.zeros(2)), np.zeros(2))


def test_kepler_orbit_closes_after_one_period():
    kep = get_problem("kepler")
    back = kep.reference_solution(2 * math.pi)
    assert np.max(np.abs(back - kep.default_y0)) <= 1e-10


def test_kepler_reference_has_constant_energy():
    kep = get_problem("kepler")
    H0 = kep.system.H(kep.default_y0)
    for t in np.linspace(0.0, 2 * math.pi, 17):
        assert kep.system.H(kep.reference_solution(t)) == pytest.approx(
            H0, abs=1e-12)


def test_reference_solutions_satisfy_the_flow():
    # dy/dt from centered differences of the reference must match J grad H
    dt = 1e-6
    for prob in catalog():
        if prob.reference_solution is None:
            continue
        sys = prob.system
        for t in (0.3, 1.1, 2.9, 4.7):
            yd = (prob.reference_solution(t + dt)
                  - prob.reference_solution(t - dt)) / (2 * dt)
            f = sys.f(prob.reference_solution(t))
            assert np.max(np.abs(yd - f)) <= 1e-8 * max(1.0, np.max(np.abs(f)))


def test_default_states_are_copies():
    kep = get_problem("kepler")
    y = kep.default_y0
    y[0] = 99.0
    assert get_problem("kepler").default_y0[0] != 99.0


# Components bounded away from zero keep Kepler's |q| >= 0.35.
_COMPONENTS = st.floats(0.25, 2.0) | st.floats(-2.0, -0.25)
# Kepler's r^1.5 may round differently on a block than on one state.
_ULPS = {"kepler": 4}


def _block_of(dim: int):
    shape = st.tuples(st.integers(1, 50), st.just(dim)) | st.tuples(
        st.integers(1, 5), st.integers(1, 5), st.just(dim))
    return shape.flatmap(lambda sh: hnp.arrays(float, sh, elements=_COMPONENTS))


def _assert_rows_match(block, per_row, ulps):
    per_row = np.asarray(per_row)
    assert block.shape == per_row.shape
    if ulps == 0:
        assert np.array_equal(block, per_row)
    else:
        eps = np.finfo(float).eps
        assert np.all(np.abs(block - per_row) <= ulps * eps * np.abs(per_row))


@pytest.mark.parametrize("prob", catalog(), ids=lambda p: p.name)
def test_block_evaluation_matches_rows(prob):
    sys = prob.system
    assert sys.vectorized
    ulps = _ULPS.get(prob.name, 0)

    @settings(max_examples=40, deadline=None, database=None)
    @given(Y=_block_of(sys.dim))
    def check(Y):
        rows = Y.reshape(-1, sys.dim)
        lead = Y.shape[:-1]
        _assert_rows_match(sys.H(Y), np.reshape([sys.H(y) for y in rows], lead),
                           ulps)
        _assert_rows_match(sys.grad_H(Y),
                           np.reshape([sys.grad_H(y) for y in rows], Y.shape),
                           ulps)
        _assert_rows_match(sys.f(Y),
                           np.reshape([sys.f(y) for y in rows], Y.shape), ulps)
        if Y.ndim == 2:
            _assert_rows_match(sys.energies(Y), [sys.H(y) for y in rows], ulps)

    check()


def test_canonical_field_matches_matrix_product():
    # one nonzero product per entry, so grad H @ J.T is exactly J @ grad H
    rng = np.random.default_rng(21)
    for prob in catalog():
        sys = prob.system
        for _ in range(50):
            y = rng.uniform(0.3, 1.5, size=sys.dim)
            assert np.array_equal(sys.f(y), sys.J @ sys.grad_H(y)), prob.name


@pytest.mark.parametrize("prob", catalog(), ids=lambda p: p.name)
def test_gradient_is_a_fresh_float_block(prob):
    # q^3 and q^5 at q = 3e6 wrap in int64: integer states must be promoted
    # before any power is taken
    grad = prob.system.grad_H
    state = np.array([3_000_000, -2, 5, 1])[:prob.system.dim]
    for y_int in (state, np.stack((state, -state, state + 1))):
        for y in (y_int, y_int.astype(float)):
            before = y.copy()
            g = grad(y)
            assert g.dtype == np.float64
            assert g.shape == y.shape
            assert not np.shares_memory(g, y)
            assert np.array_equal(y, before)
            g[...] = -7.0
            assert np.array_equal(y, before)
        assert np.array_equal(grad(y_int), grad(y_int.astype(float)))


@pytest.mark.parametrize("prob", catalog(), ids=lambda p: p.name)
def test_energy_of_integer_state_equals_float(prob):
    # q^4, q^6 and q1^2 q2 at q = (3e6, 2e6) wrap in int64: integer states
    # must be promoted before any product is taken
    H = prob.system.H
    state = np.array([3_000_000, 2_000_000, 1, 1])[:prob.system.dim]
    for y_int in (state, np.stack((state, -state, state + 1))):
        energy = H(y_int)
        assert np.asarray(energy).dtype == np.float64
        assert np.array_equal(energy, H(y_int.astype(float)))


@pytest.mark.parametrize("name", ["harmonic", "henon_heiles", "kepler"])
def test_lookup_builds_only_the_problem_it_returns(monkeypatch, name):
    built = []

    def counting(*args, **kwargs):
        built.append(kwargs)
        return HamiltonianSystem(*args, **kwargs)

    monkeypatch.setattr(problems, "HamiltonianSystem", counting)
    assert get_problem(name).system.dim == built[0]["dim"]
    assert len(built) == 1


def test_catalog_order_and_names_match_lookup():
    names = [p.name for p in catalog()]
    assert names == ["harmonic", "quartic", "sextic", "pendulum",
                     "henon-heiles", "kepler"]
    assert [get_problem(n).name for n in names] == names
    with pytest.raises(KeyError) as exc:
        get_problem("three-body")
    assert exc.value.args[0] == ("unknown problem 'three-body'; known: "
                                 + ", ".join(names))


# The power oscillators V = q^nu / nu, pinned bit for bit: grad_H raises the
# coordinate column of a float copy to nu - 1 and keeps p, and H is
# 0.5 p^2 + q^nu / nu.  -0.0 must stay -0.0 in q^(nu - 1) for odd powers,
# and at q = 1.1, q^6 / 6 and q^6 * (1 / 6) differ in the last bit.
_POWERS = {"harmonic": 2, "quartic": 4, "sextic": 6}
_POWER_BLOCKS = {
    "state": np.array([-0.0, 0.75]),
    "rows": np.array([[1.5, -0.0], [-0.0, 2.0], [-1.25, 0.3], [3e-60, -7.0],
                      [0.1, 1e20], [1.1, -0.5]]),
    "grid": np.array([[[0.5, 1.0], [-2.0, -0.0]],
                      [[1e30, 0.25], [-0.0, -0.0]],
                      [[-0.1, 4.0], [7.5, -3.0]]]),
    "int": np.array([[3, -2], [-4, 5], [0, 1], [-1, 0]]),
}


@pytest.mark.parametrize("block", _POWER_BLOCKS)
@pytest.mark.parametrize("name", _POWERS)
def test_power_oscillators_bit_for_bit(name, block):
    nu, Y = _POWERS[name], _POWER_BLOCKS[block]
    sys = get_problem(name).system
    q, p = Y[..., 0].astype(float), Y[..., 1].astype(float)
    g = sys.grad_H(Y)
    assert g.dtype == np.float64 and g.shape == Y.shape
    assert g[..., 0].tobytes() == (q ** (nu - 1)).tobytes()
    assert g[..., 1].tobytes() == p.tobytes()
    energy = np.asarray(sys.H(Y))
    assert energy.tobytes() == np.asarray(0.5 * (p * p)
                                          + q ** nu / nu).tobytes()
