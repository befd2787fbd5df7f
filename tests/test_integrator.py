import dataclasses
import re
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hbvm import integrator
from hbvm.integrator import (
    HamiltonianSystem,
    SolverConfig,
    StageConvergenceError,
    Trajectory,
    canonical_symplectic_matrix,
    convergence_order,
    energy_drift,
    gamma_step,
    integrate,
    rk_step,
    trajectory_to_csv,
)
from hbvm.legendre import NodeFamily, gauss_system, random_custom_system
from hbvm.problems import catalog, get_problem
from hbvm.spectral import spec_matrix
from hbvm.tableau import (
    ButcherTableau,
    HbvmSpec,
    abscissae,
    basis_matrices,
    collocation_matrix,
    filtered_tableau,
    hbvm_tableau,
    tableau_from_json,
    tableau_to_json,
)

TIGHT = SolverConfig(tol=1e-15)
NEWTON = SolverConfig(mode="newton", tol=1e-14)


def _unmarked(system):
    """The system without grad_V: either solver iterates on the whole u."""
    return dataclasses.replace(system, grad_V=None)


class TestRkStep:
    def test_midpoint_matches_cayley_map_on_harmonic(self):
        # closed form: y1 = (I - h B / 2)^{-1} (I + h B / 2) y0 with B = J
        harm = get_problem("harmonic")
        y0 = np.array([1.0, 0.0])
        h = 0.1
        B = np.array([[0.0, 1.0], [-1.0, 0.0]])
        expect = np.linalg.solve(np.eye(2) - h / 2 * B,
                                 (np.eye(2) + h / 2 * B) @ y0)
        tab = hbvm_tableau(HbvmSpec(1, 1))
        y1, diag = rk_step(tab, harm.system, y0, h, TIGHT)
        assert np.max(np.abs(y1 - expect)) <= 1e-12
        assert diag.residual <= TIGHT.tol

    def test_equilibrium_is_exact_fixed_point(self):
        pend = get_problem("pendulum")
        tab = hbvm_tableau(HbvmSpec(3, 2))
        y0 = np.zeros(2)
        y1, _ = rk_step(tab, pend.system, y0, 0.1)
        assert np.array_equal(y1, y0)

    def test_sextic_one_step_energy(self):
        sext = get_problem("sextic")
        tab = hbvm_tableau(HbvmSpec(6, 2))
        y0 = sext.default_y0
        y1, _ = rk_step(tab, sext.system, y0, 0.1, TIGHT)
        h0 = sext.system.H(y0)
        assert abs(sext.system.H(y1) - h0) <= 1e-12 * abs(h0)

    def test_rejects_zero_step(self):
        harm = get_problem("harmonic")
        tab = hbvm_tableau(HbvmSpec(1, 1))
        with pytest.raises(ValueError):
            rk_step(tab, harm.system, np.zeros(2), 0.0)

    def test_fixed_point_divergence_suggests_newton(self):
        # perihelion of the eccentric orbit with a large step: the stage map
        # is no longer a contraction
        kep = get_problem("kepler")
        tab = hbvm_tableau(HbvmSpec(6, 2))
        with pytest.raises(StageConvergenceError,
                           match=r"^fixed-point iteration diverging "
                                 r"\(residual grew over 5 consecutive "
                                 r"iterations\); try mode='newton'$"):
            rk_step(tab, kep.system, kep.default_y0, 1.0,
                    SolverConfig(tol=1e-13))

    def test_newton_handles_the_same_step(self):
        kep = get_problem("kepler")
        tab = hbvm_tableau(HbvmSpec(6, 2))
        y1, diag = rk_step(tab, kep.system, kep.default_y0, 0.5, NEWTON)
        assert diag.residual <= NEWTON.tol

    def test_newton_and_fixed_point_agree(self):
        hh = get_problem("henon-heiles")
        tab = hbvm_tableau(HbvmSpec(4, 2))
        cfg_fp = SolverConfig(tol=1e-14)
        cfg_nw = SolverConfig(mode="newton", tol=1e-14)
        y_fp, _ = rk_step(tab, hh.system, hh.default_y0, 0.1, cfg_fp)
        y_nw, _ = rk_step(tab, hh.system, hh.default_y0, 0.1, cfg_nw)
        assert np.max(np.abs(y_fp - y_nw)) <= 10 * cfg_fp.tol


def gauss_collocation_tableau(k):
    quad = gauss_system(k)
    return ButcherTableau(c=quad.tau, A=collocation_matrix(quad), b=quad.omega)


@pytest.fixture
def lu_orders(monkeypatch):
    orders = []
    lu_factor = integrator.lu_factor

    def recording(M, *args, **kwargs):
        orders.append(M.shape)
        return lu_factor(M, *args, **kwargs)

    monkeypatch.setattr(integrator, "lu_factor", recording)
    return orders


class TestRankFactoredNewton:
    # unmarked, Newton factors 2m-square blocks I - h lam Jf; with grad_V,
    # m-square blocks I + h^2 lam^2 grad^2 V
    @pytest.mark.parametrize("k", [4, 8, 12])
    def test_hbvm_factors_one_2m_block_per_conjugate_pair(self, lu_orders,
                                                          k):
        kep = get_problem("kepler")
        tab = hbvm_tableau(HbvmSpec(k, 2))
        rk_step(tab, _unmarked(kep.system), kep.default_y0, 0.05, NEWTON)
        assert lu_orders == [(4, 4)]

    @pytest.mark.parametrize("k", [4, 8, 12])
    def test_second_order_factors_one_m_block_per_conjugate_pair(
            self, lu_orders, k):
        kep = get_problem("kepler")
        tab = hbvm_tableau(HbvmSpec(k, 2))
        rk_step(tab, kep.system, kep.default_y0, 0.05, NEWTON)
        assert lu_orders == [(2, 2)]

    def test_full_rank_tableau_factors_one_2m_block_per_pair(self,
                                                              lu_orders):
        kep = get_problem("kepler")
        rk_step(gauss_collocation_tableau(4), _unmarked(kep.system),
                kep.default_y0, 0.05, NEWTON)
        assert lu_orders == [(4, 4), (4, 4)]
        lu_orders.clear()
        rk_step(gauss_collocation_tableau(4), kep.system, kep.default_y0,
                0.05, NEWTON)
        assert lu_orders == [(2, 2), (2, 2)]

    @pytest.mark.parametrize("filtered", [False, True])
    def test_newton_agrees_with_fixed_point(self, filtered):
        hh = get_problem("henon-heiles")
        tab = filtered_tableau(gauss_system(6), 2) if filtered \
            else gauss_collocation_tableau(6)
        y_fp, _ = rk_step(tab, hh.system, hh.default_y0, 0.1, TIGHT)
        y_nw, diag = rk_step(tab, hh.system, hh.default_y0, 0.1, NEWTON)
        assert diag.iterations > 0
        assert np.max(np.abs(y_fp - y_nw)) <= 1e-12


class TestEigenSplitNewton:
    # classical RK4: A is nilpotent, so R L is too and has no eigenbasis
    RK4 = ButcherTableau(c=[0.0, 0.5, 0.5, 1.0],
                         A=[[0.0, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0],
                            [0.0, 0.5, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]],
                         b=[1 / 6, 1 / 3, 1 / 3, 1 / 6])
    # 2-stage SDIRK, gamma = 1 + sqrt(2)/2: a double eigenvalue, cond(V) ~8e7
    G = 1.0 + np.sqrt(2.0) / 2.0
    SDIRK = ButcherTableau(c=[G, 1.0], A=[[G, 0.0], [1.0 - G, G]],
                           b=[1.0 - G, G])
    SPECS = [spec for spec, _ in spec_matrix(6, 12)]

    @staticmethod
    def _assembled(plan, h, y0):
        """The Newton inverse, as Newton iterates with it."""
        return integrator._newton_correction(plan, h, y0)

    def _check_against_dense(self, method, h, marked=False):
        """The assembled inverse against the dense one: of I - h M (x) Jf
        unmarked, of I + h^2 M^2 (x) grad^2 V with grad_V."""
        kep = get_problem("kepler")
        y0 = kep.default_y0
        system = kep.system if marked else _unmarked(kep.system)
        plan = integrator._run_plan(method, system, NEWTON, "rk")
        assert plan.split is not None
        r = plan.M.shape[0]
        if marked:
            hess = integrator._field_jacobian(system.grad_V, y0[:2], "grad V")
            a = np.eye(r * 2) + h * h * np.kron(plan.M @ plan.M, hess)
        else:
            Jf = integrator._field_jacobian(system.f, y0)
            a = np.eye(r * y0.size) - h * np.kron(plan.M, Jf)
        ref = np.linalg.inv(a)
        cond_v = np.linalg.cond(np.linalg.eig(plan.M)[1])
        bound = (a.shape[0] * np.finfo(float).eps * cond_v
                 * np.linalg.cond(a))
        err = np.linalg.norm(self._assembled(plan, h, y0) - ref, 2)
        assert err <= bound * np.linalg.norm(ref, 2), method
        return r

    @pytest.mark.parametrize("h", [0.05, 0.5])
    def test_hbvm_inverse_matches_dense_one_block_per_pair(self, lu_orders,
                                                          h):
        for spec in self.SPECS:
            lu_orders.clear()
            assert self._check_against_dense(spec, h) == spec.s
            assert lu_orders == [(4, 4)] * ((spec.s + 1) // 2), spec

    @pytest.mark.parametrize("h", [0.05, 0.5])
    def test_second_order_inverse_matches_dense_one_m_block_per_pair(
            self, lu_orders, h):
        for spec in self.SPECS:
            lu_orders.clear()
            assert self._check_against_dense(spec, h, marked=True) == spec.s
            assert lu_orders == [(2, 2)] * ((spec.s + 1) // 2), spec

    @pytest.mark.parametrize("h", [0.05, 0.5])
    @pytest.mark.parametrize("k", range(1, 7))
    def test_collocation_inverse_matches_dense(self, lu_orders, k, h):
        assert self._check_against_dense(gauss_collocation_tableau(k),
                                          h) == k
        assert lu_orders == [(4, 4)] * ((k + 1) // 2)
        lu_orders.clear()
        assert self._check_against_dense(gauss_collocation_tableau(k), h,
                                          marked=True) == k
        assert lu_orders == [(2, 2)] * ((k + 1) // 2)

    @pytest.mark.parametrize("name", ["RK4", "SDIRK"])
    def test_defective_stage_matrix_takes_the_dense_build(self, lu_orders,
                                                          name):
        hh = get_problem("henon-heiles")
        tab = getattr(self, name)
        for system, width in ((_unmarked(hh.system), 4), (hh.system, 2)):
            lu_orders.clear()
            plan = integrator._run_plan(tab, system, NEWTON, "rk")
            assert [B.shape for _, B in plan.split] == [plan.M.shape]
            y_nw, _ = rk_step(tab, system, hh.default_y0, 0.05, NEWTON)
            r = plan.M.shape[0]
            assert lu_orders == [(r * width, r * width)]
            y_fp, _ = rk_step(tab, system, hh.default_y0, 0.05, TIGHT)
            assert np.max(np.abs(y_nw - y_fp)) <= 1e-14

    @pytest.mark.parametrize("name", ["RK4", "SDIRK", "EULER"])
    def test_defective_or_empty_stage_matrix_is_one_whole_block(self, name):
        tab = TestLowRankStageCore.EULER if name == "EULER" \
            else getattr(self, name)
        L, R = tab.low_rank
        M = R @ L
        ((P, B),) = integrator._eigen_split(M)
        assert P.tolist() == [[1.0]]
        assert B is M

    def test_fixed_point_builds_no_split(self):
        kep = get_problem("kepler")
        plan = integrator._run_plan(HbvmSpec(12, 6), kep.system, TIGHT,
                                    "gamma")
        assert plan.split is None

    # the counts of the whole Newton matrix inverted, unmarked (one matrix
    # for the run) and on the second-order equations, with the steps that
    # built a fresh matrix: at s = 3 one extra iteration at k = 6 grad_V
    # calls reaches the m + 1 = 3 of the Hessian, and refreshes
    @pytest.mark.parametrize("spec,h,mode,iters,second_order", [
        (HbvmSpec(6, 3), 0.05, "rk", 838,
         (636, [1, 4, 6, 8, 121, 123, 125, 128])),
        (HbvmSpec(12, 6), 0.1, "gamma", 789, (682, [1])),
    ], ids=["s3-rk", "s6-gamma"])
    def test_kepler_iteration_counts(self, spec, h, mode, iters,
                                     second_order):
        kep = get_problem("kepler")
        run = partial(integrate, spec, y0=kep.default_y0, h=h, n_steps=200,
                      cfg=SolverConfig(mode="newton"), mode=mode)
        traj = run(sys=_unmarked(kep.system))
        assert traj.jacobian_counts.tolist() == [0, 1] + [0] * 199
        assert traj.iteration_counts.sum() == iters
        traj = run(sys=kep.system)
        assert traj.jacobian_counts.max() == 1
        assert np.flatnonzero(traj.jacobian_counts).tolist() \
            == second_order[1]
        assert traj.iteration_counts.sum() == second_order[0]


@pytest.fixture
def unknown_shapes(monkeypatch):
    shapes = []
    fixed_point = integrator._fixed_point

    def recording(residual_map, U0, cfg):
        shapes.append(U0.shape)
        return fixed_point(residual_map, U0, cfg)

    monkeypatch.setattr(integrator, "_fixed_point", recording)
    return shapes


class TestLapackLU:
    @pytest.mark.parametrize("n", [0, 1, 16, 256])
    def test_matches_numpy_solve(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        b = rng.standard_normal(n)
        x = integrator.lu_factor(a, b)
        ref = np.linalg.solve(a, b)
        assert x.shape == ref.shape == (n,)
        # both solutions lie within ~n eps cond(a) of the exact one
        bound = n * np.finfo(float).eps * np.linalg.norm(ref)
        if n:
            bound *= np.linalg.cond(a)
        assert np.linalg.norm(x - ref) <= bound

    def test_non_finite_matrix_is_rejected(self):
        with pytest.raises(StageConvergenceError,
                           match="Newton matrix is non-finite"):
            integrator.lu_factor(np.array([[1.0, np.inf], [0.0, 1.0]]),
                                 np.eye(2))

    def test_every_solve_goes_through_the_module_global(self, monkeypatch):
        calls = []
        lu_solve = integrator.lu_solve

        def counting(*args):
            calls.append(1)
            return lu_solve(*args)

        monkeypatch.setattr(integrator, "lu_solve", counting)
        kep = get_problem("kepler")
        traj = integrate(HbvmSpec(12, 4), kep.system, kep.default_y0, 0.05,
                         50, SolverConfig(mode="newton"), mode="gamma")
        assert len(calls) == traj.iteration_counts.sum() > 0


class TestNamedNewtonFailures:
    # R L = 0.5 and h Jf = 2 I, so I - h (R L) (x) Jf is exactly zero
    SINGULAR = ButcherTableau(c=[0.5], A=[[0.5]], b=[1.0])

    def test_singular_matrix_fails_the_step_without_warning(self):
        # f = 4 y; from y0 = 0 every finite-difference step is 2^-26, so
        # the finite-difference Jacobian is exactly 4 I
        J = canonical_symplectic_matrix(2)
        four_y = HamiltonianSystem(dim=2, H=lambda y: 0.0,
                                   grad_H=lambda y: 4.0 * (y @ J))
        y0 = np.zeros(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StageConvergenceError,
                               match="Newton matrix is singular"):
                rk_step(self.SINGULAR, four_y, y0, 0.5, NEWTON)
            with pytest.raises(StageConvergenceError,
                               match="step 1 failed: Newton matrix is "
                                     "singular"):
                integrate(self.SINGULAR, four_y, y0, 0.5, 3, NEWTON)

    def test_diverging_iteration_stops_after_5_growths(self):
        # the Newton residual of the first Kepler step at h = 0.3 grows
        # from the start; it used to run all max_iter iterations
        kep = get_problem("kepler")
        with pytest.raises(StageConvergenceError,
                           match=r"^step 1 failed: Newton iteration "
                                 r"diverging \(residual grew over 5 "
                                 r"consecutive iterations\); try a smaller "
                                 r"h$") as info:
            integrate(HbvmSpec(2, 1), kep.system, kep.default_y0, 0.3, 10,
                      NEWTON)
        assert info.value.iterations <= 5

    @pytest.mark.parametrize("mode", ["rk", "gamma"])
    def test_non_finite_jacobian_names_its_cause(self, mode):
        # the Kepler gradient divides by |q| = 0
        kep = get_problem("kepler")
        with pytest.raises(StageConvergenceError,
                           match="step 1 failed: Jacobian of f is "
                                 "non-finite at the step's initial state"):
            integrate(HbvmSpec(4, 2), _unmarked(kep.system),
                      [0.0, 0.0, 0.0, 1.0], 0.05, 3,
                      SolverConfig(mode="newton"), mode=mode)

    @pytest.mark.parametrize("mode", ["rk", "gamma"])
    def test_non_finite_hessian_names_its_cause(self, mode):
        # with grad_V, Newton differences grad V, not f
        kep = get_problem("kepler")
        with pytest.raises(StageConvergenceError,
                           match="step 1 failed: Jacobian of grad V is "
                                 "non-finite at the step's initial state"):
            integrate(HbvmSpec(4, 2), kep.system, [0.0, 0.0, 0.0, 1.0], 0.05,
                      3, SolverConfig(mode="newton"), mode=mode)


class TestIterationLimit:
    # sextic (6, 2) at h = 0.1 takes ~10 fixed-point iterations (~6 on the
    # second-order iteration of the system with grad_V), and more than one
    # Newton correction, to reach tol = 1e-15
    @pytest.mark.parametrize("solver,max_iter,solver_name", [
        ("fixed_point", 2, "fixed-point"),
        ("newton", 1, "Newton"),
    ])
    def test_names_the_solver_and_the_limit(self, solver, max_iter,
                                            solver_name):
        sext = get_problem("sextic")
        spec = HbvmSpec(6, 2)
        cfg = SolverConfig(mode=solver, tol=1e-15, max_iter=max_iter)
        limit = (rf"{solver_name} iteration did not reach tol=1e-15 in "
                 rf"{max_iter} iterations$")
        with pytest.raises(StageConvergenceError,
                           match="^step 1 failed: " + limit) as info:
            integrate(spec, sext.system, sext.default_y0, 0.1, 3, cfg)
        assert info.value.iterations == max_iter
        assert info.value.residual > cfg.tol
        with pytest.raises(StageConvergenceError, match="^" + limit):
            rk_step(hbvm_tableau(spec), sext.system, sext.default_y0, 0.1,
                    cfg)

    # the same step, on the sextic without grad_V, accepts after 13
    # fixed-point corrections, counted with the free final update as 14
    # iterations, and after 6 Newton corrections
    @pytest.mark.parametrize("solver,corrections,iterations", [
        ("fixed_point", 13, 14),
        ("newton", 6, 6),
    ])
    def test_bounds_the_corrections(self, solver, corrections, iterations):
        self._check_bound(False, solver, corrections, iterations)

    # with grad_V, both solvers iterate on the second-order form: 7
    # fixed-point corrections, 5 Newton ones
    def test_second_order_bounds_the_corrections(self):
        self._check_bound(True, "fixed_point", 7, 8)

    def test_second_order_newton_bounds_the_corrections(self):
        self._check_bound(True, "newton", 5, 5)

    @staticmethod
    def _check_bound(marked, solver, corrections, iterations):
        sext = get_problem("sextic")
        system = sext.system if marked else _unmarked(sext.system)
        tab = hbvm_tableau(HbvmSpec(6, 2))
        cfg = SolverConfig(mode=solver, tol=1e-15, max_iter=corrections)
        _, diag = rk_step(tab, system, sext.default_y0, 0.1, cfg)
        assert diag.iterations == iterations
        with pytest.raises(StageConvergenceError, match="did not reach"):
            rk_step(tab, system, sext.default_y0, 0.1,
                    dataclasses.replace(cfg, max_iter=corrections - 1))

    @pytest.mark.parametrize("max_iter", [2.5, True, np.float64(3.0)],
                             ids=repr)
    def test_rejects_a_bool_or_non_integer_limit(self, max_iter):
        with pytest.raises(ValueError,
                           match=r"^max_iter must be an integer, got "):
            SolverConfig(max_iter=max_iter)


class TestLowRankStageCore:
    # explicit Euler: A = 0 has rank 0, so u has no rows
    EULER = ButcherTableau(c=[0.0], A=[[0.0]], b=[1.0])

    # unmarked on the whole u, r x 2m; with grad_V on u_p, r x m
    def test_hbvm_iterates_on_s_rows(self, unknown_shapes):
        kep = get_problem("kepler")
        for system in (_unmarked(kep.system), kep.system):
            rk_step(hbvm_tableau(HbvmSpec(12, 2)), system, kep.default_y0,
                    0.05)
        assert unknown_shapes == [(2, 4), (2, 2)]

    def test_full_rank_tableau_iterates_on_k_rows(self, unknown_shapes):
        kep = get_problem("kepler")
        for system in (_unmarked(kep.system), kep.system):
            rk_step(gauss_collocation_tableau(4), system, kep.default_y0,
                    0.05)
        assert unknown_shapes == [(4, 4), (4, 2)]

    @pytest.mark.parametrize("cfg,iters", [(SolverConfig(), 1), (NEWTON, 0)],
                             ids=["fixed", "newton"])
    def test_rank_zero_tableau_is_explicit_euler(self, lu_orders, cfg,
                                                 iters):
        sext = get_problem("sextic")
        y0, h = sext.default_y0, 0.1
        y1, diag = rk_step(self.EULER, sext.system, y0, h, cfg)
        assert self.EULER.low_rank[1].shape == (0, 1)
        assert np.array_equal(y1, y0 + h * sext.system.f(y0))
        assert diag.iterations == iters and diag.residual == 0.0
        assert lu_orders == ([(0, 0)] if cfg.mode == "newton" else [])


class TestNonFiniteStages:
    # harmonic energy whose gradient overflows more than 0.5 away from y0
    Y0 = np.array([1.0, 0.0])

    @staticmethod
    def _grad(y):
        if np.max(np.abs(y - TestNonFiniteStages.Y0)) > 0.5:
            return np.full(2, np.inf)
        return y

    @pytest.mark.parametrize("mode", ["rk", "gamma"])
    @pytest.mark.parametrize("solver", ["fixed_point", "newton"])
    def test_raises_at_once(self, mode, solver):
        sys = HamiltonianSystem(dim=2, H=lambda y: 0.5 * float(y @ y),
                                grad_H=self._grad)
        cfg = SolverConfig(mode=solver)
        with pytest.raises(StageConvergenceError,
                           match="step 1 failed: stage values are "
                                 "non-finite") as info:
            integrate(HbvmSpec(4, 2), sys, self.Y0, 2.0, 3, cfg, mode=mode)
        assert info.value.iterations < 5
        assert not np.isfinite(info.value.residual)


@pytest.mark.parametrize("y0,named", [
    ([np.nan, 0.0], r"y0\[0\] = nan"),
    ([1.0, np.inf], r"y0\[1\] = inf"),
    ([-np.inf, np.nan], r"y0\[0\] = -inf, y0\[1\] = nan"),
], ids=["nan", "inf", "both"])
@pytest.mark.parametrize("entry", ["integrate", "rk_step", "gamma_step"])
def test_non_finite_initial_state_is_named(entry, y0, named):
    # the state is rejected before the solver runs, so the message names
    # the initial state rather than non-finite stage values
    harm, spec = get_problem("harmonic"), HbvmSpec(2, 1)
    run = {"integrate": lambda: integrate(spec, harm.system, y0, 0.1, 3),
           "rk_step": lambda: rk_step(hbvm_tableau(spec), harm.system, y0,
                                      0.1),
           "gamma_step": lambda: gamma_step(spec, harm.system, y0, 0.1)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError,
                           match="initial state must be finite: " + named):
            run[entry]()


class TestKeptNewtonMatrix:
    @pytest.mark.parametrize("mode", ["rk", "gamma"])
    def test_reuses_matrix_and_matches_fixed_point(self, lu_orders, mode):
        kep = get_problem("kepler")
        spec = HbvmSpec(6, 2)
        t_nw = integrate(spec, kep.system, kep.default_y0, 0.01, 50, NEWTON,
                         mode=mode)
        assert 0 < len(lu_orders) < 50
        assert len(lu_orders) == np.count_nonzero(t_nw.jacobian_counts)
        assert t_nw.jacobian_counts[1] == 1
        t_fp = integrate(spec, kep.system, kep.default_y0, 0.01, 50, TIGHT,
                         mode=mode)
        assert np.max(np.abs(t_nw.states - t_fp.states)) <= 1e-12
        assert not np.any(t_fp.jacobian_counts)

    @staticmethod
    def _patch_newton(monkeypatch, outcome):
        """Run the real Newton solve, then let outcome(fresh, result) replace
        what it reports; fresh is False for an inverse already used."""
        solve = integrator._simplified_newton
        used = []

        def patched(gmap, U0, inverse, cfg):
            fresh = not any(c is inverse for c in used)
            used.append(inverse)
            return outcome(fresh, solve(gmap, U0, inverse, cfg))

        monkeypatch.setattr(integrator, "_simplified_newton", patched)

    @staticmethod
    def _run(steps=7, spec=HbvmSpec(2, 2), marked=True):
        harm = get_problem("harmonic")
        system = harm.system if marked else _unmarked(harm.system)
        return integrate(spec, system, harm.default_y0, 0.1, steps, NEWTON)

    # dim 2: a one-sided Jacobian of f costs dim + 1 = 3 f-evaluations, one
    # extra iteration k; k = 2 refreshes after two kept steps, k = 3 after
    # one (a charge of 2 * dim = 4 would keep the k = 3 matrix for two
    # steps)
    @pytest.mark.parametrize("k,expect", [
        (2, [0, 1, 0, 0, 1, 0, 0, 1]),
        (3, [0, 1, 0, 1, 0, 1, 0, 1]),
    ])
    def test_extra_iterations_refresh_at_jacobian_cost(self, monkeypatch, k,
                                                       expect):
        self._patch_newton(monkeypatch, lambda fresh, r:
                           (r[0], r[1], integrator.StepDiagnostics(
                               3 if fresh else 4, r[2].residual, 0.0)))
        traj = self._run(spec=HbvmSpec(k, 2), marked=False)
        assert traj.jacobian_counts.tolist() == expect

    # with grad_V the Hessian costs m + 1 = 2 grad_V evaluations, so k = 2
    # refreshes after one kept step (dim + 1 = 3 would keep it for two)
    def test_second_order_extra_iterations_refresh_at_hessian_cost(
            self, monkeypatch):
        self._patch_newton(monkeypatch, lambda fresh, r:
                           (r[0], r[1], integrator.StepDiagnostics(
                               3 if fresh else 4, r[2].residual, 0.0)))
        traj = self._run(spec=HbvmSpec(2, 2))
        assert traj.jacobian_counts.tolist() == [0, 1, 0, 1, 0, 1, 0, 1]

    @pytest.mark.parametrize("ratio,expect", [
        (integrator.REFRESH_CONTRACTION, [0, 1, 0, 0, 0, 0, 0, 0]),
        (2 * integrator.REFRESH_CONTRACTION, [0, 1, 1, 1, 1, 1, 1, 1]),
    ])
    def test_slow_contraction_refreshes(self, monkeypatch, ratio, expect):
        self._patch_newton(monkeypatch, lambda fresh, r:
                           (r[0], r[1], integrator.StepDiagnostics(
                               3, r[2].residual, ratio)))
        assert self._run().jacobian_counts.tolist() == expect

    def test_failure_with_kept_matrix_is_retried(self, monkeypatch):
        expect = self._run()
        failed = []

        def fail_once_when_kept(fresh, result):
            if not fresh and not failed:
                failed.append(True)
                raise StageConvergenceError("forced", residual=1.0,
                                            iterations=1)
            return result

        self._patch_newton(monkeypatch, fail_once_when_kept)
        traj = self._run()
        assert traj.jacobian_counts[1] == 1
        assert traj.jacobian_counts[2] == 2
        assert np.max(np.abs(traj.states - expect.states)) <= 1e-12

    def test_failure_with_fresh_matrix_propagates(self, monkeypatch):
        fresh_calls = []

        def fail_after_first_step(fresh, result):
            fresh_calls.append(fresh)
            if len(fresh_calls) > 1:
                raise StageConvergenceError("forced", residual=1.0,
                                            iterations=1)
            return result

        self._patch_newton(monkeypatch, fail_after_first_step)
        with pytest.raises(StageConvergenceError,
                           match=r"^step 2 failed: forced$"):
            self._run()
        assert fresh_calls == [True, False, True]

    def test_fixed_point_counts_are_unchanged(self):
        # fixed point builds no Newton matrix, so keeping one must not change
        # a single iteration count; the counts are those of the warm start,
        # each step after the first starting from the previous polynomial.
        # Without grad_V, the sextic takes the first-order iteration.
        sext = get_problem("sextic")
        system = _unmarked(sext.system)
        traj = integrate(HbvmSpec(6, 2), system, sext.default_y0, 0.1,
                         1000, SolverConfig())
        counts = traj.iteration_counts[1:]
        assert counts[:20].tolist() == [12, 11, 11, 12, 12, 12, 12, 11, 11,
                                        10, 9, 9, 8, 7, 6, 5, 5, 3, 4, 5]
        assert counts.sum() == 8572
        assert np.bincount(counts).tolist() == [0, 0, 0, 19, 57, 113, 75, 94,
                                                94, 94, 131, 170, 153]
        assert not np.any(traj.jacobian_counts)

    def test_second_order_fixed_point_counts(self):
        # the same run on the sextic with grad_V, iterating on u_p
        sext = get_problem("sextic")
        traj = integrate(HbvmSpec(6, 2), sext.system, sext.default_y0, 0.1,
                         1000, SolverConfig())
        counts = traj.iteration_counts[1:]
        assert counts[:20].tolist() == [7, 6, 6, 7, 7, 7, 7, 6, 6, 6, 5, 5, 5,
                                        4, 4, 3, 3, 2, 3, 3]
        assert counts.sum() == 5041
        assert np.bincount(counts).tolist() == [0, 0, 19, 170, 169, 188, 301,
                                                153]
        assert not np.any(traj.jacobian_counts)

    def test_contraction_is_the_final_residual_ratio(self):
        kep = get_problem("kepler")
        tab = hbvm_tableau(HbvmSpec(6, 2))
        _, diag = rk_step(tab, kep.system, kep.default_y0, 0.01, NEWTON)
        assert 0.0 < diag.contraction < integrator.REFRESH_CONTRACTION
        pend = get_problem("pendulum")
        _, diag = rk_step(tab, pend.system, np.zeros(2), 0.1, NEWTON)
        assert diag.iterations == 0 and diag.contraction == 0.0


def _legendre_series(gamma):
    """p(t) = sum_j gamma_j P_j(t) as a numpy Legendre series in x = 2t - 1;
    the j-th orthonormal basis polynomial is sqrt(2j - 1) Leg_(j-1)."""
    norms = np.sqrt(2 * np.arange(1, gamma.shape[0] + 1) - 1)
    return np.polynomial.Legendre(gamma * norms), norms


def _shifted_coefficients(gamma):
    """Coefficients of p(1 + t) on [0, 1], by composing the Legendre series
    with x -> x + 2, independent of any quadrature."""
    series, norms = _legendre_series(gamma)
    shifted = series(np.polynomial.Legendre([2.0, 1.0])).coef
    out = np.zeros_like(gamma)
    out[:shifted.size] = shifted
    return out / norms


SHIFT_SPECS = [HbvmSpec(s, s) for s in range(1, 5)] \
    + [HbvmSpec(s + 3, s) for s in range(1, 5)] \
    + [HbvmSpec(s + 1, s, NodeFamily.LOBATTO) for s in range(1, 5)] \
    + [HbvmSpec(s + 4, s, NodeFamily.LOBATTO) for s in range(1, 5)] \
    + [HbvmSpec(2 * s, s, NodeFamily.CUSTOM,
                tuple(random_custom_system(2 * s, 7 + s).tau))
       for s in range(1, 5)]


class TestWarmStart:
    @staticmethod
    def _plan(spec, mode):
        kep = get_problem("kepler")
        return integrator._run_plan(spec, kep.system, SolverConfig(), mode)

    @pytest.mark.parametrize("spec", SHIFT_SPECS, ids=str)
    def test_coefficient_shift_is_exact(self, spec):
        gamma = np.random.default_rng(spec.k).standard_normal(spec.s)
        S = self._plan(spec, "gamma").shift
        assert S.shape == (spec.s, spec.s)
        assert np.max(np.abs(S @ gamma - _shifted_coefficients(gamma))) \
            <= 1e-13

    @pytest.mark.parametrize("spec", SHIFT_SPECS, ids=str)
    def test_full_stage_shift_agrees_through_T(self, spec):
        # u = R f(Y): with f(Y) the derivative polynomial at the nodes, the
        # shift must give R times its values one interval ahead
        gamma = np.random.default_rng(spec.k).standard_normal(spec.s)
        series, _ = _legendre_series(gamma)
        tau = abscissae(spec).tau
        plan = self._plan(spec, "rk")
        u = plan.R @ series(2 * tau - 1)
        ahead = plan.R @ series(2 * tau + 1)
        assert plan.shift.shape == (spec.s, spec.s)
        # u holds the coefficients gamma, on the scale of f, so the bound
        # is relative to it
        assert np.max(np.abs(plan.shift @ u - ahead)) \
            <= 1e-13 * np.max(np.abs(ahead))

    @pytest.mark.parametrize("spec", SHIFT_SPECS, ids=str)
    def test_both_forms_share_one_plan(self, spec):
        # both forms iterate on gamma with the spec's own factors; only the
        # weights b differ, None in the coefficient form
        rk, gamma = self._plan(spec, "rk"), self._plan(spec, "gamma")
        for name in ("L", "R", "M", "shift"):
            a, b = getattr(rk, name), getattr(gamma, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
        assert gamma.b is None
        assert rk.b.tobytes() == hbvm_tableau(spec).b.tobytes()
        bm = basis_matrices(abscissae(spec), spec.s)
        assert rk.R.tobytes() == (bm.P_s.T @ bm.Omega).tobytes()

    @pytest.mark.parametrize("cfg", [TIGHT, NEWTON], ids=["fixed", "newton"])
    @pytest.mark.parametrize("mode", ["rk", "gamma"])
    @pytest.mark.parametrize("name,spec", [("kepler", HbvmSpec(12, 4)),
                                           ("sextic", HbvmSpec(6, 2))],
                             ids=["kepler", "sextic"])
    def test_one_plan_steps_at_every_step_size(self, name, spec, mode, cfg):
        # the plan holds no step size: one plan, stepped at each h, is the
        # run that integrate builds its own plan for at that h
        prob = get_problem(name)
        plan = integrator._run_plan(spec, prob.system, cfg, mode)
        for h in (0.05, 0.2):
            traj = integrate(spec, prob.system, prob.default_y0, h, 20, cfg,
                             mode=mode)
            steps = integrator._steps(plan, h, prob.default_y0)
            for n in range(1, 21):
                y, _, diag, jacobians = next(steps)
                assert y.tobytes() == traj.states[n].tobytes(), (h, n)
                assert diag.iterations == traj.iteration_counts[n]
                assert jacobians == traj.jacobian_counts[n]

    def test_bare_tableau_has_no_shift(self):
        assert self._plan(gauss_collocation_tableau(3), "rk").shift is None
        assert self._plan(hbvm_tableau(HbvmSpec(6, 2)), "rk").shift is None

    @pytest.mark.parametrize("cfg", [TIGHT, NEWTON], ids=["fixed", "newton"])
    def test_bare_tableau_run_is_a_loop_of_rk_step(self, monkeypatch, cfg):
        # a negative threshold counts every step as contracting slowly, so
        # Newton builds a fresh matrix at every step, as rk_step does
        monkeypatch.setattr(integrator, "REFRESH_CONTRACTION", -1.0)
        sext = get_problem("sextic")
        tab = hbvm_tableau(HbvmSpec(6, 2))
        traj = integrate(tab, sext.system, sext.default_y0, 0.1, 40, cfg)
        y = sext.default_y0
        for n in range(1, 41):
            y, diag = rk_step(tab, sext.system, y, 0.1, cfg)
            assert traj.states[n].tobytes() == y.tobytes()
            assert traj.iteration_counts[n] == diag.iterations
        if cfg.mode == "newton":
            assert traj.jacobian_counts[1:].tolist() == [1] * 40

    def test_warm_start_saves_iterations(self):
        sext = get_problem("sextic")
        spec = HbvmSpec(6, 2)
        warm = integrate(spec, sext.system, sext.default_y0, 0.1, 1000)
        cold = integrate(hbvm_tableau(spec), sext.system, sext.default_y0,
                         0.1, 1000)
        assert warm.iteration_counts[1] == cold.iteration_counts[1]
        assert warm.iteration_counts.sum() < cold.iteration_counts.sum()
        assert np.max(np.abs(warm.states - cold.states)) <= 1e-11

    @staticmethod
    def _kepler_newton(marked, mode):
        # the configuration of the kepler-gamma benchmark workload; one
        # matrix for the whole run
        kep = get_problem("kepler")
        system = kep.system if marked else _unmarked(kep.system)
        traj = integrate(HbvmSpec(12, 4), system, kep.default_y0, 0.05,
                         500, SolverConfig(mode="newton"), mode=mode)
        assert traj.jacobian_counts.tolist() == [0, 1] + [0] * 499
        return traj.iteration_counts.sum()

    def test_kepler_newton_counts(self):
        # without grad_V: Newton on the whole u
        assert self._kepler_newton(False, "gamma") == 1830

    def test_kepler_second_order_newton_counts(self):
        # as the catalog builds it: Newton on u_p
        assert self._kepler_newton(True, "gamma") == 1664

    @staticmethod
    def _sextic_fixed_iterations(marked):
        # the configuration of the sextic-fixed benchmark workload
        sext = get_problem("sextic")
        system = sext.system if marked else _unmarked(sext.system)
        traj = integrate(HbvmSpec(6, 2), system, sext.default_y0, 0.1,
                         1000, SolverConfig(tol=1e-15))
        return traj.iteration_counts.sum()

    def test_sextic_fixed_point_counts_at_tol_1e_15(self):
        # without grad_V: the first-order iteration on the whole u
        assert self._sextic_fixed_iterations(False) == 10053

    def test_sextic_second_order_counts_at_tol_1e_15(self):
        # as the catalog builds it: the second-order iteration on u_p
        assert self._sextic_fixed_iterations(True) == 5753

    def test_full_stage_kepler_newton_counts(self):
        # full-stage Newton on an HbvmSpec, without grad_V and with it
        assert self._kepler_newton(False, "rk") == 1662
        assert self._kepler_newton(True, "rk") == 1339


class TestBuiltTableauSteps:
    # hbvm_tableau(spec) carries the spec's own factors, so a step of the
    # bare tableau runs the plan of the spec's first step
    SPECS = [spec for spec, _ in spec_matrix(4, 8)]

    @pytest.mark.parametrize("cfg", [SolverConfig(),
                                     SolverConfig(mode="newton")],
                             ids=["fixed", "newton"])
    @pytest.mark.parametrize("name", ["henon-heiles", "kepler"])
    def test_rk_step_is_step_one_of_integrate(self, name, cfg):
        prob = get_problem(name)
        for spec in self.SPECS:
            y1, _ = rk_step(hbvm_tableau(spec), prob.system, prob.default_y0,
                            0.05, cfg)
            traj = integrate(spec, prob.system, prob.default_y0, 0.05, 1, cfg)
            assert y1.tobytes() == traj.states[1].tobytes(), spec

    @pytest.mark.parametrize("cfg", [SolverConfig(),
                                     SolverConfig(mode="newton")],
                             ids=["fixed", "newton"])
    @pytest.mark.parametrize("name", ["henon-heiles", "kepler", "pendulum"])
    @pytest.mark.parametrize("mode", ["rk", "gamma"])
    def test_single_step_is_step_one_of_integrate(self, mode, name, cfg):
        # both single steps take step 1 of a run, bit for bit, with its
        # iteration count
        prob = get_problem(name)
        for spec in self.SPECS:
            if mode == "rk":
                y1, diag = rk_step(hbvm_tableau(spec), prob.system,
                                   prob.default_y0, 0.05, cfg)
            else:
                y1, _, diag = gamma_step(spec, prob.system, prob.default_y0,
                                         0.05, cfg)
            traj = integrate(spec, prob.system, prob.default_y0, 0.05, 1, cfg,
                             mode=mode)
            assert y1.tobytes() == traj.states[1].tobytes(), spec
            assert diag.iterations == traj.iteration_counts[1], spec

    @pytest.mark.parametrize("cfg", [TIGHT, NEWTON], ids=["fixed", "newton"])
    def test_json_round_trip_steps_agree(self, cfg):
        # the parsed tableau has no factors of its own and takes the SVD's
        kep = get_problem("kepler")
        for spec in self.SPECS:
            tab = hbvm_tableau(spec)
            back = tableau_from_json(tableau_to_json(tab))
            y_built, _ = rk_step(tab, kep.system, kep.default_y0, 0.05, cfg)
            y_back, _ = rk_step(back, kep.system, kep.default_y0, 0.05, cfg)
            assert np.max(np.abs(y_back - y_built)) <= 1e-13, spec


class TestStateShape:
    @pytest.mark.parametrize("length", [2, 6])
    @pytest.mark.parametrize("mode", ["rk", "gamma"])
    def test_integrate_rejects_wrong_length(self, length, mode):
        kep = get_problem("kepler")
        with pytest.raises(ValueError, match=rf"\({length},\).*dim 4"):
            integrate(HbvmSpec(4, 2), kep.system, np.ones(length), 0.1, 2,
                      mode=mode)

    @pytest.mark.parametrize("length", [2, 6])
    def test_single_steps_reject_wrong_length(self, length):
        kep = get_problem("kepler")
        spec = HbvmSpec(4, 2)
        with pytest.raises(ValueError, match=rf"\({length},\).*dim 4"):
            rk_step(hbvm_tableau(spec), kep.system, np.ones(length), 0.1)
        with pytest.raises(ValueError, match=rf"\({length},\).*dim 4"):
            gamma_step(spec, kep.system, np.ones(length), 0.1)


class TestBatchedVectorField:
    @staticmethod
    def _per_point_sextic(marked=True):
        """The catalog sextic, called one state at a time; like the catalog's,
        it carries grad_V unless told otherwise."""
        sext = get_problem("sextic").system

        def H(y):
            assert y.ndim == 1
            return sext.H(y)

        def grad_H(y):
            assert y.ndim == 1
            return sext.grad_H(y)

        def grad_V(q):
            assert q.shape == (1,)
            return sext.grad_V(q)

        return HamiltonianSystem(dim=2, H=H, grad_H=grad_H, poly_degree=6,
                                 grad_V=grad_V if marked else None)

    @pytest.mark.parametrize("mode", ["rk", "gamma"])
    @pytest.mark.parametrize("cfg", [TIGHT, NEWTON], ids=["fixed", "newton"])
    def test_per_point_fallback_is_unchanged(self, mode, cfg):
        self._check_per_point(True, mode, cfg)

    @pytest.mark.parametrize("mode", ["rk", "gamma"])
    def test_unmarked_per_point_fallback_is_unchanged(self, mode):
        self._check_per_point(False, mode, TIGHT)

    # Newton on the whole u, which a system with grad_V no longer takes
    @pytest.mark.parametrize("mode", ["rk", "gamma"])
    def test_unmarked_per_point_newton_is_unchanged(self, mode):
        self._check_per_point(False, mode, NEWTON)

    def _check_per_point(self, marked, mode, cfg):
        # like is compared with like: both systems with grad_V, or both not
        sext = get_problem("sextic")
        system = sext.system if marked else _unmarked(sext.system)
        per_point = self._per_point_sextic(marked)
        assert not per_point.vectorized and system.vectorized
        spec = HbvmSpec(6, 2)
        ref = integrate(spec, system, sext.default_y0, 0.1, 50, cfg,
                        mode=mode)
        traj = integrate(spec, per_point, sext.default_y0, 0.1, 50, cfg,
                         mode=mode)
        assert np.array_equal(traj.iteration_counts, ref.iteration_counts)
        assert np.array_equal(traj.jacobian_counts, ref.jacobian_counts)
        assert np.max(np.abs(traj.states - ref.states)) <= 1e-14
        assert np.max(np.abs(traj.energies - ref.energies)) <= 1e-14

    # grad_H calls per step minus iterations: the final update (rk fixed
    # point; Newton's rk update reads the field of the residual that met
    # tol), that residual, and the Jacobian's single block call.
    @pytest.mark.parametrize("mode,cfg,iters,extra", [
        ("rk", SolverConfig(tol=1e-14), 14, 1),
        ("gamma", SolverConfig(tol=1e-14), 14, 0),
        ("rk", NEWTON, 6, 2),
        ("gamma", NEWTON, 6, 2),
    ], ids=["rk-fixed", "gamma-fixed", "rk-newton", "gamma-newton"])
    @pytest.mark.parametrize("k", [4, 12])
    def test_grad_H_calls_do_not_grow_with_k(self, mode, cfg, iters, extra,
                                             k):
        # without grad_V: both solvers iterate on the whole u
        calls, _ = self._check_step_calls(False, mode, cfg, iters, k)
        assert len(calls) == iters + extra

    # with grad_V, each iteration is one grad_V call on the (k, m) block of
    # stage coordinates, and grad_H is never called; the extra calls are
    # those above, with Newton's Jacobian the Hessian of V, one grad_V call
    # on m + 1 = 3 coordinate states
    @pytest.mark.parametrize("mode,cfg,iters,extra", [
        ("rk", SolverConfig(tol=1e-14), 8, 1),
        ("gamma", SolverConfig(tol=1e-14), 8, 0),
        ("rk", NEWTON, 5, 2),
        ("gamma", NEWTON, 6, 2),
    ], ids=["rk-fixed", "gamma-fixed", "rk-newton", "gamma-newton"])
    @pytest.mark.parametrize("k", [4, 12])
    def test_second_order_grad_V_calls_do_not_grow_with_k(self, mode, cfg,
                                                          iters, extra, k):
        grad_H, grad_V = self._check_step_calls(True, mode, cfg, iters, k)
        assert grad_H == []
        hessian = [(3, 2)] if cfg.mode == "newton" else []
        assert grad_V == hessian + [(k, 2)] * (iters + extra - len(hessian))

    @staticmethod
    def _check_step_calls(marked, mode, cfg, iters, k):
        """The shapes of the grad_H and of the grad_V calls of one step."""
        kep = get_problem("kepler")
        grad_H, grad_V = [], []

        def counted_H(y):
            grad_H.append(y.shape)
            return kep.system.grad_H(y)

        def counted_V(q):
            grad_V.append(q.shape)
            return kep.system.grad_V(q)

        system = dataclasses.replace(kep.system, grad_H=counted_H,
                                     grad_V=counted_V if marked else None)
        spec = HbvmSpec(k, 2)
        if mode == "rk":
            _, diag = rk_step(hbvm_tableau(spec), system, kep.default_y0,
                              0.05, cfg)
        else:
            _, _, diag = gamma_step(spec, system, kep.default_y0, 0.05, cfg)
        assert diag.iterations == iters
        return grad_H, grad_V

    # over a whole run: every iteration evaluates the stages once; the rk
    # fixed-point update evaluates them once more, and Newton evaluates the
    # residual that met tol once per step and its Jacobian's block once per
    # fresh matrix
    @pytest.mark.parametrize("mode,cfg,calls", [
        ("rk", SolverConfig(), 310),
        ("gamma", SolverConfig(), 292),
        ("rk", SolverConfig(mode="newton"), 224),
        ("gamma", SolverConfig(mode="newton"), 245),
    ], ids=["rk-fixed", "gamma-fixed", "rk-newton", "gamma-newton"])
    def test_grad_H_calls_over_a_run(self, mode, cfg, calls):
        # without grad_V: both solvers iterate on the whole u
        self._check_run_calls(False, mode, cfg, calls)

    # the same counts, in grad_V calls, with grad_V; grad_H is never called
    @pytest.mark.parametrize("mode,cfg,calls", [
        ("rk", SolverConfig(), 222),
        ("gamma", SolverConfig(), 181),
        ("rk", SolverConfig(mode="newton"), 196),
        ("gamma", SolverConfig(mode="newton"), 224),
    ], ids=["rk-fixed", "gamma-fixed", "rk-newton", "gamma-newton"])
    def test_second_order_grad_V_calls_over_a_run(self, mode, cfg, calls):
        self._check_run_calls(True, mode, cfg, calls)

    @staticmethod
    def _check_run_calls(marked, mode, cfg, calls):
        kep = get_problem("kepler")
        counted, never = [], []

        def count_into(calls, fn):
            def counting(y):
                calls.append(y.shape)
                return fn(y)
            return counting

        if marked:
            system = dataclasses.replace(
                kep.system, grad_H=count_into(never, kep.system.grad_H),
                grad_V=count_into(counted, kep.system.grad_V))
        else:
            system = dataclasses.replace(
                _unmarked(kep.system),
                grad_H=count_into(counted, kep.system.grad_H))
        n_steps = 50
        traj = integrate(HbvmSpec(12, 4), system, kep.default_y0, 0.05,
                         n_steps, cfg, mode=mode)
        assert traj.jacobian_counts.max() <= 1  # no step was retried
        expect = traj.iteration_counts.sum()
        if cfg.mode == "newton":
            expect += n_steps + np.count_nonzero(traj.jacobian_counts)
        elif mode == "rk":
            expect += n_steps
        assert len(counted) == expect == calls
        assert never == []

    def test_non_canonical_structure_matrix(self):
        harm = get_problem("harmonic").system
        J = np.array([[0.0, 2.0], [-2.0, 0.0]])
        system = dataclasses.replace(harm, J=J)
        Y = np.random.default_rng(4).uniform(-1.0, 1.0, size=(7, 2))
        F = system.f(Y)
        for y, row in zip(Y, F):
            assert np.array_equal(row, J @ y)
            assert np.array_equal(system.f(y), row)

    @pytest.mark.parametrize("J", [None, [[0.0, 2.0], [-2.0, 0.0]]],
                             ids=["canonical", "scaled"])
    def test_structure_matrix_is_a_private_read_only_copy(self, J):
        harm = get_problem("harmonic").system
        caller = integrator.canonical_symplectic_matrix(2) if J is None \
            else np.array(J)
        system = dataclasses.replace(harm, J=caller)
        y = np.array([1.0, 2.0])
        before = system.f(y)
        caller[0, 1], caller[1, 0] = 7.0, -5.0
        assert np.array_equal(system.f(y), before)
        with pytest.raises(ValueError):
            system.J[0, 1] = 5.0
        again = dataclasses.replace(system)
        assert not again.J.flags.writeable
        assert np.array_equal(again.f(y), before)

    def test_field_jacobian_is_one_block_call(self):
        kep = get_problem("kepler")
        calls = []

        def counted(y):
            calls.append(y.shape)
            return kep.system.grad_H(y)

        system = dataclasses.replace(kep.system, grad_H=counted)
        y = kep.default_y0
        Jf = integrator._field_jacobian(system.f, y)
        assert calls == [(5, 4)]
        per_point = self._per_point_sextic()
        sext = get_problem("sextic")
        assert np.array_equal(
            integrator._field_jacobian(per_point.f, sext.default_y0),
            integrator._field_jacobian(sext.system.f, sext.default_y0))
        # Kepler at perihelion: d(p)/dt = -q / |q|^3 has Jacobian block
        # -(I - 3 q q^T / |q|^2) / |q|^3, here diag(2, -1) / |q|^3
        r = y[0]
        assert np.diag(Jf[2:, :2]) == pytest.approx(
            np.array([2.0, -1.0]) / r ** 3, rel=1e-6)
        # a one-sided difference leaves its truncation error h/2 |f''| on
        # the zeros: h = sqrt(eps) at q2 = 0, and d^2(-q1/|q|^3)/dq2^2 is
        # 3/r^4 there; allow twice that term, for rounding
        off = Jf[2:, :2][~np.eye(2, dtype=bool)]
        h = np.sqrt(np.finfo(float).eps)
        assert np.max(np.abs(off)) <= h * 3.0 / r ** 4
        assert np.array_equal(Jf[:2, 2:], np.eye(2))

    @pytest.mark.parametrize("name", [p.name for p in catalog()])
    def test_per_point_field_jacobian_takes_dim_plus_one_states(self, name):
        # one-sided differences: the dim perturbed states and y itself,
        # each its own one-row grad_H call on a non-vectorized system
        prob = get_problem(name)
        rows = []

        def grad_H(y):
            assert y.ndim == 1
            rows.append(y.copy())
            return prob.system.grad_H(y)

        per_point = HamiltonianSystem(dim=prob.system.dim, H=prob.system.H,
                                      grad_H=grad_H)
        y = prob.default_y0
        integrator._field_jacobian(per_point.f, y)
        assert len(rows) == y.size + 1
        assert np.array_equal(rows[-1], y)

    @pytest.mark.parametrize("vectorized", [True, False],
                             ids=["block", "per-point"])
    def test_newton_hessian_takes_m_plus_one_states(self, lu_orders,
                                                    vectorized):
        # with grad_V, Newton's Jacobian is the Hessian of V: grad_V on the
        # m perturbed coordinates and q0 itself, in one block call or one
        # call per state, and its blocks are m-square
        kep = get_problem("kepler")
        calls, grad_H = [], []

        def grad_V(q):
            calls.append(q.copy())
            return kep.system.grad_V(q)

        system = dataclasses.replace(kep.system, grad_V=grad_V,
                                     grad_H=grad_H.append,
                                     vectorized=vectorized)
        y0 = kep.default_y0
        plan = integrator._run_plan(HbvmSpec(12, 4), system, NEWTON, "gamma")
        inverse = integrator._newton_correction(plan, 0.05, y0)
        assert inverse.shape == (4 * 2, 4 * 2)
        assert lu_orders == [(2, 2), (2, 2)]
        assert grad_H == []
        rows = np.concatenate(calls) if vectorized else np.array(calls)
        assert [c.shape for c in calls] == ([(3, 2)] if vectorized
                                            else [(2,)] * 3)
        assert np.array_equal(rows[-1], y0[:2])
        # row i moves coordinate i alone, forward
        steps = rows[:2] - y0[:2]
        assert np.all(np.diag(steps) > 0)
        assert np.array_equal(steps, np.diag(np.diag(steps)))


class TestSecondOrderFixedPoint:
    # A marked system (one with grad_V, on the canonical J) runs fixed point
    # and Newton on u_p alone, u_q = R 1 p0^T + h M u_p implied by it; every
    # other run takes the first-order iteration on the whole u.
    STEP = {"kepler": 0.05}

    @staticmethod
    def _pair(method, system, y0, h, n_steps, cfg, mode="rk"):
        """The runs of the system with its grad_V and without."""
        return tuple(integrate(method, sys, y0, h, n_steps, cfg, mode=mode)
                     for sys in (system, _unmarked(system)))

    @staticmethod
    def _assert_same_bytes(marked, unmarked):
        for name in ("states", "energies", "iteration_counts",
                     "jacobian_counts"):
            assert getattr(marked, name).tobytes() \
                == getattr(unmarked, name).tobytes(), name

    def test_plan_reduces_only_a_marked_run(self):
        sext = get_problem("sextic").system
        spec = HbvmSpec(6, 2)
        for cfg in (SolverConfig(), NEWTON):
            plan = integrator._run_plan(spec, sext, cfg, "rk")
            # the steps iterate on u_p, r x m with m = 1
            y0 = np.array([1.0, 1.0])
            assert next(integrator._steps(plan, 0.1, y0))[1].shape == (2, 1)
            # for an HBVM R 1 = e_1: only the constant basis polynomial has
            # a nonzero mean
            assert plan.r1.tolist() == [1.0, 0.0]
            assert np.array_equal(plan.RF, -plan.R)
            # a vectorized grad_V is called as it is
            assert plan.field is sext.grad_V
            plan = integrator._run_plan(spec, _unmarked(sext), cfg, "rk")
            assert plan.r1 is None

    @pytest.mark.parametrize("mode", ["rk", "gamma"])
    def test_non_canonical_structure_keeps_the_first_order_path(self, mode):
        harm = get_problem("harmonic")
        system = dataclasses.replace(harm.system, J=2.0 * harm.system.J)
        self._assert_same_bytes(*self._pair(HbvmSpec(6, 2), system,
                                            harm.default_y0, 0.1, 50, TIGHT,
                                            mode))

    # Newton on u_p converges to the stages of Newton on the whole u; over
    # 20 steps the states were measured at most 0.27 tol apart, and are
    # checked at 10 tol
    @pytest.mark.parametrize("mode", ["rk", "gamma"])
    @pytest.mark.parametrize("name", [p.name for p in catalog()])
    def test_newton_agrees_with_the_first_order_run(self, name, mode):
        prob = get_problem(name)
        h = self.STEP.get(name, 0.1)
        marked, unmarked = self._pair(HbvmSpec(6, 2), prob.system,
                                      prob.default_y0, h, 20, NEWTON, mode)
        assert np.max(np.abs(marked.states - unmarked.states)) \
            <= 10 * NEWTON.tol

    @pytest.mark.parametrize("mode", ["rk", "gamma"])
    def test_odd_dimension_keeps_the_first_order_path(self, mode):
        # a marked odd-dim system has no (q, p) halves: it runs, unreduced
        J = np.array([[0.0, 1.0, 0.5], [-1.0, 0.0, 2.0], [-0.5, -2.0, 0.0]])
        system = HamiltonianSystem(
            dim=3, H=lambda y: 0.5 * np.sum(y * y, axis=-1),
            grad_H=lambda y: y.astype(float), J=J, vectorized=True,
            grad_V=lambda q: q)
        self._assert_same_bytes(*self._pair(HbvmSpec(4, 2), system,
                                            np.array([1.0, 0.5, -0.5]), 0.1,
                                            20, SolverConfig(), mode))

    @pytest.mark.parametrize("cfg", [SolverConfig(), TIGHT],
                             ids=["default", "tight"])
    @pytest.mark.parametrize("name", [p.name for p in catalog()])
    def test_full_rank_tableau_agrees_with_the_first_order_run(self, name,
                                                               cfg):
        # the SVD factors of a full-rank A have R 1 != e_1; the q-half
        # r1 p0^T + h R L u_p is exact for any factors.  Measured: at most
        # 0.26 tol apart over 20 steps, 6.0 over 100; 20 steps are checked
        # at 10 tol
        tab = gauss_collocation_tableau(3)
        _, R = tab.low_rank
        assert np.max(np.abs(R.sum(axis=1) - np.eye(3)[0])) > 0.1
        prob = get_problem(name)
        marked, unmarked = self._pair(tab, prob.system, prob.default_y0,
                                      self.STEP.get(name, 0.1), 20, cfg)
        assert np.max(np.abs(marked.states - unmarked.states)) \
            <= 10 * cfg.tol
        assert marked.iteration_counts.sum() < unmarked.iteration_counts.sum()

    # the step iterates on gamma_p alone, and gamma_step rebuilds
    # gamma_q = R 1 p0^T + h M gamma_p: measured at most 0.23 tol from the
    # whole-u step's gamma, checked at 10 tol, and y1 = y0 + h gamma_1
    # exactly
    @pytest.mark.parametrize("cfg", [TIGHT, NEWTON], ids=["fixed", "newton"])
    @pytest.mark.parametrize("name", ["sextic", "henon-heiles", "kepler"])
    def test_gamma_step_returns_the_whole_gamma(self, name, cfg):
        prob = get_problem(name)
        spec, y0, h = HbvmSpec(12, 4), prob.default_y0, 0.05
        y1, state, _ = gamma_step(spec, prob.system, y0, h, cfg)
        _, ref, _ = gamma_step(spec, _unmarked(prob.system), y0, h, cfg)
        assert state.gamma.shape == ref.gamma.shape == (4, y0.size)
        assert np.max(np.abs(state.gamma - ref.gamma)) <= 10 * cfg.tol
        assert np.max(np.abs(state.stage_values - ref.stage_values)) \
            <= 10 * cfg.tol
        assert np.array_equal(y1, y0 + h * state.gamma[0])

    def test_rank_zero_tableau_is_unchanged(self):
        # explicit Euler has no unknowns to reduce: equal to the last bit
        sext = get_problem("sextic")
        euler = TestLowRankStageCore.EULER
        self._assert_same_bytes(*self._pair(euler, sext.system,
                                            sext.default_y0, 0.01, 20,
                                            SolverConfig()))

    # 100 steps at tol 1e-15 over the catalog x 3 specs x both forms:
    # states measured at most 1.6e-14 apart (5.9e-13 after 500 steps), and
    # every run within criterion 7's relative energy drift of 1e-11
    @pytest.mark.parametrize("mode", ["rk", "gamma"])
    @pytest.mark.parametrize("spec", [HbvmSpec(6, 2), HbvmSpec(12, 4),
                                      HbvmSpec(6, 3)],
                             ids=lambda spec: f"k{spec.k}-s{spec.s}")
    @pytest.mark.parametrize("name", [p.name for p in catalog()])
    def test_catalog_runs_agree_with_the_first_order_runs(self, name, spec,
                                                          mode):
        prob = get_problem(name)
        marked, unmarked = self._pair(spec, prob.system, prob.default_y0,
                                      self.STEP.get(name, 0.1), 100, TIGHT,
                                      mode)
        assert np.max(np.abs(marked.states - unmarked.states)) <= 1e-13
        assert energy_drift(marked)[0] <= 1e-11 * abs(marked.energies[0])
        assert marked.iteration_counts.sum() < unmarked.iteration_counts.sum()


def _analytic_hessian(name, q):
    """grad^2 V of a catalog problem at the coordinates q, written out by
    hand."""
    return {
        "harmonic": lambda: np.ones((1, 1)),
        "quartic": lambda: np.array([[3.0 * q[0] ** 2]]),
        "sextic": lambda: np.array([[5.0 * q[0] ** 4]]),
        "pendulum": lambda: np.array([[np.cos(q[0])]]),
        "henon-heiles": lambda: np.array([[1.0 + 2.0 * q[1], 2.0 * q[0]],
                                          [2.0 * q[0], 1.0 - 2.0 * q[1]]]),
        "kepler": lambda: ((np.eye(2) - 3.0 * np.outer(q, q) / (q @ q))
                           / (q @ q) ** 1.5),
    }[name]()


def _analytic_field_jacobian(name, y):
    """J grad^2 H = [[0, I], [-grad^2 V, 0]] for a catalog problem."""
    m = y.size // 2
    zero = np.zeros((m, m))
    return np.block([[zero, np.eye(m)],
                     [-_analytic_hessian(name, y[:m]), zero]])


@pytest.mark.parametrize("name", [p.name for p in catalog()])
def test_field_jacobian_matches_the_analytic_jacobian(name):
    # bound fixed before measuring; one-sided differences measured at most
    # 1.1e-7 over the catalog (central ones 4.0e-9)
    prob = get_problem(name)
    rng = np.random.default_rng(0)
    y0 = prob.default_y0
    states = [y0] + [y0 + rng.uniform(-0.2, 0.2, y0.size) for _ in range(20)]
    for y in states:
        ref = _analytic_field_jacobian(name, y)
        err = np.max(np.abs(integrator._field_jacobian(prob.system.f, y)
                            - ref))
        assert err <= 1e-6 * max(1.0, np.max(np.abs(ref))), y


@pytest.mark.parametrize("name", [p.name for p in catalog()])
def test_hessian_matches_the_analytic_hessian(name):
    # the same one-sided difference on grad_V, with the same bound
    prob = get_problem(name)
    rng = np.random.default_rng(0)
    y0 = prob.default_y0
    m = y0.size // 2
    states = [y0] + [y0 + rng.uniform(-0.2, 0.2, y0.size) for _ in range(20)]
    for y in states:
        ref = _analytic_hessian(name, y[:m])
        hess = integrator._field_jacobian(prob.system.grad_V, y[:m],
                                          "grad V")
        assert hess.shape == (m, m)
        err = np.max(np.abs(hess - ref))
        assert err <= 1e-6 * max(1.0, np.max(np.abs(ref))), y


class TestGammaStep:
    WEAK = HbvmSpec(3, 2, NodeFamily.CUSTOM, nodes=(0.2, 0.5, 0.9))

    def test_checks_quadrature_exactness(self):
        harm = get_problem("harmonic")
        with pytest.raises(ValueError, match="quadrature too weak"):
            gamma_step(self.WEAK, harm.system, harm.default_y0, 0.1)

    def test_checks_step_size_before_building(self):
        # a weak rule and a zero step: the step size is named, as rk_step
        # and integrate name it
        harm = get_problem("harmonic")
        spec = HbvmSpec(2, 2, NodeFamily.CUSTOM, nodes=(0.3, 0.7))
        with pytest.raises(ValueError, match="step size"):
            gamma_step(spec, harm.system, harm.default_y0, 0.0)

    @pytest.mark.parametrize("mode", ["rk", "gamma"])
    def test_integrate_checks_quadrature_exactness(self, mode):
        harm = get_problem("harmonic")
        with pytest.raises(ValueError, match="quadrature too weak"):
            integrate(self.WEAK, harm.system, harm.default_y0, 0.1, 5,
                      mode=mode)

    def test_matches_rk_step_on_sextic(self):
        sext = get_problem("sextic")
        spec = HbvmSpec(6, 2)
        tab = hbvm_tableau(spec)
        y_rk, _ = rk_step(tab, sext.system, sext.default_y0, 0.1, TIGHT)
        y_g, state, _ = gamma_step(spec, sext.system, sext.default_y0, 0.1, TIGHT)
        assert np.max(np.abs(y_g - y_rk)) <= 10 * TIGHT.tol
        assert state.gamma.shape == (2, 2)
        assert state.stage_values.shape == (6, 2)

    def test_single_coefficient_identities(self):
        harm = get_problem("harmonic")
        spec = HbvmSpec(4, 1)
        y0 = np.array([1.0, 0.0])
        y1, state, _ = gamma_step(spec, harm.system, y0, 0.1, TIGHT)
        quad = abscissae(spec)
        g1 = sum(w * harm.system.f(stage)
                 for w, stage in zip(quad.omega, state.stage_values))
        assert np.max(np.abs(state.gamma[0] - g1)) <= 1e-14
        assert np.max(np.abs(y1 - (y0 + 0.1 * state.gamma[0]))) <= 1e-15

    def test_stage_reconstruction_invariant(self):
        quart = get_problem("quartic")
        spec = HbvmSpec(5, 2)
        y0 = quart.default_y0
        h = 0.05
        _, state, _ = gamma_step(spec, quart.system, y0, h, TIGHT)
        from hbvm.tableau import basis_matrices
        bm = basis_matrices(abscissae(spec), spec.s)
        recon = y0 + h * (bm.I_s @ state.gamma)
        assert np.max(np.abs(recon - state.stage_values)) <= 1e-15

    def test_pendulum_practical_conservation_one_step(self):
        pend = get_problem("pendulum")
        y0 = pend.default_y0
        y1, _, _ = gamma_step(HbvmSpec(8, 2), pend.system, y0, 0.1, TIGHT)
        assert abs(pend.system.H(y1) - pend.system.H(y0)) <= 1e-10

    def test_equivalence_across_catalog(self):
        # step sizes keep every problem inside the fixed-point contraction
        steps = {"harmonic": 0.1, "quartic": 0.1, "sextic": 0.1,
                 "pendulum": 0.1, "henon-heiles": 0.1, "kepler": 0.01}
        spec = HbvmSpec(6, 2)
        tab = hbvm_tableau(spec)
        for prob in catalog():
            h = steps[prob.name]
            y_rk, _ = rk_step(tab, prob.system, prob.default_y0, h, TIGHT)
            y_g, _, _ = gamma_step(spec, prob.system, prob.default_y0, h, TIGHT)
            assert np.max(np.abs(y_g - y_rk)) <= 10 * TIGHT.tol, prob.name


class TestIntegrate:
    def test_harmonic_energy_to_roundoff(self):
        harm = get_problem("harmonic")
        traj = integrate(HbvmSpec(2, 2), harm.system, harm.default_y0,
                         0.05, 200, TIGHT)
        assert energy_drift(traj)[0] <= 1e-12

    def test_henon_heiles_conservation_at_threshold(self):
        hh = get_problem("henon-heiles")
        traj = integrate(HbvmSpec(3, 2), hh.system, hh.default_y0,
                         0.05, 1000, TIGHT)
        assert energy_drift(traj)[0] <= 1e-11

    def test_henon_heiles_below_threshold_contrast(self):
        hh = get_problem("henon-heiles")
        traj = integrate(HbvmSpec(2, 2), hh.system, hh.default_y0,
                         0.05, 1000, TIGHT)
        assert energy_drift(traj)[0] > 1e-9

    # J = [[0, I], [-I, C]] with a skew C: the line-integral argument needs
    # only a constant skew J, so the degree-3 threshold k >= 3 s / 2 holds.
    @pytest.mark.parametrize("mode", ["rk", "gamma"])
    @pytest.mark.parametrize("k,conserved", [(3, True), (2, False)])
    def test_henon_heiles_non_canonical_threshold(self, mode, k, conserved):
        hh = get_problem("henon-heiles")
        C = 0.5 * np.array([[0.0, 1.0], [-1.0, 0.0]])
        J = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), C]])
        system = dataclasses.replace(hh.system, J=J)
        traj = integrate(HbvmSpec(k, 2), system, hh.default_y0, 0.1, 1000,
                         TIGHT, mode=mode)
        drift = energy_drift(traj)[0]
        assert drift <= 1e-13 if conserved else drift > 1e-9

    def test_gamma_mode_trajectory(self):
        sext = get_problem("sextic")
        t_rk = integrate(HbvmSpec(6, 2), sext.system, sext.default_y0,
                         0.1, 20, TIGHT, mode="rk")
        t_g = integrate(HbvmSpec(6, 2), sext.system, sext.default_y0,
                        0.1, 20, TIGHT, mode="gamma")
        assert np.max(np.abs(t_rk.states - t_g.states)) <= 1e-12

    def test_equilibrium_trajectory_is_constant(self):
        pend = get_problem("pendulum")
        traj = integrate(HbvmSpec(2, 1), pend.system, np.zeros(2), 0.1, 25)
        assert np.all(traj.states == 0.0)
        assert energy_drift(traj) == (0.0, 0.0)

    def test_shapes_and_grid(self):
        harm = get_problem("harmonic")
        traj = integrate(HbvmSpec(2, 2), harm.system, harm.default_y0, 0.1, 7)
        assert traj.times.shape == (8,)
        assert traj.states.shape == (8, 2)
        assert traj.energies.shape == (8,)
        assert traj.iteration_counts.shape == (8,)
        assert traj.iteration_counts[0] == 0
        assert np.max(np.abs(np.diff(traj.times) - 0.1)) <= 1e-15

    def test_propagates_step_index_on_failure(self):
        kep = get_problem("kepler")
        with pytest.raises(StageConvergenceError, match="step 1"):
            integrate(HbvmSpec(6, 2), kep.system, kep.default_y0, 1.0, 3)

    @pytest.mark.parametrize("h", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_step_size(self, h):
        harm = get_problem("harmonic")
        spec = HbvmSpec(2, 1)
        y0 = harm.default_y0
        with pytest.raises(ValueError, match="step size"):
            integrate(spec, harm.system, y0, h, 3)
        with pytest.raises(ValueError, match="step size"):
            rk_step(hbvm_tableau(spec), harm.system, y0, h)
        with pytest.raises(ValueError, match="step size"):
            gamma_step(spec, harm.system, y0, h)

    @pytest.mark.parametrize("n_steps", [2.5, True, np.float64(3.0)],
                             ids=repr)
    def test_rejects_a_bool_or_non_integer_step_count(self, n_steps):
        harm = get_problem("harmonic")
        with pytest.raises(ValueError,
                           match=r"^n_steps must be an integer, got "):
            integrate(HbvmSpec(2, 1), harm.system, harm.default_y0, 0.1,
                      n_steps)

    def test_accepts_numpy_integer_counts(self):
        harm = get_problem("harmonic")
        traj = integrate(HbvmSpec(2, 1), harm.system, harm.default_y0, 0.1,
                         np.int32(3), SolverConfig(max_iter=np.int64(100)))
        ref = integrate(HbvmSpec(2, 1), harm.system, harm.default_y0, 0.1, 3)
        assert np.array_equal(traj.states, ref.states)
        assert np.array_equal(traj.times, ref.times)

    @pytest.mark.parametrize("h,n_steps", [(1e308, 3),
                                           (np.float64(1e308), np.int64(3)),
                                           (5e307, 4)])
    def test_rejects_a_step_size_that_overflows_the_time_axis(self, h,
                                                              n_steps):
        harm = get_problem("harmonic")
        with pytest.raises(ValueError, match=r"^step size h=\S+ times "
                           rf"n_steps={n_steps} overflows"):
            integrate(HbvmSpec(2, 1), harm.system, harm.default_y0, h,
                      n_steps)

    def test_step_count_past_the_float_range_overflows_the_time_axis(self):
        harm = get_problem("harmonic")
        with pytest.raises(ValueError, match=r"^step size h=0.1 times "
                           r"n_steps=10{400} overflows the time axis$"):
            integrate(HbvmSpec(2, 1), harm.system, harm.default_y0, 0.1,
                      10 ** 400)

    @pytest.mark.parametrize("n_steps", [10 ** 15, 10 ** 18])
    def test_records_that_cannot_be_allocated_name_n_steps(self, n_steps):
        harm = get_problem("harmonic")
        with pytest.raises(ValueError, match=r"^cannot allocate the records "
                           rf"of n_steps={n_steps} steps: "):
            integrate(HbvmSpec(2, 1), harm.system, harm.default_y0, 0.1,
                      n_steps)

    def test_argument_validation(self):
        harm = get_problem("harmonic")
        with pytest.raises(ValueError):
            integrate(HbvmSpec(2, 2), harm.system, harm.default_y0, -0.1, 5)
        with pytest.raises(ValueError):
            integrate(HbvmSpec(2, 2), harm.system, harm.default_y0, 0.1, 0)
        with pytest.raises(TypeError):
            integrate(hbvm_tableau(HbvmSpec(2, 2)), harm.system,
                      harm.default_y0, 0.1, 5, mode="gamma")
        with pytest.raises(ValueError, match="mode must be 'rk' or 'gamma'"):
            integrate(HbvmSpec(2, 2), harm.system, harm.default_y0, 0.1, 5,
                      mode="coefficients")


class TestConservationThreshold:
    # every polynomial-energy problem, sampled at and above k = nu s / 2
    @pytest.mark.parametrize("name,k,s", [
        ("harmonic", 2, 2), ("harmonic", 3, 1),
        ("quartic", 4, 2), ("quartic", 2, 1),
        ("sextic", 6, 2), ("sextic", 3, 1),
        ("henon-heiles", 3, 2), ("henon-heiles", 2, 1),
    ])
    def test_polynomial_energy_is_conserved(self, name, k, s):
        prob = get_problem(name)
        nu = prob.system.poly_degree
        assert 2 * k >= nu * s
        traj = integrate(HbvmSpec(k, s), prob.system, prob.default_y0,
                         0.1, 1000, TIGHT)
        rel = energy_drift(traj)[0] / abs(traj.energies[0])
        assert rel <= 1e-11


class TestSymmetry:
    @pytest.mark.parametrize("k,s", [(3, 2), (6, 3)])
    def test_round_trip_returns_initial_state(self, k, s):
        hh = get_problem("henon-heiles")
        tab = hbvm_tableau(HbvmSpec(k, s))
        cfg = SolverConfig(tol=1e-14)
        y1, _ = rk_step(tab, hh.system, hh.default_y0, 0.1, cfg)
        back, _ = rk_step(tab, hh.system, y1, -0.1, cfg)
        assert np.max(np.abs(back - hh.default_y0)) <= 100 * cfg.tol


class TestEnergyDrift:
    def test_constant_trajectory(self):
        traj = Trajectory(times=np.arange(3.0), states=np.ones((3, 2)),
                          energies=np.full(3, 1.5),
                          iteration_counts=np.zeros(3, dtype=int),
                          jacobian_counts=np.zeros(3, dtype=int))
        assert energy_drift(traj) == (0.0, 0.0)

    def test_empty_trajectory_is_rejected(self):
        traj = Trajectory(times=np.zeros(0), states=np.zeros((0, 2)),
                          energies=np.zeros(0),
                          iteration_counts=np.zeros(0, dtype=int),
                          jacobian_counts=np.zeros(0, dtype=int))
        with pytest.raises(ValueError, match="trajectory is empty"):
            energy_drift(traj)

    def test_quartic_below_threshold_shows_drift(self):
        quart = get_problem("quartic")
        traj = integrate(HbvmSpec(2, 2), quart.system, quart.default_y0,
                         0.1, 500, TIGHT)
        assert energy_drift(traj)[0] > 1e-8

    def test_recompute_matches_recorded(self):
        harm = get_problem("harmonic")
        traj = integrate(HbvmSpec(2, 2), harm.system, harm.default_y0, 0.1, 10)
        assert np.array_equal(traj.energies,
                              harm.system.energies(traj.states))


class TestConvergenceOrder:
    def test_midpoint_is_second_order(self):
        harm = get_problem("harmonic")
        fit = convergence_order(HbvmSpec(1, 1), harm, 2 * np.pi,
                                [0.4, 0.2, 0.1, 0.05], TIGHT)
        assert fit.slope == pytest.approx(2.0, abs=0.1)

    def test_harmonic_order_four(self):
        harm = get_problem("harmonic")
        fit = convergence_order(HbvmSpec(4, 2), harm, 2 * np.pi,
                                [0.4, 0.2, 0.1, 0.05], TIGHT)
        assert fit.slope == pytest.approx(4.0, abs=0.2)

    def test_proxy_reference_when_no_closed_form(self):
        pend = get_problem("pendulum")
        fit = convergence_order(HbvmSpec(2, 1), pend, 1.0,
                                [0.25, 0.125, 0.0625], TIGHT)
        assert fit.slope == pytest.approx(2.0, abs=0.2)

    def test_requires_halving_steps(self):
        harm = get_problem("harmonic")
        with pytest.raises(ValueError):
            convergence_order(HbvmSpec(2, 2), harm, 1.0, [0.4, 0.3, 0.2])

    @pytest.mark.parametrize("spec,h_list,cause", [
        (HbvmSpec(2, 2), [0.4, 0.2], "need at least 3 step sizes"),
        # order 6 from h = 1e-3: every error is below 100 eps
        (HbvmSpec(6, 3), [1e-3, 5e-4, 2.5e-4],
         "all errors are at the rounding floor"),
    ], ids=["two-steps", "floor"])
    def test_names_an_unusable_step_list(self, spec, h_list, cause):
        harm = get_problem("harmonic")
        with pytest.raises(ValueError, match=cause):
            convergence_order(spec, harm, 0.1, h_list)

    @pytest.mark.parametrize("t_end,hmax,named", [
        (1.0, 0.0, "step sizes must be finite and positive, got h=0.0"),
        (1.0, np.nan, "step sizes must be finite and positive, got h=nan"),
        (1.0, np.inf, "step sizes must be finite and positive, got h=inf"),
        (1.0, -0.1, "step sizes must be finite and positive, got h=-0.1"),
        (0.0, 0.1, "t_end must be finite and positive, got t_end=0.0"),
        (-3.0, 0.1, "t_end must be finite and positive, got t_end=-3.0"),
        (np.nan, 0.1, "t_end must be finite and positive, got t_end=nan"),
        (np.inf, 0.1, "t_end must be finite and positive, got t_end=inf"),
    ], ids=["h-zero", "h-nan", "h-inf", "h-negative", "t-zero",
            "t-negative", "t-nan", "t-inf"])
    def test_names_a_bad_step_size_or_horizon(self, t_end, hmax, named):
        harm = get_problem("harmonic")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=named):
                convergence_order(HbvmSpec(2, 1), harm, t_end,
                                  [hmax, hmax / 2, hmax / 4])


def test_trajectory_csv_format():
    harm = get_problem("harmonic")
    traj = integrate(HbvmSpec(1, 1), harm.system, harm.default_y0, 0.1, 2)
    text = trajectory_to_csv(traj)
    lines = text.strip().split("\n")
    assert lines[0] == "t,y_1,y_2,H,iters"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 1.0
    assert first[4] == "0"
    # reals must round-trip exactly
    parsed = np.array([[float(v) for v in ln.split(",")[:4]] for ln in lines[1:]])
    assert np.array_equal(parsed[:, 0], traj.times)
    assert np.array_equal(parsed[:, 1:3], traj.states)
    assert np.array_equal(parsed[:, 3], traj.energies)


def _float_bits(a: np.ndarray) -> np.ndarray:
    """float64 bit patterns, with every NaN mapped to one pattern, since
    text carries no NaN sign or payload."""
    return np.where(np.isnan(a), np.nan, a).view(np.uint64)


@settings(max_examples=100, deadline=None, database=None)
@given(rows=hnp.arrays(np.float64, st.tuples(st.integers(1, 6),
                                              st.just(4)),
                       elements=st.floats(width=64)),
       iters=st.lists(st.integers(0, 10 ** 6), min_size=6, max_size=6))
@example(rows=np.array([[-0.0, 5e-324, np.inf, -np.inf],
                        [1.0, np.nan, 0.1, -2.0]]), iters=[0] * 6)
def test_trajectory_csv_round_trips_bit_exactly(rows, iters):
    n = rows.shape[0]
    traj = Trajectory(times=rows[:, 0], states=rows[:, 1:3],
                      energies=rows[:, 3],
                      iteration_counts=np.array(iters[:n]),
                      jacobian_counts=np.zeros(n, dtype=int))
    lines = trajectory_to_csv(traj).splitlines()
    assert lines[0] == "t,y_1,y_2,H,iters"
    cells = [line.split(",") for line in lines[1:]]
    back = np.array([[float(v) for v in row[:4]] for row in cells])
    assert np.array_equal(_float_bits(back), _float_bits(rows))
    assert [int(row[4]) for row in cells] == iters[:n]
    # no real is written as an integer
    assert not any(v.lstrip("-").isdigit() for row in cells for v in row[:4])


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(mode="bogus")
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)


@pytest.mark.parametrize("dim,J,cause", [
    (2, np.eye(4), "J must be dim x dim"),
    (2, [[0.0, 1.0], [-2.0, 0.0]], "J must be exactly skew-symmetric"),
    (3, None, "state dimension must be even"),
    # inf == -(-inf), so an infinite J would pass the skew test
    (2, [[0.0, np.inf], [-np.inf, 0.0]],
     r"^J must be finite: J\[0, 1\] = inf, J\[1, 0\] = -inf$"),
    (2, [[0.0, np.nan], [-1.0, 0.0]], r"^J must be finite: J\[0, 1\] = nan$"),
], ids=["shape", "skew", "odd-dim", "inf", "nan"])
def test_hamiltonian_system_rejects_bad_structure(dim, J, cause):
    with pytest.raises(ValueError, match=cause):
        HamiltonianSystem(dim=dim, H=lambda y: 0.0, grad_H=lambda y: y, J=J)


@pytest.mark.parametrize("grad_V,name", [
    (True, "bool"), ("grad_V", "str"), (np.zeros(1), "ndarray"),
], ids=["bool", "str", "array"])
def test_hamiltonian_system_rejects_a_grad_V_that_is_not_callable(grad_V,
                                                                  name):
    with pytest.raises(TypeError, match=rf"^grad_V must be callable or None, "
                                        rf"got {name}$"):
        HamiltonianSystem(dim=2, H=lambda y: 0.0, grad_H=lambda y: y,
                          grad_V=grad_V)
    harm = get_problem("harmonic").system
    with pytest.raises(TypeError, match="^grad_V must be callable"):
        dataclasses.replace(harm, grad_V=grad_V)
    assert dataclasses.replace(harm, grad_V=None).grad_V is None


@pytest.mark.parametrize("dim", [2.0, True, np.float64(4.0), None], ids=repr)
def test_state_dimension_must_be_an_integer(dim):
    # a float dim was accepted, and integrate then failed inside numpy
    cause = rf"^dim must be an integer, got {re.escape(repr(dim))}$"
    with pytest.raises(ValueError, match=cause):
        canonical_symplectic_matrix(dim)
    for J in (None, np.zeros((2, 2))):
        with pytest.raises(ValueError, match=cause):
            HamiltonianSystem(dim=dim, H=lambda y: 0.0, grad_H=lambda y: y,
                              J=J)


@pytest.mark.parametrize("dim", [0, -2, 1])
def test_state_dimension_must_be_at_least_2(dim):
    # dim 0 was accepted with a 0 x 0 J, and a negative dim failed in numpy
    with pytest.raises(ValueError, match=r"^need dim >= 2$"):
        canonical_symplectic_matrix(dim)
    with pytest.raises(ValueError, match=r"^need dim >= 2$"):
        HamiltonianSystem(dim=dim, H=lambda y: 0.0, grad_H=lambda y: y)


@pytest.mark.parametrize("tol", [float("inf"), float("nan"), -1e-13])
def test_solver_config_rejects_bad_tol(tol):
    with pytest.raises(ValueError, match="tol"):
        SolverConfig(tol=tol)
