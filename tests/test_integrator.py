import dataclasses
import warnings

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
        with pytest.raises(StageConvergenceError, match="newton"):
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
    @pytest.mark.parametrize("k", [4, 8, 12])
    def test_hbvm_factors_one_2m_block_per_conjugate_pair(self, lu_orders,
                                                          k):
        kep = get_problem("kepler")
        tab = hbvm_tableau(HbvmSpec(k, 2))
        rk_step(tab, kep.system, kep.default_y0, 0.05, NEWTON)
        assert lu_orders == [(4, 4)]

    def test_full_rank_tableau_factors_one_2m_block_per_pair(self,
                                                              lu_orders):
        kep = get_problem("kepler")
        rk_step(gauss_collocation_tableau(4), kep.system, kep.default_y0,
                0.05, NEWTON)
        assert lu_orders == [(4, 4), (4, 4)]

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
    def _assembled(plan, y0):
        """The Newton inverse as an operator, one column per unit vector."""
        correction = integrator._newton_correction(plan, y0)
        n = plan.M.shape[0] * y0.size
        return np.column_stack([correction(e.reshape(-1, y0.size)).ravel()
                                for e in np.eye(n)])

    def _check_against_dense(self, method, h):
        kep = get_problem("kepler")
        y0 = kep.default_y0
        plan = integrator._run_plan(method, kep.system, h, NEWTON, "rk")
        assert plan.split is not None
        Jf = integrator._field_jacobian(kep.system, y0)
        r = plan.M.shape[0]
        a = np.eye(r * y0.size) - h * np.kron(plan.M, Jf)
        ref = np.linalg.inv(a)
        cond_v = np.linalg.cond(np.linalg.eig(plan.M)[1])
        bound = (r * y0.size * np.finfo(float).eps * cond_v
                 * np.linalg.cond(a))
        err = np.linalg.norm(self._assembled(plan, y0) - ref, 2)
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
    @pytest.mark.parametrize("k", range(1, 7))
    def test_collocation_inverse_matches_dense(self, lu_orders, k, h):
        assert self._check_against_dense(gauss_collocation_tableau(k),
                                          h) == k
        assert lu_orders == [(4, 4)] * ((k + 1) // 2)

    @pytest.mark.parametrize("name", ["RK4", "SDIRK"])
    def test_defective_stage_matrix_takes_the_dense_build(self, lu_orders,
                                                          name):
        hh = get_problem("henon-heiles")
        tab = getattr(self, name)
        plan = integrator._run_plan(tab, hh.system, 0.05, NEWTON, "rk")
        assert plan.split is None
        y_nw, _ = rk_step(tab, hh.system, hh.default_y0, 0.05, NEWTON)
        r = plan.M.shape[0]
        assert lu_orders == [(r * 4, r * 4)]
        y_fp, _ = rk_step(tab, hh.system, hh.default_y0, 0.05, TIGHT)
        assert np.max(np.abs(y_nw - y_fp)) <= 1e-14

    def test_fixed_point_builds_no_split(self):
        kep = get_problem("kepler")
        plan = integrator._run_plan(HbvmSpec(12, 6), kep.system, 0.05,
                                    TIGHT, "gamma")
        assert plan.split is None

    # the counts of the whole Newton matrix inverted
    @pytest.mark.parametrize("spec,h,mode,iters", [
        (HbvmSpec(6, 3), 0.05, "rk", 838),
        (HbvmSpec(12, 6), 0.1, "gamma", 789),
    ], ids=["s3-rk", "s6-gamma"])
    def test_kepler_iteration_counts(self, spec, h, mode, iters):
        kep = get_problem("kepler")
        traj = integrate(spec, kep.system, kep.default_y0, h, 200,
                         SolverConfig(mode="newton"), mode=mode)
        assert traj.jacobian_counts.tolist() == [0, 1] + [0] * 199
        assert traj.iteration_counts.sum() == iters


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
        x = integrator.lu_solve(integrator.lu_factor(a), b)
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
            integrator.lu_factor(np.array([[1.0, np.inf], [0.0, 1.0]]))

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

    @pytest.mark.parametrize("mode", ["rk", "gamma"])
    def test_non_finite_jacobian_names_its_cause(self, mode):
        # the Kepler gradient divides by |q| = 0
        kep = get_problem("kepler")
        with pytest.raises(StageConvergenceError,
                           match="step 1 failed: Jacobian of f is "
                                 "non-finite at the step's initial state"):
            integrate(HbvmSpec(4, 2), kep.system, [0.0, 0.0, 0.0, 1.0], 0.05,
                      3, SolverConfig(mode="newton"), mode=mode)


class TestIterationLimit:
    # sextic (6, 2) at h = 0.1 takes ~10 fixed-point iterations, and more
    # than one Newton correction, to reach tol = 1e-15
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


class TestLowRankStageCore:
    # explicit Euler: A = 0 has rank 0, so u has no rows
    EULER = ButcherTableau(c=[0.0], A=[[0.0]], b=[1.0])

    def test_hbvm_iterates_on_s_rows(self, unknown_shapes):
        kep = get_problem("kepler")
        rk_step(hbvm_tableau(HbvmSpec(12, 2)), kep.system, kep.default_y0,
                0.05)
        assert unknown_shapes == [(2, 4)]

    def test_full_rank_tableau_iterates_on_k_rows(self, unknown_shapes):
        kep = get_problem("kepler")
        rk_step(gauss_collocation_tableau(4), kep.system, kep.default_y0,
                0.05)
        assert unknown_shapes == [(4, 4)]

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
        what it reports; fresh is False for a correction already used."""
        solve = integrator._simplified_newton
        used = []

        def patched(gmap, U0, correction, cfg):
            fresh = not any(c is correction for c in used)
            used.append(correction)
            return outcome(fresh, solve(gmap, U0, correction, cfg))

        monkeypatch.setattr(integrator, "_simplified_newton", patched)

    @staticmethod
    def _run(steps=7):
        harm = get_problem("harmonic")
        return integrate(HbvmSpec(2, 2), harm.system, harm.default_y0, 0.1,
                         steps, NEWTON)

    def test_extra_iterations_refresh_at_jacobian_cost(self, monkeypatch):
        # dim 2: a Jacobian costs 4 f-evaluations, one extra iteration 2
        self._patch_newton(monkeypatch, lambda fresh, r:
                           (r[0], 3 if fresh else 4, r[2], 0.0))
        assert self._run().jacobian_counts.tolist() == [0, 1, 0, 0, 1, 0, 0, 1]

    @pytest.mark.parametrize("ratio,expect", [
        (integrator.REFRESH_CONTRACTION, [0, 1, 0, 0, 0, 0, 0, 0]),
        (2 * integrator.REFRESH_CONTRACTION, [0, 1, 1, 1, 1, 1, 1, 1]),
    ])
    def test_slow_contraction_refreshes(self, monkeypatch, ratio, expect):
        self._patch_newton(monkeypatch, lambda fresh, r:
                           (r[0], 3, r[2], ratio))
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
        # each step after the first starting from the previous polynomial
        sext = get_problem("sextic")
        traj = integrate(HbvmSpec(6, 2), sext.system, sext.default_y0, 0.1,
                         1000, SolverConfig())
        counts = traj.iteration_counts[1:]
        assert counts[:20].tolist() == [12, 11, 11, 12, 12, 12, 12, 11, 11,
                                        10, 9, 9, 8, 7, 6, 5, 5, 3, 4, 5]
        assert counts.sum() == 8572
        assert np.bincount(counts).tolist() == [0, 0, 0, 19, 57, 113, 75, 94,
                                                94, 94, 131, 170, 153]
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
        return integrator._run_plan(spec, kep.system, 0.05, SolverConfig(),
                                    mode)

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
        # stopping residual and the update differ
        rk, gamma = self._plan(spec, "rk"), self._plan(spec, "gamma")
        for name in ("hL", "R", "M", "shift"):
            a, b = getattr(rk, name), getattr(gamma, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
        bm = basis_matrices(abscissae(spec), spec.s)
        assert rk.R.tobytes() == (bm.P_s.T @ bm.Omega).tobytes()

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

    def test_kepler_newton_counts(self):
        kep = get_problem("kepler")
        traj = integrate(HbvmSpec(12, 4), kep.system, kep.default_y0, 0.05,
                         500, SolverConfig(mode="newton"), mode="gamma")
        assert traj.jacobian_counts.tolist() == [0, 1] + [0] * 499
        assert traj.iteration_counts.sum() == 1830

    def test_full_stage_kepler_newton_counts(self):
        # full-stage Newton on an HbvmSpec: one matrix for the whole run
        kep = get_problem("kepler")
        traj = integrate(HbvmSpec(12, 4), kep.system, kep.default_y0, 0.05,
                         500, SolverConfig(mode="newton"))
        assert traj.jacobian_counts.tolist() == [0, 1] + [0] * 499
        assert traj.iteration_counts.sum() == 1662


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
    def _per_point_sextic():
        """The catalog sextic, called one state at a time."""
        sext = get_problem("sextic").system

        def H(y):
            assert y.ndim == 1
            return sext.H(y)

        def grad_H(y):
            assert y.ndim == 1
            return sext.grad_H(y)

        return HamiltonianSystem(dim=2, H=H, grad_H=grad_H, poly_degree=6)

    @pytest.mark.parametrize("mode", ["rk", "gamma"])
    @pytest.mark.parametrize("cfg", [TIGHT, NEWTON], ids=["fixed", "newton"])
    def test_per_point_fallback_is_unchanged(self, mode, cfg):
        sext = get_problem("sextic")
        per_point = self._per_point_sextic()
        assert not per_point.vectorized and sext.system.vectorized
        spec = HbvmSpec(6, 2)
        ref = integrate(spec, sext.system, sext.default_y0, 0.1, 50, cfg,
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
        kep = get_problem("kepler")
        calls = []

        def counted(y):
            calls.append(y.shape)
            return kep.system.grad_H(y)

        system = dataclasses.replace(kep.system, grad_H=counted)
        spec = HbvmSpec(k, 2)
        if mode == "rk":
            _, diag = rk_step(hbvm_tableau(spec), system, kep.default_y0,
                              0.05, cfg)
        else:
            _, _, diag = gamma_step(spec, system, kep.default_y0, 0.05, cfg)
        assert diag.iterations == iters
        assert len(calls) == iters + extra

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
        Jf = integrator._field_jacobian(system, y)
        assert calls == [(8, 4)]
        per_point = self._per_point_sextic()
        sext = get_problem("sextic")
        assert np.array_equal(
            integrator._field_jacobian(per_point, sext.default_y0),
            integrator._field_jacobian(sext.system, sext.default_y0))
        # Kepler at perihelion: d(p)/dt = -q / |q|^3 has Jacobian block
        # -(I - 3 q q^T / |q|^2) / |q|^3, here diag(2, -1) / |q|^3
        r3 = y[0] ** 3
        assert Jf[2:, :2] == pytest.approx(np.diag([2.0, -1.0]) / r3,
                                           rel=1e-6)
        assert np.array_equal(Jf[:2, 2:], np.eye(2))


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
                          iteration_counts=np.zeros(3, dtype=int))
        assert energy_drift(traj) == (0.0, 0.0)

    def test_empty_trajectory_is_rejected(self):
        traj = Trajectory(times=np.zeros(0), states=np.zeros((0, 2)),
                          energies=np.zeros(0),
                          iteration_counts=np.zeros(0, dtype=int))
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
                      iteration_counts=np.array(iters[:n]))
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
], ids=["shape", "skew", "odd-dim"])
def test_hamiltonian_system_rejects_bad_structure(dim, J, cause):
    with pytest.raises(ValueError, match=cause):
        HamiltonianSystem(dim=dim, H=lambda y: 0.0, grad_H=lambda y: y, J=J)


@pytest.mark.parametrize("tol", [float("inf"), float("nan"), -1e-13])
def test_solver_config_rejects_bad_tol(tol):
    with pytest.raises(ValueError, match="tol"):
        SolverConfig(tol=tol)
