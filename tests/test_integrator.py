import numpy as np
import pytest

from hbvm import integrator
from hbvm.integrator import (
    HamiltonianSystem,
    SolverConfig,
    StageConvergenceError,
    Trajectory,
    convergence_order,
    energy_drift,
    gamma_step,
    integrate,
    rk_step,
    trajectory_to_csv,
)
from hbvm.legendre import NodeFamily, gauss_system
from hbvm.problems import catalog, get_problem
from hbvm.tableau import (
    ButcherTableau,
    HbvmSpec,
    abscissae,
    collocation_matrix,
    filtered_tableau,
    hbvm_tableau,
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
    def test_hbvm_factors_s_times_2m(self, lu_orders, k):
        kep = get_problem("kepler")
        tab = hbvm_tableau(HbvmSpec(k, 2))
        rk_step(tab, kep.system, kep.default_y0, 0.05, NEWTON)
        assert lu_orders == [(8, 8)]

    def test_full_rank_tableau_factors_k_times_2m(self, lu_orders):
        kep = get_problem("kepler")
        rk_step(gauss_collocation_tableau(4), kep.system, kep.default_y0,
                0.05, NEWTON)
        assert lu_orders == [(16, 16)]

    @pytest.mark.parametrize("filtered", [False, True])
    def test_newton_agrees_with_fixed_point(self, filtered):
        hh = get_problem("henon-heiles")
        tab = filtered_tableau(gauss_system(6), 2) if filtered \
            else gauss_collocation_tableau(6)
        y_fp, _ = rk_step(tab, hh.system, hh.default_y0, 0.1, TIGHT)
        y_nw, diag = rk_step(tab, hh.system, hh.default_y0, 0.1, NEWTON)
        assert diag.iterations > 0
        assert np.max(np.abs(y_fp - y_nw)) <= 1e-12


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
        # fixed point builds no Newton matrix: keeping one must not change
        # a single iteration count
        sext = get_problem("sextic")
        traj = integrate(HbvmSpec(6, 2), sext.system, sext.default_y0, 0.1,
                         1000, SolverConfig())
        counts = traj.iteration_counts[1:]
        assert counts[:20].tolist() == [12, 13, 14, 14, 14, 14, 13, 12, 12,
                                        11, 11, 10, 9, 8, 7, 6, 6, 4, 5, 6]
        assert counts.sum() == 9818
        assert np.bincount(counts).tolist() == [0, 0, 0, 0, 38, 38, 132, 56,
                                                94, 75, 94, 131, 114, 76, 152]
        assert not np.any(traj.jacobian_counts)

    def test_contraction_is_the_final_residual_ratio(self):
        kep = get_problem("kepler")
        tab = hbvm_tableau(HbvmSpec(6, 2))
        _, diag = rk_step(tab, kep.system, kep.default_y0, 0.01, NEWTON)
        assert 0.0 < diag.contraction < integrator.REFRESH_CONTRACTION
        pend = get_problem("pendulum")
        _, diag = rk_step(tab, pend.system, np.zeros(2), 0.1, NEWTON)
        assert diag.iterations == 0 and diag.contraction == 0.0


class TestGammaStep:
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

    def test_quartic_below_threshold_shows_drift(self):
        quart = get_problem("quartic")
        traj = integrate(HbvmSpec(2, 2), quart.system, quart.default_y0,
                         0.1, 500, TIGHT)
        assert energy_drift(traj)[0] > 1e-8

    def test_recompute_matches_recorded(self):
        harm = get_problem("harmonic")
        traj = integrate(HbvmSpec(2, 2), harm.system, harm.default_y0, 0.1, 10)
        assert energy_drift(traj) == energy_drift(traj, harm.system)


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
    # 17-significant-digit reals must round-trip exactly
    parsed = np.array([[float(v) for v in ln.split(",")[:4]] for ln in lines[1:]])
    assert np.array_equal(parsed[:, 0], traj.times)
    assert np.array_equal(parsed[:, 1:3], traj.states)
    assert np.array_equal(parsed[:, 3], traj.energies)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(mode="bogus")
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
