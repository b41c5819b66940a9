import dataclasses
import inspect
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from splitflow import (ACC_DR, ACC_FB, BoxIndicator, CompositeProblem,
                       ConvexSchedule, DynamicsSpec, L1,
                       NeedsReferenceError, NonsmoothFunction,
                       ParameterDomainError, Quadratic,
                       WindowTooLateError,
                       certify_exponential, certify_sublinear,
                       check_conditions, check_envelope_inequalities,
                       check_lyapunov_decay, envelope_constants, h_curve,
                       integrate, lyapunov_value,
                       make_lyapunov_spec, schedule_strongly_convex,
                       solve_reference)
from splitflow import analysis
from splitflow.analysis import (GENERAL_STRONG, QUAD_CONVEX, QUAD_STRONG,
                                dr_weight_matrix, fb_weight_matrix,
                                lyapunov_series)
from splitflow.dynamics import strongly_convex_point
from splitflow.envelopes import fb_envelope_value, generalized_gradient
from splitflow.harness import (BenchmarkConfig, _example_setup, gen_lasso,
                               gen_logistic, generate_problem)

from conftest import SquaredNorm, make_logistic_l1, make_quadratic_l1
from oracles import (decay_form_constant, decay_form_timevarying,
                     random_spd_matrix)


def synthetic_traj(times, gap=None, dist=None, f_star=0.0):
    obs = {}
    if gap is not None:
        obs["objective_gap"] = gap
    if dist is not None:
        obs["dist_sq"] = dist
    return SimpleNamespace(times=times, observables=obs,
                           meta={"f_star": f_star})


class TestSolveReference:
    def test_quadratic_l1(self):
        p = make_quadratic_l1()
        ref = solve_reference(p, 0.05, tol=1e-12)
        assert ref.grad_map_norm <= 1e-12
        # KKT: on the support the smooth gradient balances the l1 weight
        g = p.f.gradient(ref.x)
        on = np.abs(ref.x) > 1e-12
        np.testing.assert_allclose(g[on], -p.g.weight * np.sign(ref.x[on]),
                                   atol=1e-9)
        assert np.all(np.abs(g[~on]) <= p.g.weight + 1e-9)

    def test_logistic_l1(self):
        p = make_logistic_l1()
        ref = solve_reference(p, 0.5 / p.f.L, tol=1e-10)
        assert ref.grad_map_norm <= 1e-10

    @pytest.mark.parametrize("example, dims, max_iterations", [
        ("lasso_l1", (20, 100), 75),
        ("box_qp", (100, 100), 125),
        ("logistic_l1", (20, 12), 50),
    ])
    def test_polish_cuts_iterations(self, example, dims, max_iterations):
        # one case per polish branch (quadratic l1, quadratic box, Newton
        # on l1); without the polish they take 725, 3275 and 775 iterations.
        # Every polish here is tried at every objective check: quadratic f,
        # and a logistic f with n <= 50
        config = BenchmarkConfig(example=example, dims=dims, kappa=1e3,
                                 ridge=0.3, seed=0)
        p = generate_problem(config)
        mu = _example_setup(config, p)["mu"]
        ref = solve_reference(p, mu, tol=1e-12)
        assert ref.grad_map_norm <= 1e-12
        assert ref.iterations <= max_iterations
        assert ref.polishes >= 1

    @pytest.mark.parametrize("n", [50, 51])
    def test_newton_polish_cadence(self, n, monkeypatch):
        # a logistic Hessian costs no more than the 25 iterations between
        # objective checks only while n <= 50; a larger f is polished at
        # multiples of 200 iterations only
        checks = []

        def recording(problem, x):
            # the iteration count k of solve_reference's loop
            checks.append(inspect.currentframe().f_back.f_locals["k"])
            return polish(problem, x)
        polish = analysis._polish
        monkeypatch.setattr(analysis, "_polish", recording)
        config = BenchmarkConfig(example="logistic_l1", dims=(40, n),
                                 ridge=0.3, seed=0)
        p = generate_problem(config)
        ref = solve_reference(p, _example_setup(config, p)["mu"], tol=1e-12)
        assert ref.grad_map_norm <= 1e-12 and ref.polishes >= 1
        if n > 50:
            assert checks and all(k % 200 == 0 for k in checks)
        else:
            assert checks[:2] == [25, 50]

    @pytest.mark.parametrize("factor", [1.0, 2.0])
    def test_empty_free_set(self, factor):
        # lambda >= lambda_max = ||q||_inf: x* = 0, reached exactly by the
        # first objective check
        config = BenchmarkConfig(dims=(20, 100), seed=0)
        f = generate_problem(config).f
        p = CompositeProblem(f, L1(factor * np.abs(f.q).max()))
        ref = solve_reference(p, 0.5 / f.L, tol=1e-12)
        assert not np.any(ref.x)
        assert ref.grad_map_norm == 0.0 and ref.iterations == 25

    @pytest.mark.parametrize("g", [L1(0.5), BoxIndicator(np.array([-1.0]),
                                                         np.array([1.0]))])
    @pytest.mark.parametrize("q", [-3.0, 0.2])
    def test_one_dimensional(self, g, q):
        # minimizers 1.25, 0 (l1) and 1, -0.1 (box) of x^2 + q x + g(x)
        p = CompositeProblem(Quadratic(np.array([[2.0]]), np.array([q])), g)
        ref = solve_reference(p, 0.25, tol=1e-12)
        want = {("l1", -3.0): 1.25, ("l1", 0.2): 0.0,
                ("box", -3.0): 1.0, ("box", 0.2): -0.1}[g.kind, q]
        assert ref.x.shape == (1,) and ref.x[0] == pytest.approx(want, abs=1e-14)
        assert ref.grad_map_norm <= 1e-12 and ref.iterations == 25

    def test_half_infinite_box_is_polished(self):
        # same minimizer on [-inf, 1]^3 and [-10, 1]^3: an infinite bound
        # once made the free-set tolerance inf (a nan warning, then 200
        # iterations and no polish)
        f = Quadratic(np.diag([1.0, 2.0, 3.0]), np.array([-5.0, 1.0, 0.5]))
        refs = [solve_reference(CompositeProblem(
                    f, BoxIndicator(np.full(3, lower), np.ones(3))), 0.1,
                    tol=1e-12) for lower in (-np.inf, -10.0)]
        assert [(r.iterations, r.polishes) for r in refs] == [(25, 1)] * 2
        np.testing.assert_array_equal(refs[0].x, refs[1].x)

    def test_generic_prox_is_not_polished(self):
        # no free-set hook on a user-defined g: the README-size lasso then
        # converges by restarted momentum alone
        config = BenchmarkConfig(dims=(20, 100), seed=0)
        p = generate_problem(config)
        mu = _example_setup(config, p)["mu"]

        class HooklessL1(NonsmoothFunction):
            def value(self, x):
                return p.g.value(x)

            def prox(self, v, mu):
                return p.g.prox(v, mu)

        ref = solve_reference(CompositeProblem(p.f, HooklessL1()), mu,
                              tol=1e-12)
        assert ref.grad_map_norm <= 1e-12
        assert ref.polishes == 0 and ref.restarts >= 1

    def test_f_without_hessian_is_not_polished(self):
        # a non-quadratic f must have a dense Hessian to be polished
        x = np.array([0.1, -0.2, -0.6])
        p = CompositeProblem(SquaredNorm(3), L1(0.5))
        assert analysis._polish(p, x) is None
        assert analysis._polish(make_logistic_l1(n=3), x) is not None


class TestLyapunovValue:
    def setup_method(self):
        self.p = make_quadratic_l1(n=8, seed=3)
        self.mu = 0.05
        self.ref = solve_reference(self.p, self.mu, tol=1e-12)

    def _spec(self, case=QUAD_STRONG, envelope="fb", theta=0.3, beta=None):
        return make_lyapunov_spec(self.p, self.mu, alpha=0.1, case=case,
                                  theta=theta, envelope_kind=envelope,
                                  beta=beta, x_star=self.ref.x,
                                  f_star=self.ref.value)

    def test_zero_at_equilibrium(self):
        spec = self._spec()
        psi = np.concatenate([self.ref.x, np.zeros(self.p.dim)])
        assert abs(lyapunov_value(spec, 0.0, psi)) <= 1e-10

    def test_zero_at_equilibrium_dr(self):
        spec = self._spec(envelope="dr")
        z_star = self.ref.x + self.mu * self.p.f.gradient(self.ref.x)
        psi = np.concatenate([z_star, np.zeros(self.p.dim)])
        assert abs(lyapunov_value(spec, 0.0, psi)) <= 1e-10

    def test_kernel_of_quadratic_term(self, rng):
        # psi2 = -theta (psi1 - x*) kills the weighted term
        spec = self._spec(theta=0.25)
        psi1 = rng.standard_normal(self.p.dim)
        psi2 = -0.25 * (psi1 - self.ref.x)
        v = lyapunov_value(spec, 0.0, np.concatenate([psi1, psi2]))
        env = fb_envelope_value(self.p, psi1, self.mu) - self.ref.value
        assert v == pytest.approx(0.1 * env, rel=1e-10, abs=1e-12)

    def test_general_case_matches_direct_expression(self, rng):
        beta = 0.4
        theta = 0.3
        spec = self._spec(case=GENERAL_STRONG, theta=theta, beta=beta)
        n = self.p.dim
        # literal reimplementation with explicit block matrices
        R = np.hstack([theta * np.eye(n), np.eye(n)])
        P = R.T @ R
        C = np.hstack([np.eye(n), beta * np.eye(n)])
        psi_star = np.concatenate([self.ref.x, np.zeros(n)])
        for _ in range(100):
            t = float(rng.uniform(0, 10))
            psi = rng.standard_normal(2 * n)
            direct = (0.1 * (fb_envelope_value(self.p, C @ psi, self.mu)
                             - self.ref.value)
                      + 0.5 * (psi - psi_star) @ P @ (psi - psi_star))
            assert lyapunov_value(spec, t, psi) == pytest.approx(
                direct, rel=1e-12, abs=1e-12)

    def test_needs_reference(self):
        with pytest.raises(NeedsReferenceError):
            make_lyapunov_spec(self.p, self.mu, alpha=0.1, case=QUAD_STRONG,
                               theta=0.3)

    def test_weighted_cases_require_quadratic_f(self):
        p = make_logistic_l1()
        with pytest.raises(ValueError):
            make_lyapunov_spec(p, 0.5 / p.f.L, alpha=0.1, case=QUAD_STRONG,
                               theta=0.3, x_star=np.zeros(p.dim), f_star=0.0)

    def test_weight_matrix_spectrum(self):
        Hfb = fb_weight_matrix(self.p, self.mu)
        Hdr = dr_weight_matrix(self.p, self.mu)
        for H in (Hfb, Hdr):
            eigs = np.linalg.eigvalsh(H)
            assert eigs[0] > 0
            assert eigs[-1] <= 1.0 + 1e-12


class TestLyapunovDecay:
    def test_convex_lasso_timevarying(self):
        p = make_quadratic_l1(n=10, m=1.0, L=10.0, lam=0.4, seed=6)
        # convex-case schedule applies for any quadratic; use it as stated
        mu = 1.0 / (2.0 * p.f.L)
        alpha = 1.0 / p.f.L
        ref = solve_reference(p, mu, tol=1e-12)
        spec_dyn = DynamicsSpec(ACC_FB, p, mu, ConvexSchedule(alpha=alpha))
        traj = integrate(spec_dyn, t_end=30.0, sample_dt=0.005,
                         x_star=ref.x, f_star=ref.value)
        lspec = make_lyapunov_spec(p, mu, alpha=alpha, case=QUAD_CONVEX,
                                   theta=lambda t: 2.0 / (t + 3.0),
                                   x_star=ref.x, f_star=ref.value)
        report = check_lyapunov_decay(traj, lspec)
        assert report.passed, report.details

    def test_strongly_convex_constant_acc_dr(self):
        p = make_quadratic_l1(n=8, m=1.0, L=8.0, lam=0.3, seed=7)
        mu = 1.0 / (2.0 * p.f.L)
        consts = envelope_constants(p.f.m, p.f.L, mu, "dr")
        alpha = 1.0 / consts.L_tilde
        sched = schedule_strongly_convex(alpha, consts.m_tilde)
        ref = solve_reference(p, mu, tol=1e-12)
        spec_dyn = DynamicsSpec(ACC_DR, p, mu, sched)
        traj = integrate(spec_dyn, t_end=30.0, sample_dt=0.005,
                         x_star=ref.x, f_star=ref.value)
        lspec = make_lyapunov_spec(p, mu, alpha=alpha, case=QUAD_STRONG,
                                   theta=sched.theta(), envelope_kind="dr",
                                   x_star=ref.x, f_star=ref.value)
        report = check_lyapunov_decay(traj, lspec)
        assert report.passed, report.details

    def test_general_strongly_convex_logistic(self):
        p = make_logistic_l1(s=25, n=12, ridge=0.5, lam=0.2, seed=8)
        alpha = 1.0 / p.f.L
        sched = schedule_strongly_convex(alpha, p.f.m)
        mu = math.sqrt(sched.gamma() * sched.beta()) / (2.0 * p.f.L)
        ref = solve_reference(p, mu, tol=1e-11)
        spec_dyn = DynamicsSpec(ACC_FB, p, mu, sched)
        traj = integrate(spec_dyn, t_end=30.0, sample_dt=0.005,
                         x_star=ref.x, f_star=ref.value)
        lspec = make_lyapunov_spec(p, mu, alpha=alpha, case=GENERAL_STRONG,
                                   theta=sched.theta(), beta=sched.beta(),
                                   x_star=ref.x, f_star=ref.value)
        report = check_lyapunov_decay(traj, lspec)
        assert report.passed, report.details

    def test_constant_trajectory_trivially_passes(self):
        p = make_quadratic_l1(n=6, seed=9)
        mu = 0.05
        ref = solve_reference(p, mu, tol=1e-12)
        spec_dyn = DynamicsSpec(ACC_FB, p, mu, ConvexSchedule(alpha=0.1))
        psi0 = np.concatenate([ref.x, np.zeros(p.dim)])
        traj = integrate(spec_dyn, psi0=psi0, t_end=2.0, sample_dt=0.05,
                         x_star=ref.x, f_star=ref.value)
        lspec = make_lyapunov_spec(p, mu, alpha=0.1, case=QUAD_CONVEX,
                                   theta=lambda t: 2.0 / (t + 3.0),
                                   x_star=ref.x, f_star=ref.value)
        report = check_lyapunov_decay(traj, lspec)
        assert report.passed
        assert np.all(np.abs(report.details["values"]) <= 1e-10)

    def test_gronwall_consistency(self):
        p = make_quadratic_l1(n=8, m=1.0, L=8.0, lam=0.3, seed=10)
        mu = 1.0 / (2.0 * p.f.L)
        consts = envelope_constants(p.f.m, p.f.L, mu, "fb")
        alpha = 1.0 / consts.L_tilde
        sched = schedule_strongly_convex(alpha, consts.m_tilde)
        ref = solve_reference(p, mu, tol=1e-12)
        traj = integrate(DynamicsSpec(ACC_FB, p, mu, sched), t_end=25.0,
                         sample_dt=0.01, x_star=ref.x, f_star=ref.value)
        lspec = make_lyapunov_spec(p, mu, alpha=alpha, case=QUAD_STRONG,
                                   theta=sched.theta(), x_star=ref.x,
                                   f_star=ref.value)
        V = lyapunov_series(traj, lspec)
        theta = np.full_like(traj.times, sched.theta())
        integral = np.concatenate(
            [[0.0], np.cumsum(0.5 * (theta[1:] + theta[:-1])
                              * np.diff(traj.times))])
        bound = V[0] * np.exp(-integral)
        assert np.all(V <= bound * 1.05 + 1e-14)

    def test_envelope_gradient_monotonicity_along_trajectory(self):
        # the decay proof uses <u - v, C2 psi>_H >= 0 with u, v the gradient
        # map at the extrapolated and current positions
        p = make_quadratic_l1(n=8, m=1.0, L=10.0, lam=0.4, seed=11)
        mu = 1.0 / (2.0 * p.f.L)
        alpha = 1.0 / p.f.L
        sched = ConvexSchedule(alpha=alpha)
        traj = integrate(DynamicsSpec(ACC_FB, p, mu, sched), t_end=20.0,
                         sample_dt=0.05)
        H = fb_weight_matrix(p, mu)
        for i in range(1, traj.times.shape[0], 5):
            t = traj.times[i]
            pos, vel = traj.position[i], traj.velocity[i]
            beta = sched.beta(t)
            u = generalized_gradient(p, pos + beta * vel, mu)
            v = generalized_gradient(p, pos, mu)
            c2 = beta * vel
            assert (u - v) @ (H @ c2) >= -1e-10

    def test_too_few_samples(self):
        p = make_quadratic_l1(n=4, seed=12)
        mu = 0.05
        ref = solve_reference(p, mu, tol=1e-12)
        lspec = make_lyapunov_spec(p, mu, alpha=0.1, case=QUAD_CONVEX,
                                   theta=0.1, x_star=ref.x, f_star=ref.value)
        traj = SimpleNamespace(times=np.array([0.0, 1.0]),
                               position=np.zeros((2, 4)),
                               velocity=np.zeros((2, 4)),
                               states=np.zeros((2, 8)))
        with pytest.raises(ValueError):
            check_lyapunov_decay(traj, lspec)


class TestLyapunovSeries:
    """lyapunov_series reads the envelope term from the trajectory's own
    observables when the spec's envelope is the trajectory's; otherwise it
    evaluates the envelope on the position and velocity blocks, equal to
    lyapunov_value on the stacked states."""

    @staticmethod
    def run(kind, case):
        p = make_quadratic_l1(n=8, m=1.0, L=8.0, lam=0.3, seed=13)
        mu = 1.0 / (2.0 * p.f.L)
        env = "fb" if kind == ACC_FB else "dr"
        if case == QUAD_CONVEX:
            alpha = 1.0 / p.f.L
            sched = ConvexSchedule(alpha=alpha)
            theta = ConvexSchedule.theta
        else:
            consts = envelope_constants(p.f.m, p.f.L, mu, env)
            alpha = 1.0 / consts.L_tilde
            sched = schedule_strongly_convex(alpha, consts.m_tilde)
            theta = sched.theta()
        ref = solve_reference(p, mu, tol=1e-12)
        traj = integrate(DynamicsSpec(kind, p, mu, sched), t_end=10.0,
                         sample_dt=0.01, x_star=ref.x, f_star=ref.value)

        def lspec(envelope_kind=env, spec_case=case, spec_mu=mu):
            beta = 0.4 if spec_case == GENERAL_STRONG else None
            return make_lyapunov_spec(p, spec_mu, alpha=alpha,
                                      case=spec_case, theta=theta,
                                      envelope_kind=envelope_kind, beta=beta,
                                      x_star=ref.x, f_star=ref.value)
        return traj, lspec

    @staticmethod
    def count_calls(monkeypatch):
        """Shapes of the points passed to fb_envelope_value and
        lyapunov_value, by name."""
        calls = {"fb_envelope_value": [], "lyapunov_value": []}
        # fb_envelope_value(problem, x, mu), lyapunov_value(spec, t, psi)
        for (name, shapes), point in zip(calls.items(), (1, 2)):
            def counted(*args, _original=getattr(analysis, name),
                        _shapes=shapes, _point=point):
                _shapes.append(np.shape(args[_point]))
                return _original(*args)
            monkeypatch.setattr(analysis, name, counted)
        return calls

    @pytest.mark.parametrize("case", [QUAD_CONVEX, QUAD_STRONG])
    @pytest.mark.parametrize("kind", [ACC_FB, ACC_DR])
    def test_own_envelope_is_reused(self, kind, case, monkeypatch):
        traj, lspec = self.run(kind, case)
        spec = lspec()
        calls = self.count_calls(monkeypatch)
        V = lyapunov_series(traj, spec)
        assert calls == {"fb_envelope_value": [], "lyapunov_value": []}
        # both evaluate the envelope on the same blocks of the same rows
        np.testing.assert_array_equal(
            V, lyapunov_value(spec, traj.times, traj.states))
        # the envelope term is the observable: shifting it shifts V by alpha
        shifted = dataclasses.replace(traj, observables=dict(
            traj.observables, envelope=traj.observables["envelope"] + 1.0))
        np.testing.assert_allclose(lyapunov_series(shifted, spec) - V,
                                   spec.alpha, rtol=1e-9)

    @pytest.mark.parametrize("kind, spec_args", [
        (ACC_DR, dict(spec_mu=0.05)),
        (ACC_DR, dict(envelope_kind="fb")),
        (ACC_FB, dict(envelope_kind="dr")),
        (ACC_FB, dict(spec_case=GENERAL_STRONG)),
        (ACC_DR, None),
    ], ids=["other_mu", "fb_spec_on_acc_dr", "dr_spec_on_acc_fb", "general",
            "no_observables"])
    def test_other_specs_are_recomputed(self, kind, spec_args, monkeypatch):
        traj, lspec = self.run(kind, QUAD_STRONG)
        spec = lspec(**spec_args or {})
        if spec_args is None:
            traj = dataclasses.replace(traj, observables={})
        calls = self.count_calls(monkeypatch)
        V = lyapunov_series(traj, spec)
        # block-sized evaluations, without stacking the states
        S, rows = traj.times.size, analysis._BLOCK_ROWS
        assert calls == {"fb_envelope_value": [
            (min(rows, S - i), 8) for i in range(0, S, rows)],
            "lyapunov_value": []}
        np.testing.assert_array_equal(
            V, lyapunov_value(spec, traj.times, traj.states))
        # the blocks cover every sample once, in order: at n = 8 they give
        # the bits of one evaluation on the whole stack
        monkeypatch.setattr(analysis, "_BLOCK_ROWS", S)
        np.testing.assert_array_equal(V, lyapunov_series(traj, spec))


class TestBoundedBlocks:
    """The Lyapunov series is evaluated _BLOCK_ROWS rows at a time, so its
    temporaries stay within a block times n, not the whole trace."""

    @staticmethod
    def trajectory_and_spec(kind, general):
        if general:
            p = gen_logistic(40, 60, seed=0)
            alpha = 1.0 / p.f.L
            sched = schedule_strongly_convex(alpha, p.f.m)
            mu = math.sqrt(sched.gamma() * sched.beta()) / (2.0 * p.f.L)
            case, theta, beta = GENERAL_STRONG, sched.theta(), sched.beta()
        else:
            p = gen_lasso(20, 60, seed=0)
            mu, alpha = 0.5 / p.f.L, 1.0 / p.f.L
            sched = ConvexSchedule(alpha=alpha)
            case, theta, beta = QUAD_CONVEX, ConvexSchedule.theta, None
        ref = solve_reference(p, mu, tol=1e-10)
        traj = integrate(DynamicsSpec(kind, p, mu, sched), t_end=20.0,
                         sample_dt=0.005, x_star=ref.x, f_star=ref.value)
        lspec = make_lyapunov_spec(p, mu, alpha=alpha, case=case,
                                   theta=theta, envelope_kind=kind[4:],
                                   beta=beta, x_star=ref.x, f_star=ref.value)
        return traj, lspec

    @pytest.mark.parametrize("kind, general", [
        (ACC_FB, False), (ACC_DR, False), (ACC_FB, True)],
        ids=["acc_fb", "acc_dr", "general"])
    def test_decay_check_peak_below_half_the_states(self, kind, general):
        # whole-trace temporaries peaked at 1.03x the state bytes in the
        # quadratic cases and 4.8x in the general one
        traj, lspec = self.trajectory_and_spec(kind, general)
        assert traj.times.size == 4001
        state_bytes = traj.states.nbytes
        tracemalloc.start()
        try:
            check_lyapunov_decay(traj, lspec)   # warms any cache
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            report = check_lyapunov_decay(traj, lspec)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 0.5 * state_bytes, (peak, state_bytes)

    @pytest.mark.parametrize("n", [8, 30, 120])
    @pytest.mark.parametrize("case, envelope_kind", [
        (QUAD_CONVEX, "fb"), (QUAD_STRONG, "dr"), (GENERAL_STRONG, "fb")])
    def test_blocks_match_whole_stack(self, case, envelope_kind, n,
                                      monkeypatch):
        # 600 rows: two full blocks and a partial one
        if case == GENERAL_STRONG:
            p = make_logistic_l1(s=2 * n, n=n, seed=n)
        else:
            p = make_quadratic_l1(n=n, seed=n)
        spec = make_lyapunov_spec(
            p, 0.5 / p.f.L, alpha=0.1, case=case,
            theta=ConvexSchedule.theta if case == QUAD_CONVEX else 0.3,
            envelope_kind=envelope_kind,
            beta=0.4 if case == GENERAL_STRONG else None,
            x_star=np.zeros(n), f_star=0.0)
        rng = np.random.default_rng(n)
        t = np.sort(rng.uniform(0.0, 50.0, 600))
        psi = rng.standard_normal((600, 2 * n))
        V = lyapunov_value(spec, t, psi)
        # one time for every state, as on a single point
        np.testing.assert_array_equal(lyapunov_value(spec, t[0], psi),
                                      lyapunov_value(spec, np.full(600, t[0]),
                                                     psi))
        monkeypatch.setattr(analysis, "_BLOCK_ROWS", 600)
        whole = lyapunov_value(spec, t, psi)
        if n <= 30:
            np.testing.assert_array_equal(V, whole)
        else:
            assert np.all(np.abs(V - whole) <= 1e-12 * (1.0 + np.abs(whole)))


class TestRateFits:
    def test_sublinear_recovers_planted_exponent(self):
        t = np.linspace(5.0, 300.0, 400)
        traj = synthetic_traj(t, gap=4.2 / (t + 3.0) ** 2)
        report = certify_sublinear(traj, (5.0, 300.0))
        assert report.passed
        assert report.fitted == pytest.approx(-2.0, abs=1e-6)
        assert report.details["c1"] == pytest.approx(4.2, rel=1e-6)

    def test_exponential_recovers_planted_rate(self):
        t = np.linspace(0.0, 50.0, 300)
        traj = synthetic_traj(t, dist=3.0 * np.exp(-0.37 * t))
        report = certify_exponential(traj, 0.37, (0.0, 50.0))
        assert report.passed
        assert report.fitted == pytest.approx(0.37, abs=1e-6)

    def test_exponential_fails_on_slow_series(self):
        t = np.linspace(0.0, 50.0, 300)
        traj = synthetic_traj(t, dist=3.0 * np.exp(-0.10 * t))
        report = certify_exponential(traj, 0.37, (0.0, 50.0))
        assert not report.passed

    @pytest.mark.parametrize("rho", [-1.0, 0.0, np.nan, np.inf])
    def test_exponential_refuses_bad_rate(self, rho):
        t = np.linspace(0.0, 50.0, 300)
        traj = synthetic_traj(t, dist=3.0 * np.exp(-0.37 * t))
        with pytest.raises(ParameterDomainError, match="theoretical rate"):
            certify_exponential(traj, rho, (0.0, 50.0))

    def test_window_too_late(self):
        t = np.linspace(0.0, 50.0, 100)
        traj = synthetic_traj(t, gap=np.full_like(t, 1e-16))
        with pytest.raises(WindowTooLateError):
            certify_sublinear(traj, (0.0, 50.0))

    def test_missing_observable(self):
        traj = synthetic_traj(np.linspace(0, 1, 10))
        with pytest.raises(NeedsReferenceError):
            certify_sublinear(traj, (0.0, 1.0))


class TestEnvelopeInequalities:
    def test_quadratic_l1(self):
        p = make_quadratic_l1(n=20, m=1.0, L=10.0, lam=0.5, seed=13)
        report = check_envelope_inequalities(p, 0.05, seed=0)
        assert report.passed, report.details

    def test_logistic_l1(self):
        p = make_logistic_l1(s=30, n=15, ridge=0.5, lam=0.3, seed=14)
        report = check_envelope_inequalities(p, 0.5 / p.f.L, seed=1)
        assert report.passed, report.details

    def test_tight_at_optimum(self):
        # x = xh = x*: both sides of the upper bound vanish and the lower
        # bound reads 0 >= 0
        p = make_quadratic_l1(n=10, seed=15)
        mu = 0.05
        ref = solve_reference(p, mu, tol=1e-12)
        x = ref.x
        G = generalized_gradient(p, x, mu)
        fmu = fb_envelope_value(p, x, mu)
        lhs = fmu - p.objective(x)
        rhs = float(G @ (x - x)) - 0.5 * p.f.m * 0.0 - 0.5 * mu * float(G @ G)
        assert abs(lhs) <= 1e-9 and abs(rhs) <= 1e-9

    def test_requires_strong_convexity(self):
        gen = np.random.default_rng(0)
        E = gen.standard_normal((5, 12))
        p = CompositeProblem(Quadratic(E.T @ E, np.zeros(12), m=0.0), L1(0.5))
        with pytest.raises(ParameterDomainError):
            check_envelope_inequalities(p, 0.01 / p.f.L)

    def test_property_many_problems(self):
        # 10 random problems x 1000 pairs, quadratic and logistic mixed
        for seed in range(10):
            if seed % 2 == 0:
                p = make_quadratic_l1(n=12, m=0.5 + 0.1 * seed, L=6.0,
                                      lam=0.3, seed=seed)
                mu = 0.5 / p.f.L
            else:
                p = make_logistic_l1(s=20, n=10, ridge=0.3, lam=0.2,
                                     seed=seed)
                mu = 0.5 / p.f.L
            report = check_envelope_inequalities(p, mu, seed=seed)
            assert report.passed, (seed, report.details)


class TestConditions:
    def test_boundary_w_one(self):
        gamma, beta, theta = strongly_convex_point(1.0)
        assert gamma == 1.0 and beta == 0.0 and theta == 0.5
        ci, cii, resid = check_conditions(1.0, 0.0, beta, gamma, theta)
        assert ci and cii and resid <= 0.0

    def test_trivially_satisfied_i_ii(self):
        for w in np.linspace(0.01, 1.0, 100):
            gamma, beta, theta = strongly_convex_point(w)
            mu_L = 0.5 * math.sqrt(gamma * beta)
            ci, cii, _ = check_conditions(w, mu_L, beta, gamma, theta)
            assert ci and cii
            assert theta <= gamma + 1e-15

    def test_residual_nonpositive_on_grid(self):
        for w in np.arange(0.01, 1.001, 0.01):
            gamma, beta, theta = strongly_convex_point(w)
            mu_L = 0.5 * math.sqrt(gamma * beta)
            _, _, resid = check_conditions(w, mu_L, beta, gamma, theta)
            assert resid <= 0.0, (w, resid)

    def test_w_domain(self):
        with pytest.raises(ParameterDomainError):
            check_conditions(1.5, 0.1, 0.5, 0.5, 0.3)


class TestHCurve:
    def test_negative_on_dense_grid(self):
        grid = np.arange(1, 1001) / 1000.0
        report = h_curve(grid)
        assert report.passed
        assert report.fitted < 0.0

    def test_small_w_limit(self):
        report = h_curve(np.array([1e-6]))
        w_h = report.details["h"][0] * 1e-6
        assert abs(w_h) <= 1e-4

    def test_monotone_in_mu_L(self):
        grid = np.linspace(0.05, 1.0, 200)
        report = h_curve(grid)
        assert np.all(report.details["monotone_margin"] >= 0.0)

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            h_curve(np.array([]))


class TestDecayForms:
    def test_timevarying_form_is_zero(self, rng):
        H = np.eye(6) - 0.05 * random_spd_matrix(6, 1.0, 10.0, rng)
        for t in [0.0, 0.7, 3.0, 25.0, 400.0]:
            Pi = decay_form_timevarying(t, H)
            assert np.abs(Pi).max() <= 1e-12

    def test_constant_form_negative_semidefinite(self, rng):
        for _ in range(100):
            m = float(10 ** rng.uniform(-1, 1))
            L = m * float(10 ** rng.uniform(0.1, 3))
            mu = float(rng.uniform(0.05, 0.95)) / L
            kind = "fb" if rng.uniform() < 0.5 else "dr"
            consts = envelope_constants(m, L, mu, kind)
            alpha = float(rng.uniform(0.01, 1.0)) / consts.m_tilde
            sched = schedule_strongly_convex(alpha, consts.m_tilde)
            n = 5
            Q = random_spd_matrix(n, m, L, rng)
            p = CompositeProblem(Quadratic(Q, np.zeros(n), m=m, L=L), L1(1.0))
            H = (fb_weight_matrix(p, mu) if kind == "fb"
                 else dr_weight_matrix(p, mu))
            M = decay_form_constant(alpha, consts.m_tilde, sched.gamma(),
                                    sched.beta(), sched.theta(), H)
            eigs = np.linalg.eigvalsh(0.5 * (M + M.T))
            assert eigs[-1] <= 1e-10, (m, L, mu, kind, eigs[-1])
