from functools import lru_cache

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from splitflow import (BoxIndicator, CompositeProblem, ConstantSchedule,
                       ConvexSchedule, DynamicsSpec, IntegrationFailure, L1,
                       ParameterDomainError, Quadratic,
                       UnsupportedOperationError, dr_envelope,
                       generalized_gradient, integrate, run_discrete,
                       schedule_strongly_convex, solve_reference, vector_field)
from splitflow import dynamics as dynamics_module
from splitflow.dynamics import (export_trajectory_csv, read_trace_csv,
                                strongly_convex_point)
from splitflow.harness import BenchmarkConfig, _example_setup, generate_problem

from conftest import (SquaredNorm, make_logistic_l1, make_quadratic_box,
                      make_quadratic_l1, make_worst_case_quadratic,
                      smooth_problem)
from oracles import (linear_flow_solution, mode_solution,
                     piecewise_fb_flow_solution, python_float_field,
                     scalar_prox_l1, second_order_flow_solution,
                     trace_csv_reference)


class TestSchedules:
    @staticmethod
    def convex_at(t):
        return (ConvexSchedule.gamma(t), ConvexSchedule.beta(t),
                ConvexSchedule.theta(t))

    def test_convex_at_zero(self):
        gamma, beta, theta = self.convex_at(0.0)
        assert gamma == 1.0 and beta == 0.0
        assert theta == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_convex_at_three(self):
        gamma, beta, theta = self.convex_at(3.0)
        assert gamma == pytest.approx(0.5, rel=1e-15)
        assert beta == pytest.approx(0.5, rel=1e-15)
        assert theta == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_convex_limits(self):
        gamma, beta, theta = self.convex_at(1e9)
        assert gamma <= 1e-8 and theta <= 1e-8
        assert abs(beta - 1.0) <= 1e-8

    def test_sum_is_one_exactly(self, rng):
        sched = ConvexSchedule(alpha=1.0)
        for t in np.concatenate([[0.0, 0.5, 3.0, 17.5], 100 * rng.random(50)]):
            assert sched.gamma(t) + sched.beta(t) == 1.0

    def test_strongly_convex_boundary(self):
        s = schedule_strongly_convex(1.0, 1.0)
        assert s.gamma() == 1.0 and s.beta() == 0.0
        assert s.theta() == pytest.approx(0.5, rel=1e-15)

    def test_strongly_convex_quarter(self):
        s = schedule_strongly_convex(1.0, 0.25)
        assert s.gamma() == pytest.approx(2.0 / 3.0, rel=1e-14)
        assert s.beta() == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert s.theta() == pytest.approx(0.375, rel=1e-14)

    def test_theta_equals_rate(self, rng):
        for _ in range(100):
            x = float(rng.uniform(1e-6, 1.0))
            s = schedule_strongly_convex(1.0, x)
            assert s.gamma() + s.beta() == 1.0
        # the rate w - w^2/2 is the damping average (gamma + w^2 beta)/2
        for w in np.linspace(1e-3, 1.0, 1000):
            gamma, beta, theta = strongly_convex_point(w)
            assert theta == pytest.approx(0.5 * (gamma + w * w * beta),
                                          rel=1e-12)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf])
    def test_convex_refuses_nonfinite_alpha(self, alpha):
        with pytest.raises(ParameterDomainError, match="alpha"):
            ConvexSchedule(alpha=alpha)

    @pytest.mark.parametrize("name, value", [
        ("alpha", 0.0), ("alpha", -0.5), ("alpha", np.nan), ("alpha", np.inf),
        ("gamma", np.nan), ("gamma", np.inf), ("beta", np.nan),
        ("beta", -np.inf), ("theta", np.nan), ("theta", np.inf)])
    def test_constant_refuses_bad_constants(self, name, value):
        # refused when built, not later by integrate as a non-finite field
        constants = dict(alpha=0.5, gamma=0.6, beta=0.4, theta=0.3)
        constants[name] = value
        with pytest.raises(ParameterDomainError, match=name):
            ConstantSchedule(**constants)

    def test_domain(self):
        with pytest.raises(ParameterDomainError):
            schedule_strongly_convex(2.0, 1.0)
        with pytest.raises(ParameterDomainError):
            schedule_strongly_convex(1.0, 0.0)


class TestVectorField:
    def test_equilibrium_acc_fb(self):
        p = make_quadratic_l1()
        mu = 0.05
        ref = solve_reference(p, mu, tol=1e-12)
        spec = DynamicsSpec("acc_fb", p, mu, ConvexSchedule(alpha=0.1))
        psi = np.concatenate([ref.x, np.zeros(p.dim)])
        dpsi = vector_field(spec, 1.0, psi)
        assert np.linalg.norm(dpsi) <= 1e-10

    def test_smooth_case_matches_inertial_ode(self, rng):
        p = smooth_problem()
        sched = schedule_strongly_convex(0.3, 0.5)
        spec = DynamicsSpec("acc_fb", p, 0.1, sched)
        psi = rng.standard_normal(8)
        dpsi = vector_field(spec, 0.0, psi)
        pos, vel = psi[:4], psi[4:]
        expected_acc = (-sched.gamma() * vel
                        - 0.3 * p.f.gradient(pos + sched.beta() * vel))
        np.testing.assert_allclose(dpsi[:4], vel, atol=1e-14)
        np.testing.assert_allclose(dpsi[4:], expected_acc, atol=1e-12)

    def test_fb_flow_one_dim_lasso(self):
        p = CompositeProblem(Quadratic(np.array([[1.0]]), np.zeros(1)),
                             L1(1.0))
        spec = DynamicsSpec("fb_flow", p, 0.5, ConvexSchedule(alpha=1.0))
        dx = vector_field(spec, 0.0, np.array([2.0]))
        np.testing.assert_allclose(dx, [-3.0], atol=1e-13)

    def test_dr_kinds_need_prox(self):
        # every DR entry point needs the prox of f, which only a quadratic
        # f has, as in the paper's DR theorems
        logistic = make_logistic_l1()
        generic = CompositeProblem(SquaredNorm(logistic.dim), logistic.g)
        entries = {
            "dr_flow": lambda p, z, mu: DynamicsSpec("dr_flow", p, mu,
                                                     ConvexSchedule(1.0)),
            "acc_dr": lambda p, z, mu: DynamicsSpec("acc_dr", p, mu,
                                                    ConvexSchedule(1.0)),
            "dr_discrete": lambda p, z, mu: run_discrete(p, "dr_discrete",
                                                         mu, 3),
            "dr_envelope": dr_envelope,
            "f.prox": lambda p, z, mu: p.f.prox(z, mu)}
        for p in (logistic, generic):
            for name, entry in entries.items():
                with pytest.raises(UnsupportedOperationError):
                    entry(p, np.ones(p.dim), 0.5 / p.f.L)
                    pytest.fail(f"{name} ran on {p.f.kind} f")

    def test_nonquadratic_acc_fb_mu_bound(self):
        p = make_logistic_l1()
        sched = schedule_strongly_convex(1.0 / p.f.L, p.f.m)
        bound = np.sqrt(sched.gamma() * sched.beta()) / (2 * p.f.L)
        with pytest.raises(ParameterDomainError):
            DynamicsSpec("acc_fb", p, 2 * bound, sched)
        DynamicsSpec("acc_fb", p, bound, sched)  # at the bound: fine


class TestPythonFloatBits:
    """The field binds mu, alpha and a constant schedule's -gamma and beta
    as float64 0-d arrays: with mu given as a float, a numpy scalar or a
    0-d array, on a point and on a stack, it gives the bits of the field
    with Python-float constants (``oracles.python_float_field``)."""

    @pytest.mark.parametrize("as_mu", [float, np.float64, np.array])
    @pytest.mark.parametrize("make, kinds", [
        (make_quadratic_l1, ("fb_flow", "dr_flow", "acc_fb", "acc_dr")),
        (make_quadratic_box, ("fb_flow", "dr_flow", "acc_fb", "acc_dr")),
        (make_logistic_l1, ("fb_flow", "acc_fb"))],
        ids=["quadratic_l1", "quadratic_box", "logistic_l1"])
    def test_field(self, make, kinds, as_mu, rng):
        p = make(n=9, seed=5)
        mu = 0.05 / p.f.L
        schedules = (ConvexSchedule(alpha=0.7),
                     schedule_strongly_convex(1.0 / p.f.L, p.f.m))
        for kind in kinds:
            for sched in schedules:
                spec = DynamicsSpec(kind, p, as_mu(mu), sched)
                n = spec.state_dim
                # magnitudes from 1e-3 to 3: some entries hit the prox's kinks
                scale = 3.0 * 10.0 ** rng.uniform(-3.0, 0.0, n)
                for t, psi in ((1.7, rng.standard_normal(n) * scale),
                               (rng.uniform(0.0, 5.0),
                                rng.standard_normal((4, n)) * scale)):
                    out = vector_field(spec, t, psi)
                    ref = python_float_field(kind, p, mu, sched, t, psi)
                    assert out.shape == ref.shape
                    assert out.tobytes() == ref.tobytes(), (kind, sched)


@lru_cache(maxsize=None)
def worst_case_mode_errors(kind):
    """Sample times and max |position - mode_solution| per sample of
    ``kind`` on the worst-case quadratic (n = 200, L = 1, mu = 1/2,
    alpha = 1, convex schedule, t_end 400, tol 1e-9), from zero."""
    p, _ = make_worst_case_quadratic(200, 1.0)
    spec = DynamicsSpec(kind, p, 0.5, ConvexSchedule(alpha=1.0))
    traj = integrate(spec, t_end=400.0, tol=1e-9)
    exact = mode_solution(p.f.Q, p.f.q, 1.0, ConvexSchedule.gamma,
                          ConvexSchedule.beta, traj.times,
                          mu=0.5 if kind == "acc_dr" else None)
    return traj.times, np.abs(traj.position - exact[:, :200]).max(axis=1)


class TestAccModes:
    """The accelerated kinds against the exact per-mode solution of the
    convex-schedule ODE on the worst-case quadratic (g inactive)."""

    @pytest.mark.parametrize("mu", [None, 0.2])
    def test_mode_solution_matches_constant_schedule_expm(self, mu):
        # the oracle itself, under a constant schedule, against the 2x2
        # matrix exponentials of second_order_flow_solution
        p = smooth_problem(n=5, seed=2)
        psi0 = np.linspace(-1.0, 1.0, 10)
        ts = np.linspace(0.0, 20.0, 11)
        exact = second_order_flow_solution(p.f.Q, p.f.q, 0.3, 0.6, 0.4,
                                           psi0, ts, mu=mu)
        modes = mode_solution(p.f.Q, p.f.q, 0.3, lambda t: 0.6,
                              lambda t: 0.4, ts, psi0=psi0, mu=mu)
        assert np.max(np.abs(modes - exact)) <= 1e-11

    @pytest.mark.parametrize("kind", ["acc_fb", "acc_dr"])
    def test_within_ten_tol_to_t100(self, kind):
        times, err = worst_case_mode_errors(kind)
        assert err[times <= 100.0].max() <= 10.0 * 1e-9

    @pytest.mark.xfail(strict=True, reason=(
        "the global error grows past 10 tol after t = 100: max 14.6 tol "
        "(acc_fb, at t = 397.0) and 15.9 tol (acc_dr, at t = 398.6), and "
        "13.6 and 15.7 tol at the step end t = 400; see the CHANGES FOUND "
        "line on the per-mode reference"))
    def test_within_ten_tol_whole_run(self):
        for kind in ("acc_fb", "acc_dr"):
            _, err = worst_case_mode_errors(kind)
            assert err.max() <= 10.0 * 1e-9


KINK_TOLS = (1e-6, 1e-8, 1e-10)


def kink_case(seed):
    """fb_flow on a 6-dimensional quadratic (spectrum [0.5, 3]) plus
    0.4 ||x||_1, mu 0.1, alpha 0.7, from x0 = 2 N(0, I), up to t = 10."""
    p = make_quadratic_l1(n=6, m=0.5, L=3.0, lam=0.4, seed=seed)
    x0 = 2.0 * np.random.default_rng(100 + seed).standard_normal(6)
    return p, x0, 0.25 * np.arange(41)


@lru_cache(maxsize=None)
def kink_errors(seed):
    """Switch times of the exact kink_case flow, and integrate's max error
    against it at each of KINK_TOLS."""
    p, x0, ts = kink_case(seed)
    exact, switches = piecewise_fb_flow_solution(p.f.Q, p.f.q, 0.4, 0.1,
                                                 0.7, x0, ts)
    spec = DynamicsSpec("fb_flow", p, 0.1, ConvexSchedule(alpha=0.7))
    errors = []
    for tol in KINK_TOLS:
        traj = integrate(spec, psi0=x0, t_end=10.0, tol=tol, sample_dt=0.25)
        assert np.allclose(traj.times, ts, rtol=0.0, atol=1e-12)
        errors.append(np.max(np.abs(traj.position - exact)))
    return switches, errors


class SharedGradient(Quadratic):
    """Hands out one array object, overwritten, from every gradient call."""

    shared = np.empty(0)

    def gradient(self, x):
        grad = super().gradient(x)
        if self.shared.shape != grad.shape:
            self.shared = np.empty_like(grad)
        self.shared[...] = grad
        return self.shared


class InputProx(BoxIndicator):
    """g = 0, whose prox hands back its input itself."""

    def __init__(self):
        super().__init__(-np.inf, np.inf)

    def prox(self, v, mu):
        return v


class PoisonedProx(BoxIndicator):
    """g = 0, whose prox turns non-finite after its first ``after`` calls;
    with ``refuse``, it raises on a non-finite input, uncounted."""

    def __init__(self, after, refuse=False):
        super().__init__(-np.inf, np.inf)
        self.after, self.refuse, self.calls = after, refuse, 0

    def prox(self, v, mu):
        if self.refuse and not np.isfinite(v).all():
            raise ValueError("prox refuses non-finite input")
        self.calls += 1
        return v * np.nan if self.calls > self.after else v


class TestIntegrate:
    def test_matches_matrix_exponential(self):
        p = smooth_problem(n=5, seed=3)
        spec = DynamicsSpec("fb_flow", p, 0.1, ConvexSchedule(alpha=0.7))
        x0 = np.array([1.0, -2.0, 0.5, 0.0, 2.0])
        traj = integrate(spec, psi0=x0, t_end=10.0, tol=1e-9, sample_dt=0.25)
        exact = linear_flow_solution(p.f.Q, p.f.q, 0.7, x0, traj.times)
        assert np.max(np.abs(traj.position - exact)) <= 1e-6

    def test_stationary_at_equilibrium(self):
        p = make_quadratic_l1()
        mu = 0.05
        ref = solve_reference(p, mu, tol=1e-12)
        spec = DynamicsSpec("acc_fb", p, mu, ConvexSchedule(alpha=0.1))
        psi0 = np.concatenate([ref.x, np.zeros(p.dim)])
        traj = integrate(spec, psi0=psi0, t_end=5.0, sample_dt=0.1)
        drift = np.linalg.norm(traj.position - ref.x[None, :], axis=1)
        assert drift.max() <= 1e-8

    def test_fb_flow_exponential_contraction(self):
        # strongly convex problem at mu = 1/(2L) contracts at least at
        # exp(-alpha m t)
        p = make_quadratic_l1(n=8, m=1.0, L=4.0, lam=0.3, seed=5)
        mu = 1.0 / (2.0 * p.f.L)
        ref = solve_reference(p, mu, tol=1e-12)
        alpha = 0.5
        spec = DynamicsSpec("fb_flow", p, mu, ConvexSchedule(alpha=alpha))
        x0 = ref.x + np.ones(p.dim)
        traj = integrate(spec, psi0=x0, t_end=6.0, sample_dt=0.05,
                         x_star=ref.x, f_star=ref.value)
        d0 = np.linalg.norm(x0 - ref.x)
        dist = np.sqrt(traj.observables["dist_sq"])
        bound = d0 * np.exp(-alpha * p.f.m * traj.times) * (1 + 1e-3)
        assert np.all(dist <= bound)

    def test_tolerance_self_consistency(self):
        # against the exact solution: the error stays within 10 tol and
        # falls with the tolerance
        p = smooth_problem(n=5, seed=3)
        spec = DynamicsSpec("fb_flow", p, 0.1, ConvexSchedule(alpha=0.7))
        x0 = np.array([1.0, -2.0, 0.5, 0.0, 2.0])
        errors = []
        for tol in (1e-6, 1e-8, 1e-10):
            traj = integrate(spec, psi0=x0, t_end=10.0, tol=tol,
                             sample_dt=0.25)
            exact = linear_flow_solution(p.f.Q, p.f.q, 0.7, x0, traj.times)
            errors.append(np.max(np.abs(traj.position - exact)))
            assert errors[-1] <= 10.0 * tol
        assert errors[0] > errors[1] > errors[2]

    @pytest.mark.parametrize("kind", ["acc_fb", "acc_dr"])
    def test_second_order_against_exact_solution(self, kind):
        # quadratic f, g = 0 and a constant schedule make both accelerated
        # flows linear; their exact solution is one 2x2 matrix exponential
        # per eigenvalue of Q
        p = smooth_problem(n=5, seed=3)
        mu, alpha, gamma, beta = 0.1, 0.7, 0.6, 0.4
        sched = ConstantSchedule(alpha=alpha, gamma=gamma, beta=beta,
                                 theta=0.3)
        spec = DynamicsSpec(kind, p, mu, sched)
        psi0 = np.array([1.0, -2.0, 0.5, 0.0, 2.0, 0.3, -0.4, 0.0, 1.0, 0.2])
        errors = []
        for tol in (1e-6, 1e-8, 1e-10):
            traj = integrate(spec, psi0=psi0, t_end=10.0, tol=tol,
                             sample_dt=0.25)
            exact = second_order_flow_solution(
                p.f.Q, p.f.q, alpha, gamma, beta, psi0, traj.times,
                mu=mu if kind == "acc_dr" else None)
            states = np.hstack([traj.position, traj.velocity])
            errors.append(np.max(np.abs(states - exact)))
            assert errors[-1] <= 10.0 * tol
        assert errors[0] > errors[1] > errors[2]

    @pytest.mark.parametrize("case", ["full", "failure", "one_per_step"])
    def test_sample_block_is_concatenated_dense_output(self, monkeypatch,
                                                       case):
        # integrate writes its samples into one preallocated block; values
        # must be np.concatenate's over psi0 and the dense outputs, and a
        # run that fails before t_end keeps a copy of its rows only
        p = make_quadratic_l1(n=6, seed=4)
        mu = 0.05
        ref = solve_reference(p, mu, tol=1e-12)
        psi0 = np.concatenate([ref.x, np.zeros(p.dim)]) + 0.5
        t_end, sample_dt = {"full": (8.0, 0.01), "failure": (8.0, 0.01),
                            "one_per_step": (0.5, 0.1)}[case]
        outputs = [psi0[None, :]]

        class Recording(dynamics_module.Dopri5):
            def dense(self, ts):
                outputs.append(super().dense(ts))
                return outputs[-1]

        def field(spec, t, psi, out=None):
            # finite up to t = 4, non-finite after it
            out = vector_field(spec, t, psi, out)
            out *= np.nan if t > 4.0 else 1.0
            return out
        monkeypatch.setattr(dynamics_module, "Dopri5", Recording)
        spec = DynamicsSpec("acc_fb", p, mu, ConvexSchedule(alpha=0.1))
        if case == "failure":
            monkeypatch.setattr(dynamics_module, "vector_field", field)
            with pytest.raises(IntegrationFailure, match="non-finite") as exc:
                integrate(spec, psi0=psi0, t_end=t_end, sample_dt=sample_dt)
            traj = exc.value.partial
            assert 1 < traj.times.size < 801
            assert traj.times[-1] <= 4.0
        else:
            traj = integrate(spec, psi0=psi0, t_end=t_end,
                             sample_dt=sample_dt)
        assert (max(len(y) for y in outputs) == 1) == (case == "one_per_step")
        expected = np.concatenate(outputs)
        for got, want in ((traj.position, expected[:, :p.dim]),
                          (traj.velocity, expected[:, p.dim:])):
            assert got.tobytes() == want.tobytes()
        assert traj.position.base.shape == (traj.times.size, spec.state_dim)

    @pytest.mark.parametrize("case", ["fb_flow", "dr_flow", "acc_fb",
                                      "acc_dr"])
    def test_rhs_calls_all_from_stepper(self, monkeypatch, case):
        # every field evaluation goes through the module-level field and is
        # one the stepper counted: two to start, six per attempted step
        calls = []

        def counting(spec, t, psi, out=None):
            calls.append(t)
            return vector_field(spec, t, psi, out)

        monkeypatch.setattr("splitflow.dynamics.vector_field", counting)
        p = make_quadratic_l1()
        spec = DynamicsSpec(case, p, 0.05, ConvexSchedule(alpha=0.1))
        meta = integrate(spec, t_end=5.0, sample_dt=0.1).meta
        assert len(calls) == meta["rhs_calls"] == 2 + 6 * (
            meta["n_steps"] + meta["n_rejected"])
        assert meta["n_steps"] > 0

    def test_integration_failure_carries_partial(self):
        # blow up the field after t > 0.5 via a poisoned prox
        p_bad = CompositeProblem(Quadratic(np.eye(2), np.zeros(2)),
                                 PoisonedProx(after=40))
        spec = DynamicsSpec("fb_flow", p_bad, 0.5, ConvexSchedule(alpha=1.0))
        with pytest.raises(IntegrationFailure) as exc:
            integrate(spec, psi0=np.ones(2), t_end=10.0, sample_dt=0.1)
        assert exc.value.partial is not None
        assert exc.value.partial.times.shape[0] >= 1

    def test_non_finite_stage_reaching_raising_prox(self, monkeypatch):
        # the stages of a step are checked together, so a later stage's
        # state is built from a non-finite one; a prox that refuses it must
        # still read as a non-finite field, with the refused evaluation
        # counted
        seen = []

        def counting(spec, t, psi, out=None):
            seen.append(t)
            return vector_field(spec, t, psi, out)

        monkeypatch.setattr("splitflow.dynamics.vector_field", counting)
        f = make_quadratic_l1().f
        p = CompositeProblem(f, PoisonedProx(after=40, refuse=True))
        spec = DynamicsSpec("acc_dr", p, 0.5 / f.L, ConvexSchedule(alpha=0.1))
        with pytest.raises(IntegrationFailure, match="non-finite") as exc:
            integrate(spec, psi0=np.ones(spec.state_dim), t_end=10.0)
        assert exc.value.partial.meta["n_steps"] > 0
        assert exc.value.partial.meta["rhs_calls"] == len(seen)

    def test_field_non_finite_at_start(self, monkeypatch):
        # the stepper's constructor evaluates the field at psi0; that
        # failure keeps the one-sample partial and its field-call count
        p = CompositeProblem(Quadratic(np.eye(2), np.zeros(2)),
                             PoisonedProx(after=0))
        spec = DynamicsSpec("fb_flow", p, 0.5, ConvexSchedule(alpha=1.0))
        calls = []

        def counting(spec, t, psi, out=None):
            calls.append(t)
            return vector_field(spec, t, psi, out)

        monkeypatch.setattr("splitflow.dynamics.vector_field", counting)
        with pytest.raises(IntegrationFailure) as exc:
            integrate(spec, psi0=np.ones(2), t_end=10.0, sample_dt=0.1)
        partial = exc.value.partial
        np.testing.assert_array_equal(partial.times, [0.0])
        np.testing.assert_array_equal(partial.position, [[1.0, 1.0]])
        assert partial.meta["rhs_calls"] == len(calls) == 1
        assert partial.meta["n_steps"] == 0

    def test_field_non_finite_at_first_step_probe(self):
        # finite at psi0, not at the point the constructor probes to select
        # the first step: two evaluations, still a one-row partial
        g = PoisonedProx(after=1)
        p = CompositeProblem(Quadratic(np.eye(2), np.zeros(2)), g)
        spec = DynamicsSpec("fb_flow", p, 0.5, ConvexSchedule(alpha=1.0))
        with pytest.raises(IntegrationFailure, match="non-finite") as exc:
            integrate(spec, psi0=np.ones(2), t_end=10.0, sample_dt=0.1)
        partial = exc.value.partial
        np.testing.assert_array_equal(partial.times, [0.0])
        assert partial.meta["rhs_calls"] == g.calls == 2
        assert partial.meta["n_steps"] == 0

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("stage", range(1, 7))
    def test_stage_check_sees_each_row(self, monkeypatch, stage, bad):
        # a field of t alone, so that exactly one stage row of the third
        # attempted step holds a non-finite value, in one component; row 1
        # is weighted 0 in both the solution and the error estimate
        calls = []

        def field(spec, t, psi, out=None):
            calls.append(t)
            out[:] = np.cos(t + np.arange(psi.size))
            if len(calls) == 2 + 6 * 2 + stage:
                out[1] = bad
            return out

        monkeypatch.setattr("splitflow.dynamics.vector_field", field)
        spec = DynamicsSpec("fb_flow", smooth_problem(n=3), 0.1,
                            ConvexSchedule(alpha=1.0))
        with pytest.raises(IntegrationFailure, match="non-finite") as exc:
            integrate(spec, t_end=10.0, sample_dt=0.1)
        meta = exc.value.partial.meta
        attempts = meta["n_steps"] + meta["n_rejected"] + 1
        assert attempts == 3
        # an infinite row 1 makes y_new's product signal 0 inf, which the
        # suite's RuntimeWarning filter would raise before the sixth
        # evaluation; integrate lets the stage check report it
        assert meta["rhs_calls"] == len(calls) == 2 + 6 * attempts

    def test_stage_check_takes_squares_beyond_float_range(self):
        # |K| ~ 1e200: a sum of squares of the stages would overflow, the
        # stage check must not
        y0 = np.array([1e200, -2e200, 3e200])
        own = dynamics_module.Dopri5(
            lambda t, y, out: np.multiply(y, -1.0, out=out), y0, 5.0, 1e-9)
        own.start()
        while own.t < 5.0:
            assert own.step()
        assert own.n_steps > 3
        np.testing.assert_allclose(own.y, y0 * np.exp(-5.0), rtol=1e-7)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_piecewise_oracle_matches_dop853(self, seed):
        # the oracle against scipy's DOP853 at its tightest tolerance, on a
        # field written out here: x' = -(alpha/mu)(x - soft(u, mu lam))
        p, x0, ts = kink_case(seed)
        Q, q = p.f.Q, p.f.q
        exact, switches = piecewise_fb_flow_solution(Q, q, 0.4, 0.1, 0.7,
                                                     x0, ts)

        def field(t, x):
            u = x - 0.1 * (Q @ x + q)
            return -7.0 * (x - (u - np.clip(u, -0.04, 0.04)))
        sol = solve_ivp(field, (0.0, 10.0), x0, method="DOP853", rtol=1e-13,
                        atol=1e-13, t_eval=ts)
        assert switches.size >= 3
        assert np.max(np.abs(sol.y.T - exact)) <= 1e-11

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fb_flow_across_l1_kinks(self, seed):
        # the run crosses several kinks of the prox, and its error against
        # the piecewise-exact solution falls with the tolerance
        switches, errors = kink_errors(seed)
        assert switches.size >= 3
        assert errors[0] > errors[1] > errors[2]

    @pytest.mark.xfail(strict=True, reason=(
        "across l1 kinks fb_flow's error is 40-376 tol, not <= 10 tol as "
        "on smooth flows; see the CHANGES FOUND line on the piecewise-exact "
        "oracle"))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fb_flow_across_l1_kinks_within_ten_tol(self, seed):
        _, errors = kink_errors(seed)
        assert all(e <= 10.0 * tol for e, tol in zip(errors, KINK_TOLS))

    def test_deterministic(self):
        p = make_quadratic_l1(n=5, seed=11)
        spec = DynamicsSpec("acc_fb", p, 0.05, ConvexSchedule(alpha=0.1))
        a = integrate(spec, t_end=2.0, sample_dt=0.01)
        b = integrate(spec, t_end=2.0, sample_dt=0.01)
        np.testing.assert_array_equal(np.hstack([a.position, a.velocity]),
                                      np.hstack([b.position, b.velocity]))

    def test_tol_domain(self):
        p = make_quadratic_l1()
        spec = DynamicsSpec("fb_flow", p, 0.05, ConvexSchedule(alpha=1.0))
        with pytest.raises(ParameterDomainError):
            integrate(spec, t_end=1.0, tol=1e-2)

    @pytest.mark.parametrize("t_end, sample_dt", [
        (1.0, -0.1), (1.0, 0.0), (1.0, np.nan), (1.0, np.inf),
        (np.nan, 0.1), (np.inf, 0.1)])
    def test_time_domain(self, t_end, sample_dt):
        p = make_quadratic_l1()
        spec = DynamicsSpec("fb_flow", p, 0.05, ConvexSchedule(alpha=1.0))
        with pytest.raises(ParameterDomainError):
            integrate(spec, t_end=t_end, sample_dt=sample_dt)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_initial_state(self, monkeypatch, bad):
        # refused up front: the field is never evaluated
        def no_field(spec, t, psi, out=None):
            raise AssertionError("field evaluated")

        monkeypatch.setattr("splitflow.dynamics.vector_field", no_field)
        p = make_quadratic_l1(n=3)
        spec = DynamicsSpec("acc_fb", p, 0.05, ConvexSchedule(alpha=1.0))
        psi0 = np.zeros(spec.state_dim)
        psi0[4] = bad
        with pytest.raises(ParameterDomainError, match="finite"):
            integrate(spec, psi0=psi0, t_end=1.0)

    @pytest.mark.parametrize("kind", ["fb_flow", "acc_fb"])
    def test_field_writes_into_no_oracle_output(self, kind):
        # oracles whose outputs alias other arrays give the states of
        # fresh-array oracles, and the caller's psi0 is left as it was
        base = smooth_problem(n=4, seed=1)
        f = base.f
        aliasing = CompositeProblem(SharedGradient(f.Q, f.q, f.m, f.L),
                                    InputProx())
        runs = []
        for p in (base, aliasing):
            spec = DynamicsSpec(kind, p, 0.1, ConvexSchedule(alpha=0.7))
            psi0 = np.linspace(-1.0, 1.0, spec.state_dim)
            runs.append(integrate(spec, psi0=psi0, t_end=5.0, sample_dt=0.1))
            assert np.array_equal(psi0, np.linspace(-1.0, 1.0, spec.state_dim))
        fresh, aliased = runs
        assert np.array_equal(np.hstack([fresh.position, fresh.velocity]),
                              np.hstack([aliased.position, aliased.velocity]))
        assert fresh.meta["rhs_calls"] == aliased.meta["rhs_calls"]

    def test_acc_dr_output_map_residual(self):
        p = make_quadratic_l1(n=8, seed=13)
        mu = 0.05
        sched = ConvexSchedule(alpha=0.1)
        spec = DynamicsSpec("acc_dr", p, mu, sched)
        traj = integrate(spec, t_end=3.0, sample_dt=0.1)
        # reported x must satisfy the prox optimality condition against z
        for i in range(0, traj.times.shape[0], 7):
            x, z = traj.primal[i], traj.position[i]
            resid = p.f.gradient(x) + (x - z) / mu
            assert np.linalg.norm(resid) <= 1e-10 * (1 + np.linalg.norm(z))


class TestEquilibria:
    def test_all_four_fields_vanish_at_minimizer(self):
        p = make_quadratic_l1(n=8, seed=23)
        mu = 0.05
        ref = solve_reference(p, mu, tol=1e-12)
        z_star = ref.x + mu * p.f.gradient(ref.x)
        sched = ConvexSchedule(alpha=0.2)
        states = {
            "fb_flow": ref.x,
            "dr_flow": z_star,
            "acc_fb": np.concatenate([ref.x, np.zeros(p.dim)]),
            "acc_dr": np.concatenate([z_star, np.zeros(p.dim)]),
        }
        for kind, psi in states.items():
            spec = DynamicsSpec(kind, p, mu, sched)
            assert np.linalg.norm(vector_field(spec, 1.0, psi)) <= 1e-8, kind

    def test_trajectory_samples_sane(self):
        p = make_quadratic_l1(n=5, seed=25)
        spec = DynamicsSpec("acc_fb", p, 0.05, ConvexSchedule(alpha=0.1))
        traj = integrate(spec, t_end=3.0, sample_dt=0.1)
        assert np.all(np.diff(traj.times) > 0)
        assert np.all(np.isfinite(np.hstack([traj.position, traj.velocity])))


class TestDiscreteSteps:
    """What run_discrete iterates: iterate k + 1 is the ISTA or DR update
    at iterate k, from zero."""

    def test_fb_fixed_point(self):
        # the last iterate reaches the reference, a fixed point of the update
        p = make_quadratic_l1()
        mu = 0.05
        ref = solve_reference(p, mu, tol=1e-12)
        x = run_discrete(p, "fb_discrete", mu, 600).position
        assert np.linalg.norm(x[-1] - ref.x) <= 1e-10
        assert np.linalg.norm(
            x[-1] - mu * generalized_gradient(p, x[-1], mu) - x[-1]) <= 1e-10

    def test_fb_reduces_to_gradient_step(self):
        p = smooth_problem()
        x = run_discrete(p, "fb_discrete", 0.1, 5).position
        for k in range(5):
            np.testing.assert_allclose(x[k + 1],
                                       x[k] - 0.1 * p.f.gradient(x[k]),
                                       atol=1e-13)

    def test_fb_lasso_step_is_soft_threshold(self):
        # iterate k + 1 is x - mu G_mu(x) at iterate k, bit for bit; the first
        # is the soft threshold of the forward step from zero
        p = make_quadratic_l1(n=6, seed=15)
        mu = 0.05
        x = run_discrete(p, "fb_discrete", mu, 8).position
        for k in range(8):
            np.testing.assert_array_equal(
                x[k + 1], x[k] - mu * generalized_gradient(p, x[k], mu))
        fwd = -mu * p.f.gradient(np.zeros(6))
        expected = [scalar_prox_l1(v, mu, p.g.weight) for v in fwd]
        np.testing.assert_allclose(x[1], expected, atol=2e-7)

    def test_dr_fixed_point(self):
        # the last iterate reaches z* = x* + mu grad f(x*), and its primal x*
        p = make_quadratic_l1()
        mu = 0.05
        ref = solve_reference(p, mu, tol=1e-12)
        z_star = ref.x + mu * p.f.gradient(ref.x)
        traj = run_discrete(p, "dr_discrete", mu, 600)
        assert np.linalg.norm(traj.position[-1] - z_star) <= 1e-9
        assert np.linalg.norm(traj.primal[-1] - ref.x) <= 1e-9

    def test_dr_equals_gradient_map_form(self):
        # iterate k + 1 is z - mu G_mu(prox_f(z)) at iterate k, bit for bit,
        # and the classic z - prox_f(z) + prox_g(2 prox_f(z) - z) to rounding
        p = make_quadratic_l1()
        mu = 0.05
        z = run_discrete(p, "dr_discrete", mu, 10).position
        for k in range(10):
            xh = p.f.prox(z[k], mu)
            np.testing.assert_array_equal(
                z[k + 1], z[k] - mu * generalized_gradient(p, xh, mu))
            np.testing.assert_allclose(
                z[k + 1], z[k] - xh + p.g.prox(2.0 * xh - z[k], mu),
                rtol=0, atol=1e-12)

    def test_dr_one_dim_against_bruteforce(self):
        p = CompositeProblem(Quadratic(np.array([[2.0]]), np.array([-1.0])),
                             L1(0.5))
        mu = 0.2
        z = run_discrete(p, "dr_discrete", mu, 2).position
        for k in range(2):
            xh_expected = (z[k] - mu * (-1.0)) / (1 + mu * 2.0)
            refl = 2 * xh_expected - z[k]
            pg = scalar_prox_l1(refl[0], mu, 0.5)
            np.testing.assert_allclose(z[k + 1], z[k] - xh_expected + pg,
                                       atol=2e-7)
        assert z[1, 0] != 0.0

    @pytest.mark.parametrize("mu_L", [np.nan, np.inf, 0.0, -1.0, 1.0, 2.0])
    def test_dr_mu_domain(self, mu_L):
        # mu = mu_L/L outside (0, 1/L), the domain of every kind, is refused
        # once, before the first iterate, by either kind
        p = make_quadratic_l1()
        for kind in ("dr_discrete", "fb_discrete"):
            with pytest.raises(ParameterDomainError):
                run_discrete(p, kind, mu_L / p.f.L, 3)

    def test_dr_discrete_on_logistic_names_the_splitting(self):
        # refused before any iterate, by the DR flow's spec, with a message
        # that names the splitting, not that flow
        p = make_logistic_l1()
        with pytest.raises(UnsupportedOperationError,
                           match="Douglas-Rachford") as exc:
            run_discrete(p, "dr_discrete", 0.5 / p.f.L, 0)
        assert "dr_flow" not in str(exc.value)

    def test_iterate_k_at_time_k(self):
        p = make_quadratic_l1()
        traj = run_discrete(p, "fb_discrete", 0.5 / p.f.L, 3)
        assert traj.times.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert run_discrete(p, "fb_discrete", 0.5 / p.f.L, 0).times.size == 1
        with pytest.raises(ParameterDomainError, match="n_steps"):
            run_discrete(p, "fb_discrete", 0.5 / p.f.L, -3)

    def test_discrete_fb_converges_to_flow_limit(self):
        p = make_quadratic_l1(n=8, m=1.0, L=5.0, seed=17)
        mu = 1.0 / (2.0 * p.f.L)
        ref = solve_reference(p, mu, tol=1e-12)
        traj = run_discrete(p, "fb_discrete", mu, 4000, x_star=ref.x,
                            f_star=ref.value)
        assert np.sqrt(traj.observables["dist_sq"][-1]) <= 1e-6
        spec = DynamicsSpec("fb_flow", p, mu, ConvexSchedule(alpha=1.0))
        flow = integrate(spec, t_end=40.0, sample_dt=0.5, x_star=ref.x)
        assert np.linalg.norm(flow.position[-1] - traj.position[-1]) <= 1e-6


class TestTrajectoryCsv:
    def test_roundtrip(self, tmp_path):
        p = make_quadratic_l1(n=4, seed=19)
        mu = 0.05
        ref = solve_reference(p, mu, tol=1e-12)
        spec = DynamicsSpec("acc_dr", p, mu, ConvexSchedule(alpha=0.1))
        traj = integrate(spec, t_end=1.0, sample_dt=0.1, x_star=ref.x,
                         f_star=ref.value)
        path = tmp_path / "trace.csv"
        export_trajectory_csv(traj, path)
        back = read_trace_csv(path)
        np.testing.assert_array_equal(back["t"], traj.times)
        np.testing.assert_array_equal(back["x"], traj.primal)
        np.testing.assert_array_equal(back["z"], traj.position)
        np.testing.assert_array_equal(back["v"], traj.velocity)
        np.testing.assert_array_equal(back["objective_gap"],
                                      traj.observables["objective_gap"])
        np.testing.assert_array_equal(back["dist_sq"],
                                      traj.observables["dist_sq"])
        assert set(back) == {"t", "x", "z", "v", "objective_gap", "dist_sq"}

    @pytest.mark.parametrize("case", ["fb_flow", "acc_dr", "dr_discrete",
                                      "no_reference", "one_row_partial"])
    def test_bytes_match_percent_e(self, case, tmp_path):
        p = make_quadratic_l1(n=4, seed=19)
        mu = 0.05
        ref = solve_reference(p, mu, tol=1e-12)
        sched = ConvexSchedule(alpha=0.1)
        if case == "dr_discrete":           # empty velocity block
            traj = run_discrete(p, case, mu, 40, x_star=ref.x,
                                f_star=ref.value)
        elif case == "one_row_partial":
            # the prox turns non-finite in the first step, after the two
            # field evaluations of the stepper's set-up
            p_bad = CompositeProblem(p.f, PoisonedProx(after=2))
            with pytest.raises(IntegrationFailure) as exc:
                integrate(DynamicsSpec("fb_flow", p_bad, mu, sched),
                          psi0=np.linspace(-1.0, 1.0, 4), t_end=1.0)
            traj = exc.value.partial
            assert traj.times.shape[0] == 1
        else:
            kind = "acc_dr" if case == "acc_dr" else "fb_flow"
            known = {} if case == "no_reference" else dict(x_star=ref.x,
                                                           f_star=ref.value)
            traj = integrate(DynamicsSpec(kind, p, mu, sched), t_end=40.0,
                             sample_dt=0.5, **known)
        path = tmp_path / "trace.csv"
        export_trajectory_csv(traj, path)
        assert path.read_bytes() == trace_csv_reference(traj)

    @pytest.mark.parametrize("kind", ["fb_flow", "dr_flow", "acc_fb",
                                      "acc_dr", "fb_discrete", "dr_discrete"])
    def test_readme_width_matches_percent_e(self, kind, tmp_path):
        # the README config's lasso 20x100 over a short run: acc_dr writes
        # 303 columns (t, x, z, v and the two observables)
        config = BenchmarkConfig(dims=(20, 100), seed=0)
        p = generate_problem(config)
        mu = _example_setup(config, p)["mu"]
        ref = solve_reference(p, mu, tol=1e-12)
        known = dict(x_star=ref.x, f_star=ref.value)
        if kind.endswith("discrete"):
            traj = run_discrete(p, kind, mu, 40, **known)
        else:
            spec = DynamicsSpec(kind, p, mu, ConvexSchedule(alpha=1 / p.f.L))
            traj = integrate(spec, t_end=4.0, sample_dt=0.1, **known)
        path = tmp_path / "trace.csv"
        size = export_trajectory_csv(traj, path)
        assert path.read_bytes() == trace_csv_reference(traj)
        assert size == path.stat().st_size

    def test_header_and_precision(self, tmp_path):
        p = make_quadratic_l1(n=2, seed=21)
        spec = DynamicsSpec("fb_flow", p, 0.05, ConvexSchedule(alpha=1.0))
        traj = integrate(spec, t_end=0.5, sample_dt=0.25)
        path = tmp_path / "t.csv"
        export_trajectory_csv(traj, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,x_1,x_2,objective_gap,dist_sq"
        assert "e" in lines[1].split(",")[1]


# the six kinds, each with its splitting and whether it is accelerated
SIX_KINDS = {"fb_flow": ("fb", False), "dr_flow": ("dr", False),
             "acc_fb": ("fb", True), "acc_dr": ("dr", True),
             "fb_discrete": ("fb", False), "dr_discrete": ("dr", False)}


class TestKindTable:
    @pytest.mark.parametrize("kind", list(SIX_KINDS))
    def test_trace_header(self, kind, tmp_path):
        # z_* columns exactly for a DR kind, dr_discrete included, and v_*
        # columns exactly for an accelerated one
        p = make_quadratic_l1(n=3, seed=2)
        if kind.endswith("discrete"):
            traj = run_discrete(p, kind, 0.05, 2)
        else:
            spec = DynamicsSpec(kind, p, 0.05, ConvexSchedule(alpha=0.1))
            traj = integrate(spec, t_end=0.5, sample_dt=0.25)
        export_trajectory_csv(traj, tmp_path / "trace.csv")
        with open(tmp_path / "trace.csv", encoding="ascii") as fh:
            header = fh.readline().rstrip("\r\n").split(",")
        splitting, accelerated = SIX_KINDS[kind]
        blocks = ["x"] + ["z"] * (splitting == "dr") + ["v"] * accelerated
        assert header == ["t"] + [f"{b}_{i}" for b in blocks
                                  for i in (1, 2, 3)] + [
            "objective_gap", "dist_sq"]

    @pytest.mark.parametrize("kind", ["warp_drive", "FB_FLOW", ["acc_fb"],
                                      None])
    def test_config_refuses_kind_outside_the_table(self, kind):
        # from Python and from JSON, with a message naming the table's kinds
        for build in (lambda: BenchmarkConfig(dynamics=("acc_fb", kind)),
                      lambda: BenchmarkConfig.from_dict(dict(
                          BenchmarkConfig().to_dict(),
                          dynamics=["acc_fb", kind]))):
            with pytest.raises(ValueError) as exc:
                build()
            assert str(list(SIX_KINDS)) in str(exc.value)
