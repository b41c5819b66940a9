import numpy as np
import pytest

from splitflow import (BoxIndicator, CompositeProblem, L1,
                       ParameterDomainError, Quadratic,
                       UnsupportedOperationError, dr_envelope,
                       envelope_constants, fb_envelope, fb_envelope_value,
                       generalized_gradient, solve_reference)
from splitflow.envelopes import _fb_kernel

from conftest import SquaredNorm, make_logistic_l1, make_quadratic_l1
from oracles import (fb_envelope_prox_form, finite_diff_grad,
                     random_spd_matrix, scalar_prox_l1,
                     second_directional_difference)


def smooth_only_problem(n=4, seed=0):
    gen = np.random.default_rng(seed)
    Q = random_spd_matrix(n, 0.5, 3.0, gen)
    return CompositeProblem(Quadratic(Q, gen.standard_normal(n)),
                            BoxIndicator(-np.inf, np.inf))


class TestGeneralizedGradient:
    def test_one_dim_lasso_worked_value(self):
        p = CompositeProblem(Quadratic(np.array([[1.0]]), np.zeros(1)), L1(1.0))
        G = generalized_gradient(p, np.array([2.0]), 0.5)
        # cross-check the prox point against the scalar brute-force oracle
        prox_pt = scalar_prox_l1(2.0 - 0.5 * 2.0, 0.5, 1.0)
        assert prox_pt == pytest.approx(0.5, abs=1e-7)
        np.testing.assert_allclose(G, [3.0], atol=1e-12)

    def test_vanishes_at_minimizer(self):
        p = make_quadratic_l1()
        ref = solve_reference(p, 0.05, tol=1e-12)
        G = generalized_gradient(p, ref.x, 0.05)
        assert np.linalg.norm(G) <= 1e-8

    def test_reduces_to_gradient_without_g(self, rng):
        p = smooth_only_problem()
        x = rng.standard_normal(4)
        np.testing.assert_allclose(generalized_gradient(p, x, 0.1),
                                   p.f.gradient(x), atol=1e-13)

    def test_mu_domain_enforced(self):
        p = make_quadratic_l1()
        with pytest.raises(ParameterDomainError):
            generalized_gradient(p, np.zeros(p.dim), 1.0 / p.f.L)
        with pytest.raises(ParameterDomainError):
            generalized_gradient(p, np.zeros(p.dim), -0.01)


class TestFbEnvelope:
    def test_smooth_case_closed_form(self, rng):
        p = smooth_only_problem()
        for _ in range(10):
            x = rng.standard_normal(4)
            ev = fb_envelope(p, x, 0.2)
            gf = p.f.gradient(x)
            expected = p.f.value(x) - 0.1 * float(gf @ gf)
            assert ev.value == pytest.approx(expected, rel=1e-12)

    def test_objective_at_prox_below_envelope(self, rng):
        p = make_quadratic_l1()
        mu = 0.05
        for _ in range(100):
            x = 2.0 * rng.standard_normal(p.dim)
            ev = fb_envelope(p, x, mu)
            assert p.objective(ev.prox_point) <= ev.value + 1e-10

    def test_gradient_matches_finite_difference(self, rng):
        p = make_quadratic_l1()
        mu = 0.05
        worst = 0.0
        for _ in range(100):
            x = 2.0 * rng.standard_normal(p.dim)
            ev = fb_envelope(p, x, mu)
            fd = finite_diff_grad(lambda z: fb_envelope_value(p, z, mu), x)
            worst = max(worst, np.linalg.norm(fd - ev.gradient)
                        / (1 + np.linalg.norm(ev.gradient)))
        assert worst <= 1e-5

    def test_gradient_matches_finite_difference_logistic(self, rng):
        p = make_logistic_l1()
        mu = 0.5 / p.f.L
        worst = 0.0
        for _ in range(50):
            x = rng.standard_normal(p.dim)
            ev = fb_envelope(p, x, mu)
            fd = finite_diff_grad(lambda z: fb_envelope_value(p, z, mu), x)
            worst = max(worst, np.linalg.norm(fd - ev.gradient)
                        / (1 + np.linalg.norm(ev.gradient)))
        assert worst <= 1e-5

    def test_two_value_formulas_agree(self, rng):
        p = make_quadratic_l1()
        mu = 0.08
        for _ in range(100):
            x = 3.0 * rng.standard_normal(p.dim)
            value = _fb_kernel(p, x, mu)[3]
            expected = fb_envelope_prox_form(p, x, mu)
            assert abs(value - expected) <= 1e-10 * (1 + abs(value))

    def test_gradient_is_weighted_gradient_map(self, rng):
        p = make_quadratic_l1()
        mu = 0.05
        H = np.eye(p.dim) - mu * p.f.Q
        for _ in range(20):
            x = rng.standard_normal(p.dim)
            ev = fb_envelope(p, x, mu)
            np.testing.assert_allclose(ev.gradient, H @ ev.gen_grad,
                                       atol=1e-12)


class TestOracleRequirements:
    def test_fb_gradient_needs_hessian_action(self):
        p = CompositeProblem(SquaredNorm(3), L1(0.5))
        assert fb_envelope_value(p, np.ones(3), 0.1) is not None
        with pytest.raises(UnsupportedOperationError):
            fb_envelope(p, np.ones(3), 0.1)


class TestDrEnvelope:
    def test_value_is_fb_at_prox(self, rng):
        p = make_quadratic_l1()
        mu = 0.07
        z = rng.standard_normal(p.dim)
        ev = dr_envelope(p, z, mu)
        xh = p.f.prox(z, mu)
        assert ev.value == fb_envelope(p, xh, mu).value
        np.testing.assert_allclose(ev.prox_point, xh, atol=1e-14)

    def test_gradient_vanishes_at_optimum(self):
        p = make_quadratic_l1()
        mu = 0.05
        ref = solve_reference(p, mu, tol=1e-12)
        z_star = ref.x + mu * p.f.gradient(ref.x)
        ev = dr_envelope(p, z_star, mu)
        assert np.linalg.norm(ev.gradient) <= 1e-8

    def test_gradient_matches_finite_difference(self, rng):
        p = make_quadratic_l1()
        mu = 0.05
        worst = 0.0
        for _ in range(100):
            z = 2.0 * rng.standard_normal(p.dim)
            ev = dr_envelope(p, z, mu)
            fd = finite_diff_grad(lambda u: dr_envelope(p, u, mu).value, z)
            worst = max(worst, np.linalg.norm(fd - ev.gradient)
                        / (1 + np.linalg.norm(ev.gradient)))
        assert worst <= 1e-5


class TestEnvelopeConstants:
    def test_fb_worked_values(self):
        c = envelope_constants(1.0, 10.0, 0.05, "fb")
        assert c.L_tilde == pytest.approx(38.0, rel=1e-14)
        assert c.m_tilde == pytest.approx(0.95, rel=1e-14)

    def test_dr_worked_values(self):
        c = envelope_constants(1.0, 10.0, 0.05, "dr")
        assert c.L_tilde == pytest.approx(0.95 / (0.05 * 1.1025), rel=1e-12)
        assert c.m_tilde == pytest.approx(0.95 / 1.1025, rel=1e-12)

    def test_convex_case(self):
        c = envelope_constants(0.0, 4.0, 0.1, "fb")
        assert c.m_tilde == 0.0
        assert c.L_tilde == pytest.approx(2.0 / 0.1, rel=1e-14)

    def test_condition_number_bound(self, rng):
        # for mu = 1/(kL), k >= 2, and kappa >= 2: kappa~ <= 2 k kappa
        for _ in range(50):
            m = float(rng.uniform(0.05, 1.0))
            kappa = float(rng.uniform(2.0, 1e4))
            L = m * kappa
            k = float(rng.uniform(2.0, 10.0))
            mu = 1.0 / (k * L)
            for kind in ("fb", "dr"):
                c = envelope_constants(m, L, mu, kind)
                assert c.L_tilde / c.m_tilde <= 2.0 * k * kappa * (1 + 1e-9)

    def test_ordering(self, rng):
        for _ in range(20):
            m = float(rng.uniform(0.0, 1.0))
            L = m + float(rng.uniform(0.1, 9.0))
            mu = float(rng.uniform(0.05, 0.95)) / L
            for kind in ("fb", "dr"):
                c = envelope_constants(m, L, mu, kind)
                assert 0 <= c.m_tilde <= c.L_tilde

    def test_domain_errors(self):
        with pytest.raises(ParameterDomainError):
            envelope_constants(2.0, 1.0, 0.1, "fb")
        with pytest.raises(ParameterDomainError):
            envelope_constants(1.0, 2.0, 0.5, "fb")


class TestCurvatureBounds:
    @pytest.mark.parametrize("kind", ["fb", "dr"])
    def test_second_differences_within_constants(self, kind, rng):
        p = make_quadratic_l1(n=10, m=1.0, L=10.0, lam=0.4, seed=2)
        mu = 0.05
        c = envelope_constants(p.f.m, p.f.L, mu, kind)
        if kind == "fb":
            fun = lambda x: fb_envelope_value(p, x, mu)
        else:
            fun = lambda z: dr_envelope(p, z, mu).value
        h = 1e-3
        for _ in range(60):
            x = 2.0 * rng.standard_normal(p.dim)
            d = rng.standard_normal(p.dim)
            sd = second_directional_difference(fun, x, d, h)
            assert c.m_tilde - 1e-6 <= sd <= c.L_tilde + 1e-6


class TestEnvelopeEquivalence:
    def test_minima_agree_quadratic(self):
        from scipy.optimize import minimize
        p = make_quadratic_l1(n=15, m=1.0, L=10.0, lam=0.6, seed=4)
        mu = 0.05
        ref = solve_reference(p, mu, tol=1e-12)
        rng = np.random.default_rng(0)
        x0 = rng.standard_normal(p.dim)

        def fb_obj(x):
            ev = fb_envelope(p, x, mu)
            return ev.value, ev.gradient

        res = minimize(fb_obj, x0, jac=True, method="L-BFGS-B",
                       options={"maxiter": 20000, "ftol": 1e-16,
                                "gtol": 1e-12})
        assert abs(res.fun - ref.value) <= 1e-6
        assert np.linalg.norm(res.x - ref.x) <= 1e-6

        def dr_obj(z):
            ev = dr_envelope(p, z, mu)
            return ev.value, ev.gradient

        res_dr = minimize(dr_obj, x0, jac=True, method="L-BFGS-B",
                          options={"maxiter": 20000, "ftol": 1e-16,
                                   "gtol": 1e-12})
        assert abs(res_dr.fun - ref.value) <= 1e-6
        x_from_z = p.f.prox(res_dr.x, mu)
        assert np.linalg.norm(x_from_z - ref.x) <= 1e-6
