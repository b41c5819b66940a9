"""Acceptance suite: one test per certified claim, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines.
"""

import math
import time

import numpy as np

from splitflow import (BoxIndicator, CompositeProblem, ConvexSchedule,
                       DynamicsSpec, L1, Quadratic, certify_exponential,
                       certify_sublinear, check_envelope_inequalities,
                       check_lyapunov_decay, dr_envelope, envelope_constants,
                       fb_envelope, fb_envelope_value, h_curve, integrate,
                       make_lyapunov_spec, schedule_strongly_convex,
                       solve_reference)
from splitflow.analysis import (GENERAL_STRONG, QUAD_CONVEX, QUAD_STRONG,
                                dr_weight_matrix, fb_weight_matrix)
from splitflow.envelopes import _fb_kernel
from splitflow.harness import gen_boxqp, gen_lasso, gen_logistic

from conftest import (make_logistic_l1, make_quadratic_box, make_quadratic_l1,
                      moreau_envelope)
from oracles import (decay_form_constant, decay_form_timevarying,
                     fb_envelope_prox_form, finite_diff_grad,
                     linear_flow_solution, random_spd_matrix,
                     second_directional_difference)


def verdict(name, passed, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'} {detail}")
    assert passed, f"{name}: {detail}"


class TestSublinearRateLasso:
    def test_criterion(self):
        t0 = time.perf_counter()
        p = gen_lasso(20, 100, seed=15)
        L = p.f.L
        mu = 1.0 / (2.0 * L)
        alpha = 1.0 / L
        ref = solve_reference(p, mu, tol=1e-12)
        sched = ConvexSchedule(alpha=alpha)
        slopes = {}
        for kind in ("acc_fb", "acc_dr", "fb_flow"):
            spec = DynamicsSpec(kind, p, mu, sched)
            traj = integrate(spec, t_end=200.0, sample_dt=0.1,
                             x_star=ref.x, f_star=ref.value)
            slopes[kind] = certify_sublinear(traj, (10.0, 200.0)).fitted
        elapsed = time.perf_counter() - t0
        ok = (slopes["acc_fb"] <= -1.8 and slopes["acc_dr"] <= -1.8
              and slopes["fb_flow"] > -1.5 and elapsed <= 60.0)
        verdict("sublinear rate (lasso 20x100)", ok,
                f"slopes acc_fb={slopes['acc_fb']:.3f} "
                f"acc_dr={slopes['acc_dr']:.3f} "
                f"fb_flow={slopes['fb_flow']:.3f} ({elapsed:.1f}s)")


def separated(acc_gaps, flow_gaps, factor=20.0):
    """Every accelerated gap at most every flow gap over ``factor``."""
    return max(acc_gaps) <= min(flow_gaps) / factor


class TestAccelerationWorstCase:
    """Nesterov's worst-case quadratic (Introductory Lectures on Convex
    Optimization, 2004, Sec. 2.1.2): f = (L/8) x'Ax - (L/4) x_1 with
    A = tridiag(-1, 2, -1), g the box [-10, 10]^n, inactive at every sample
    (x*_i = 1 - i/(n+1)). The accelerated kinds reach O(1/t^2), the flows
    only about t^-0.55 over [50, 400]."""

    def test_criterion(self):
        t0 = time.perf_counter()
        n, L = 200, 1.0
        A = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        q = np.zeros(n)
        q[0] = -L / 4.0
        p = CompositeProblem(Quadratic(L / 4.0 * A, q, m=0.0, L=L),
                             BoxIndicator(np.full(n, -10.0),
                                          np.full(n, 10.0)))
        x_star = 1.0 - np.arange(1, n + 1) / (n + 1.0)
        f_star = p.objective(x_star)
        mu, alpha, tol = 1.0 / (2.0 * L), 1.0 / L, 1e-9
        gaps, slopes = {}, {}
        for kind in ("acc_fb", "acc_dr", "fb_flow", "dr_flow"):
            spec = DynamicsSpec(kind, p, mu, ConvexSchedule(alpha=alpha))
            traj = integrate(spec, t_end=400.0, tol=tol, x_star=x_star,
                             f_star=f_star)
            assert np.abs(traj.primal).max() < 10.0     # the box is inactive
            gaps[kind] = traj.observables["objective_gap"][-1]
            slopes[kind] = certify_sublinear(traj, (50.0, 400.0)).fitted
            if kind == "fb_flow":   # linear: x' = -alpha (Q x + q) from 0
                exact = linear_flow_solution(p.f.Q, q, alpha, np.zeros(n),
                                             traj.times)
                assert np.abs(traj.primal - exact).max() <= 10.0 * tol
        elapsed = time.perf_counter() - t0
        acc = [gaps["acc_fb"], gaps["acc_dr"]]
        flow = [gaps["fb_flow"], gaps["dr_flow"]]
        # the separation check can fail: not with the kinds swapped
        assert not separated(flow, acc)
        ok = (separated(acc, flow)
              and max(slopes["acc_fb"], slopes["acc_dr"]) <= -1.9
              and min(slopes["fb_flow"], slopes["dr_flow"]) >= -0.7)
        verdict("acceleration on the worst-case quadratic (n=200)", ok,
                " ".join(f"{k}: gap={gaps[k]:.2e} slope={slopes[k]:.3f}"
                         for k in gaps) + f" ({elapsed:.1f}s)")


class TestExponentialRateBoxQp:
    def test_criterion(self):
        t0 = time.perf_counter()
        p = gen_boxqp(50, 1e3, seed=0)
        m, L = p.f.m, p.f.L
        mu = 1.0 / (2.0 * L)
        ref = solve_reference(p, mu, tol=1e-12)
        results = {}
        for kind, env in (("acc_fb", "fb"), ("acc_dr", "dr")):
            consts = envelope_constants(m, L, mu, env)
            alpha = 1.0 / consts.L_tilde
            sched = schedule_strongly_convex(alpha, consts.m_tilde)
            spec = DynamicsSpec(kind, p, mu, sched)
            traj = integrate(spec, t_end=650.0, sample_dt=0.5,
                             x_star=ref.x, f_star=ref.value)
            rep = certify_exponential(traj, sched.rate, (65.0, 520.0))
            results[kind] = (rep.fitted, sched.rate, rep.passed)
        elapsed = time.perf_counter() - t0
        ok = all(r[2] for r in results.values()) and elapsed <= 60.0
        verdict("exponential rate (box QP n=50 kappa=1e3)", ok,
                " ".join(f"{k}: fitted={v[0]:.4f} rho={v[1]:.4f}"
                         for k, v in results.items()) + f" ({elapsed:.1f}s)")


class TestExponentialRateLogistic:
    def test_criterion(self):
        t0 = time.perf_counter()
        p = gen_logistic(40, 80, ridge=0.1, seed=0)
        m, L = p.f.m, p.f.L
        alpha = 1.0 / L
        sched = schedule_strongly_convex(alpha, m)
        mu = math.sqrt(sched.gamma() * sched.beta()) / (2.0 * L)
        ref = solve_reference(p, mu, tol=1e-12)
        spec = DynamicsSpec("acc_fb", p, mu, sched)
        traj = integrate(spec, t_end=500.0, sample_dt=0.5,
                         x_star=ref.x, f_star=ref.value)
        rep = certify_exponential(traj, sched.rate, (50.0, 450.0))
        elapsed = time.perf_counter() - t0
        ok = rep.passed and elapsed <= 120.0
        verdict("exponential rate (l1-logistic 40x80)", ok,
                f"fitted={rep.fitted:.4f} rho={sched.rate:.4f} "
                f"({elapsed:.1f}s)")


class TestFlowBaselineRates:
    def test_criterion(self):
        worst = []
        for make, name in ((make_quadratic_l1, "l1"),
                           (make_quadratic_box, "box")):
            p = make(seed=3)
            m, L = p.f.m, p.f.L
            mu = 1.0 / (2.0 * L)
            alpha = 1.0 / L
            ref = solve_reference(p, mu, tol=1e-12)
            for kind in ("fb_flow", "dr_flow"):
                spec = DynamicsSpec(kind, p, mu, ConvexSchedule(alpha=alpha))
                traj = integrate(spec, t_end=50.0, sample_dt=0.1,
                                 x_star=ref.x, f_star=ref.value)
                rep = certify_exponential(traj, alpha * m, (2.0, 40.0))
                worst.append((f"{kind}/{name}", rep.fitted, rep.passed))
        ok = all(w[2] for w in worst)
        verdict("flow baseline decay >= 0.9 alpha m", ok,
                " ".join(f"{n}={f:.3f}" for n, f, _ in worst))


class TestLyapunovDecayRegimes:
    def test_criterion(self):
        worst = -np.inf
        # convex quadratic, time-varying damping
        for seed in range(10):
            p = gen_lasso(10, 30, seed=seed)
            L = p.f.L
            mu = 1.0 / (2.0 * L)
            alpha = 1.0 / L
            ref = solve_reference(p, mu, tol=1e-12)
            kind, env = (("acc_fb", "fb") if seed % 2 == 0
                         else ("acc_dr", "dr"))
            traj = integrate(DynamicsSpec(kind, p, mu,
                                          ConvexSchedule(alpha=alpha)),
                             t_end=30.0, sample_dt=0.005,
                             x_star=ref.x, f_star=ref.value)
            lspec = make_lyapunov_spec(p, mu, alpha=alpha, case=QUAD_CONVEX,
                                       theta=lambda t: 2.0 / (t + 3.0),
                                       envelope_kind=env, x_star=ref.x,
                                       f_star=ref.value)
            rep = check_lyapunov_decay(traj, lspec)
            worst = max(worst, rep.fitted)
            assert rep.passed, ("convex regime", seed, rep.fitted)
        # strongly convex quadratic, constant damping
        for seed in range(10):
            p = gen_boxqp(16, 100.0, seed=seed)
            m, L = p.f.m, p.f.L
            mu = 1.0 / (2.0 * L)
            ref = solve_reference(p, mu, tol=1e-12)
            kind, env = (("acc_fb", "fb") if seed % 2 == 0
                         else ("acc_dr", "dr"))
            consts = envelope_constants(m, L, mu, env)
            alpha = 1.0 / consts.L_tilde
            sched = schedule_strongly_convex(alpha, consts.m_tilde)
            traj = integrate(DynamicsSpec(kind, p, mu, sched), t_end=30.0,
                             sample_dt=0.005, x_star=ref.x, f_star=ref.value)
            lspec = make_lyapunov_spec(p, mu, alpha=alpha, case=QUAD_STRONG,
                                       theta=sched.theta(), envelope_kind=env,
                                       x_star=ref.x, f_star=ref.value)
            rep = check_lyapunov_decay(traj, lspec)
            worst = max(worst, rep.fitted)
            assert rep.passed, ("strongly convex regime", seed, rep.fitted)
        # general strongly convex (logistic)
        for seed in range(10):
            p = gen_logistic(20, 12, ridge=0.3, seed=seed)
            m, L = p.f.m, p.f.L
            alpha = 1.0 / L
            sched = schedule_strongly_convex(alpha, m)
            mu = math.sqrt(sched.gamma() * sched.beta()) / (2.0 * L)
            ref = solve_reference(p, mu, tol=1e-11)
            traj = integrate(DynamicsSpec("acc_fb", p, mu, sched),
                             t_end=30.0, sample_dt=0.005,
                             x_star=ref.x, f_star=ref.value)
            lspec = make_lyapunov_spec(p, mu, alpha=alpha,
                                       case=GENERAL_STRONG,
                                       theta=sched.theta(),
                                       beta=sched.beta(),
                                       x_star=ref.x, f_star=ref.value)
            rep = check_lyapunov_decay(traj, lspec)
            worst = max(worst, rep.fitted)
            assert rep.passed, ("general regime", seed, rep.fitted)
        verdict("Lyapunov decay (3 regimes x 10 seeds)", True,
                f"worst normalized residual {worst:.2e} <= 1e-4")


class TestEnvelopeInequalitySuite:
    def test_criterion(self):
        worst = np.inf
        for seed in range(10):
            if seed % 2 == 0:
                p = make_quadratic_l1(n=12, m=0.5 + 0.1 * seed, L=6.0,
                                      lam=0.3, seed=seed)
            else:
                p = make_logistic_l1(s=20, n=10, ridge=0.3, lam=0.2,
                                     seed=seed)
            mu = 0.5 / p.f.L
            rep = check_envelope_inequalities(p, mu, seed=seed)
            worst = min(worst,
                        rep.details["worst_upper_margin"],
                        rep.details["worst_lower_margin"])
            assert rep.passed, (seed, rep.details)
        verdict("envelope inequality suite (10 problems x 1000 pairs)", True,
                f"worst margin {worst:.2e} >= 0")


class TestEnvelopeCurvature:
    def test_criterion(self):
        c_fb = envelope_constants(1.0, 10.0, 0.05, "fb")
        c_dr = envelope_constants(1.0, 10.0, 0.05, "dr")
        exact = (abs(c_fb.L_tilde - 38.0) <= 38.0 * 1e-14
                 and abs(c_fb.m_tilde - 0.95) <= 0.95 * 1e-14)
        p = make_quadratic_l1(n=10, m=1.0, L=10.0, lam=0.4, seed=2)
        mu = 0.05
        gen = np.random.default_rng(5)
        in_range = True
        for kind, consts in (("fb", c_fb), ("dr", c_dr)):
            if kind == "fb":
                fun = lambda x: fb_envelope_value(p, x, mu)
            else:
                fun = lambda z: dr_envelope(p, z, mu).value
            for _ in range(60):
                x = 2.0 * gen.standard_normal(p.dim)
                d = gen.standard_normal(p.dim)
                sd = second_directional_difference(fun, x, d, 1e-3)
                in_range &= (consts.m_tilde - 1e-6 <= sd
                             <= consts.L_tilde + 1e-6)
        verdict("envelope curvature within [m~, L~]", exact and in_range,
                f"FB constants ({c_fb.L_tilde:.15g}, {c_fb.m_tilde:.15g})")


class TestRateConditionCurve:
    def test_criterion(self):
        grid = np.arange(1, 1001) / 1000.0
        rep = h_curve(grid)
        mono = rep.details["monotone_margin"]
        # the w = 1 boundary is degenerate (mu L = 0 on both branches)
        strict_interior = bool(np.all(mono[:-1] > 0.0))
        ok = rep.passed and rep.fitted <= 0.0 and strict_interior
        verdict("rate-condition curve h(w) <= 0 and monotone in mu L", ok,
                f"max h = {rep.fitted:.4e}, min interior margin "
                f"{mono[:-1].min():.2e}")


class TestGradientOracles:
    def test_criterion(self):
        p = make_quadratic_l1(n=15, m=1.0, L=10.0, lam=0.5, seed=4)
        mu = 0.05
        gen = np.random.default_rng(7)
        worst = {"moreau": 0.0, "fb": 0.0, "dr": 0.0, "equiv": 0.0}
        g = p.g
        for _ in range(100):
            v = 2.0 * gen.standard_normal(p.dim)
            _, grad = moreau_envelope(g, v, mu)
            fd = finite_diff_grad(lambda z: moreau_envelope(g, z, mu)[0], v)
            worst["moreau"] = max(worst["moreau"],
                                  np.linalg.norm(fd - grad)
                                  / (1 + np.linalg.norm(grad)))
            ev = fb_envelope(p, v, mu)
            fd = finite_diff_grad(lambda z: fb_envelope_value(p, z, mu), v)
            worst["fb"] = max(worst["fb"], np.linalg.norm(fd - ev.gradient)
                              / (1 + np.linalg.norm(ev.gradient)))
            dv = dr_envelope(p, v, mu)
            fd = finite_diff_grad(lambda z: dr_envelope(p, z, mu).value, v)
            worst["dr"] = max(worst["dr"], np.linalg.norm(fd - dv.gradient)
                              / (1 + np.linalg.norm(dv.gradient)))
            v1 = _fb_kernel(p, v, mu)[4]
            v2 = fb_envelope_prox_form(p, v, mu)
            worst["equiv"] = max(worst["equiv"],
                                 abs(v1 - v2) / (1 + abs(v1)))
        ok = (worst["moreau"] <= 1e-5 and worst["fb"] <= 1e-5
              and worst["dr"] <= 1e-5 and worst["equiv"] <= 1e-10)
        verdict("gradient oracles vs finite differences", ok,
                f"worst rel err moreau={worst['moreau']:.1e} "
                f"fb={worst['fb']:.1e} dr={worst['dr']:.1e} "
                f"formulas={worst['equiv']:.1e}")


class TestEnvelopeEquivalence:
    def test_criterion(self):
        from scipy.optimize import minimize
        p = make_quadratic_l1(n=15, m=1.0, L=10.0, lam=0.6, seed=4)
        mu = 0.05
        ref = solve_reference(p, mu, tol=1e-12)
        gen = np.random.default_rng(0)
        x0 = gen.standard_normal(p.dim)

        res_fb = minimize(lambda x: (fb_envelope(p, x, mu).value,
                                     fb_envelope(p, x, mu).gradient),
                          x0, jac=True, method="L-BFGS-B",
                          options={"maxiter": 20000, "ftol": 1e-16,
                                   "gtol": 1e-12})
        res_dr = minimize(lambda z: (dr_envelope(p, z, mu).value,
                                     dr_envelope(p, z, mu).gradient),
                          x0, jac=True, method="L-BFGS-B",
                          options={"maxiter": 20000, "ftol": 1e-16,
                                   "gtol": 1e-12})
        gap_fb = abs(res_fb.fun - ref.value)
        x_from_z = p.f.prox(res_dr.x, mu)
        dr_dist = np.linalg.norm(x_from_z - ref.x)
        below = True
        for _ in range(100):
            x = 2.0 * gen.standard_normal(p.dim)
            ev = fb_envelope(p, x, mu)
            below &= p.objective(ev.prox_point) <= ev.value + 1e-10
        ok = (gap_fb <= 1e-6
              and np.linalg.norm(res_fb.x - ref.x) <= 1e-6
              and dr_dist <= 1e-6 and below)
        verdict("envelope minimizer equivalence", ok,
                f"|min Fmu - min F|={gap_fb:.2e} "
                f"||prox(argmin Dmu)-x*||={dr_dist:.2e}")


class TestCertificateMatrices:
    def test_criterion(self):
        gen = np.random.default_rng(11)
        # time-varying case: the assembled form vanishes identically
        worst_tv = 0.0
        for _ in range(20):
            n = 6
            Q = random_spd_matrix(n, 1.0, 10.0, gen)
            H = np.eye(n) - 0.05 * Q
            t = float(gen.uniform(0.0, 100.0))
            worst_tv = max(worst_tv,
                           np.abs(decay_form_timevarying(t, H)).max())
        # constant case: negative semidefinite over random valid draws
        worst_eig = -np.inf
        for _ in range(100):
            m = float(10 ** gen.uniform(-1, 1))
            L = m * float(10 ** gen.uniform(0.1, 3))
            mu = float(gen.uniform(0.05, 0.95)) / L
            kind = "fb" if gen.uniform() < 0.5 else "dr"
            consts = envelope_constants(m, L, mu, kind)
            alpha = float(gen.uniform(0.01, 1.0)) / consts.m_tilde
            sched = schedule_strongly_convex(alpha, consts.m_tilde)
            n = 5
            Q = random_spd_matrix(n, m, L, gen)
            prob = CompositeProblem(Quadratic(Q, np.zeros(n), m=m, L=L),
                                    L1(1.0))
            H = (fb_weight_matrix(prob, mu) if kind == "fb"
                 else dr_weight_matrix(prob, mu))
            M = decay_form_constant(alpha, consts.m_tilde, sched.gamma(),
                                    sched.beta(), sched.theta(), H)
            worst_eig = max(worst_eig,
                            np.linalg.eigvalsh(0.5 * (M + M.T))[-1])
        ok = worst_tv <= 1e-12 and worst_eig <= 1e-10
        verdict("certificate matrices (zero form, neg. semidefinite form)",
                ok, f"max |entry| = {worst_tv:.2e}, "
                    f"max eigenvalue = {worst_eig:.2e}")
