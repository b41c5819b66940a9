"""Lyapunov certificates and convergence-rate verification.

The tools here operate on sampled trajectories and on problem data: they
evaluate the Lyapunov functions used to certify the accelerated dynamics,
fit sublinear/exponential rates from traces, verify the envelope
upper/lower inequalities for strongly convex problems, and check the
scalar parameter conditions (including the rate-condition curve h(w))
that certify exponential decay for non-quadratic smooth parts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from ._csvfmt import write_csv
from .dynamics import (_BLOCK_ROWS, _KINDS, _TIME_OFFSET, acc_fb_mu_bound,
                       strongly_convex_point)
from .envelopes import (DR, FB, _fb_kernel, check_mu_domain,
                        fb_envelope_value, generalized_gradient)
from .exceptions import (NeedsReferenceError, ParameterDomainError,
                         UnsupportedOperationError, WindowTooLateError)
from .problems import _finite_scalar

__all__ = [
    "CertificateReport",
    "LyapunovSpec",
    "make_lyapunov_spec",
    "lyapunov_value",
    "lyapunov_series",
    "check_lyapunov_decay",
    "certify_sublinear",
    "certify_exponential",
    "check_envelope_inequalities",
    "check_conditions",
    "h_curve",
    "solve_reference",
    "ReferenceSolution",
    "fb_weight_matrix",
    "dr_weight_matrix",
]

_DECAY_EPS = 1e-4          # numerical slack for the V' + theta V check
_ENVELOPE_PAIRS = 1000     # random point pairs of the envelope inequalities
_GAP_FLOOR = 100.0 * np.finfo(float).eps


@dataclass
class CertificateReport:
    """Outcome of one certification run."""

    kind: str
    passed: bool
    fitted: float | None = None
    theoretical: float | None = None
    worst_slack: float = 0.0
    n_samples: int = 0
    details: dict = field(default_factory=dict)

    def to_json_dict(self, details_path=None):
        d = {("pass" if f.name == "passed" else f.name): getattr(self, f.name)
             for f in fields(self) if f.name != "details"}
        d["pass"] = bool(d["pass"])
        return {**d, "details_path": details_path}

    def write(self, path, details_path=None):
        # numpy arrays and scalars reach json through their tolist()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(details_path), fh, indent=2,
                      default=lambda obj: obj.tolist())
        if details_path is not None:
            with open(details_path, "w", encoding="utf-8") as fh:
                json.dump(self.details, fh, default=lambda obj: obj.tolist())


# ---------------------------------------------------------------------------
# reference minimizer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReferenceSolution:
    x: np.ndarray
    value: float
    grad_map_norm: float
    iterations: int
    restarts: int       # momentum resets by the objective test
    polishes: int       # polished points kept


_REFERENCE_MAX_ITER = 200000


def _polish(problem, x):
    """Newton polish of x on g's free coordinates, the others held fixed;
    None when g has no ``free_set`` hook, f no dense ``hessian`` (unless
    quadratic), or a solve fails."""
    f, g = problem.f, problem.g
    free_set = getattr(g, "free_set", None)
    if free_set is None:
        return None
    free, out, dg = free_set(x)
    try:
        if f.kind == "quadratic":   # stationarity on the free set is linear
            rhs = -(f.q[free] + dg + f.Q[np.ix_(free, ~free)] @ out[~free])
            out[free] = np.linalg.solve(f.Q[np.ix_(free, free)], rhs)
        else:
            for _ in range(8):
                grad = f.gradient(out)[free] + dg
                H = f.hessian(out)[np.ix_(free, free)]
                step = np.linalg.solve(H, -grad)
                out[free] = out[free] + step
                if np.any(np.sign(out[free]) * dg < 0):  # an l1 sign flipped
                    return None
                if np.linalg.norm(step) <= 1e-14 * (1.0 + np.linalg.norm(out)):
                    break
    except (np.linalg.LinAlgError, UnsupportedOperationError):
        return None
    return g.prox(out, 0.0)   # zero-step prox: projection onto dom g


def solve_reference(problem, mu, tol=1e-12):
    """High-accuracy minimizer of F, certified via the gradient map.

    Runs the accelerated proximal iteration with objective restarts until
    ||G_mu(x)|| <= tol, checked every 25 iterations. A polish solves for g's
    free coordinates (the l1 support, or those off the box bounds) with the
    others held (at 0, or at their bound): one linear solve for a quadratic
    f, else up to 8 Newton steps, each on f's dense ``hessian``, dropped if an
    l1 sign flips; a g without ``free_set`` or an f without ``hessian`` is
    not polished. It is tried at every check when a Hessian costs no more
    than 25 iterations (quadratic f, or a logistic f with n <= 50), else
    every 200 iterations. A prox-gradient sweep from the polished point is
    kept when it lowers the gradient-map norm. Raises RuntimeError at the
    first check whose norm is not finite, or when the last is above tol.
    """
    mu = check_mu_domain(mu, problem.f.L)
    f, g = problem.f, problem.g
    n = problem.dim
    x = np.zeros(n)
    y = x.copy()
    t_mom = 1.0
    obj_prev = np.inf
    iterations = restarts = polishes = 0
    # a logistic Hessian (2 s n^2 flops) costs no more than 25 iterations'
    # products (25 x 4 s n) for n <= 50; a quadratic polish is one solve
    polish_each_check = (f.kind == "quadratic"
                         or f.kind == "logistic_ridge" and 2 * n <= 25 * 4)

    def grad_map_norm(z):
        return float(np.linalg.norm(generalized_gradient(problem, z, mu)))

    # each success breaks at its first check under tol: x is the best point
    for k in range(1, _REFERENCE_MAX_ITER + 1):
        iterations = k
        x_new = g.prox(y - mu * f.gradient(y), mu)
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom * t_mom))
        y = x_new + ((t_mom - 1.0) / t_new) * (x_new - x)
        x, t_mom = x_new, t_new
        if k % 25 == 0 or k == _REFERENCE_MAX_ITER:
            obj = f.value(x) + g.value(x)
            if obj > obj_prev:          # objective restart
                y = x.copy()
                t_mom = 1.0
                restarts += 1
            obj_prev = obj
            if (gn := grad_map_norm(x)) <= tol:
                break
            if not math.isfinite(gn):
                raise RuntimeError(f"reference solve reached a non-finite "
                                   f"||G_mu|| = {gn} at iteration {k}")
            if polish_each_check or k % 200 == 0:
                polished = _polish(problem, x)
                if polished is not None and np.all(np.isfinite(polished)):
                    # one prox-gradient sweep re-projects onto the model
                    swept = g.prox(polished - mu * f.gradient(polished), mu)
                    # gn > tol here, so a sweep within tol is also lower
                    if (gn_swept := grad_map_norm(swept)) < gn:
                        x, gn = swept, gn_swept
                        polishes += 1
                        if gn <= tol:
                            break
                        y = x.copy()
                        t_mom = 1.0

    if not gn <= tol:
        raise RuntimeError(
            f"reference solve stalled at ||G_mu|| = {gn:.3e} > tol = {tol:.1e}")
    return ReferenceSolution(x=x, value=problem.objective(x),
                             grad_map_norm=gn, iterations=iterations,
                             restarts=restarts, polishes=polishes)


# ---------------------------------------------------------------------------
# Lyapunov machinery
# ---------------------------------------------------------------------------

def fb_weight_matrix(problem, mu):
    """Envelope metric for the FB case: H = I - mu Q."""
    Q = problem.f.hessian(np.zeros(problem.dim))
    return np.eye(problem.dim) - mu * Q


def dr_weight_matrix(problem, mu):
    """Envelope metric for the DR case: H = (I - mu Q)(I + mu Q)^{-1}."""
    Q = problem.f.hessian(np.zeros(problem.dim))
    n = problem.dim
    H = (np.eye(n) - mu * Q) @ np.linalg.inv(np.eye(n) + mu * Q)
    return 0.5 * (H + H.T)


QUAD_CONVEX = "quadratic_convex"
QUAD_STRONG = "quadratic_strongly_convex"
GENERAL_STRONG = "general_strongly_convex"


@dataclass(frozen=True)
class LyapunovSpec:
    """Lyapunov function selection for one accelerated dynamics run.

    The envelope term is shifted by the optimal value and the quadratic
    term is centered at the equilibrium state (the minimizer with zero
    velocity), so the function vanishes exactly at the optimum.
    """

    case: str
    problem: object
    envelope_kind: str
    alpha: float
    mu: float
    theta: object                 # scalar, or callable on an array of times
    psi1_star: np.ndarray
    e_star: float
    H: np.ndarray | None = None   # quadratic cases
    beta: float | None = None     # general case evaluation point weight

    def theta_at(self, t):
        theta = self.theta(t) if callable(self.theta) else self.theta
        return np.broadcast_to(theta, np.shape(t))


def make_lyapunov_spec(problem, mu, alpha, case, theta, envelope_kind=FB,
                       beta=None, x_star=None, f_star=None):
    """Build a LyapunovSpec; requires the reference minimizer and value."""
    if x_star is None or f_star is None:
        raise NeedsReferenceError(
            "Lyapunov evaluation is defined relative to the minimizer; "
            "pass x_star and f_star (e.g. from solve_reference)")
    mu = check_mu_domain(mu, problem.f.L)
    x_star = np.asarray(x_star, dtype=float)
    if case == GENERAL_STRONG:
        if beta is None:
            raise ValueError("general case needs the extrapolation weight beta")
        if envelope_kind != FB:
            raise ValueError("general case is defined for the FB envelope")
        H, psi1_star, beta = None, x_star, float(beta)
    elif case not in (QUAD_CONVEX, QUAD_STRONG):
        raise ValueError(f"unknown Lyapunov case {case!r}")
    elif problem.f.kind != "quadratic":
        raise ValueError(
            "the weighted Lyapunov cases require a quadratic smooth part; "
            "use the general strongly convex case otherwise")
    elif envelope_kind == FB:
        H = fb_weight_matrix(problem, mu)
        psi1_star = x_star
    elif envelope_kind == DR:
        H = dr_weight_matrix(problem, mu)
        psi1_star = x_star + mu * problem.f.gradient(x_star)
    else:
        raise ValueError(f"unknown envelope kind {envelope_kind!r}")
    return LyapunovSpec(case=case, problem=problem,
                        envelope_kind=envelope_kind, alpha=alpha, mu=mu,
                        theta=theta, psi1_star=psi1_star,
                        e_star=float(f_star), H=H, beta=beta)


def _lyapunov(spec, t, psi1, psi2, env=None):
    """V at state blocks psi1, psi2 (n,) or (S, n) at times (S,), a longer
    stack _BLOCK_ROWS rows at a time into one output; ``env``, when known,
    is a quadratic case's envelope term: the DR envelope at z is the FB
    envelope at x = prox_{mu f}(z), the ``envelope`` observable of acc_dr."""
    if psi1.ndim > 1 and psi1.shape[0] > _BLOCK_ROWS:
        V = np.empty(psi1.shape[0])
        t = np.broadcast_to(t, V.shape)
        for i in range(0, V.size, _BLOCK_ROWS):
            rows = slice(i, i + _BLOCK_ROWS)
            V[rows] = _lyapunov(spec, t[rows], psi1[rows], psi2[rows],
                                None if env is None else env[rows])
        return V
    r = spec.theta_at(t)[..., None] * (psi1 - spec.psi1_star) + psi2
    if spec.case == GENERAL_STRONG:
        y = psi1 + spec.beta * psi2
        env = fb_envelope_value(spec.problem, y, spec.mu) - spec.e_star
        return spec.alpha * env + 0.5 * np.vecdot(r, r)
    if env is None:
        x = (spec.problem.f.prox(psi1, spec.mu)
             if spec.envelope_kind == DR else psi1)
        env = fb_envelope_value(spec.problem, x, spec.mu)
    return spec.alpha * (env - spec.e_star) + 0.5 * np.vecdot(r, (spec.H @ r.T).T)


def lyapunov_value(spec, t, psi):
    """Evaluate the Lyapunov function at time t and state psi (2n,), or at
    times (S,) and a stack of states (S, 2n), 256 rows at a time, so that
    temporaries are bounded by the block size times n."""
    psi, n = np.asarray(psi, dtype=float), spec.problem.dim
    return _lyapunov(spec, t, psi[..., :n], psi[..., n:])


def lyapunov_series(traj, spec):
    """Lyapunov values at every sample of a trajectory of spec's problem; a
    quadratic case on its own trajectory (FB on acc_fb, DR on acc_dr, same
    mu) reads its envelope term from the ``envelope`` observable. Samples
    go in the observables' 256-row blocks, so temporaries are bounded by
    the block size times n. With one BLAS thread V had the bits of one
    whole-stack evaluation in every case measured (up to logistic 200x1000);
    a threaded BLAS splits products by shape, so V can differ in last bits.
    """
    env = traj.observables.get("envelope")
    if (spec.case == GENERAL_STRONG or traj.mu != spec.mu
            or _KINDS.get(traj.kind) != (2, spec.envelope_kind)):
        env = None
    return _lyapunov(spec, traj.times, traj.position, traj.velocity, env)


def check_lyapunov_decay(traj, spec):
    """Verify V' + theta V <= eps (1 + V) at every interior sample.

    The derivative is approximated by central differences on the sample
    grid; the first and last samples are excluded. Temporaries are bounded
    by the block size times n, as in :func:`lyapunov_series`.
    """
    if traj.times.shape[0] < 3:
        raise ValueError("need at least 3 samples for the decay check")
    V = lyapunov_series(traj, spec)
    t = traj.times
    Vdot = (V[2:] - V[:-2]) / (t[2:] - t[:-2])
    resid = Vdot + spec.theta_at(t)[1:-1] * V[1:-1]
    rel = resid / (1.0 + V[1:-1])
    worst = float(rel.max())
    passed = bool(worst <= _DECAY_EPS)
    i_worst = int(np.argmax(rel)) + 1
    return CertificateReport(
        kind="lyapunov_decay", passed=passed, fitted=worst,
        theoretical=_DECAY_EPS, worst_slack=worst - _DECAY_EPS,
        n_samples=V.shape[0] - 2,
        details={"values": V, "worst_time": float(t[i_worst])})


# ---------------------------------------------------------------------------
# rate fits
# ---------------------------------------------------------------------------

def _window_series(traj, key, t_window):
    series = traj.observables.get(key)
    if series is None:
        raise NeedsReferenceError(
            f"trajectory carries no {key!r} observable; integrate with a "
            "reference minimizer")
    a, b = t_window
    mask = (traj.times >= a) & (traj.times <= b)
    if mask.sum() < 2:
        raise ValueError("fit window contains fewer than 2 samples")
    t = traj.times[mask]
    vals = series[mask]
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{key} contains non-finite samples in the window")
    floor = _GAP_FLOOR * (1.0 + abs(traj.meta.get("f_star", 0.0)))
    if np.any(vals <= floor):
        raise WindowTooLateError(
            f"{key} drops to {vals.min():.3e} inside the window; "
            "fit would be dominated by rounding noise")
    return t, vals


def certify_sublinear(traj, t_window):
    """Fit log(gap) against log(t + 3), the convex schedule's offset;
    certified when slope <= -2 + 0.2."""
    t, gap = _window_series(traj, "objective_gap", t_window)
    slope, intercept = np.polyfit(np.log(t + _TIME_OFFSET), np.log(gap), 1)
    threshold = -1.8
    passed = bool(slope <= threshold)
    return CertificateReport(
        kind="sublinear_fit", passed=passed, fitted=float(slope),
        theoretical=-2.0, worst_slack=float(slope - threshold),
        n_samples=t.shape[0],
        details={"c1": float(np.exp(intercept)), "window": list(t_window)})


def certify_exponential(traj, rho_theory, t_window):
    """Fit log ||x - x*||^2 against t; certified when the decay rate is at
    least 0.9 rho_theory, the theoretical rate, which must be finite > 0."""
    rho_theory = _finite_scalar("theoretical rate", rho_theory, positive=True)
    t, dist = _window_series(traj, "dist_sq", t_window)
    slope, intercept = np.polyfit(t, np.log(dist), 1)
    rate = -float(slope)
    threshold = 0.9 * rho_theory
    passed = bool(rate >= threshold)
    return CertificateReport(
        kind="exponential_fit", passed=passed, fitted=rate,
        theoretical=rho_theory, worst_slack=float(threshold - rate),
        n_samples=t.shape[0],
        details={"c": float(np.exp(intercept)), "window": list(t_window)})


# ---------------------------------------------------------------------------
# envelope inequalities for strongly convex problems
# ---------------------------------------------------------------------------

def check_envelope_inequalities(problem, mu, seed=0):
    """Verify the envelope-objective bounds on 1000 random point pairs,
    drawn from N(0, 4 I) (radius 2).

    For strongly convex f (m > 0) and mu in (0, 1/L), the FB envelope
    satisfies, for all x, xh:

      upper:  Fmu(x) - F(xh) <=  <G(x), x - xh> - (m/2)||x - xh||^2
                                 - (mu/2)||G(x)||^2
      lower:  Fmu(x) - F(x*) >=  (m^2 (1 - mu L) / (2L)) ||x - x*||^2

    with slack 1e-8 (1 + |Fmu(x)|) on both sides.
    """
    f = problem.f
    if f.m <= 0:
        raise ParameterDomainError(
            "envelope inequalities require a strongly convex smooth part")
    mu = check_mu_domain(mu, f.L)
    reference = solve_reference(problem, mu, tol=1e-10)
    x_star, f_star = reference.x, reference.value
    # pair i is (x_i, xh_i), drawn in that order
    pairs = 2.0 * np.random.default_rng(seed).standard_normal(
        (_ENVELOPE_PAIRS, 2, problem.dim))
    x, xh = pairs[:, 0], pairs[:, 1]
    m, L = f.m, f.L
    lower_coef = m * m * (1.0 - mu * L) / (2.0 * L)
    _, p, _, fmu = _fb_kernel(problem, x, mu)
    G = (x - p) / mu
    slack = 1e-8 * (1.0 + np.abs(fmu))
    d = x - xh
    upper_rhs = (np.vecdot(G, d) - 0.5 * m * np.vecdot(d, d)
                 - 0.5 * mu * np.vecdot(G, G))
    margin_u = (upper_rhs + slack) - (fmu - problem.objective(xh))
    ds = x - x_star
    margin_l = (fmu - f_star + slack) - lower_coef * np.vecdot(ds, ds)
    worst_upper, worst_lower = float(margin_u.min()), float(margin_l.min())
    worst = min(worst_upper, worst_lower)
    return CertificateReport(
        kind="envelope_inequalities", passed=bool(worst >= 0.0),
        fitted=None, theoretical=None, worst_slack=float(-worst),
        n_samples=_ENVELOPE_PAIRS,
        details={"worst_upper_margin": float(worst_upper),
                 "worst_lower_margin": float(worst_lower),
                 "grad_map_norm_at_ref": reference.grad_map_norm})


# ---------------------------------------------------------------------------
# scalar conditions for the non-quadratic exponential certificate
# ---------------------------------------------------------------------------

def check_conditions(w, mu_L, beta, gamma, theta):
    """Check the three scalar decay conditions; returns (i, ii, iii_residual).

    (i)  (1 - theta beta) >= (1 - mu sigma)(1 - gamma beta) for all
         sigma in [m, L]; the bound is affine in sigma, so the endpoints
         suffice. Only mu L is available here, and the sigma -> 0 endpoint
         dominates sigma = m for every m >= 0, so {0, L} is checked.
    (ii) theta^2 <= alpha m = w^2
    (iii) residual of the quadratic-over-linear bound; nonpositive means
         the condition holds. At beta = 0 the quotient is 0/0 when mu L = 0
         and its limit is 3 theta - 2 gamma (negative here, so the boundary
         verdict is a pass); for fixed mu L > 0 the quotient diverges.
    """
    if not (0.0 <= w <= 1.0):
        raise ParameterDomainError(f"w must lie in [0, 1], got {w}")
    tol = 1e-12
    lhs = 1.0 - theta * beta
    cond_i = bool(lhs >= (1.0 - mu_L) * (1.0 - gamma * beta) - tol
                  and lhs >= (1.0 - gamma * beta) - tol)
    cond_ii = bool(theta * theta <= w * w + tol)
    if beta <= 0.0:
        limit = 3.0 * theta - 2.0 * gamma if mu_L == 0.0 else np.inf
        return cond_i, cond_ii, float(limit)
    num = lhs - (1.0 - mu_L) * (1.0 - gamma * beta)
    iii_lhs = num * num / (2.0 * beta * (1.0 - mu_L))
    iii_rhs = w * w * theta * beta * beta + 2.0 * gamma - 3.0 * theta
    return cond_i, cond_ii, float(iii_lhs - iii_rhs)


def h_curve(w_grid):
    """Rate-condition curve h(w) = iii_residual(w) / w over a grid.

    Each grid point uses the strongly convex schedule at w and the largest
    certified penalty, mu L = sqrt(gamma beta)/2. The certificate passes
    when h <= 0 on the whole grid and w h(w) increases with mu L at every
    grid point (sampled at half and full mu L). ``details`` also holds the
    per-point ``i``, ``ii``, ``iii_residual`` of :func:`check_conditions`.
    """
    w_grid = np.asarray(w_grid, dtype=float)
    if w_grid.size == 0:
        raise ValueError("empty grid")
    if np.any(w_grid <= 0) or np.any(w_grid > 1):
        raise ParameterDomainError("grid must lie in (0, 1]")
    n = w_grid.size
    cond_i, cond_ii = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
    resid, resid_half = np.empty(n), np.empty(n)
    for j, w in enumerate(w_grid):
        gamma, beta, theta = strongly_convex_point(w)
        mu_L = acc_fb_mu_bound(gamma, beta, 1.0)
        cond_i[j], cond_ii[j], resid[j] = check_conditions(w, mu_L, beta,
                                                           gamma, theta)
        resid_half[j] = check_conditions(w, 0.5 * mu_L, beta, gamma, theta)[2]
    h = resid / w_grid
    mono_margin = resid - resid_half
    cond_i_all, cond_ii_all = bool(cond_i.all()), bool(cond_ii.all())
    h_ok = bool(np.max(h) <= 0.0)
    mono_ok = bool(np.min(mono_margin) >= 0.0)
    return CertificateReport(
        kind="h_curve", passed=h_ok and mono_ok and cond_i_all and cond_ii_all,
        fitted=float(np.max(h)), theoretical=0.0,
        worst_slack=float(np.max(h)), n_samples=n,
        details={"w": w_grid, "h": h, "monotone_margin": mono_margin,
                 "cond_i": cond_i_all, "cond_ii": cond_ii_all,
                 "i": cond_i, "ii": cond_ii, "iii_residual": resid})


def write_h_curve_csv(report, path):
    """Two-column CSV (w, h) suitable for external plotting: a ``w,h``
    header, CRLF line endings and ``'%.17e'`` values, as in traces."""
    d = report.details
    write_csv(path, ["w", "h"], [np.column_stack([d["w"], d["h"]])])
