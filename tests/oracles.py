"""Independent oracles used to freeze expected values in tests.

These deliberately avoid the library code paths they are checking:
scalar proxes come from golden-section search on the prox objective,
gradients from central finite differences, linear flows from the
eigendecomposition solution of the ODE (with one 2x2 matrix exponential
per eigenvalue for the second-order flows under a constant schedule, and
scipy's DOP853 on the decoupled eigenmodes under a time-varying one), the
FB flow across l1 kinks from one matrix exponential per sign pattern, CSV
text from Python's own ``'%.17e'`` formatting, one value at a time, the
quadratic-form blocks of the Lyapunov decay bound from the schedules'
closed forms, the vector field written with every constant operand a
Python float, the smooth oracles with every matrix product written
``(M @ x.T).T``, for a point and a stack alike, and row-wise inner
products as a batched matmul of 1 x n rows with n x 1 columns.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.optimize import brentq
from scipy.special import expit

from splitflow import ConvexSchedule
from splitflow.problems import _softplus

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def matmul_dot(a, b):
    """Last-axis inner product as a batched matmul; on two vectors the BLAS
    dot of ``a @ b``."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0][()]


def golden_section_min(fun, lo, hi, tol=1e-12):
    """Minimize a unimodal scalar function on [lo, hi]."""
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


def scalar_prox_l1(v, mu, weight):
    """Brute-force prox of weight*|z| at v via golden-section search."""
    half = 10.0 * mu * weight + 1.0 + abs(v)
    return golden_section_min(
        lambda z: weight * abs(z) + (z - v) ** 2 / (2.0 * mu),
        v - half, v + half)


def scalar_prox_box(v, mu, lo, hi):
    """Brute-force prox of the interval indicator at v."""
    return golden_section_min(lambda z: (z - v) ** 2 / (2.0 * mu), lo, hi)


def scalar_moreau_l1(v, mu, weight):
    """Brute-force Moreau envelope value of weight*|z| at v."""
    p = scalar_prox_l1(v, mu, weight)
    return weight * abs(p) + (p - v) ** 2 / (2.0 * mu)


def fb_envelope_prox_form(problem, x, mu):
    """FB envelope value through the prox-point expansion.

    f(x) + g(p) - mu <grad f(x), G> + (mu/2) ||G||^2 with
    p = prox_{mu g}(x - mu grad f(x)) and G = (x - p) / mu; equal to the
    Moreau-envelope form the library evaluates.
    """
    f, g = problem.f, problem.g
    gf = f.gradient(x)
    p = g.prox(x - mu * gf, mu)
    G = (x - p) / mu
    return (f.value(x) + g.value(p) - mu * float(gf @ G)
            + 0.5 * mu * float(G @ G))


def finite_diff_grad(fun, x, h=None):
    """Central-difference gradient with step 1e-6 (1 + ||x||)."""
    x = np.asarray(x, dtype=float)
    if h is None:
        h = 1e-6 * (1.0 + np.linalg.norm(x))
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fun(x + e) - fun(x - e)) / (2.0 * h)
    return g


def second_directional_difference(fun, x, direction, h):
    """(f(x+hd) - 2 f(x) + f(x-hd)) / h^2 for a unit direction d."""
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    return (fun(x + h * d) - 2.0 * fun(x) + fun(x - h * d)) / (h * h)


def linear_flow_solution(Q, q, alpha, x0, ts):
    """Exact solution of x' = -alpha (Q x + q) for positive definite Q."""
    w, V = np.linalg.eigh(Q)
    x_star = -np.linalg.solve(Q, q)
    y0 = V.T @ (x0 - x_star)
    out = np.empty((len(ts), x0.size))
    for i, t in enumerate(ts):
        out[i] = x_star + V @ (np.exp(-alpha * w * t) * y0)
    return out


def second_order_flow_solution(Q, q, alpha, gamma, beta, psi0, ts,
                                mu=None):
    """Exact states (len(ts), 2n) of the accelerated flows on
    f(x) = x'Qx/2 + q'x, g = 0, under constant gamma and beta.

    acc_fb (``mu=None``) is z'' + gamma z' + alpha grad f(z + beta z') = 0;
    acc_dr (``mu`` given) has grad f(prox_{mu f}(w)) in place of
    grad f(w), the linear map with eigenvalues lambda/(1 + mu lambda) and
    the same equilibrium. Per eigenvalue lambda of Q the deviation from
    the equilibrium obeys y' = [[0, 1], [-alpha l, -(gamma + alpha beta l)]] y
    with l = lambda (acc_fb) or l = lambda/(1 + mu lambda) (acc_dr).
    """
    w, V = np.linalg.eigh(Q)
    if mu is not None:
        w = w / (1.0 + mu * w)
    n = w.size
    x_star = -np.linalg.solve(Q, q)
    pos0 = V.T @ (psi0[:n] - x_star)
    vel0 = V.T @ psi0[n:]
    out = np.empty((len(ts), 2 * n))
    for j, lam in enumerate(w):
        block = np.array([[0.0, 1.0],
                          [-alpha * lam, -(gamma + alpha * beta * lam)]])
        y0 = np.array([pos0[j], vel0[j]])
        for i, t in enumerate(ts):
            out[i, j], out[i, n + j] = expm(block * t) @ y0
    out[:, :n] = x_star + out[:, :n] @ V.T
    out[:, n:] = out[:, n:] @ V.T
    return out


def mode_solution(Q, q, alpha, gamma, beta, ts, psi0=None, mu=None):
    """States (len(ts), 2n) of the accelerated flows on f(x) = x'Qx/2 + q'x
    with g inactive, under the schedule functions gamma(t) and beta(t),
    from scipy's DOP853 at rtol 1e-13 (atol 1e-13); psi0 defaults to 0.

    In the eigenbasis V of Q (eigenvalues lambda, c = V'q) the modes
    decouple: u'' + gamma u' + alpha (lambda x + c) = 0, with x = w for
    acc_fb (``mu=None``) and x = (w - mu c)/(1 + mu lambda), the prox of f
    at w, for acc_dr (``mu`` given), where w = u + beta u'. For acc_dr the
    mode state u is that of z. All 2n mode states go to one call.
    """
    lam, V = np.linalg.eigh(Q)
    c = V.T @ q
    n = lam.size
    psi0 = np.zeros(2 * n) if psi0 is None else psi0
    scale = 1.0 if mu is None else 1.0 / (1.0 + mu * lam)
    shift = 0.0 if mu is None else mu * c

    def field(t, y):
        u, du = y[:n], y[n:]
        x = (u + beta(t) * du - shift) * scale
        return np.concatenate([du, -gamma(t) * du - alpha * (lam * x + c)])

    y0 = np.concatenate([V.T @ psi0[:n], V.T @ psi0[n:]])
    sol = solve_ivp(field, (0.0, ts[-1]), y0, method="DOP853", rtol=1e-13,
                    atol=1e-13, t_eval=ts)
    return np.hstack([sol.y[:n].T @ V.T, sol.y[n:].T @ V.T])


def python_float_g_prox(g, v, mu):
    """g's prox with its bound as a Python float: soft thresholding as
    v - clip(v, -t, t) with t = mu weight for l1, the clamp for a box."""
    if g.kind == "l1":
        t = float(mu) * g.weight
        return v - np.minimum(np.maximum(v, -t), t)
    return np.minimum(np.maximum(v, g.lower), g.upper)


def python_float_f_prox(f, v, mu):
    """A quadratic f's prox, (I + mu Q)^-1 (v - mu q), mu a Python float."""
    mu = float(mu)
    return f.solve_shifted(mu, v - mu * f.q)


def python_float_gradient(f, x):
    """f's gradient; a logistic f adds its ridge term as a Python float."""
    return matmul_oracles(f)["gradient"](x, None)


def matmul_oracles(f):
    """value, gradient and hess_vec of a quadratic or logistic f, each a
    function of (x, v), with every matrix product ``(M @ x.T).T``: the
    matmul ufunc on a point as on a stack."""
    if f.kind == "quadratic":
        Q, q = f.Q, f.q
        return {"value": lambda x, v: (0.5 * matmul_dot(x, (Q @ x.T).T)
                                       + matmul_dot(q, x)),
                "gradient": lambda x, v: (Q @ x.T).T + q,
                "hess_vec": lambda x, v: (Q @ v.T).T}
    A, y, ridge = f.A, f.y, f.ridge

    def value(x, v):
        t = (A @ x.T).T
        return (np.sum(_softplus(t) - y * t, axis=-1)
                + 0.5 * ridge * matmul_dot(x, x))

    def gradient(x, v):
        s = expit((A @ x.T).T)
        return (A.T @ (s - y).T).T + ridge * x

    def hess_vec(x, v):
        s = expit((A @ x.T).T)
        w = s * (1.0 - s)
        return (A.T @ (w * (A @ v.T).T).T).T + ridge * v

    return {"value": value, "gradient": gradient, "hess_vec": hess_vec}


def python_float_field(kind, problem, mu, schedule, t, psi):
    """The vector field of ``kind`` at (t, psi), a point or a stack at one
    time t, with mu, alpha, gamma(t) and beta(t) as Python floats and
    the python_float_* oracles: G_mu(x) = (x - prox_g(x - mu grad f(x)))/mu,
    at prox_f(z) for the DR kinds."""
    f, g, mu, alpha = problem.f, problem.g, float(mu), schedule.alpha

    def G(x):
        if kind in ("dr_flow", "acc_dr"):
            x = python_float_f_prox(f, x, mu)
        forward = x - mu * python_float_gradient(f, x)
        return (x - python_float_g_prox(g, forward, mu)) / mu

    if kind in ("fb_flow", "dr_flow"):
        return -alpha * G(psi)
    n = problem.dim
    pos, vel = psi[..., :n], psi[..., n:]
    acc = (-schedule.gamma(t) * vel
           - alpha * G(pos + schedule.beta(t) * vel))
    return np.concatenate([vel, acc], axis=-1)


def piecewise_fb_flow_solution(Q, q, lam, mu, alpha, x0, ts):
    """Exact states (len(ts), n) of the FB flow x' = -alpha G_mu(x) on
    f(x) = x'Qx/2 + q'x, g = lam ||x||_1, and its switch times.

    With u = (I - mu Q) x - mu q, the prox is p = D u - mu lam s for the
    sign pattern s of u against +-mu lam (s_i = sign(u_i) where
    |u_i| > mu lam, else 0) and D = diag(|s|). Within one pattern the flow
    x' = -(alpha/mu)(x - p) is affine, x' = A x + b, and is propagated with
    the exponential of the augmented matrix [[A, b], [0, 0]]. The pattern
    is probed every 0.01; the first coordinate of u to leave it is
    located by ``brentq`` on the boundary u_i = +-mu lam it crossed, and
    the flow restarts there with that coordinate's new sign.
    """
    n = x0.size
    lo = mu * lam
    C = np.eye(n) - mu * Q

    def pattern(u):
        return np.where(u > lo, 1.0, np.where(u < -lo, -1.0, 0.0))

    def propagator(s):
        M = np.zeros((n + 1, n + 1))
        D = np.abs(s)
        M[:n, :n] = -(alpha / mu) * (np.eye(n) - D[:, None] * C)
        M[:n, n] = -alpha * (D * q + lam * s)
        return lambda t: (expm(M * (t - t0)) @ np.append(x, 1.0))[:n]

    def crossing(flow, i, t_a, t_b, u_i):
        # coordinate i left pattern s within [t_a, t_b] across u_i = edge:
        # from +-1 it turns 0, from 0 it takes the sign of the edge
        edge = lo if s[i] > 0 or (s[i] == 0 and u_i > lo) else -lo
        t = brentq(lambda t: C[i] @ flow(t) - mu * q[i] - edge, t_a, t_b,
                   xtol=1e-15, rtol=4 * np.finfo(float).eps)
        return t, i, 0.0 if s[i] else math.copysign(1.0, edge)

    ts = np.asarray(ts, dtype=float)
    out = np.empty((ts.size, n))
    t0, x = 0.0, np.asarray(x0, dtype=float)
    s = pattern(C @ x - mu * q)
    switches = []
    while True:
        flow = propagator(s)
        t_a, first = t0, None
        while first is None and t_a < ts[-1]:
            t_b = min(t_a + 0.01, ts[-1])
            u = C @ flow(t_b) - mu * q
            left = np.flatnonzero(pattern(u) != s)
            if left.size:
                first = min(crossing(flow, i, t_a, t_b, u[i]) for i in left)
            t_a = t_b
        t_end = ts[-1] if first is None else first[0]
        for k in np.flatnonzero((ts >= t0) & (ts <= t_end)):
            out[k] = flow(ts[k])
        if first is None:
            return out, np.array(switches)
        x = flow(t_end)
        s = s.copy()
        s[first[1]] = first[2]
        t0 = t_end
        switches.append(t_end)


def random_spd_matrix(n, m, L, rng):
    """Symmetric matrix with spectrum spanning exactly [m, L]."""
    M = rng.standard_normal((n, n))
    Qf, R = np.linalg.qr(M)
    Qf = Qf * np.sign(np.diag(R))
    d = np.linspace(m, L, n)
    A = Qf.T @ (d[:, None] * Qf)
    return 0.5 * (A + A.T)


def percent_e_csv(block, newline):
    """CSV bytes of the rows of a 2-D block: ``'%.17e' % value`` fields
    joined by ``,``, each row ended by ``newline``."""
    return "".join(",".join("%.17e" % float(v) for v in row) + newline
                   for row in block).encode("ascii")


def trace_csv_reference(traj):
    """Bytes of the trace file of a trajectory, written value by value:
    t, x_i, z_i (DR kinds), v_i, objective_gap, dist_sq (nan when the
    observable is missing), CRLF line endings."""
    S = traj.times.shape[0]
    parts = [("x", traj.primal)]
    if traj.kind in ("dr_flow", "acc_dr", "dr_discrete"):
        parts.append(("z", traj.position))
    parts.append(("v", traj.velocity))
    header = ["t"] + [f"{name}_{i + 1}" for name, block in parts
                      for i in range(block.shape[1])]
    header += ["objective_gap", "dist_sq"]
    rows = np.column_stack(
        [traj.times] + [block for _, block in parts]
        + [traj.observables.get(name, np.full(S, np.nan))
           for name in ("objective_gap", "dist_sq")])
    return (",".join(header) + "\r\n").encode("ascii") + percent_e_csv(
        rows, "\r\n")


def decay_form_timevarying(t, H):
    """Quadratic-form block of the decay bound under the time-varying
    schedule (:class:`ConvexSchedule`); identically zero."""
    theta = ConvexSchedule.theta(t)
    gamma = ConvexSchedule.gamma(t)
    theta_dot = -0.5 * theta ** 2         # d/dt of 2/(t+3)
    coeff = np.array([
        [2.0 * theta_dot * theta + theta ** 3,
         theta_dot + 2.0 * theta ** 2 - theta * gamma],
        [theta_dot + 2.0 * theta ** 2 - theta * gamma,
         3.0 * theta - 2.0 * gamma],
    ])
    return np.kron(coeff, H)


def decay_form_constant(alpha, m_tilde, gamma, beta, theta, H):
    """Quadratic-form block of the decay bound under a constant schedule;
    negative semidefinite for the certified parameter choices."""
    am = alpha * m_tilde
    coeff = np.array([
        [theta * (theta ** 2 - am),
         theta * (2.0 * theta - gamma - am * beta)],
        [theta * (2.0 * theta - gamma - am * beta),
         3.0 * theta - 2.0 * gamma - 2.0 * am * beta],
    ])
    return np.kron(coeff, H)
