"""Independent oracles used to freeze expected values in tests.

These deliberately avoid the library code paths they are checking:
scalar proxes come from golden-section search on the prox objective,
gradients from central finite differences, linear flows from the
eigendecomposition solution of the ODE, and CSV text from Python's own
``'%.17e'`` formatting, one value at a time.
"""

import math

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


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
