"""Splitting flows, their accelerated second-order variants, and baselines.

Four vector fields are available:

  fb_flow : x' = -alpha G_mu(x)
  dr_flow : z' = -alpha G_mu(prox_{mu f}(z))
  acc_fb  : x'' + gamma(t) x' + alpha G_mu(x + beta(t) x') = 0
  acc_dr  : z'' + gamma(t) z' + alpha G_mu(prox_{mu f}(z + beta(t) z')) = 0,
            with output map x = prox_{mu f}(z)

Integration uses an embedded Dormand-Prince 5(4) stepper (``_dopri5``,
scipy's RK45 reproduced bit for bit) with dense output sampled on a uniform
grid.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from ._csvfmt import write_csv
from ._dopri5 import Dopri5
from .envelopes import _fb_kernel, check_mu_domain, generalized_gradient
from .exceptions import (IntegrationFailure, ParameterDomainError,
                         UnsupportedOperationError)
from .problems import _finite_scalar

__all__ = [
    "FB_FLOW", "DR_FLOW", "ACC_FB", "ACC_DR",
    "ConvexSchedule", "ConstantSchedule",
    "schedule_strongly_convex",
    "DynamicsSpec", "vector_field",
    "Trajectory", "integrate",
    "discrete_fb_step", "discrete_dr_step", "run_discrete",
    "export_trajectory_csv", "read_trace_csv",
]

FB_FLOW = "fb_flow"
DR_FLOW = "dr_flow"
ACC_FB = "acc_fb"
ACC_DR = "acc_dr"

_FLOW_KINDS = (FB_FLOW, DR_FLOW)
_ACC_KINDS = (ACC_FB, ACC_DR)
_DR_KINDS = (DR_FLOW, ACC_DR)
# kinds whose state z is mapped to the primal point x = prox_{mu f}(z)
_Z_KINDS = _DR_KINDS + ("dr_discrete",)

# rows per block when post-processing a trace, so that no temporary spans
# the whole (samples x columns) trace: the DR primal map and the
# observables, dist_sq among them (here), and the Lyapunov series
# (analysis._lyapunov)
_BLOCK_ROWS = 256

# damping offset r in theta(t) = 2/(t+r); r = 3 keeps beta(t) >= 0 for t >= 0
_TIME_OFFSET = 3.0


class ConvexSchedule:
    """Decaying damping schedule driving sublinear convergence."""

    def __init__(self, alpha):
        self.alpha = _finite_scalar("alpha", alpha, positive=True)

    @staticmethod
    def gamma(t):
        return 3.0 / (t + _TIME_OFFSET)

    @staticmethod
    def beta(t):
        return 1.0 - ConvexSchedule.gamma(t)

    @staticmethod
    def theta(t):
        return 2.0 / (t + _TIME_OFFSET)

    def __repr__(self):
        return f"ConvexSchedule(alpha={self.alpha:.6g})"


class ConstantSchedule:
    """Constant damping schedule for strongly convex problems."""

    def __init__(self, alpha, gamma, beta, theta):
        self.alpha = _finite_scalar("alpha", alpha, positive=True)
        self._gamma = _finite_scalar("gamma", gamma)
        self._beta = _finite_scalar("beta", beta)
        self._theta = _finite_scalar("theta", theta)

    @property
    def rate(self):
        """Certified exponential decay rate; equal to theta."""
        return self._theta

    def gamma(self, t=0.0):
        return self._gamma

    def beta(self, t=0.0):
        return self._beta

    def theta(self, t=0.0):
        return self._theta

    def __repr__(self):
        return (f"ConstantSchedule(alpha={self.alpha:.6g}, gamma={self._gamma:.6g}, "
                f"beta={self._beta:.6g}, theta={self._theta:.6g}, rate={self.rate:.6g})")


def strongly_convex_point(w):
    """Constant-schedule parameters (gamma, beta, theta) at w = sqrt(alpha m).

    gamma = 2w/(w+1), beta = 1 - gamma, theta = w - w^2/2. The decay rate
    theta also equals (gamma + w^2 beta)/2.
    """
    gamma = 2.0 * w / (w + 1.0)
    return gamma, 1.0 - gamma, w - 0.5 * w * w


def acc_fb_mu_bound(gamma, beta, L):
    """Largest penalty sqrt(gamma beta)/(2L) certified for the accelerated FB
    flow on a non-quadratic smooth part under a constant schedule."""
    return math.sqrt(gamma * beta) / (2.0 * L)


def schedule_strongly_convex(alpha, m_eff):
    """Constant schedule from the effective strong convexity constant.

    The parameters are :func:`strongly_convex_point` at
    w = sqrt(alpha m_eff), and the certified decay rate is theta.
    """
    x = float(alpha) * float(m_eff)
    if not (0.0 < x <= 1.0):
        raise ParameterDomainError(
            f"alpha * m_eff must lie in (0, 1], got {x}")
    gamma, beta, theta = strongly_convex_point(math.sqrt(x))
    return ConstantSchedule(alpha=alpha, gamma=gamma, beta=beta, theta=theta)


@dataclass(frozen=True)
class DynamicsSpec:
    """Selection of one vector field over one problem."""

    kind: str
    problem: object
    mu: float
    schedule: object

    def __post_init__(self):
        if self.kind not in _FLOW_KINDS + _ACC_KINDS:
            raise ValueError(f"unknown dynamics kind {self.kind!r}")
        check_mu_domain(self.mu, self.problem.f.L)
        if self.kind in _DR_KINDS and self.problem.f.kind != "quadratic":
            raise UnsupportedOperationError(
                f"{self.kind} requires prox of the smooth part")
        # for non-quadratic strongly convex f with a constant schedule, the
        # accelerated FB flow is certified only for mu <= sqrt(gamma beta)/(2L)
        if (self.kind == ACC_FB
                and isinstance(self.schedule, ConstantSchedule)
                and self.problem.f.kind != "quadratic"):
            bound = acc_fb_mu_bound(self.schedule.gamma(),
                                    self.schedule.beta(), self.problem.f.L)
            if self.mu > bound * (1.0 + 1e-12):
                raise ParameterDomainError(
                    f"mu={self.mu} exceeds the certified bound "
                    f"sqrt(gamma beta)/(2L)={bound} for non-quadratic f")

    @property
    def state_dim(self):
        n = self.problem.dim
        return 2 * n if self.kind in _ACC_KINDS else n

    @cached_property
    def _rhs(self):
        """The field as a function of (t, psi, out=None), with the oracles'
        bound methods, mu, alpha, n, the schedule and the branch for this
        kind looked up once, at the first evaluation.

        G is ``generalized_gradient``'s expression without its per-call
        check of mu, which ``__post_init__`` made once.
        """
        f, g, sched = self.problem.f, self.problem.g, self.schedule
        f_grad, f_prox, g_prox = f.gradient, f.prox, g.prox
        mu, alpha, n = float(self.mu), sched.alpha, self.problem.dim
        beta, gamma = sched.beta, sched.gamma

        def G_x(x):
            return (x - g_prox(x - mu * f_grad(x), mu)) / mu

        def G_z(z):     # G_mu at x = prox_{mu f}(z)
            return G_x(f_prox(z, mu))

        G = G_z if self.kind in _DR_KINDS else G_x
        if self.kind in _FLOW_KINDS:
            return lambda t, psi, out=None: np.multiply(-alpha, G(psi), out)

        def second_order(t, psi, out=None):
            if psi.ndim > 1 and np.ndim(t):   # times (S,) of a stack
                t = np.asarray(t, dtype=float)[:, None]
            pos, vel = psi[..., :n], psi[..., n:]
            out = np.empty_like(psi) if out is None else out
            out[..., :n] = vel
            np.subtract(-gamma(t) * vel, alpha * G(pos + beta(t) * vel),
                        out=out[..., n:])
            return out

        return second_order


def vector_field(spec, t, psi, out=None):
    """Right-hand side of the selected dynamics at time t and state psi, or
    at times (S,) and a stack of states (S, state_dim), written into
    ``out`` (float, psi's shape, apart from psi) and returned, or into one
    new array; psi and the arrays oracles return are never written.

    A spec looks up its problem's oracle methods at its first evaluation,
    so an oracle replaced on the problem afterwards is not the one called.
    """
    return spec._rhs(t, np.asarray(psi, dtype=float), out)


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of one dynamics run.

    ``position`` holds the raw first state block (x, or z for DR kinds);
    ``primal`` holds the x-samples used by all observables (equal to
    ``position`` for FB kinds, prox of it for DR kinds). Arrays are not to
    be mutated after construction.
    """

    kind: str
    mu: float
    times: np.ndarray
    position: np.ndarray
    velocity: np.ndarray
    primal: np.ndarray
    observables: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    @property
    def states(self):
        """Full ODE state samples, (S, state_dim)."""
        return np.hstack([self.position, self.velocity])


def _sample_grid(t_end, sample_dt):
    n = int(math.ceil(t_end / sample_dt - 1e-9))
    grid = np.arange(1, n + 1) * sample_dt
    if grid.size == 0 or grid[-1] < t_end - 1e-12 * max(1.0, t_end):
        grid = np.append(grid, t_end)
    grid[-1] = t_end
    return grid


def _trajectory(problem, kind, mu, times, position, velocity, x_star, f_star,
                meta, observables=True):
    """Package samples of a continuous or discrete run as a Trajectory."""
    t0 = time.perf_counter()
    primal = np.empty_like(position) if kind in _Z_KINDS else position
    obj_prox, env, dist = np.empty((3, position.shape[0]))
    for i in range(0, position.shape[0], _BLOCK_ROWS):
        rows = slice(i, i + _BLOCK_ROWS)
        if primal is not position:
            primal[rows] = problem.f.prox(position[rows], mu)
        if observables:
            _, p, _, gp, env[rows] = _fb_kernel(problem, primal[rows], mu)
            obj_prox[rows] = problem.f.value(p) + gp
            if x_star is not None:
                diff = primal[rows] - x_star
                dist[rows] = np.einsum("ij,ij->i", diff, diff)
    obs = {}
    if observables:
        obs = {"objective_of_prox": obj_prox, "envelope": env}
        if f_star is not None:
            obs["objective_gap"] = obj_prox - float(f_star)
        if x_star is not None:
            obs["dist_sq"] = dist
    meta = dict(meta, kind=kind, mu=mu, observables_s=time.perf_counter() - t0)
    if f_star is not None:
        meta["f_star"] = float(f_star)
    return Trajectory(kind=kind, mu=mu, times=times, position=position,
                      velocity=velocity, primal=primal, observables=obs,
                      meta=meta)


# nothing here calls it; kept because perfbench/spans.py binds it by name
def _field_norm(dy):
    """Norm of a field value (n,), as ``np.linalg.norm`` computes it."""
    return math.sqrt(dy.dot(dy))


def integrate(spec, psi0=None, t_end=10.0, tol=1e-9, sample_dt=None,
              x_star=None, f_star=None):
    """Integrate the selected dynamics to t_end and sample on a uniform grid.

    Parameters
    ----------
    spec : DynamicsSpec
    psi0 : initial state; defaults to the zero state.
    t_end : final time, finite and > 0.
    tol : relative and absolute tolerance of the adaptive stepper,
        restricted to [1e-12, 1e-3].
    sample_dt : spacing of the dense-output samples, finite and > 0;
        defaults to t_end/2000.
    x_star, f_star : optional reference minimizer / optimal value; when
        supplied, squared-distance and objective-gap observables are
        attached to every sample.

    ``meta`` holds tol, sample_dt, method, alpha, n_steps (accepted steps),
    n_rejected (rejected steps), h_min and h_max (the range of accepted
    step sizes), rhs_calls (every field evaluation: one at psi0, one to
    select the first step, six per attempted step) and observables_s
    (seconds on the DR primal map and the observables).

    The stepper reproduces scipy's RK45 (tableau, FSAL stage, quartic dense
    output, error control and initial step) bit for bit, with each field
    value written into its stage matrix; psi0 is not written. A non-finite
    field value or state sample, or a step size below 10 ulp of t, raises
    :class:`IntegrationFailure` carrying the samples taken so far.
    """
    if not (1e-12 <= tol <= 1e-3):
        raise ParameterDomainError(f"tolerance {tol} outside [1e-12, 1e-3]")
    t_end = _finite_scalar("t_end", t_end, positive=True)
    if psi0 is None:
        psi0 = np.zeros(spec.state_dim)
    psi0 = np.asarray(psi0, dtype=float)
    if psi0.shape != (spec.state_dim,):
        raise ValueError(
            f"initial state has shape {psi0.shape}, expected ({spec.state_dim},)")
    if not np.isfinite(psi0).all():
        raise ParameterDomainError("initial state must be finite")
    if sample_dt is None:
        sample_dt = t_end / 2000.0
    sample_dt = _finite_scalar("sample_dt", sample_dt, positive=True)
    grid = _sample_grid(t_end, sample_dt)
    grid_points = grid.tolist()
    samples = np.empty((grid.size + 1, spec.state_dim))   # psi0, grid samples
    samples[0] = psi0
    meta = {"tol": tol, "sample_dt": float(sample_dt), "method": "dopri5",
            "n_steps": 0, "alpha": spec.schedule.alpha, "rhs_calls": 0,
            "n_rejected": 0, "h_min": math.inf, "h_max": 0.0}
    solver = None

    def build(observables=True):
        if solver is not None:
            meta.update(n_steps=solver.n_steps, n_rejected=solver.n_rejected,
                        h_min=float(solver.h_min), h_max=float(solver.h_max),
                        rhs_calls=solver.nfev)
        # a failed run keeps a copy of its rows only
        block = samples if idx == grid.size else samples[:idx + 1].copy()
        n = spec.problem.dim
        return _trajectory(spec.problem, spec.kind, spec.mu,
                           np.append(0.0, grid[:idx]), block[:, :n],
                           block[:, n:], x_star, f_star, meta, observables)

    def _fail(message):
        raise IntegrationFailure(message, partial=build(observables=False))

    idx = 0
    try:
        # vector_field is looked up here, once, so that a replaced or
        # wrapped module-level field is the one the stepper calls
        solver = Dopri5(partial(vector_field, spec), psi0, float(t_end), tol)
        while solver.t < t_end:
            if not solver.step():
                _fail("adaptive step-size underflow")
            # every grid point this step reached, in one dense-output call
            end = bisect_right(grid_points, solver.t + 1e-12)
            if end > idx:
                ys = solver.dense(grid[idx:end])
                if not np.isfinite(ys).all():
                    _fail("non-finite state sample")
                samples[idx + 1:end + 1] = ys
                idx = end
    except FloatingPointError as exc:
        if solver is None:      # raised by the stepper's constructor
            meta["rhs_calls"] = exc.nfev
        _fail(str(exc))
    return build()


# ---------------------------------------------------------------------------
# discrete baselines
# ---------------------------------------------------------------------------

def discrete_fb_step(problem, x, alpha_bar, mu):
    """One forward-backward step x - alpha_bar G_mu(x).

    With alpha_bar = mu this is the proximal gradient (ISTA) update.
    """
    mu = check_mu_domain(mu, problem.f.L)
    return x - alpha_bar * generalized_gradient(problem, x, mu)


def discrete_dr_step(problem, z, mu):
    """One Douglas-Rachford step z - prox_f(z) + prox_g(2 prox_f(z) - z)."""
    mu = _finite_scalar("penalty mu", mu, positive=True)
    if problem.f.kind != "quadratic":
        raise UnsupportedOperationError("DR step requires prox of the smooth part")
    xh = problem.f.prox(z, mu)
    return z - xh + problem.g.prox(2.0 * xh - z, mu)


def run_discrete(problem, kind, mu, n_steps, x_star=None, f_star=None):
    """Iterate a discrete splitting n_steps >= 0 times from zero and package
    the iterates as a Trajectory, iterate k at time k.

    fb_discrete is ISTA (step size mu); dr_discrete is Douglas-Rachford.
    """
    if n_steps < 0:
        raise ParameterDomainError(f"n_steps must be >= 0, got {n_steps}")
    if kind == "fb_discrete":
        mu = check_mu_domain(mu, problem.f.L)
        step = partial(discrete_fb_step, problem, alpha_bar=mu, mu=mu)
    elif kind == "dr_discrete":
        mu = _finite_scalar("penalty mu", mu, positive=True)
        step = partial(discrete_dr_step, problem, mu=mu)
    else:
        raise ValueError(f"unknown discrete kind {kind!r}")
    iterates = [np.zeros(problem.dim)]
    for _ in range(n_steps):
        iterates.append(step(iterates[-1]))
    positions = np.asarray(iterates)
    times = np.arange(positions.shape[0], dtype=float)
    return _trajectory(problem, kind, mu, times, positions, positions[:, :0],
                       x_star, f_star, {"n_steps": n_steps})


# ---------------------------------------------------------------------------
# CSV export / import
# ---------------------------------------------------------------------------

def export_trajectory_csv(traj, path):
    """Write a trajectory trace.

    Columns: t, x_1..x_n, then z_1..z_n for DR kinds, then v_1..v_n for
    second-order kinds, then objective_gap, dist_sq. Missing observables
    are written as nan. CRLF line endings.

    Every value is written in exactly the bytes of ``'%.17e' % value``,
    by the vectorized formatter of ``splitflow._csvfmt``. Returns the
    number of bytes written.
    """
    n = traj.primal.shape[1]
    has_z = traj.kind in _Z_KINDS
    nv = traj.velocity.shape[1]
    header = ["t"] + [f"x_{i+1}" for i in range(n)]
    blocks = [traj.times[:, None], traj.primal]
    if has_z:
        header += [f"z_{i+1}" for i in range(n)]
        blocks.append(traj.position)
    header += [f"v_{i+1}" for i in range(nv)]
    blocks.append(traj.velocity)
    nan = np.full(traj.times.shape[0], np.nan)
    for name in ("objective_gap", "dist_sq"):
        header.append(name)
        blocks.append(traj.observables.get(name, nan)[:, None])
    return write_csv(path, header, blocks)


def read_trace_csv(path):
    """Read a trace written by export_trajectory_csv into arrays."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    out = {name: data[:, header.index(name)]
           for name in ("t", "objective_gap", "dist_sq")}
    for prefix in ("x", "z", "v"):
        idx = [j for j, name in enumerate(header)
               if name.startswith(prefix + "_")]
        out[prefix] = data[:, idx] if idx else None
    return out
