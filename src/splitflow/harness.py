"""Benchmark problem generators and the experiment runner.

Three seeded problem families are provided: l1-regularized least squares,
box-constrained QP with a planted spectrum, and l1-regularized ridge
logistic regression. ``run_benchmark`` generates a problem, solves for a
high-accuracy reference, integrates the requested dynamics and discrete
baselines, attaches rate certificates, and writes traces and a JSON
report.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import pickle
import signal
import time
from collections import namedtuple
from dataclasses import dataclass, field, fields

import numpy as np

from . import analysis, dynamics, envelopes
from .problems import (BoxIndicator, CompositeProblem, L1, LogisticRidge,
                       Quadratic, _finite_scalar)

__all__ = [
    "LambdaRule",
    "BenchmarkConfig",
    "BenchmarkReport",
    "gen_lasso",
    "gen_boxqp",
    "gen_logistic",
    "run_benchmark",
]

SCHEMA_VERSION = 1

LASSO = "lasso_l1"
BOX_QP = "box_qp"
LOGISTIC = "logistic_l1"


def _numbers(values, kind=numbers.Real):
    """True for a tuple or list of finite numbers of ``kind`` (not bools);
    an integer beyond float range is not finite."""
    try:
        return isinstance(values, (tuple, list)) and all(
            isinstance(v, kind) and not isinstance(v, bool)
            and math.isfinite(v) for v in values)
    except OverflowError:
        return False


# each l1 weight rule and the JSON key that holds its value
_LAMBDA_KEYS = {"fraction_of_max": "fraction", "fixed": "value"}


@dataclass(frozen=True)
class LambdaRule:
    """l1 weight selection: a fraction of the zero-point dual norm, or fixed."""

    kind: str = "fraction_of_max"
    value: float = 0.1

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in _LAMBDA_KEYS
                and _numbers([self.value])):
            raise ValueError("config lambda_rule must have a type in "
                             f"{list(_LAMBDA_KEYS)} and a finite value: {self}")
        object.__setattr__(self, "value", float(self.value))

    def resolve(self, lam_max):
        return self.value * (lam_max if self.kind == "fraction_of_max" else 1)

    def to_dict(self):
        return {"type": self.kind, _LAMBDA_KEYS[self.kind]: self.value}

    @staticmethod
    def from_dict(d):
        """Rule from its JSON form, exactly {"type": t, t's key: value}."""
        # str(): an unhashable "type" is refused, not a TypeError
        key = isinstance(d, dict) and _LAMBDA_KEYS.get(str(d.get("type")))
        if not key or set(d) != {"type", key}:
            raise ValueError(f"config lambda_rule must be {{type: t, key: x}}"
                             f" with t, key in {_LAMBDA_KEYS}, got {d!r}")
        return LambdaRule(d["type"], d[key])


def _random_orthogonal(n, rng):
    # QR with sign fix for a deterministic, Haar-ish orthogonal factor
    M = rng.standard_normal((n, n))
    Qf, R = np.linalg.qr(M)
    return Qf * np.sign(np.diag(R))


def gen_lasso(s, n, lambda_rule=LambdaRule(), seed=0):
    """l1-regularized least squares with Gaussian data.

    E has i.i.d. standard normal entries scaled by 1/sqrt(s); the target is
    E x_true + noise of std 0.01, with x_true planted on a tenth of the
    coordinates. The smooth part is the quadratic (1/2)||E x - q||^2 (up to
    an additive constant) and the strong convexity constant is pinned to
    zero in the rank-deficient regime s < n.
    """
    rng = np.random.default_rng(seed)
    E = rng.standard_normal((s, n)) / math.sqrt(s)
    k = max(1, int(round(0.1 * n)))
    support = rng.choice(n, size=k, replace=False)
    x_true = np.zeros(n)
    x_true[support] = rng.standard_normal(k)
    q_data = E @ x_true + 0.01 * rng.standard_normal(s)
    Q = E.T @ E
    q_lin = -E.T @ q_data
    lam = lambda_rule.resolve(float(np.abs(E.T @ q_data).max()))
    f = Quadratic(Q, q_lin, m=0.0 if s < n else None)
    return CompositeProblem(f, L1(lam))


def gen_boxqp(n, kappa, seed=0):
    """Box-constrained QP with a planted log-uniform spectrum on [1, kappa].

    The extreme eigenvalues are planted exactly, so m = 1 and L = kappa by
    construction; the box is [-1, 1] componentwise and q ~ N(0, 9 I).
    """
    if n < 2 or kappa < 1:
        raise ValueError("need n >= 2 and kappa >= 1")
    rng = np.random.default_rng(seed)
    U = _random_orthogonal(n, rng)
    d = np.empty(n)
    d[0], d[-1] = 1.0, float(kappa)
    if n > 2:
        d[1:-1] = np.exp(rng.uniform(0.0, math.log(kappa), n - 2))
    Q = U.T @ (d[:, None] * U)
    Q = 0.5 * (Q + Q.T)
    q = 3.0 * rng.standard_normal(n)
    f = Quadratic(Q, q, m=1.0, L=float(kappa))
    return CompositeProblem(f, BoxIndicator(-np.ones(n), np.ones(n)))


def gen_logistic(s, n, ridge=0.1, lambda_rule=LambdaRule(), seed=0):
    """l1-regularized ridge logistic regression with planted sparse logits.

    Features are Gaussian around 1 (uncentered, as raw data would be), which
    drives the top curvature of A'A to about s*n and hence condition numbers
    L/m in the 1e5 range at 200x1000, ridge 0.1. Labels are Bernoulli draws
    from a logit model planted on a tenth of the coordinates, with
    probabilities 1/(1 + exp(-logit)) in numpy, so generation imports no
    scipy module. These lie within 4 ulp of scipy's ``expit``, and the
    labels equal those drawn with it on every seed tested.
    """
    rng = np.random.default_rng(seed)
    A = 1.0 + rng.standard_normal((s, n))
    k = max(1, int(round(0.1 * n)))
    support = rng.choice(n, size=k, replace=False)
    x_plant = np.zeros(n)
    x_plant[support] = rng.standard_normal(k)
    logits = A @ x_plant
    spread = float(np.std(logits))
    if spread > 0:
        logits *= 2.0 / spread
    with np.errstate(over="ignore"):     # exp(-logit) = inf gives p = 0
        p = 1.0 / (1.0 + np.exp(-logits))
    y = (rng.uniform(size=s) < p).astype(float)
    f = LogisticRidge(A, y, ridge)
    lam = lambda_rule.resolve(float(np.abs(A.T @ (0.5 - y)).max()))
    return CompositeProblem(f, L1(lam))


# ---------------------------------------------------------------------------
# configuration / report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchmarkConfig:
    example: str = LASSO
    dims: tuple = (20, 100)          # (rows s, cols n); box QP uses cols only
    kappa: float = 1e3               # box QP condition number
    ridge: float = 0.1               # logistic ridge weight
    lambda_rule: LambdaRule = field(default_factory=LambdaRule)
    seed: int = 0
    dynamics: tuple = ("acc_fb", "acc_dr", "fb_flow")
    t_end: float = 200.0
    tol: float = 1e-9
    sample_dt: float = 0.1
    window: tuple | None = None      # rate-fit window; example default if None

    def __post_init__(self):
        # every field, from JSON or from Python; ranges are checked at use
        if not (isinstance(self.example, str) and self.example in _EXAMPLES):
            raise ValueError("config example must be one of "
                             f"{list(_EXAMPLES)}, got {self.example!r}")
        d, w, kinds = self.dims, self.window, self.dynamics
        # box QP ignores the rows s of dims [s, n]
        if not (_numbers(d, numbers.Integral) and len(d) == 2
                and d[0] >= (self.example != BOX_QP) and d[1] >= 1):
            raise ValueError("config dims must be two integers [s, n], n >= 1 "
                             f"and s >= 1 (s >= 0 for box_qp), got {d!r}")
        if not (_numbers([self.seed]) and float(self.seed).is_integer()
                and self.seed >= 0):
            raise ValueError("config seed must be a non-negative integer, "
                             f"got {self.seed!r}")
        if w is not None and not (_numbers(w) and len(w) == 2 and w[0] < w[1]):
            raise ValueError(
                f"config window must be two finite numbers a < b, got {w!r}")
        if not (isinstance(kinds, (tuple, list)) and all(
                isinstance(k, str) and k in dynamics._KINDS for k in kinds)):
            raise ValueError("config dynamics must be a list of "
                             f"{list(dynamics._KINDS)}, got {kinds!r}")
        if not kinds:
            raise ValueError("config dynamics must not be empty: it lists "
                             "no dynamics")
        for key in ("kappa", "ridge", "t_end", "tol", "sample_dt"):
            v = getattr(self, key)
            if not _numbers([v]):
                raise ValueError(
                    f"config {key} must be a finite number, got {v!r}")
            object.__setattr__(self, key, float(v))
        if not isinstance(self.lambda_rule, LambdaRule):
            object.__setattr__(self, "lambda_rule",
                               LambdaRule.from_dict(self.lambda_rule))
        object.__setattr__(self, "dims", tuple(d))
        object.__setattr__(self, "dynamics", tuple(kinds))
        object.__setattr__(self, "window", None if w is None else tuple(w))
        object.__setattr__(self, "seed", int(self.seed))   # 2.0 reads as 2

    def to_dict(self):
        return {
            "schema": SCHEMA_VERSION, "example": self.example,
            "dims": list(self.dims), "kappa": self.kappa, "ridge": self.ridge,
            "lambda_rule": self.lambda_rule.to_dict(), "seed": self.seed,
            "dynamics": list(self.dynamics), "t_end": self.t_end,
            "tol": self.tol, "sample_dt": self.sample_dt,
            "window": list(self.window) if self.window else None,
        }

    @staticmethod
    def from_dict(d):
        """Config from its JSON form; absent optional keys take the field
        defaults. A missing "example" or "dynamics" or an unknown key raises
        ValueError naming it; the constructor checks the values."""
        schema = d.get("schema") if isinstance(d, dict) else None
        if schema != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported config schema {schema!r}; expected {SCHEMA_VERSION}")
        keys = {f.name for f in fields(BenchmarkConfig)}
        unknown = sorted(set(d) - keys - {"schema"})
        if unknown:
            raise ValueError(f"unknown config keys {unknown}")
        missing = [k for k in ("example", "dynamics") if k not in d]
        if missing:
            raise ValueError(f"config is missing required keys {missing}")
        return BenchmarkConfig(**{k: v for k, v in d.items() if k != "schema"})

    @staticmethod
    def load(path):
        with open(path, "r", encoding="utf-8") as fh:
            return BenchmarkConfig.from_dict(json.load(fh))


@dataclass
class BenchmarkReport:
    problem_meta: dict
    dynamics: dict
    wall_clock: float

    def all_passed(self):
        """Every record passed; an error record or no record fails."""
        return bool(self.dynamics) and all(
            rec.get("pass") is True for rec in self.dynamics.values())

    def to_dict(self):
        return {"problem": self.problem_meta, "dynamics": self.dynamics,
                "wall_clock": self.wall_clock}

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)


# ---------------------------------------------------------------------------
# per-example plan
# ---------------------------------------------------------------------------

def _envelope_schedule(problem, kind, mu):
    consts = envelopes.envelope_constants(problem.f.m, problem.f.L, mu,
                                          dynamics._KINDS[kind].splitting)
    return dynamics.schedule_strongly_convex(1.0 / consts.L_tilde,
                                             consts.m_tilde)


def _logistic_mu(problem):
    f = problem.f
    sched = dynamics.schedule_strongly_convex(1.0 / f.L, f.m)
    return min(dynamics.acc_fb_mu_bound(sched.gamma(), sched.beta(), f.L),
               1.0 / (f.L * (f.L / f.m) ** 0.25))


def _half_inverse_L(problem):
    return 1.0 / (2.0 * problem.f.L)


def _inner_window(t_end):
    return (0.1 * t_end, 0.9 * t_end)


# Per-example plan: generate(config) -> problem, mu(problem) -> penalty, the
# fit mode, window(t_end) -> default rate-fit window, and
# accelerated(problem, kind, mu) -> schedule; a constant schedule's rate is
# the accelerated dynamics' exponential rate. Flows and discrete baselines
# run at alpha = 1/L with rate alpha m.
_Example = namedtuple("_Example", "generate mu mode window accelerated")


_EXAMPLES = {
    LASSO: _Example(
        lambda c: gen_lasso(c.dims[0], c.dims[1], lambda_rule=c.lambda_rule,
                            seed=c.seed),
        _half_inverse_L, "sublinear", lambda t_end: (10.0, min(200.0, t_end)),
        lambda p, kind, mu: dynamics.ConvexSchedule(alpha=1.0 / p.f.L)),
    BOX_QP: _Example(
        lambda c: gen_boxqp(c.dims[1], c.kappa, seed=c.seed),
        _half_inverse_L, "exponential", _inner_window, _envelope_schedule),
    LOGISTIC: _Example(
        lambda c: gen_logistic(c.dims[0], c.dims[1], ridge=c.ridge,
                               lambda_rule=c.lambda_rule, seed=c.seed),
        _logistic_mu, "exponential", _inner_window,
        lambda p, kind, mu: dynamics.schedule_strongly_convex(1.0 / p.f.L,
                                                              p.f.m)),
}


def generate_problem(config):
    return _EXAMPLES[config.example].generate(config)


def _example_setup(config, problem):
    """Per-example penalty, flow time scale, and certification plan."""
    example = _EXAMPLES[config.example]
    a, b = window = config.window or example.window(config.t_end)
    for discrete in {dynamics._KINDS[k].order == 0 for k in config.dynamics}:
        times = np.arange(math.ceil(config.t_end) + 1) if discrete else (
            np.append(0.0, dynamics._sample_grid(config.t_end, _finite_scalar(
                "sample_dt", config.sample_dt, positive=True))))
        if np.count_nonzero((a <= times) & (times <= b)) < 2:
            family = "discrete" if discrete else "flow"
            raise ValueError(f"config window {list(window)} holds fewer than "
                             f"2 sample times of the {family} kinds")
    return {"mu": example.mu(problem), "alpha_flow": 1.0 / problem.f.L,
            "mode": example.mode, "window": window}


def _run_one(config, problem, kind, setup, reference, out_dir):
    mu, alpha_flow = setup["mu"], setup["alpha_flow"]
    x_star, f_star = reference.x, reference.value
    rho = alpha_flow * problem.f.m if problem.f.m > 0 else None
    t0 = time.perf_counter()
    phases = {}
    order = dynamics._KINDS[kind].order
    if order == 0:
        # an Euler step of size mu at alpha = 1 covers mu/alpha_flow (1/2 on
        # lasso and box_qp) of flow time; iterate k is stored at t = k
        traj = dynamics.run_discrete(problem, kind, mu,
                                     int(math.ceil(config.t_end)),
                                     x_star=x_star, f_star=f_star)
    else:
        if order == 1:
            sched = dynamics.ConvexSchedule(alpha=alpha_flow)
        else:
            sched = _EXAMPLES[config.example].accelerated(problem, kind, mu)
            rho = (sched.theta() if isinstance(sched, dynamics.ConstantSchedule)
                   else None)           # None: convex schedule
        spec = dynamics.DynamicsSpec(kind, problem, mu, sched)
        traj = dynamics.integrate(spec, t_end=config.t_end, tol=config.tol,
                                  sample_dt=config.sample_dt,
                                  x_star=x_star, f_star=f_star)
        phases["integrate_s"] = time.perf_counter() - t0
        phases["observables_s"] = traj.meta["observables_s"]
    if setup["mode"] == "sublinear":
        cert = analysis.certify_sublinear(traj, setup["window"])
    else:
        cert = analysis.certify_exponential(traj, rho, setup["window"])
    elapsed = time.perf_counter() - t0
    if phases:
        phases["certify_s"] = elapsed - phases["integrate_s"]
    export_s, export_bytes = 0.0, 0
    if out_dir is not None:
        export_bytes = dynamics.export_trajectory_csv(
            traj, os.path.join(out_dir, f"trace_{kind}.csv"))
        export_s = time.perf_counter() - t0 - elapsed
    record = {
        "pass": bool(cert.passed), "fitted": cert.fitted,
        "theoretical": cert.theoretical, "certificate": cert.to_json_dict(),
        "final_gap": float(traj.observables["objective_gap"][-1]),
        "final_dist_sq": float(traj.observables["dist_sq"][-1]),
        "wall_clock": elapsed, **phases,
        "export_s": export_s, "export_bytes": export_bytes,
    }
    # integrator counters; a discrete run has iterations only
    for key in ("n_steps", "rhs_calls", "n_rejected", "h_min", "h_max"):
        if key in traj.meta:
            record[key] = traj.meta[key]
    return record


def _workers(n_kinds):
    """Processes to run ``n_kinds`` dynamics in: one per usable CPU, or 1
    without fork or where another OS thread, such as a BLAS pool, could
    leave a forked child deadlocked."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            alone = "\nThreads:\t1\n" in fh.read()
    except OSError:                      # no /proc: the thread count is unknown
        alone = False
    return min(n_kinds, len(os.sched_getaffinity(0))) if alone else 1


def _shares(kinds, w):
    """Each of ``w`` processes' kinds (0: the caller) in config order: ranked
    continuous, DR, accelerated first and snake-dealt from the last child."""
    table = dynamics._KINDS
    ranked = sorted(kinds, key=lambda k: (
        table[k].order == 0, table[k].splitting != envelopes.DR,
        table[k].order != 2))
    snake = [*range(w - 1, -1, -1), *range(w)]
    owner = {kind: snake[j % (2 * w)] for j, kind in enumerate(ranked)}
    return [tuple(k for k in kinds if owner[k] == i) for i in range(w)]


def _run_dynamics(config, problem, setup, reference, out_dir):
    """Every dynamics' record, in config order, and the number w of processes
    that ran them: ``worker`` i runs ``_shares(kinds, w)[i]``, a forked child
    (i >= 1) sending its records back pickled over a pipe."""
    kinds = tuple(dict.fromkeys(config.dynamics))
    if problem.f.kind == "quadratic" and any(
            dynamics._KINDS[k].splitting == envelopes.DR for k in kinds):
        # factored before the thread count; the children inherit the factor
        problem.f.solve_shifted(setup["mu"], np.zeros(problem.dim))
    w = _workers(len(kinds))
    shares = _shares(kinds, w)

    def run(worker):
        records = {}
        for kind in shares[worker]:
            try:
                records[kind] = _run_one(config, problem, kind, setup,
                                         reference, out_dir)
            except Exception as exc:                    # noqa: BLE001
                records[kind] = {"error": f"{type(exc).__name__}: {exc}"}
            records[kind]["worker"] = worker
        return records

    children = {}                        # pid -> (pipe read end, worker)
    try:
        for i in range(1, w):
            r, wr = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(wr)
                raise
            if pid == 0:                 # the child never returns
                try:
                    with os.fdopen(wr, "wb") as fh:
                        pickle.dump(run(i), fh)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(wr)
            children[pid] = (os.fdopen(r, "rb"), i)
        records = run(0)
        sent = {pid: fh.read() for pid, (fh, _) in children.items()}
        for pid, data in sent.items():   # every pipe is read before waitpid
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            fh, i = children.pop(pid)
            fh.close()
            records.update(pickle.loads(data) if code == 0 else {
                kind: {"error": f"ChildProcessError: worker exited with "
                                f"status {code}", "worker": i}
                for kind in shares[i]})
    finally:                             # after an exception in the caller
        for pid, (fh, _) in children.items():
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return {kind: records[kind] for kind in kinds}, w


def run_benchmark(config, out_dir=None):
    """Generate, solve, integrate, certify; failures are recorded per
    dynamics without aborting the batch.

    A dynamics' record holds its verdict, fitted and theoretical rates,
    certificate, final gap and distance, ``wall_clock`` (seconds to
    integrate and certify; a continuous run splits them into
    ``integrate_s``, of which ``observables_s`` went to the DR primal map
    and the observables, and ``certify_s``), ``export_s`` and ``export_bytes``
    (seconds to write its trace and the trace's size, both 0 without
    ``out_dir``) and the integrator's ``n_steps``, ``rhs_calls``,
    ``n_rejected``, ``h_min`` and ``h_max`` (``n_steps`` alone for a
    discrete baseline). The problem block adds ``generate_s`` and
    ``reference_s``: seconds to generate the problem and choose its
    penalty, and to solve for the reference, and ``workers``.

    The dynamics are independent, so on Linux ``workers`` = min(number of
    dynamics, usable CPUs) processes run them: this one and forked children,
    in fixed cost-balanced shares; a record's ``worker`` names its process
    (0: this one). Records equal the serial ones but for ``worker`` and the
    timings, which each process measures for itself. Forking a process with
    another OS thread can deadlock the child, so the run is serial then, as
    it is without ``os.fork``: a BLAS thread pool is such a thread
    (``OPENBLAS_NUM_THREADS=1`` avoids it).
    """
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    t_start = time.perf_counter()
    problem = generate_problem(config)
    setup = _example_setup(config, problem)
    t_generated = time.perf_counter()
    reference = analysis.solve_reference(problem, setup["mu"], tol=1e-12)
    meta = {
        "example": config.example, "dims": list(config.dims),
        "seed": config.seed, "n": problem.dim,
        "m": problem.f.m, "L": problem.f.L,
        "mu": setup["mu"], "alpha_flow": setup["alpha_flow"],
        "mode": setup["mode"], "window": list(setup["window"]),
        "f_star": reference.value,
        "reference_grad_map_norm": reference.grad_map_norm,
        "reference_iterations": reference.iterations,
        "reference_restarts": reference.restarts,
        "reference_polishes": reference.polishes,
        "generate_s": t_generated - t_start,
        "reference_s": time.perf_counter() - t_generated,
    }
    if problem.g.kind == "l1":
        meta["lambda"] = problem.g.weight
    records, meta["workers"] = _run_dynamics(config, problem, setup,
                                             reference, out_dir)
    report = BenchmarkReport(problem_meta=meta, dynamics=records,
                             wall_clock=time.perf_counter() - t_start)
    if out_dir is not None:
        report.write(os.path.join(out_dir, "report.json"))
        with open(os.path.join(out_dir, "config.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(config.to_dict(), fh, indent=2)
    return report
