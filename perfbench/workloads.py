"""The benchmark's workloads.

Each workload turns (seed, pass index) into generated inputs with
``prepare`` and runs one pass over them with ``execute``, which is the timed
part. splitflow only ever sees the generated problems and configs.

Problem seeds are drawn from a pool of ``POOL`` seeds whose results were
recorded once (``recorded.json``), so every operation of every run can be
checked against a recorded value, whatever ``--seed`` is. The run seed picks
the order in which a run visits the pool: ``seed % POOL`` first, so pass 0
of ``lasso_export`` at seed 0 is the README's example config.

One operation is one (problem, dynamics) run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from splitflow import analysis, dynamics, envelopes, harness

POOL = 16
REF_TOL = 1e-12        # the tolerance harness.run_benchmark asks the reference for
ALL_KINDS = ("acc_fb", "acc_dr", "fb_flow", "dr_flow",
             "fb_discrete", "dr_discrete")


@dataclass(frozen=True)
class Op:
    """Outcome of one operation, as the benchmark checks it."""

    key: str
    error: str | None = None
    finite: bool = True
    ref_ok: bool = True
    fitted: float | None = None
    final_gap: float | None = None
    certified: bool | None = None       # None: no certificate issued


def _pool_order(seed):
    first = seed % POOL
    rest = np.random.default_rng(seed).permutation(POOL)
    return [first] + [int(p) for p in rest if p != first]


def _attempt(fn, *args):
    """Run one unit of work; an exception is its result, so one failing
    operation is counted instead of ending the run."""
    try:
        return fn(*args)
    except Exception as exc:                            # noqa: BLE001
        return exc


def _describe(exc):
    return f"{type(exc).__name__}: {exc}"


def _finite(*values):
    return all(v is not None and bool(np.all(np.isfinite(v))) for v in values)


class Workload:
    """Common pass structure: which pool problems pass ``index`` of a run
    with ``seed`` visits, and their generated inputs."""

    per_pass = 1

    def problem_seeds(self, seed, index):
        order = _pool_order(seed)
        return [order[(self.per_pass * index + j) % POOL]
                for j in range(self.per_pass)]

    def prepare(self, seed, index):
        return self.inputs(self.problem_seeds(seed, index))


# ---------------------------------------------------------------------------
# harness workloads: harness.run_benchmark, as `splitflow run` calls it
# ---------------------------------------------------------------------------

class HarnessWorkload(Workload):
    """One ``run_benchmark`` call per pass."""

    def __init__(self, name, template, writes_traces):
        self.name = name
        self.template = template
        self.writes_traces = writes_traces

    def inputs(self, seeds):
        return [self.template(s) for s in seeds]

    def setup(self, seed):
        """Problem generation for the first pass, as set-up measures it."""
        return [harness.generate_problem(cfg) for cfg in self.prepare(seed, 0)]

    def execute(self, configs, out_dir):
        return [_attempt(harness.run_benchmark, cfg,
                         out_dir if self.writes_traces else None)
                for cfg in configs]

    def ops(self, configs, reports):
        out = []
        for cfg, report in zip(configs, reports):
            if isinstance(report, Exception):
                out += [Op(f"{cfg.seed}/{kind}", error=_describe(report))
                        for kind in cfg.dynamics]
                continue
            ref_ok = report.problem_meta["reference_grad_map_norm"] <= REF_TOL
            for kind, rec in report.dynamics.items():
                key = f"{cfg.seed}/{kind}"
                if "error" in rec:
                    out.append(Op(key, error=rec["error"], ref_ok=ref_ok))
                    continue
                out.append(Op(
                    key, ref_ok=ref_ok,
                    finite=_finite(rec["fitted"], rec["final_gap"],
                                   rec["final_dist_sq"]),
                    fitted=rec["fitted"], final_gap=rec["final_gap"],
                    certified=rec["pass"]))
        return out


def _lasso_config(seed):
    # the README's example config, seed aside
    return harness.BenchmarkConfig(
        example="lasso_l1", dims=(20, 100), dynamics=ALL_KINDS, t_end=200.0,
        tol=1e-9, sample_dt=0.1, seed=seed)


def _boxqp_config(seed):
    return harness.BenchmarkConfig(
        example="box_qp", dims=(100, 100), kappa=1e3, dynamics=ALL_KINDS,
        t_end=120.0, tol=1e-9, sample_dt=0.05, seed=seed)


def _logistic_config(seed):
    return harness.BenchmarkConfig(
        example="logistic_l1", dims=(200, 1000), ridge=0.1,
        dynamics=("acc_fb",), t_end=10.0, tol=1e-9, sample_dt=0.01,
        seed=seed)


# ---------------------------------------------------------------------------
# Lyapunov ensemble: integrate + check_lyapunov_decay, three regimes
# ---------------------------------------------------------------------------

LYAP_T_END = 10.0
LYAP_SAMPLE_DT = 0.005


def _lyap_lasso(seed):
    return harness.BenchmarkConfig(example="lasso_l1", dims=(10, 30), seed=seed)


def _lyap_boxqp(seed):
    return harness.BenchmarkConfig(example="box_qp", dims=(16, 16),
                                   kappa=100.0, seed=seed)


def _lyap_logistic(seed):
    return harness.BenchmarkConfig(example="logistic_l1", dims=(20, 12),
                                   ridge=0.3, seed=seed)


_REGIMES = {"convex": _lyap_lasso, "strong": _lyap_boxqp,
            "general": _lyap_logistic}


def _lyapunov_case(regime, problem, seed):
    """Dynamics spec, ``make_lyapunov_spec`` arguments and reference
    tolerance of one trajectory, by the acceptance criterion's rules."""
    m, L = problem.f.m, problem.f.L
    fb = seed % 2 == 0
    kind, env = ("acc_fb", envelopes.FB) if fb else ("acc_dr", envelopes.DR)
    if regime == "convex":
        mu, alpha = 1.0 / (2.0 * L), 1.0 / L
        spec = dynamics.DynamicsSpec(kind, problem, mu,
                                     dynamics.ConvexSchedule(alpha=alpha))
        lyap = dict(case=analysis.QUAD_CONVEX, envelope_kind=env,
                    theta=lambda t: 2.0 / (t + 3.0))
        tol = 1e-12
    elif regime == "strong":
        mu = 1.0 / (2.0 * L)
        consts = envelopes.envelope_constants(m, L, mu, env)
        alpha = 1.0 / consts.L_tilde
        sched = dynamics.schedule_strongly_convex(alpha, consts.m_tilde)
        spec = dynamics.DynamicsSpec(kind, problem, mu, sched)
        lyap = dict(case=analysis.QUAD_STRONG, envelope_kind=env,
                    theta=sched.theta())
        tol = 1e-12
    else:
        alpha = 1.0 / L
        sched = dynamics.schedule_strongly_convex(alpha, m)
        mu = math.sqrt(sched.gamma() * sched.beta()) / (2.0 * L)
        spec = dynamics.DynamicsSpec("acc_fb", problem, mu, sched)
        lyap = dict(case=analysis.GENERAL_STRONG, theta=sched.theta(),
                    beta=sched.beta())
        tol = 1e-11
    return spec, dict(lyap, mu=mu, alpha=alpha), tol


def _lyapunov_run(regime, seed, problem):
    spec, lyap, tol = _lyapunov_case(regime, problem, seed)
    ref = analysis.solve_reference(problem, spec.mu, tol=tol)
    traj = dynamics.integrate(spec, t_end=LYAP_T_END, sample_dt=LYAP_SAMPLE_DT,
                              x_star=ref.x, f_star=ref.value)
    lspec = analysis.make_lyapunov_spec(problem, x_star=ref.x,
                                        f_star=ref.value, **lyap)
    return ref, tol, traj, analysis.check_lyapunov_decay(traj, lspec)


class LyapunovWorkload(Workload):
    """Three regimes x ``per_pass`` problems per pass; problems are generated
    outside the timed part, like set-up.

    Even pool seeds run FB kinds and odd ones DR kinds, which cost about a
    third more. Every pass takes as many of each, so that passes of all run
    seeds do the same mix of work."""

    name = "lyapunov_ensemble"
    per_pass = 4

    def problem_seeds(self, seed, index):
        order = _pool_order(seed)
        evens = [p for p in order if p % 2 == 0]
        odds = [p for p in order if p % 2 == 1]
        half = self.per_pass // 2
        return [group[(half * index + j) % len(group)]
                for j in range(half) for group in (evens, odds)]

    def inputs(self, seeds):
        return [(regime, s, harness.generate_problem(make(s)))
                for regime, make in _REGIMES.items() for s in seeds]

    def setup(self, seed):
        return self.prepare(seed, 0)

    def execute(self, cases, out_dir):
        return [_attempt(_lyapunov_run, *case) for case in cases]

    def ops(self, cases, results):
        out = []
        for (regime, seed, _), result in zip(cases, results):
            if isinstance(result, Exception):
                out.append(Op(f"{regime}/{seed}", error=_describe(result)))
                continue
            ref, tol, traj, rep = result
            gap = traj.observables["objective_gap"]
            out.append(Op(
                f"{regime}/{seed}", ref_ok=ref.grad_map_norm <= tol,
                finite=_finite(*traj.observables.values(),
                               rep.details["values"], rep.fitted),
                fitted=rep.fitted, final_gap=float(gap[-1]),
                certified=rep.passed))
        return out


# Why each workload exists is recorded in README.md and BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    HarnessWorkload("lasso_export", _lasso_config, writes_traces=True),
    HarnessWorkload("boxqp_inmem", _boxqp_config, writes_traces=False),
    HarnessWorkload("logistic_paper", _logistic_config, writes_traces=False),
    LyapunovWorkload(),
)}
