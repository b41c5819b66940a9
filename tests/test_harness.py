import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from splitflow import (BenchmarkConfig, BenchmarkReport, LambdaRule,
                       gen_boxqp, gen_lasso, gen_logistic, h_curve,
                       run_benchmark, save_problem, solve_reference)
from splitflow.cli import _default_inequality_problems, main as cli_main
from splitflow.harness import (BOX_QP, LOGISTIC, _example_setup, _shares,
                               generate_problem)

from oracles import finite_diff_grad, percent_e_csv


class TestGenLasso:
    def test_rank_deficient_and_convex(self):
        p = gen_lasso(20, 100, seed=7)
        eigs = np.linalg.eigvalsh(p.f.Q)
        assert eigs.shape[0] == 100
        assert np.sum(eigs > 1e-10) <= 20
        assert p.f.m == 0.0

    def test_deterministic(self):
        a = gen_lasso(10, 30, seed=3)
        b = gen_lasso(10, 30, seed=3)
        np.testing.assert_array_equal(a.f.Q, b.f.Q)
        np.testing.assert_array_equal(a.f.q, b.f.q)
        assert a.g.weight == b.g.weight

    def test_kkt_at_reference(self):
        p = gen_lasso(15, 40, seed=5)
        mu = 1.0 / (2.0 * p.f.L)
        ref = solve_reference(p, mu, tol=1e-10)
        assert ref.grad_map_norm <= 1e-10
        lam = p.g.weight
        g = p.f.gradient(ref.x)
        on = np.abs(ref.x) > 1e-12
        # active coordinates sit exactly on the dual boundary
        np.testing.assert_allclose(np.abs(g[on]), lam, atol=1e-8)
        assert np.all(np.abs(g[~on]) <= lam + 1e-8)

    def test_lambda_rules(self):
        p_fixed = gen_lasso(10, 30, lambda_rule=LambdaRule("fixed", 0.37),
                            seed=1)
        assert p_fixed.g.weight == 0.37
        p_frac = gen_lasso(10, 30, seed=1)
        assert p_frac.g.weight > 0


class TestGenBoxQp:
    def test_planted_condition_number(self):
        p = gen_boxqp(30, 1e3, seed=2)
        eigs = np.linalg.eigvalsh(p.f.Q)
        assert eigs[0] == pytest.approx(1.0, rel=1e-9)
        assert eigs[-1] == pytest.approx(1e3, rel=1e-9)
        assert p.f.m == 1.0 and p.f.L == 1e3

    def test_kkt_active_set(self):
        p = gen_boxqp(50, 1e3, seed=3)
        mu = 1.0 / (2.0 * p.f.L)
        ref = solve_reference(p, mu, tol=1e-10)
        x = ref.x
        assert np.all(x >= -1 - 1e-12) and np.all(x <= 1 + 1e-12)
        g = p.f.gradient(x)
        at_lo = x <= -1 + 1e-9
        at_hi = x >= 1 - 1e-9
        assert np.any(at_lo | at_hi)   # the box is genuinely active
        assert np.all(g[at_lo] >= -1e-8)
        assert np.all(g[at_hi] <= 1e-8)
        free = ~(at_lo | at_hi)
        assert np.all(np.abs(g[free]) <= 1e-8)

    def test_deterministic(self):
        a = gen_boxqp(20, 100.0, seed=9)
        b = gen_boxqp(20, 100.0, seed=9)
        np.testing.assert_array_equal(a.f.Q, b.f.Q)


class TestGenLogistic:
    def test_constants(self):
        p = gen_logistic(40, 80, ridge=0.1, seed=4)
        assert p.f.m == 0.1
        expected = 0.1 + np.linalg.eigvalsh(p.f.A.T @ p.f.A)[-1] / 4.0
        assert p.f.L == pytest.approx(expected, rel=1e-10)

    def test_paper_scale_condition_number(self):
        # at 200x1000 with ridge 0.1 the condition number lands in the
        # reported 1e5..1e6 decade
        p = gen_logistic(200, 1000, ridge=0.1, seed=0)
        kappa = p.f.L / p.f.m
        assert 1e5 <= kappa <= 1e6

    def test_gradient_finite_difference(self):
        p = gen_logistic(20, 12, ridge=0.1, seed=6)
        gen = np.random.default_rng(0)
        x = gen.standard_normal(12)
        fd = finite_diff_grad(p.f.value, x)
        g = p.f.gradient(x)
        assert np.linalg.norm(fd - g) <= 1e-5 * (1 + np.linalg.norm(g))

    def test_deterministic(self):
        a = gen_logistic(15, 10, seed=11)
        b = gen_logistic(15, 10, seed=11)
        np.testing.assert_array_equal(a.f.A, b.f.A)
        np.testing.assert_array_equal(a.f.y, b.f.y)

    def test_labels_match_scipy_expit_draws(self):
        # labels use numpy's 1/(1 + exp(-logit)), within a few ulp of
        # scipy's expit; replaying the generator's draws with expit gives
        # the same labels on the Lyapunov pool's 20x12 problems, three
        # 200x1000 paper-scale ones and `verify lemma3`'s 30x20 one
        from scipy.special import expit
        cases = [(gen_logistic(20, 12, ridge=0.3, seed=s), s)
                 for s in range(16)]
        cases += [(gen_logistic(200, 1000, seed=s), s) for s in (0, 1, 2)]
        cases += [(p, 1) for name, p, _ in _default_inequality_problems(0)
                  if name == "logistic_l1"]
        assert len(cases) == 20
        for p, seed in cases:
            s, n = p.f.A.shape
            rng = np.random.default_rng(seed)
            A = 1.0 + rng.standard_normal((s, n))
            np.testing.assert_array_equal(A, p.f.A)
            k = max(1, int(round(0.1 * n)))
            support = rng.choice(n, size=k, replace=False)
            x_plant = np.zeros(n)
            x_plant[support] = rng.standard_normal(k)
            logits = A @ x_plant
            logits *= 2.0 / float(np.std(logits))
            y = (rng.uniform(size=s) < expit(logits)).astype(float)
            np.testing.assert_array_equal(p.f.y, y, err_msg=f"{s}x{n} {seed}")


class TestConfig:
    def test_roundtrip(self):
        cfg = BenchmarkConfig(example=BOX_QP, dims=(0, 24), kappa=50.0,
                              dynamics=("acc_fb",), t_end=30.0,
                              lambda_rule=LambdaRule("fixed", 0.25))
        d = cfg.to_dict()
        assert d["schema"] == 1
        assert d["lambda_rule"] == {"type": "fixed", "value": 0.25}
        cfg2 = BenchmarkConfig.from_dict(json.loads(json.dumps(d)))
        assert cfg2 == cfg

    def test_schema_version_enforced(self):
        d = BenchmarkConfig().to_dict()
        d["schema"] = 99
        with pytest.raises(ValueError):
            BenchmarkConfig.from_dict(d)

    def test_unknown_dynamics_rejected(self):
        d = BenchmarkConfig().to_dict()
        d["dynamics"] = ["warp_drive"]
        with pytest.raises(ValueError):
            BenchmarkConfig.from_dict(d)

    def test_unknown_key_rejected(self):
        # a misspelt key must not silently fall back to its default
        d = BenchmarkConfig().to_dict()
        d["t_nd"] = 50
        with pytest.raises(ValueError, match="t_nd"):
            BenchmarkConfig.from_dict(d)

    def test_empty_dynamics_rejected(self, tmp_path, capsys):
        # a config that runs nothing is an error, not a failed certificate
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"schema": 1, "example": "lasso_l1", "dynamics": []}))
        code = cli_main(["run", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")])
        assert code == 1
        assert "no dynamics" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("dims", [5]), ("dims", [20, 0]), ("dims", [0, 100]),
        ("dims", [20.0, 100]), ("dims", [True, 100]), ("window", [1.0]),
        ("window", [5.0, 1.0]), ("window", [1.0, float("inf")]),
        ("seed", 1.7), ("seed", "0"), ("dims", 5), ("window", 5),
        ("dynamics", "acc_fb"), ("kappa", "1000"),
        ("lambda_rule", {"type": "fraction_of_max"}),
        ("lambda_rule", {"type": "fixed", "fraction": 0.3, "value": 9}),
        ("seed", -1),
        pytest.param("kappa", 10**400, id="kappa-int-beyond-float"),
        pytest.param("dims", [10**400, 5], id="dims-int-beyond-float"),
        pytest.param("seed", 10**400, id="seed-int-beyond-float")])
    def test_malformed_input_rejected(self, key, value):
        # refused by name when the config is built, before any integration,
        # whether it comes from JSON or from Python
        d = dict(BenchmarkConfig().to_dict(), **{key: value})
        with pytest.raises(ValueError, match=f"config {key} must be"):
            BenchmarkConfig.from_dict(d)
        with pytest.raises(ValueError, match=f"config {key} must be"):
            BenchmarkConfig(**{key: value})

    @pytest.mark.parametrize("key, build", [
        ("dynamics", lambda: BenchmarkConfig(dynamics=())),
        ("dynamics", lambda: BenchmarkConfig(dynamics=("acc_fb", "bogus"))),
        ("example", lambda: BenchmarkConfig(example="nope")),
        ("lambda_rule", lambda: LambdaRule("bogus")),
        ("t_end", lambda: BenchmarkConfig(t_end=float("nan"))),
        ("tol", lambda: BenchmarkConfig(tol=True))],
        ids=["no-dynamics", "bogus-dynamics", "example", "lambda-rule",
             "nan-t_end", "bool-tol"])
    def test_python_constructor_checks_like_json(self, key, build):
        with pytest.raises(ValueError, match=f"config {key} must"):
            build()

    def test_missing_required_keys_named(self):
        with pytest.raises(ValueError, match=r"\['example', 'dynamics'\]"):
            BenchmarkConfig.from_dict({"schema": 1})

    def test_numbers_stored_as_floats(self, tmp_path):
        # integer JSON numbers are written back as the floats they stand for
        cfg = BenchmarkConfig.from_dict(
            {"schema": 1, "example": BOX_QP, "dims": [0, 8], "kappa": 1000,
             "t_end": 200, "sample_dt": 1, "dynamics": ["fb_discrete"]})
        assert type(cfg.t_end) is float and type(cfg.kappa) is float
        run_benchmark(cfg, out_dir=str(tmp_path))
        text = (tmp_path / "config.json").read_text()
        assert '"t_end": 200.0' in text and '"kappa": 1000.0' in text

    def test_malformed_window_fails_before_any_run(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(BenchmarkConfig().to_dict(),
                                            window=[1.0])))
        code = cli_main(["run", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")])
        assert code == 1 and not (tmp_path / "out").exists()
        assert "config window must be" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides", [
        {"t_end": 5.0}, {"window": [300.0, 400.0]}],
        ids=["default-window-after-t_end", "window-after-t_end"])
    def test_window_outside_run_refused(self, overrides):
        # a window with no time in (0, t_end] would fail every record's fit
        # after all the integrations; it is refused before the reference
        cfg = BenchmarkConfig(**overrides)
        with pytest.raises(ValueError, match="config window"):
            _example_setup(cfg, generate_problem(cfg))

    def test_window_outside_run_fails_before_any_run(self, tmp_path, capsys):
        # the default lasso window (10, 200) clipped to t_end = 5 is (10, 5)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(BenchmarkConfig().to_dict(),
                                            t_end=5.0)))
        code = cli_main(["run", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")])
        assert code == 1 and not (tmp_path / "out" / "report.json").exists()
        assert "config window [10.0, 5.0]" in capsys.readouterr().err

    def test_window_ending_after_t_end_accepted(self):
        cfg = BenchmarkConfig(window=[1.0, 400.0])
        setup = _example_setup(cfg, generate_problem(cfg))
        assert setup["window"] == (1.0, 400.0)

    @pytest.mark.parametrize("overrides, message", [
        (dict(t_end=20.0, window=[10.0, 20.0], sample_dt=30.0,
              dynamics=["fb_flow", "acc_fb"]),
         r"config window \[10.0, 20.0\] holds fewer than 2 sample times "
         r"of the flow kinds"),
        (dict(window=[10.2, 10.8], dynamics=["fb_discrete"]),
         r"config window \[10.2, 10.8\] holds fewer than 2 sample times "
         r"of the discrete kinds"),
        (dict(window=[10.2, 10.8], dynamics=["acc_fb", "fb_discrete"]),
         "of the discrete kinds"),
        (dict(sample_dt=0.0), "sample_dt must be finite and positive"),
        *[(dict(t_end=t_end, window=[0.0, 1.0], dynamics=kinds),
           "t_end must be finite and positive")
          for t_end in (0.0, -1.0)
          for kinds in (["acc_fb", "fb_flow"], ["fb_discrete"])]],
        ids=["flow-grid-too-coarse", "discrete-between-iterates",
             "one-family-too-few", "zero-sample_dt", "zero-t_end-flow",
             "zero-t_end-discrete", "negative-t_end-flow",
             "negative-t_end-discrete"])
    def test_sparse_window_refused_before_any_solve(self, monkeypatch,
                                                     overrides, message):
        # at t_end = 20 and sample_dt = 30 a flow samples t = 0 and 20 only,
        # so [10, 20] holds one sample, and [10.2, 10.8] holds no iterate;
        # each such kind's fit would fail after the reference and the runs.
        # The sample times are built from t_end, so t_end is checked first
        # and named (a flow at t_end = 0 used to fail each record instead)
        calls = []
        for name in ("integrate", "run_discrete"):
            monkeypatch.setattr(f"splitflow.dynamics.{name}",
                                lambda *a, _name=name, **k: calls.append(_name))
        monkeypatch.setattr("splitflow.analysis.solve_reference",
                            lambda *a, **k: calls.append("solve_reference"))
        with pytest.raises(ValueError, match=message):
            run_benchmark(BenchmarkConfig(**overrides))
        assert calls == []

    @pytest.mark.parametrize("overrides", [
        dict(t_end=20.0, window=[0.0, 20.0], sample_dt=30.0),
        dict(t_end=10.5, window=[10.0, 12.0], dynamics=["fb_discrete"]),
        dict(window=[10.2, 10.8], dynamics=["acc_fb"], sample_dt=0.25)],
        ids=["flow-0-and-t_end", "discrete-past-t_end", "flow-fine-grid"])
    def test_window_with_two_sample_times_accepted(self, overrides):
        cfg = BenchmarkConfig(**overrides)
        setup = _example_setup(cfg, generate_problem(cfg))
        assert setup["window"] == tuple(overrides["window"])

    def test_integral_seed_accepted(self):
        # a box QP ignores its rows, and a whole float seed reads as an int
        cfg = BenchmarkConfig.from_dict(dict(
            BenchmarkConfig(example=BOX_QP).to_dict(), dims=[0, 12], seed=2.0))
        assert cfg.dims == (0, 12) and type(cfg.seed) is int and cfg.seed == 2

    def test_to_dict_follows_fields(self):
        # "schema", then every field in order, tuples and the rule as JSON
        assert list(BenchmarkConfig().to_dict().items()) == [
            ("schema", 1), ("example", "lasso_l1"), ("dims", [20, 100]),
            ("kappa", 1000.0), ("ridge", 0.1),
            ("lambda_rule", {"type": "fraction_of_max", "fraction": 0.1}),
            ("seed", 0), ("dynamics", ["acc_fb", "acc_dr", "fb_flow"]),
            ("t_end", 200.0), ("tol", 1e-9), ("sample_dt", 0.1),
            ("window", None)]
        assert BenchmarkConfig(window=(1, 5)).to_dict()["window"] == [1.0, 5.0]

    def test_readme_config_loads(self):
        # the README's schema block, its // comments stripped
        with open(Path(__file__).parents[1] / "README.md",
                  encoding="utf-8") as fh:
            text = fh.read()
        block = text.split("### Benchmark config schema")[1]
        block = block.split("```json")[1].split("```")[0]
        d = json.loads(re.sub(r"//[^\n]*", "", block))
        cfg = BenchmarkConfig.from_dict(d)
        assert cfg.t_end == 200.0 and cfg.window == (10.0, 200.0)


class TestRunBenchmark:
    def test_small_boxqp_exponential(self, tmp_path):
        cfg = BenchmarkConfig(example=BOX_QP, dims=(0, 16), kappa=50.0,
                              seed=1, dynamics=("acc_fb", "fb_flow"),
                              t_end=120.0, sample_dt=0.2)
        report = run_benchmark(cfg, out_dir=str(tmp_path))
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "trace_acc_fb.csv").exists()
        rec = report.dynamics["acc_fb"]
        assert "error" not in rec
        assert rec["pass"], rec
        assert report.dynamics["fb_flow"]["pass"]

    def test_reproducible_fits(self):
        cfg = BenchmarkConfig(example=BOX_QP, dims=(0, 12), kappa=30.0,
                              seed=5, dynamics=("acc_fb",), t_end=80.0,
                              sample_dt=0.2)
        a = run_benchmark(cfg)
        b = run_benchmark(cfg)
        fa = a.dynamics["acc_fb"]["fitted"]
        fb = b.dynamics["acc_fb"]["fitted"]
        assert abs(fa - fb) <= 1e-9
        assert a.dynamics["acc_fb"]["pass"] == b.dynamics["acc_fb"]["pass"]

    def test_failure_recorded_not_raised(self):
        # logistic smooth part has no prox, so DR dynamics must error out
        # per-record while the rest of the batch completes
        cfg = BenchmarkConfig(example=LOGISTIC, dims=(12, 8), ridge=0.3,
                              seed=2, dynamics=("acc_fb", "acc_dr"),
                              t_end=40.0, sample_dt=0.1)
        report = run_benchmark(cfg)
        assert "error" in report.dynamics["acc_dr"]
        assert "error" not in report.dynamics["acc_fb"]
        # an error record has no verdict, so the report does not pass
        assert not report.all_passed()

    def test_report_without_records_does_not_pass(self):
        assert not BenchmarkReport({}, {}, 0.0).all_passed()

    def test_records_carry_run_telemetry(self, tmp_path):
        cfg = BenchmarkConfig(dims=(8, 20), seed=0,
                              dynamics=("acc_fb", "dr_flow", "fb_discrete"),
                              t_end=20.0, sample_dt=0.5, window=(2.0, 20.0))
        written = run_benchmark(cfg, out_dir=str(tmp_path))
        in_memory = run_benchmark(cfg)
        saved = json.loads((tmp_path / "report.json").read_text())
        keys = ("n_steps", "rhs_calls", "n_rejected", "h_min", "h_max",
                "integrate_s", "certify_s", "observables_s")
        for kind in ("acc_fb", "dr_flow"):
            rec = written.dynamics[kind]
            # DOPRI5 is FSAL: the field at psi0, the initial-step probe,
            # then six evaluations per attempted step
            assert rec["rhs_calls"] == 2 + 6 * (rec["n_steps"]
                                                + rec["n_rejected"]), rec
            assert 0.0 < rec["h_min"] <= rec["h_max"] <= cfg.t_end, rec
            assert rec["export_s"] > 0.0
            assert in_memory.dynamics[kind]["export_s"] == 0.0
            # wall_clock is still integrate + certify, now split in two
            assert rec["integrate_s"] > 0.0 and rec["certify_s"] > 0.0
            assert rec["integrate_s"] + rec["certify_s"] == pytest.approx(
                rec["wall_clock"], rel=1e-9)
            # the primal map and observables are a part of integrate_s
            assert 0.0 < rec["observables_s"] < rec["integrate_s"]
            assert [saved["dynamics"][kind][k] for k in keys] == [
                rec[k] for k in keys]
        disc = written.dynamics["fb_discrete"]
        assert disc["n_steps"] > 0 and disc["export_s"] > 0.0
        assert "rhs_calls" not in disc
        assert "integrate_s" not in disc and "certify_s" not in disc
        assert "observables_s" not in disc
        for kind in cfg.dynamics:
            trace = tmp_path / f"trace_{kind}.csv"
            assert written.dynamics[kind]["export_bytes"] == (
                trace.stat().st_size)
            assert saved["dynamics"][kind]["export_bytes"] == (
                trace.stat().st_size)
            assert in_memory.dynamics[kind]["export_bytes"] == 0
        # the reference counters in ReferenceSolution's field order, then
        # the solve's seconds
        assert [k for k in saved["problem"] if k.startswith("reference_")] == [
            "reference_grad_map_norm", "reference_iterations",
            "reference_restarts", "reference_polishes", "reference_s"]
        ref = solve_reference(generate_problem(cfg), saved["problem"]["mu"],
                              tol=1e-12)
        assert [saved["problem"][f"reference_{k}"] for k in (
            "iterations", "restarts", "polishes")] == [
            ref.iterations, ref.restarts, ref.polishes]
        assert ref.iterations > 0 and ref.polishes >= 1
        # what generating the problem and its reference cost
        for key in ("generate_s", "reference_s"):
            assert saved["problem"][key] > 0.0
            assert in_memory.problem_meta[key] > 0.0

    def test_discrete_and_flow_share_limit(self):
        cfg = BenchmarkConfig(example=BOX_QP, dims=(0, 12), kappa=10.0,
                              seed=3, dynamics=("fb_flow", "fb_discrete"),
                              t_end=400.0, sample_dt=1.0, window=(5.0, 80.0))
        report = run_benchmark(cfg)
        flow = report.dynamics["fb_flow"]
        disc = report.dynamics["fb_discrete"]
        assert flow["final_dist_sq"] <= 1e-12, flow
        assert disc["final_dist_sq"] <= 1e-12, disc


_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
# record keys in which a forked run may differ from a serial one: the
# timings each process measures for itself, and the worker that ran it
_TIMING_KEYS = ("wall_clock", "integrate_s", "observables_s", "certify_s",
                "export_s", "worker")
_README_KINDS = ("acc_fb", "acc_dr", "fb_flow", "dr_flow", "fb_discrete",
                 "dr_discrete")
_FORKED_CONFIG = ("harness.BenchmarkConfig(dims=(8, 20), dynamics=("
                  "'acc_fb', 'acc_dr', 'fb_flow', 'fb_discrete'), t_end=20.0,"
                  " sample_dt=0.5, window=(2.0, 20.0))")


def _single_threaded_run(code):
    """JSON printed by ``code`` in a fresh interpreter whose BLAS keeps to
    one thread, so that ``run_benchmark`` may fork."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([
                   str(Path(__file__).parents[1] / "src"),
                   os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, timeout=300,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def _assert_forked_equals_serial(reports, kinds, out):
    """A forked and a serial report of ``kinds`` agree but for timings, and
    their traces under ``out``/forked and ``out``/serial are byte-identical."""
    forked, serial = (r["dynamics"] for r in reports)
    assert reports[0]["problem"]["workers"] >= 2
    assert reports[1]["problem"]["workers"] == 1
    assert list(forked) == list(serial) == kinds
    for kind, rec in serial.items():
        assert "error" not in rec, rec
        assert {k: v for k, v in forked[kind].items()
                if k not in _TIMING_KEYS} == {
            k: v for k, v in rec.items() if k not in _TIMING_KEYS}
        trace = f"trace_{kind}.csv"
        assert (out / "forked" / trace).read_bytes() == (
            out / "serial" / trace).read_bytes()


@pytest.mark.skipif(not hasattr(os, "fork") or _CPUS < 2,
                    reason="the dynamics fork only on Linux with >= 2 CPUs")
class TestForkedWorkers:
    def test_forked_run_matches_serial(self, tmp_path):
        # both runs in one interpreter: a multi-threaded OpenBLAS rounds
        # differently, so the serial run must keep to one BLAS thread too
        reports = _single_threaded_run(f"""
import json
from splitflow import harness
cfg = {_FORKED_CONFIG}
forked = harness.run_benchmark(cfg, {str(tmp_path / "forked")!r})
harness._workers = lambda n_kinds: 1
serial = harness.run_benchmark(cfg, {str(tmp_path / "serial")!r})
print(json.dumps([forked.to_dict(), serial.to_dict()]))
""")
        _assert_forked_equals_serial(
            reports, ["acc_fb", "acc_dr", "fb_flow", "fb_discrete"], tmp_path)

    def test_forked_logistic_run_matches_serial(self, tmp_path):
        # the reference solve's first gradient imports scipy.special for
        # expit before the thread count, so the children inherit it
        seen, *reports = _single_threaded_run(f"""
import json, sys
from splitflow import harness
workers = harness._workers
seen = []
def spy(n_kinds):
    seen.append("scipy.special" in sys.modules)
    return workers(n_kinds)
harness._workers = spy
cfg = harness.BenchmarkConfig(example="logistic_l1", dims=(20, 12), ridge=0.3,
    seed=3, dynamics=("acc_fb", "fb_flow", "fb_discrete"), t_end=60.0,
    sample_dt=0.2)
forked = harness.run_benchmark(cfg, {str(tmp_path / "forked")!r})
harness._workers = lambda n_kinds: 1
serial = harness.run_benchmark(cfg, {str(tmp_path / "serial")!r})
print(json.dumps([seen, forked.to_dict(), serial.to_dict()]))
""")
        assert seen == [True]
        _assert_forked_equals_serial(
            reports, ["acc_fb", "fb_flow", "fb_discrete"], tmp_path)

    def test_forked_dr_run_matches_serial(self):
        # every DR kind solves with the Cholesky factor that LAPACK, bound
        # before the fork, computes in each process
        forked, serial = _single_threaded_run("""
import json
from splitflow import harness
cfg = harness.BenchmarkConfig(dims=(8, 20), dynamics=(
    "acc_dr", "dr_flow", "dr_discrete"), t_end=20.0, sample_dt=0.5,
    window=(2.0, 20.0))
forked = harness.run_benchmark(cfg)
harness._workers = lambda n_kinds: 1
serial = harness.run_benchmark(cfg)
print(json.dumps([forked.to_dict(), serial.to_dict()]))
""")
        assert forked["problem"]["workers"] >= 2
        assert serial["problem"]["workers"] == 1
        assert list(forked["dynamics"]) == ["acc_dr", "dr_flow", "dr_discrete"]
        for kind, rec in serial["dynamics"].items():
            assert "error" not in rec, rec
            assert {k: v for k, v in forked["dynamics"][kind].items()
                    if k not in _TIMING_KEYS} == {
                k: v for k, v in rec.items() if k not in _TIMING_KEYS}

    def test_dead_child_gives_error_records(self):
        # acc_dr, ranked first, goes to the last child, which exits there;
        # six kinds, so that its share is not the old kinds[w-1::w]
        report, left = _single_threaded_run(f"""
import json, os
from splitflow import harness
cfg = harness.BenchmarkConfig(dims=(8, 20), dynamics={_README_KINDS!r},
    t_end=20.0, sample_dt=0.5, window=(2.0, 20.0))
run_one = harness._run_one
def dying(config, problem, kind, *rest):
    if kind == "acc_dr":
        os._exit(3)
    return run_one(config, problem, kind, *rest)
harness._run_one = dying
report = harness.run_benchmark(cfg)
try:
    os.waitpid(-1, os.WNOHANG)
    left = True
except ChildProcessError:
    left = False
print(json.dumps([report.to_dict(), left]))
""")
        w = report["problem"]["workers"]
        assert w >= 2 and list(report["dynamics"]) == list(_README_KINDS)
        shares = _shares(_README_KINDS, w)
        assert "acc_dr" in shares[-1]
        assert shares[-1] != _README_KINDS[w - 1::w]
        for i, share in enumerate(shares):
            for kind in share:
                rec = report["dynamics"][kind]
                assert rec["worker"] == i
                if i == w - 1:
                    assert rec == {"error": "ChildProcessError: worker "
                                   "exited with status 3", "worker": i}
                else:
                    assert "error" not in rec, rec
        assert not left

    def test_other_thread_keeps_run_serial(self):
        counts = _single_threaded_run("""
import json, threading
from splitflow import harness
alone = harness._workers(4)
release = threading.Event()
thread = threading.Thread(target=release.wait)
thread.start()
with_thread = harness._workers(4)
release.set()
thread.join(timeout=10)
print(json.dumps([alone, with_thread, thread.is_alive()]))
""")
        assert counts == [min(4, _CPUS), 1, False]


def _lapack_at_thread_count(kinds):
    """Whether scipy.linalg was loaded when ``_workers`` counted threads,
    and at the end of a lasso run of ``kinds`` in a fresh interpreter."""
    return _single_threaded_run(f"""
import json, sys
from splitflow import harness
workers = harness._workers
seen = []
def spy(n_kinds):
    seen.append("scipy.linalg" in sys.modules)
    return workers(n_kinds)
harness._workers = spy
harness.run_benchmark(harness.BenchmarkConfig(dims=(6, 12), dynamics={kinds!r},
    t_end=5.0, sample_dt=0.5, window=(1.0, 5.0)))
print(json.dumps(seen + ["scipy.linalg" in sys.modules]))
""")


def test_lapack_is_bound_before_the_thread_count():
    # children inherit scipy.linalg instead of importing it on every pass,
    # and the thread count sees the BLAS pool that importing it may start;
    # with a DR kind listed, nothing before _run_dynamics factors a matrix
    assert _lapack_at_thread_count(("fb_flow", "acc_dr")) == [True, True]


def test_fb_only_run_loads_no_lapack():
    # no FB kind factors a matrix, so the run never binds LAPACK
    assert _lapack_at_thread_count(
        ("fb_flow", "acc_fb", "fb_discrete")) == [False, False]


def test_logistic_L_matches_scipy_svdvals_bit_for_bit():
    # L takes its top singular value from numpy's gesdd, the LAPACK routine
    # of scipy's svdvals, on one BLAS thread (a BLAS pool may round the
    # last bit differently): the Lyapunov pool's 20x12 problems, three
    # 200x1000 paper-scale ones and `verify lemma3`'s 30x20 one
    pairs = _single_threaded_run("""
import json
from scipy.linalg import svdvals
from splitflow import cli, harness
problems = [harness.gen_logistic(20, 12, ridge=0.3, seed=s) for s in range(16)]
problems += [harness.gen_logistic(200, 1000, seed=s) for s in (0, 1, 2)]
problems += [p for name, p, _ in cli._default_inequality_problems(0)
             if name == "logistic_l1"]
print(json.dumps([[p.f.L, p.f.ridge + 0.25 * float(svdvals(p.f.A)[0]) ** 2]
                  for p in problems]))
""")
    assert len(pairs) == 20
    assert [L for L, _ in pairs] == [ref for _, ref in pairs]


@pytest.mark.parametrize("w", range(1, 7))
def test_shares_partition_the_kinds(w):
    # every kind in exactly one share, in config order, the same every call
    # and whatever the config order
    shares = _shares(_README_KINDS, w)
    assert len(shares) == w and shares == _shares(_README_KINDS, w)
    assert [set(share) for share in _shares(_README_KINDS[::-1], w)] == [
        set(share) for share in shares]
    dealt = sorted(kind for share in shares for kind in share)
    assert dealt == sorted(_README_KINDS)
    for share in shares:
        assert list(share) == [k for k in _README_KINDS if k in share]


def test_shares_balance_dr_and_fb():
    # a DR kind costs 1.6-1.9x its FB twin: at w = 2 each process gets one
    # continuous kind of each family, the costliest (acc_dr) going to the
    # child; at w = 3 no process gets two of the three costliest
    caller, child = _shares(_README_KINDS, 2)
    for share in (caller, child):
        assert len(set(share) & {"acc_dr", "dr_flow"}) == 1
        assert len(set(share) & {"acc_fb", "fb_flow"}) == 1
    assert "acc_dr" in child
    assert (caller, child) == (("acc_fb", "dr_flow", "fb_discrete"),
                               ("acc_dr", "fb_flow", "dr_discrete"))
    for share in _shares(_README_KINDS, 3):
        assert len(set(share) & {"acc_dr", "dr_flow", "acc_fb"}) == 1


def test_serial_records_name_worker_0(monkeypatch):
    monkeypatch.setattr("splitflow.harness._workers", lambda n_kinds: 1)
    cfg = BenchmarkConfig(dims=(8, 20), dynamics=("acc_fb", "fb_discrete"),
                          t_end=2.0, sample_dt=0.5, window=(0.5, 2.0))
    report = run_benchmark(cfg)
    assert [rec["worker"] for rec in report.dynamics.values()] == [0, 0]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="open descriptors are counted in /proc/self/fd")
def test_failed_fork_closes_its_pipe(monkeypatch):
    # a fork that raises propagates, and leaves no descriptor of the pipe
    # made for that worker open
    def refused():
        raise OSError("fork refused")

    monkeypatch.setattr("splitflow.harness._workers", lambda n_kinds: 2)
    monkeypatch.setattr(os, "fork", refused)
    cfg = BenchmarkConfig(dims=(8, 20), dynamics=("acc_fb", "fb_flow"),
                          t_end=2.0, sample_dt=0.5, window=(0.5, 2.0))
    before = len(os.listdir("/proc/self/fd"))
    with pytest.raises(OSError, match="fork refused"):
        run_benchmark(cfg)
    assert len(os.listdir("/proc/self/fd")) == before


class TestCli:
    def test_run_and_exit_codes(self, tmp_path):
        cfg = BenchmarkConfig(example=BOX_QP, dims=(0, 12), kappa=30.0,
                              seed=5, dynamics=("acc_fb",), t_end=80.0,
                              sample_dt=0.2)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        out = tmp_path / "out"
        code = cli_main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["dynamics"]["acc_fb"]["pass"]

    def test_certify_from_trace(self, tmp_path, capsys):
        cfg = BenchmarkConfig(example=BOX_QP, dims=(0, 12), kappa=30.0,
                              seed=5, dynamics=("acc_fb",), t_end=80.0,
                              sample_dt=0.2)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        capsys.readouterr()   # drop the run command's output
        report = json.loads((out / "report.json").read_text())
        rho = report["dynamics"]["acc_fb"]["theoretical"]
        code = cli_main(["certify", "--trace", str(out / "trace_acc_fb.csv"),
                         "--mode", "exponential", "--rho", str(rho),
                         "--window", "8,72"])
        assert code == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["pass"]

    @pytest.mark.parametrize("rho", ["-1", "0", "nan", None])
    def test_certify_refuses_bad_rate(self, tmp_path, capsys, rho):
        cfg = BenchmarkConfig(example=BOX_QP, dims=(0, 12), kappa=30.0,
                              seed=5, dynamics=("fb_flow",), t_end=20.0,
                              sample_dt=0.2)
        run_benchmark(cfg, out_dir=str(tmp_path))
        trace = str(tmp_path / "trace_fb_flow.csv")
        code = cli_main(["certify", "--trace", trace, "--mode", "exponential",
                         "--window", "2,18"]
                        + ([] if rho is None else ["--rho", rho]))
        assert code == 1
        assert ("exponential mode requires --rho" if rho is None
                else "ParameterDomainError") in capsys.readouterr().err

    def test_run_reports_unsupported_kind(self, tmp_path, capsys):
        # DR needs the prox of f, which a logistic f lacks: that kind's line
        # names the error, the other kinds still run, and the run exits 1
        cfg = BenchmarkConfig(example="logistic_l1", dims=(20, 12),
                              ridge=0.3, seed=3,
                              dynamics=("fb_flow", "acc_dr"), t_end=20.0,
                              sample_dt=0.2)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        code = cli_main(["run", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")])
        assert code == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split()[:2] in (["fb_flow:", "PASS"],
                                        ["fb_flow:", "FAIL"])
        assert lines[1].startswith(
            "acc_dr: ERROR UnsupportedOperationError: ")

    def test_verify_hcurve(self, tmp_path):
        code = cli_main(["verify", "hcurve", "--grid", "200",
                         "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "hcurve.csv").read_text().strip().splitlines()
        assert lines[0] == "w,h"
        assert len(lines) == 201

    def test_verify_hcurve_csv_bytes(self, tmp_path):
        assert cli_main(["verify", "hcurve", "--grid", "50",
                         "--out", str(tmp_path)]) == 0
        d = h_curve(np.arange(1, 51) / 50).details
        block = np.column_stack([d["w"], d["h"]])
        assert (tmp_path / "hcurve.csv").read_bytes() == (
            b"w,h\r\n" + percent_e_csv(block, "\r\n"))

    def test_verify_suites_are_lemma3_and_hcurve(self, tmp_path, capsys):
        # the per-point rows of the rate conditions are hcurve's details
        assert cli_main(["verify", "hcurve", "--grid", "50",
                         "--out", str(tmp_path)]) == 0
        details = json.loads((tmp_path / "hcurve_details.json").read_text())
        assert {"w", "i", "ii", "iii_residual"} <= set(details)
        with pytest.raises(SystemExit):
            cli_main(["verify", "conditions", "--out", str(tmp_path)])
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["hcurve"])
    def test_verify_refuses_empty_grid(self, suite, tmp_path, capsys):
        code = cli_main(["verify", suite, "--grid", "0",
                         "--out", str(tmp_path)])
        assert code == 1
        assert "empty grid" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_verify_lemma3(self, tmp_path):
        code = cli_main(["verify", "lemma3", "--seed", "0",
                         "--out", str(tmp_path)])
        assert code == 0
        for name in ("quadratic_l1", "logistic_l1"):
            # the margins of both inequalities reach the details file
            report = json.loads((tmp_path / f"lemma3_{name}.json").read_text())
            path = tmp_path / f"lemma3_{name}_details.json"
            assert report["details_path"] == str(path)
            details = json.loads(path.read_text())
            assert set(details) == {"worst_upper_margin", "worst_lower_margin",
                                    "grad_map_norm_at_ref"}
            assert report["worst_slack"] == -min(
                details["worst_upper_margin"], details["worst_lower_margin"])

    def test_envelope_oneshot(self, tmp_path, capsys):
        from conftest import make_quadratic_l1
        p = make_quadratic_l1(n=4, seed=1)
        ppath = tmp_path / "p.json"
        save_problem(p, ppath)
        point = tmp_path / "x.csv"
        point.write_text("0.5,-0.25,1.0,0.0\n")
        code = cli_main(["envelope", "--problem", str(ppath), "--point",
                         str(point), "--mu", "0.05"])
        assert code == 0
        parsed = json.loads(capsys.readouterr().out)
        assert "value" in parsed and len(parsed["gradient"]) == 4

    @pytest.mark.parametrize("text, message", [
        ("0.5,nan,1.0,0.0", "non-finite"), ("0.5,-0.25,inf,0.0", "non-finite"),
        ("0.5,-0.25,1.0", "3 coordinates")])
    def test_envelope_refuses_bad_point(self, tmp_path, capsys, text,
                                        message):
        from conftest import make_quadratic_l1
        ppath = tmp_path / "p.json"
        save_problem(make_quadratic_l1(n=4, seed=1), ppath)
        point = tmp_path / "x.csv"
        point.write_text(text + "\n")
        code = cli_main(["envelope", "--problem", str(ppath), "--point",
                         str(point), "--mu", "0.05"])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == "" and message in err

    def test_runtime_error_exit_code(self, tmp_path):
        code = cli_main(["run", "--config", str(tmp_path / "missing.json"),
                         "--out", str(tmp_path)])
        assert code == 1
