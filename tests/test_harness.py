import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from splitflow import (BenchmarkConfig, LambdaRule, gen_boxqp, gen_lasso,
                       gen_logistic, h_curve, run_benchmark, save_problem,
                       solve_reference)
from splitflow.cli import main as cli_main
from splitflow.harness import BOX_QP, LOGISTIC, generate_problem

from oracles import finite_diff_grad


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


class TestConfig:
    def test_roundtrip(self):
        cfg = BenchmarkConfig(example=BOX_QP, dims=(0, 24), kappa=50.0,
                              dynamics=("acc_fb",), t_end=30.0)
        d = cfg.to_dict()
        assert d["schema"] == 1
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
_TIMING_KEYS = ("wall_clock", "integrate_s", "observables_s", "certify_s",
                "export_s")
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
        forked, serial = (r["dynamics"] for r in reports)
        assert reports[0]["problem"]["workers"] >= 2
        assert reports[1]["problem"]["workers"] == 1
        assert list(forked) == list(serial) == [
            "acc_fb", "acc_dr", "fb_flow", "fb_discrete"]
        for kind, rec in serial.items():
            assert "error" not in rec, rec
            assert {k: v for k, v in forked[kind].items()
                    if k not in _TIMING_KEYS} == {
                k: v for k, v in rec.items() if k not in _TIMING_KEYS}
            trace = f"trace_{kind}.csv"
            assert (tmp_path / "forked" / trace).read_bytes() == (
                tmp_path / "serial" / trace).read_bytes()

    def test_dead_child_gives_error_records(self):
        # the child running kinds[1::w] exits at its first kind
        report, left = _single_threaded_run(f"""
import json, os
from splitflow import harness
cfg = {_FORKED_CONFIG}
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
        kinds = list(report["dynamics"])
        assert w >= 2 and kinds[1] == "acc_dr"
        for kind in kinds[1::w]:
            assert report["dynamics"][kind] == {"error": (
                "ChildProcessError: worker exited with status 3")}
        for kind in kinds[0::w]:
            assert "error" not in report["dynamics"][kind]
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

    @pytest.mark.parametrize("rho", ["-1", "0", "nan"])
    def test_certify_refuses_bad_rate(self, tmp_path, capsys, rho):
        cfg = BenchmarkConfig(example=BOX_QP, dims=(0, 12), kappa=30.0,
                              seed=5, dynamics=("fb_flow",), t_end=20.0,
                              sample_dt=0.2)
        run_benchmark(cfg, out_dir=str(tmp_path))
        trace = str(tmp_path / "trace_fb_flow.csv")
        code = cli_main(["certify", "--trace", trace, "--mode", "exponential",
                         "--rho", rho, "--window", "2,18"])
        assert code == 1
        assert "ParameterDomainError" in capsys.readouterr().err

    def test_verify_hcurve(self, tmp_path):
        code = cli_main(["verify", "hcurve", "--grid", "200",
                         "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "hcurve.csv").read_text().strip().splitlines()
        assert lines[0] == "w,h"
        assert len(lines) == 201

    def test_verify_conditions(self, tmp_path):
        code = cli_main(["verify", "conditions", "--grid", "100",
                         "--out", str(tmp_path)])
        assert code == 0

    def test_verify_conditions_rows_are_h_curve_points(self, tmp_path):
        assert cli_main(["verify", "conditions", "--grid", "50",
                         "--out", str(tmp_path)]) == 0
        rows = json.loads((tmp_path / "conditions.json").read_text())
        details = h_curve(np.linspace(0.01, 1.0, 50)).details
        for key in ("w", "i", "ii", "iii_residual"):
            assert [row[key] for row in rows] == details[key].tolist()

    @pytest.mark.parametrize("suite", ["conditions", "hcurve"])
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
        assert (tmp_path / "lemma3_quadratic_l1.json").exists()

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

    def test_runtime_error_exit_code(self, tmp_path):
        code = cli_main(["run", "--config", str(tmp_path / "missing.json"),
                         "--out", str(tmp_path)])
        assert code == 1
