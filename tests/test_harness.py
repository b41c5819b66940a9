import json

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
        keys = ("n_steps", "rhs_calls", "stopped_early", "n_rejected",
                "h_min", "h_max", "integrate_s", "certify_s", "observables_s")
        for kind in ("acc_fb", "dr_flow"):
            rec = written.dynamics[kind]
            # DOPRI5 is FSAL: the field at psi0, the initial-step probe,
            # then six evaluations per attempted step
            assert rec["rhs_calls"] == 2 + 6 * (rec["n_steps"]
                                                + rec["n_rejected"]), rec
            assert 0.0 < rec["h_min"] <= rec["h_max"] <= cfg.t_end, rec
            assert rec["stopped_early"] in (True, False)
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
        assert "rhs_calls" not in disc and "stopped_early" not in disc
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
