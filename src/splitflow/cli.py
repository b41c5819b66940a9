"""Command-line interface.

Subcommands:
  run       full benchmark from a JSON config, traces + report to a directory
  certify   fit a rate certificate from an exported trace CSV
  verify    standalone verification suites (lemma3 | conditions | hcurve)
  envelope  one-shot envelope/gradient evaluation at a point

Exit codes: 0 when all certificates pass, 2 on certificate failure,
1 on runtime error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from types import SimpleNamespace

import numpy as np

from . import analysis, envelopes, harness
from .dynamics import read_trace_csv
from .problems import CompositeProblem, L1, Quadratic, load_problem

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CERT_FAIL = 2


def _cmd_run(args):
    config = harness.BenchmarkConfig.load(args.config)
    report = harness.run_benchmark(config, out_dir=args.out)
    for kind, rec in report.dynamics.items():
        if "error" in rec:
            print(f"{kind}: ERROR {rec['error']}")
        else:
            print(f"{kind}: {'PASS' if rec['pass'] else 'FAIL'} "
                  f"fitted={rec['fitted']:.6g} theoretical={rec['theoretical']}")
    if any("error" in rec for rec in report.dynamics.values()):
        return EXIT_ERROR
    return EXIT_OK if report.all_passed() else EXIT_CERT_FAIL


def _cmd_certify(args):
    trace = read_trace_csv(args.trace)
    a, b = (float(v) for v in args.window.split(","))
    traj = SimpleNamespace(times=trace["t"], meta={}, observables={
        "objective_gap": trace["objective_gap"], "dist_sq": trace["dist_sq"]})
    if args.mode == "sublinear":
        cert = analysis.certify_sublinear(traj, (a, b))
    else:
        if args.rho is None:
            raise ValueError("exponential mode requires --rho")
        cert = analysis.certify_exponential(traj, args.rho, (a, b))
    print(json.dumps(cert.to_json_dict(), indent=2))
    return EXIT_OK if cert.passed else EXIT_CERT_FAIL


def _default_inequality_problems(seed):
    rng = np.random.default_rng(seed)
    Qf = harness._random_orthogonal(20, rng)
    d = np.linspace(1.0, 10.0, 20)
    Q = Qf.T @ (d[:, None] * Qf)
    quad = CompositeProblem(Quadratic(0.5 * (Q + Q.T), rng.standard_normal(20),
                                      m=1.0, L=10.0), L1(0.5))
    logi = harness.gen_logistic(30, 20, ridge=0.5, seed=seed + 1)
    return [("quadratic_l1", quad, 0.05),
            ("logistic_l1", logi, 0.5 / logi.f.L)]


def _cmd_verify(args):
    os.makedirs(args.out, exist_ok=True)
    if args.suite == "lemma3":
        all_pass = True
        for name, problem, mu in _default_inequality_problems(args.seed):
            report = analysis.check_envelope_inequalities(
                problem, mu, n_pairs=1000, seed=args.seed)
            report.write(os.path.join(args.out, f"lemma3_{name}.json"))
            print(f"lemma3[{name}]: {'PASS' if report.passed else 'FAIL'} "
                  f"worst_slack={report.worst_slack:.3e}")
            all_pass &= report.passed
        return EXIT_OK if all_pass else EXIT_CERT_FAIL
    if args.suite == "conditions":
        d = analysis.h_curve(np.linspace(0.01, 1.0, args.grid)).details
        keys = ("w", "i", "ii", "iii_residual")
        rows = [dict(zip(keys, row))
                for row in zip(*(d[k].tolist() for k in keys))]
        all_pass = bool(np.all(d["i"] & d["ii"] & (d["iii_residual"] <= 0.0)))
        with open(os.path.join(args.out, "conditions.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(rows, fh)
        print(f"conditions: {'PASS' if all_pass else 'FAIL'} on "
              f"{len(rows)}-point grid")
        return EXIT_OK if all_pass else EXIT_CERT_FAIL
    if args.suite == "hcurve":
        grid = (np.arange(1, args.grid + 1)) / args.grid
        report = analysis.h_curve(grid)
        analysis.write_h_curve_csv(report, os.path.join(args.out, "hcurve.csv"))
        report.write(os.path.join(args.out, "hcurve.json"),
                     details_path=os.path.join(args.out, "hcurve_details.json"))
        print(f"hcurve: {'PASS' if report.passed else 'FAIL'} "
              f"max_h={report.fitted:.6e}")
        return EXIT_OK if report.passed else EXIT_CERT_FAIL
    raise ValueError(f"unknown verify suite {args.suite!r}")


def _cmd_envelope(args):
    problem = load_problem(args.problem)
    with open(args.point, "r", encoding="utf-8") as fh:
        text = fh.read().replace("\n", ",")
    point = np.array([float(v) for v in text.split(",") if v.strip()])
    evaluate = (envelopes.fb_envelope if args.kind == "fb"
                else envelopes.dr_envelope)
    ev = evaluate(problem, point, args.mu)
    print(json.dumps(ev.to_dict(), indent=2))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="splitflow",
        description="Accelerated splitting dynamics: benchmarks and "
                    "rate certificates")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured benchmark")
    p_run.add_argument("--config", required=True, help="config JSON path")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_cert = sub.add_parser("certify", help="fit a rate from a trace CSV")
    p_cert.add_argument("--trace", required=True)
    p_cert.add_argument("--mode", required=True,
                        choices=["sublinear", "exponential"])
    p_cert.add_argument("--rho", type=float, default=None,
                        help="theoretical rate (exponential mode)")
    p_cert.add_argument("--window", required=True, help="fit window 'a,b'")
    p_cert.set_defaults(func=_cmd_certify)

    p_ver = sub.add_parser("verify", help="standalone verification suites")
    p_ver.add_argument("suite", choices=["lemma3", "conditions", "hcurve"])
    p_ver.add_argument("--grid", type=int, default=1000)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--out", required=True)
    p_ver.set_defaults(func=_cmd_verify)

    p_env = sub.add_parser("envelope", help="one-shot envelope evaluation")
    p_env.add_argument("--problem", required=True, help="problem JSON path")
    p_env.add_argument("--point", required=True, help="CSV of coordinates")
    p_env.add_argument("--mu", type=float, required=True)
    p_env.add_argument("--kind", choices=["fb", "dr"], default="fb")
    p_env.set_defaults(func=_cmd_envelope)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:                            # noqa: BLE001
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
