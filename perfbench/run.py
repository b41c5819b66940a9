"""splitflow benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...    # every workload, one table

One process, one caller, closed loop: a pass starts when the previous one
returns. BLAS runs on ``BLAS_THREADS`` threads on both sides of any
comparison.

``--trace 0`` measures the end-to-end metrics with tracing off:
  run_s        median seconds of one workload pass after set-up
  setup_s      median over ``SETUP_PROBES`` fresh processes of
               ``import splitflow`` plus the first pass's problem generation
  peak_rss_mb  peak resident memory of this process
Both times are at reference machine speed, corrected for the slow phases of
a shared host (``speed.py``); the table also prints their wall-clock medians.
``--trace 1`` runs the same pass alternately untraced and traced until
``--seconds`` is spent and prints per-layer metrics for one traced pass, in
wall-clock seconds.

The last line of standard output is the JSON result; a detailed report goes
to ``.perfbench_out/`` in the checkout.
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse                                         # noqa: E402
import json                                             # noqa: E402
import resource                                         # noqa: E402
import shutil                                           # noqa: E402
import statistics                                       # noqa: E402
import subprocess                                       # noqa: E402
import sys                                              # noqa: E402
import tempfile                                         # noqa: E402
import time                                             # noqa: E402
from pathlib import Path                                # noqa: E402

from speed import SpeedClock                            # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
NAMES = ("lasso_export", "boxqp_inmem", "logistic_paper", "lyapunov_ensemble")
SETUP_PROBES = 5
# Recorded fitted rates and final gaps must be met to this relative
# tolerance: loose enough for a different but equally accurate step sequence
# at the integrator's tol=1e-9, tight enough to catch a wrong oracle,
# schedule or fit.
MATCH_RTOL = 1e-4
MATCH_ATOL = 1e-12


def require_checkout():
    """Exit non-zero, printing no result, unless splitflow's sources are
    next to the benchmark."""
    if not (SRC / "splitflow" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no splitflow sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def load_recorded():
    with open(BENCH_DIR / "recorded.json", encoding="utf-8") as fh:
        return json.load(fh)


def _close(value, expected):
    return (value is not None
            and abs(value - expected) <= MATCH_RTOL * abs(expected) + MATCH_ATOL)


def problems_of(op, recorded):
    """Reasons an operation counts as failed; empty when it is correct."""
    out = []
    if op.error is not None:
        return [f"raised {op.error}"]
    if not op.finite:
        out.append("non-finite output")
    if not op.ref_ok:
        out.append("reference gradient-map norm above its tolerance")
    rec = recorded.get(op.key)
    if rec is None:
        out.append("no recorded value")
    else:
        if not _close(op.fitted, rec["fitted"]):
            out.append(f"fitted {op.fitted!r} != recorded {rec['fitted']!r}")
        if not _close(op.final_gap, rec["final_gap"]):
            out.append(f"final_gap {op.final_gap!r} != recorded "
                       f"{rec['final_gap']!r}")
    return out


class Tally:
    """Operation and certificate counts over a run."""

    def __init__(self, recorded):
        self.recorded = recorded
        self.attempted = 0
        self.failed = 0
        self.certs = 0
        self.cert_fails = 0
        self.failures = []
        self.cert_failed_keys = set()

    def add(self, ops):
        for op in ops:
            self.attempted += 1
            why = problems_of(op, self.recorded)
            if why:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append({"op": op.key, "why": why})
            if op.certified is not None:
                self.certs += 1
                if not op.certified:
                    self.cert_fails += 1
                    self.cert_failed_keys.add(op.key)

    def summary(self):
        return {
            "attempted": self.attempted, "failed": self.failed,
            "failed_frac": self.failed / self.attempted,
            "certificates": self.certs, "cert_fails": self.cert_fails,
            "cert_fail_frac": self.cert_fails / self.certs if self.certs else 0.0,
            "cert_failed_ops": sorted(self.cert_failed_keys),
            "failures": self.failures,
        }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def run_pass(workload, seed, index, out_dir, recorder=None):
    """One pass: generate inputs (untimed), execute (timed), derive ops.

    Returns the pass's seconds at reference speed, its wall-clock seconds
    net of speed sampling, and its operations. A traced pass is not
    speed-sampled, so that no sample lands inside a span; its reference
    seconds are None."""
    if recorder is None:
        inputs = workload.prepare(seed, index)
        with SpeedClock() as clock:
            results = workload.execute(inputs, out_dir)
        return (clock.seconds, clock.wall - clock.in_handler,
                workload.ops(inputs, results))
    recorder.clear()
    recorder.install()
    try:
        inputs = workload.prepare(seed, index)
        t0 = time.perf_counter()
        results = workload.execute(inputs, out_dir)
        elapsed = time.perf_counter() - t0
    finally:
        recorder.uninstall()
    return None, elapsed, workload.ops(inputs, results)


def tail(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    return {"percentile": round(100.0 * (n - 10) / n, 1),
            "value": ordered[n - 11]}


def setup_probe(name, seed):
    """Seconds (at reference speed, and wall-clock) a fresh process spends
    on import plus problem generation."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), name, str(seed)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True,
                         cwd=ROOT, timeout=120)
    seconds, wall = out.stdout.split()
    return float(seconds), float(wall)


def measure_untraced(workload, seed, seconds, out_dir, tally):
    *_, ops = run_pass(workload, seed, 0, out_dir)       # warm-up, untimed
    tally.add(ops)
    times, walls, setups = [], [], []
    index = 0
    while not walls or sum(walls) < seconds:
        elapsed, wall, ops = run_pass(workload, seed, index, out_dir)
        times.append(elapsed)
        walls.append(wall)
        tally.add(ops)
        index += 1
        # Set-up probes are spread over the run, between passes, so that
        # they meet the machine in the same states as the passes do.
        due = seconds * (len(setups) + 1) / (SETUP_PROBES + 1)
        if len(setups) < SETUP_PROBES and sum(walls) >= due:
            setups.append(setup_probe(workload.name, seed))
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(workload.name, seed))
    metrics = {
        "run_s": statistics.median(times),
        "setup_s": statistics.median(s for s, _ in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {"pass_s": times, "run_s_tail": tail(times),
              "pass_wall_s": walls,
              "setup_s": [s for s, _ in setups],
              "setup_wall_s": [w for _, w in setups]}
    return metrics, detail


def measure_traced(workload, seed, seconds, out_dir, tally, spans_path):
    from spans import SpanRecorder

    recorder = SpanRecorder()
    *_, ops = run_pass(workload, seed, 0, out_dir)       # warm-up, untimed
    tally.add(ops)
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        _, elapsed, ops = run_pass(workload, seed, 0, out_dir)
        plain.append(elapsed)
        tally.add(ops)
        _, elapsed, ops = run_pass(workload, seed, 0, out_dir, recorder)
        traced.append(elapsed)
        tally.add(ops)
        layers.append(layer_metrics(recorder.aggregate(), recorder.counters))
        if len(traced) == 1:
            recorder.write(spans_path)
    counts = [{k: v for k, v in m.items() if isinstance(v, int)}
              for m in layers]
    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    metrics.update(counts[0])
    metrics["trace.run_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - statistics.median(plain)
    detail = {"traced_pass_s": traced, "untraced_pass_s": plain,
              "counts_repeat": all(c == counts[0] for c in counts),
              "spans": str(spans_path.relative_to(ROOT))}
    return metrics, detail


def layer_metrics(agg, counters):
    """Per-layer metrics of one traced pass from its spans and counters."""
    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    def secs(name, key="s"):
        return agg.get(name, {}).get(key, 0.0)

    m = {}
    for role in ("f_gradient", "f_prox", "g_prox", "value"):
        m[f"problems.{role}.calls"] = calls(f"problems.{role}")
        m[f"problems.{role}.s"] = secs(f"problems.{role}")
    m["problems.f_gradient.flops"] = counters.get("problems.f_gradient.flops", 0)
    m["problems.f_gradient.bytes"] = counters.get("problems.f_gradient.bytes", 0)
    for fn in ("generalized_gradient", "fb_envelope_value"):
        m[f"envelopes.{fn}.calls"] = calls(f"envelopes.{fn}")
        m[f"envelopes.{fn}.s"] = secs(f"envelopes.{fn}")
    rhs = calls("dynamics.vector_field")
    accepted = counters.get("dynamics.steps_accepted", 0)
    attempted = counters.get("dynamics.steps_attempted", 0)
    m["dynamics.rhs_calls"] = rhs
    m["dynamics.rhs_s"] = secs("dynamics.vector_field")
    m["dynamics.early_stop.rhs_calls"] = agg.get(
        "dynamics.vector_field", {}).get("early_stop_calls", 0)
    m["dynamics.steps_accepted"] = accepted
    m["dynamics.steps_attempted"] = attempted
    m["dynamics.step_accept_frac"] = accepted / attempted if attempted else 0.0
    m["dynamics.rhs_per_step"] = rhs / accepted if accepted else 0.0
    m["dynamics.samples"] = counters.get("dynamics.samples", 0)
    m["dynamics.integrate.s"] = secs("dynamics.integrate")
    m["dynamics.integrate.self_s"] = secs("dynamics.integrate", "self_s")
    m["dynamics.export.s"] = secs("dynamics.export")
    m["dynamics.export.bytes"] = counters.get("dynamics.export.bytes", 0)
    m["dynamics.run_discrete.s"] = secs("dynamics.run_discrete")
    m["analysis.solve_reference.s"] = secs("analysis.solve_reference")
    m["analysis.solve_reference.iters"] = counters.get(
        "analysis.solve_reference.iters", 0)
    m["analysis.certify.s"] = (secs("analysis.certify_sublinear")
                               + secs("analysis.certify_exponential"))
    m["analysis.lyapunov_series.s"] = secs("analysis.lyapunov_series")
    m["analysis.lyapunov_value.calls"] = calls("analysis.lyapunov_value")
    m["harness.generate_problem.s"] = secs("harness.generate_problem")
    return m


# ---------------------------------------------------------------------------
# environment and output
# ---------------------------------------------------------------------------

def env_stamp():
    import hashlib
    import platform

    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = out.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "splitflow").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "blas_threads_reported": _openblas_threads(numpy),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _openblas_threads(numpy):
    """Thread count numpy's bundled OpenBLAS reports, or None."""
    import ctypes

    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs")
                  .glob("*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def print_table(name, seed, trace, metrics, units, tally, detail, env):
    print(f"perfbench {name} seed={seed} trace={trace}")
    print("  environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for key, value in metrics.items():
        note = ""
        if key == "run_s":
            t = detail["run_s_tail"]
            note = f"  median of {len(detail['pass_s'])} passes"
            note += (f"; p{t['percentile']} = {t['value']:.4f} s" if t else
                     "; no percentile has ten samples beyond it")
            note += (f"; wall-clock median "
                     f"{statistics.median(detail['pass_wall_s']):.4f} s")
        elif key == "setup_s":
            note = f"  median of {len(detail['setup_s'])} fresh processes"
            note += (f"; wall-clock median "
                     f"{statistics.median(detail['setup_wall_s']):.4f} s")
        print(f"  {key:40s} {value:>16.6g} {units.get(key, ''):14s}{note}")
    s = tally.summary()
    print(f"  failed_frac    {s['failed']}/{s['attempted']} operations "
          f"= {s['failed_frac']:.4g}")
    print(f"  cert_fail_frac {s['cert_fails']}/{s['certificates']} certificates"
          f" = {s['cert_fail_frac']:.4g}"
          + (f"  FAIL: {', '.join(s['cert_failed_ops'])}"
             if s['cert_failed_ops'] else ""))
    if name == "lasso_export" and s["cert_failed_ops"]:
        print("  known defect: every dynamics is held to the accelerated "
              "O(1/t^2) slope, which the unaccelerated baselines do not "
              "promise")
    if "counts_repeat" in detail:
        print(f"  {len(detail['traced_pass_s'])} traced passes; counts repeat "
              f"across them: {'yes' if detail['counts_repeat'] else 'NO'}")
    print("  correct: " + ("yes" if s["failed"] == 0 else
                          f"NO {json.dumps(s['failures'][:5])}"))


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def run_one(args):
    require_checkout()
    import workloads

    with open(BENCH_DIR.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    workload = workloads.WORKLOADS[args.workload]
    tally = Tally(load_recorded()[args.workload])
    OUT.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.trace:
            spans = OUT / f"spans_{args.workload}_seed{args.seed}.tsv"
            values, detail = measure_traced(workload, args.seed, args.seconds,
                                            out_dir, tally, spans)
            values["analysis.cert_fail_frac"] = tally.summary()["cert_fail_frac"]
        else:
            values, detail = measure_untraced(workload, args.seed,
                                              args.seconds, out_dir, tally)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    env = env_stamp()
    summary = tally.summary()
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "metrics": values, "units": units, "tally": summary,
              "detail": detail}
    with open(OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}"
              ".json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print_table(args.workload, args.seed, args.trace,
                {k: values[k] for k in units}, units, tally, detail, env)
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))


def run_all(args):
    """Every workload in its own process, then one summary."""
    results = {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(out.stdout.rsplit("\n", 2)[0] + "\n")
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            sys.exit(out.returncode)
        results[name] = json.loads(out.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
