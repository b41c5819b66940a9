"""Print sha256 digests of splitflow's outputs, to check that a change
keeps every bit of them.

Usage, from the repository root:

    python tests/trace_digest.py

It prints two lines, ``<name> <digest> (<what it covers>)``:

``lyapunov_ensemble``
    the benchmark workload's trajectories (``perfbench/workloads.py``) for
    all 16 pool seeds of each of its three regimes: each trajectory's
    times, states, primal samples, observables, field-call and step counts,
    Lyapunov values and fitted rate, and its reference solution;
``readme_config``
    ``splitflow run`` of the README's example config (lasso 20x100, all six
    dynamics, seed 0): ``report.json`` without the keys that time the run
    or depend on the CPU count, and the six CSV traces;

and a third, ``recorded <N> ops, <F> failed, max relative move <r>``: the
benchmark's own check (``perfbench/run.py``'s ``problems_of``) of every
``lyapunov_ensemble`` and ``lasso_export`` pool operation against
``perfbench/recorded.json``, with the largest relative distance of a fitted
rate or final gap from its recorded value. It reports; it does not gate,
since another numpy build may move the values.

BLAS runs on one thread, as in the benchmark, so that a change can be
compared with its parent on any machine. Two runs of the same tree must
print the same lines; CI runs it twice to check that.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib                                          # noqa: E402
import json                                             # noqa: E402
import sys                                              # noqa: E402
import tempfile                                         # noqa: E402
from pathlib import Path                                # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np                                      # noqa: E402

import run                                              # noqa: E402
import workloads                                        # noqa: E402
from splitflow import harness                           # noqa: E402

# report.json keys that measure time, count worker processes or name the
# process that ran a record
VOLATILE = ("wall_clock", "generate_s", "reference_s", "integrate_s",
            "observables_s", "certify_s", "export_s", "workers", "worker")


def _feed(h, value):
    """Hash a number or an array with its shape and dtype."""
    a = np.ascontiguousarray(value)
    h.update(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())


def lyapunov_digest(ops):
    """The digest; each run's benchmark operation is appended to ``ops``."""
    h, count = hashlib.sha256(), 0
    workload = workloads.WORKLOADS["lyapunov_ensemble"]
    for regime, make in workloads._REGIMES.items():
        for seed in range(workloads.POOL):
            problem = harness.generate_problem(make(seed))
            result = workloads._lyapunov_run(regime, seed, problem)
            ops += workload.ops([(regime, seed, problem)], [result])
            ref, _, traj, rep = result
            h.update(f"{regime}/{seed}/{traj.kind}".encode())
            for part in (traj.times, traj.position, traj.velocity,
                         traj.primal, rep.details["values"], rep.fitted,
                         traj.meta["rhs_calls"], traj.meta["n_steps"], ref.x):
                _feed(h, part)
            for name in sorted(traj.observables):
                h.update(name.encode())
                _feed(h, traj.observables[name])
            count += 1
    return h.hexdigest(), f"{count} trajectories"


def _strip(record):
    if isinstance(record, dict):
        return {k: _strip(v) for k, v in record.items() if k not in VOLATILE}
    return record


def readme_digest():
    config = harness.BenchmarkConfig(
        example="lasso_l1", dims=(20, 100), dynamics=workloads.ALL_KINDS,
        t_end=200.0, tol=1e-9, sample_dt=0.1, seed=0)
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as out:
        harness.run_benchmark(config, out)
        with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
            report = _strip(json.load(fh))
        h.update(json.dumps(report, sort_keys=True).encode())
        traces = sorted(Path(out).glob("trace_*.csv"))
        for path in traces:
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest(), f"{len(report['dynamics'])} records, " \
                          f"{len(traces)} traces"


def recorded_line(lyapunov_ops):
    """Check the pool operations of both workloads as the benchmark does."""
    workload = workloads.WORKLOADS["lasso_export"]
    configs = workload.inputs(range(workloads.POOL))
    ops = {"lyapunov_ensemble": lyapunov_ops,
           "lasso_export": workload.ops(configs, workload.execute(configs,
                                                                  None))}
    recorded = run.load_recorded()
    count = failed = 0
    move = 0.0
    for name, group in ops.items():
        for op in group:
            count += 1
            failed += bool(run.problems_of(op, recorded[name]))
            rec = recorded[name].get(op.key)
            if op.error is None and rec is not None:
                for key in ("fitted", "final_gap"):
                    value, expected = getattr(op, key), rec[key]
                    move = max(move, abs(value - expected) / abs(expected))
    return f"recorded {count} ops, {failed} failed, " \
           f"max relative move {move:.1e}"


def main():
    lyapunov_ops = []
    for name, digest in (("lyapunov_ensemble",
                          lambda: lyapunov_digest(lyapunov_ops)),
                         ("readme_config", readme_digest)):
        value, covers = digest()
        print(f"{name} {value} ({covers})", flush=True)
    print(recorded_line(lyapunov_ops), flush=True)


if __name__ == "__main__":
    main()
