"""Record every pool problem's fitted rate and final gap into recorded.json.

Run once per change of workload definitions, from the repository root:

    python3 perfbench/record.py [WORKLOAD ...]

The values are what later runs are checked against, so record them from a
commit whose results are trusted.
"""

import json
import sys

import run

run.require_checkout()

import workloads  # noqa: E402


def record(name):
    workload = workloads.WORKLOADS[name]
    out = {}
    for seed in range(workloads.POOL):
        inputs = workload.inputs([seed])
        for op in workload.ops(inputs, workload.execute(inputs, None)):
            if op.error is not None:
                raise RuntimeError(f"{name} {op.key}: {op.error}")
            out[op.key] = {"fitted": op.fitted, "final_gap": op.final_gap,
                           "certified": op.certified}
        print(f"{name}: pool seed {seed} done", file=sys.stderr, flush=True)
    return out


def main(names):
    path = run.BENCH_DIR / "recorded.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    for name in names or run.NAMES:
        data[name] = dict(sorted(record(name).items()))
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
