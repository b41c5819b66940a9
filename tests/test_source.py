"""Checks on the library source itself."""

import ast
import importlib
import importlib.util
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "splitflow").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # assert vanishes under python -O; library invariants raise instead
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert at lines {lines}"


def test_benchmark_span_targets_exist():
    # perfbench/spans.py wraps these functions by name; a rename would break
    # only the traced benchmark runs, so the table is read here without
    # importing the benchmark
    path = ROOT / "perfbench" / "spans.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    tables = [ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "_FUNCTIONS"
                      for t in node.targets)]
    assert len(tables) == 1, "perfbench/spans.py: no single _FUNCTIONS table"
    missing = [f"{module}.{name}" for module, names in tables[0].items()
               for name in names
               if not hasattr(importlib.import_module(f"splitflow.{module}"),
                              name)]
    assert missing == []


def _oracle_bindings():
    """Every binding the span recorder may patch: each splitflow module's
    names, each oracle class's own attributes and scipy's ``rk_step``."""
    from scipy.integrate._ivp import rk

    from splitflow import problems
    owners = [m for k, m in sys.modules.items()
              if k == "splitflow" or k.startswith("splitflow.")]
    classes = [problems.SmoothFunction, problems.NonsmoothFunction]
    while classes:
        cls = classes.pop()
        owners.append(cls)
        classes.extend(cls.__subclasses__())
    bindings = {(owner, attr): value for owner in owners
                for attr, value in vars(owner).items()}
    bindings[rk, "rk_step"] = rk.rk_step
    return bindings


def test_span_recorder_uninstall_restores_every_binding():
    # the benchmark's ``--trace 1`` wraps each _FUNCTIONS entry wherever it
    # is bound; uninstall must leave every binding as it found it
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    before = _oracle_bindings()
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        during = _oracle_bindings()
        patched = {key for key, value in before.items()
                   if during[key] is not value}
        homes = {(importlib.import_module(f"splitflow.{module}"), name)
                 for module, names in spans._FUNCTIONS.items()
                 for name in names}
        assert homes <= patched
    finally:
        recorder.uninstall()
    after = _oracle_bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value
            ] == []


def _fresh_output(code):
    """Stripped stdout of ``code`` run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def test_readme_library_example_runs():
    # the README's "Library example" block, as a user would paste it
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    code = text.split("## Library example")[1]
    code = code.split("```python")[1].split("```")[0]
    assert float(_fresh_output(code)) <= -1.8     # accelerated: slope ~ -2


def test_import_builds_no_csv_tables():
    # the trace writer's lookup tables are built on the first export; a
    # build at import would add to every process's start-up time
    out = _fresh_output(
        "import splitflow, sys; "
        "print(sys.modules['splitflow._csvfmt']._tables.cache_info()"
        ".currsize)")
    assert out == "0"


def test_import_leaves_out_slow_scipy_modules():
    # the integrator is in-house, LAPACK is bound when a matrix is first
    # factored and expit is imported at a logistic problem's first gradient,
    # Hessian-vector or Hessian call; any scipy import would add to every
    # process's start-up time
    out = _fresh_output(
        "import splitflow, sys; "
        "print([m for m in sys.modules if m.startswith('scipy')])")
    assert out == "[]"


def test_generation_and_certify_load_no_scipy(tmp_path):
    # lasso and box-QP generation and `splitflow certify` factor no matrix
    trace = tmp_path / "trace.csv"
    trace.write_text("t,x_1,objective_gap,dist_sq\n" + "".join(
        f"{t!r},0.0,{t ** -2!r},{t ** -2!r}\n" for t in range(1, 11)))
    out = _fresh_output(
        "import sys; from splitflow import cli, harness\n"
        "for example in ('lasso_l1', 'box_qp'):\n"
        "    cfg = harness.BenchmarkConfig(example=example)\n"
        "    harness._example_setup(cfg, harness.generate_problem(cfg))\n"
        f"code = cli.main(['certify', '--trace', {str(trace)!r},"
        " '--mode', 'sublinear', '--window', '1,10'])\n"
        "print(code, [m for m in sys.modules if m.startswith('scipy')])")
    assert out.splitlines()[-1] == "0 []"


def test_unpickled_quadratic_solves_from_its_cached_factor(tmp_path):
    # a pickle leaves the filled factor cache behind, so a process that has
    # bound no LAPACK routine yet, as under a multiprocessing spawn, factors
    # again and solves bit for bit as the original did
    import numpy as np
    from splitflow.problems import Quadratic
    f = Quadratic(np.diag([1.0, 2.0, 3.0]), np.array([0.0, 1.0, 0.0]))
    rhs = [1.0, -2.0, 0.5]
    z = f.solve_shifted(0.5, np.array(rhs))
    path = tmp_path / "quadratic.pkl"
    path.write_bytes(pickle.dumps(f))
    out = _fresh_output(
        "import pickle, sys; import numpy as np\n"
        f"f = pickle.loads(open({str(path)!r}, 'rb').read())\n"
        "print(list(f._prox_factors), 'scipy.linalg' in sys.modules)\n"
        f"print(f.solve_shifted(0.5, np.array({rhs!r})).tolist())")
    assert out.splitlines() == ["[] False", repr(z.tolist())]


def test_logistic_problem_loads_no_scipy_until_its_gradient():
    # labels are drawn with numpy's exp and L needs a singular value, not a
    # factor; expit is imported on the first oracle call
    out = _fresh_output(
        "import sys; import numpy as np\n"
        "from splitflow import harness, problems\n"
        "p = harness.generate_problem(harness.BenchmarkConfig("
        "example='logistic_l1', dims=(20, 12), ridge=0.3, seed=3))\n"
        "f = problems.LogisticRidge(np.eye(3), [0.0, 1.0, 1.0], 0.5)\n"
        "print([m for m in sys.modules if m.startswith('scipy')])\n"
        "p.f.gradient(np.zeros(12))\n"
        "print('scipy.special' in sys.modules, 'scipy.linalg' in sys.modules)")
    assert out.splitlines() == ["[]", "True False"]


def test_unpickled_logistic_loads_no_scipy_until_evaluated(tmp_path):
    # a pickled LogisticRidge holds its data and no scipy function, so the
    # process that unpickles it imports expit at the first gradient
    import numpy as np
    from splitflow.harness import gen_logistic
    f = gen_logistic(20, 12, ridge=0.3, seed=5).f
    x = np.linspace(-1.0, 1.0, 12)
    g = f.gradient(x)
    path = tmp_path / "logistic.pkl"
    path.write_bytes(pickle.dumps(f))
    out = _fresh_output(
        "import pickle, sys; import numpy as np\n"
        f"f = pickle.loads(open({str(path)!r}, 'rb').read())\n"
        "print([m for m in sys.modules if m.startswith('scipy')])\n"
        "print(f.gradient(np.linspace(-1.0, 1.0, 12)).tolist())")
    assert out.splitlines() == ["[]", repr(g.tolist())]


def test_lemma3_and_fb_only_run_load_no_lapack(tmp_path):
    # only a quadratic f's prox, for the DR kinds, factors I + mu Q; lemma3
    # builds a logistic and a quadratic problem and takes no prox of f
    out = _fresh_output(
        "import sys; from splitflow import cli, harness\n"
        f"code = cli.main(['verify', 'lemma3', '--out', {str(tmp_path)!r}])\n"
        "print(code, 'scipy.linalg' in sys.modules)\n"
        "harness.run_benchmark(harness.BenchmarkConfig(dims=(6, 12),"
        " dynamics=('acc_fb', 'fb_flow', 'fb_discrete'), t_end=5.0,"
        " sample_dt=0.5, window=(1.0, 5.0)))\n"
        "print('scipy.linalg' in sys.modules)")
    assert out.splitlines()[-2:] == ["0 False", "False"]


def test_lasso_run_leaves_out_scipy_special():
    # only logistic problems evaluate expit
    out = _fresh_output(
        "import splitflow, sys; "
        "splitflow.run_benchmark(splitflow.BenchmarkConfig(dims=(6, 12),"
        " t_end=5.0, sample_dt=0.5, window=(1.0, 5.0))); "
        "print('scipy.special' in sys.modules)")
    assert out == "False"


def test_module_all_names_exist():
    modules = [importlib.import_module(f"splitflow.{path.stem}")
               for path in SOURCES if path.stem != "__init__"]
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert missing == []


def test_reexports_listed_in_module_all():
    # the package's public names, submodules aside, are exactly the union
    # of its modules' __all__, so each public name is listed once
    package = importlib.import_module("splitflow")
    listed = {name for path in SOURCES if path.stem != "__init__"
              for name in getattr(importlib.import_module(
                  f"splitflow.{path.stem}"), "__all__", ())}
    assert {name for name, value in vars(package).items()
            if not name.startswith("_")
            and not isinstance(value, type(package))} == listed
