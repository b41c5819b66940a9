"""Checks on the library source itself."""

import ast
import importlib
import os
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


def test_import_builds_no_csv_tables():
    # the trace writer's lookup tables are built on the first export; a
    # build at import would add to every process's start-up time
    code = ("import splitflow, sys; "
            "print(sys.modules['splitflow._csvfmt']._tables.cache_info()"
            ".currsize)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "0"
