"""The benchmark finds fiedler functions by name; each must exist.

``perfbench/tracing.py`` wraps every ``(module, attribute)`` in its ``TRACED``
table, and ``perfbench/workloads.py`` calls into the package's modules. A
rename inside the package would otherwise only show when a benchmark run
fails.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKLOADS = PERFBENCH / "workloads.py"
MODULES = ("cli", "data", "model", "simulation", "training")


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{home}.{attr}" for home, attr, _, _ in tracing.TRACED
               if not callable(getattr(importlib.import_module(home), attr, None))]
    assert not missing


def _resolves(home: str, attr: str) -> bool:
    if hasattr(importlib.import_module(home), attr):
        return True
    try:  # ``from fiedler import cli`` names a submodule
        importlib.import_module(f"{home}.{attr}")
    except ModuleNotFoundError:
        return False
    return True


def test_every_fiedler_name_the_workloads_use_resolves():
    """Every ``from fiedler... import`` name and every ``cli.``, ``data.``,
    ``model.``, ``simulation.`` or ``training.`` attribute in the workloads."""
    used = set()
    for node in ast.walk(ast.parse(WORKLOADS.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fiedler":
            used.update((node.module, alias.name) for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in MODULES):
            used.add((f"fiedler.{node.value.id}", node.attr))
    assert {home for home, _ in used} >= {f"fiedler.{m}" for m in MODULES}
    missing = sorted(f"{home}.{attr}" for home, attr in used if not _resolves(home, attr))
    assert not missing
