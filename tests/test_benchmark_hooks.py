"""The benchmark's tracer finds fiedler functions by name; each must exist.

``perfbench/tracing.py`` wraps every ``(module, attribute)`` in its ``TRACED``
table. A rename inside the package would otherwise only show when a traced
benchmark run fails.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{home}.{attr}" for home, attr, _, _ in tracing.TRACED
               if not callable(getattr(importlib.import_module(home), attr, None))]
    assert not missing
