"""Every name that perfbench/tracing.py wraps still exists in kronrig.

`Tracer.install` looks each one up with getattr, so a renamed or deleted
function would only surface when the benchmark runs with `--trace 1`.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_and_methods_resolve():
    tracing = _load_tracing()
    assert tracing.FUNCTIONS and tracing.METHODS
    for modname, name, *_ in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(modname), name, None)), \
            f"{modname}.{name}"
    for modname, cls, method, *_ in tracing.METHODS:
        owner = getattr(importlib.import_module(modname), cls)
        assert callable(getattr(owner, method, None)), f"{modname}.{cls}.{method}"
