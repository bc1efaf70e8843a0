"""The benchmark's tracer wraps negsup functions by (module, name); a rename
must fail here, not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS + module.COUNTS


TRACED = _traced()


@pytest.mark.parametrize("module,func", [t[1:] for t in TRACED], ids=[t[0] for t in TRACED])
def test_traced_function_resolves(module, func):
    assert callable(getattr(importlib.import_module(module), func, None))
