"""The benchmark tracer wraps library names by lookup; a rename breaks it.

`perfbench/spans.py` is loaded as it is, and every name it patches must
still resolve in the package, so `perfbench/run.py --trace 1` keeps
working.
"""

import importlib
import importlib.util
from pathlib import Path

import chevalley


def _spans():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    spans = _spans()
    assert spans.TRACED and spans.COUNTED_METHODS
    for modname, attr, _ in spans.TRACED:
        module = importlib.import_module(f"chevalley.{modname}")
        assert callable(getattr(module, attr)), (modname, attr)
    for modname, cls, meth in spans.COUNTED_METHODS:
        owner = getattr(importlib.import_module(f"chevalley.{modname}"), cls)
        assert callable(getattr(owner, meth)), (modname, cls, meth)
    assert callable(chevalley.optimality.solve)
