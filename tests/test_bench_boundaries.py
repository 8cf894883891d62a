"""The benchmark's tracer (``perfbench/tracing.py``) wraps library names on
the modules where callers look them up.  A refactor that moves or renames
one of them breaks the traced benchmark run; this test catches it."""

import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_boundaries_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(module, name) for module, name, _ in tracing.BOUNDARIES
               if not callable(getattr(importlib.import_module(module), name,
                                       None))]
    assert not missing
