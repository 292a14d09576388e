"""The benchmark tracer patches functions by module and name; a renamed or
moved target stops a traced benchmark run with exit code 2.  The tracer is
loaded from its source file without writing bytecode, and nothing is patched."""

import importlib
from pathlib import Path
from types import ModuleType

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _load_tracer() -> ModuleType:
    module = ModuleType("benchmark_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_traced_function_resolves():
    targets = _load_tracer().default_targets()
    assert targets
    missing = []
    for label, module_name, attr in targets:
        fn = getattr(importlib.import_module(module_name), attr, None)
        if not callable(fn):
            missing.append(f"{label} ({module_name}.{attr})")
    assert not missing, "traced functions not found: " + ", ".join(missing)
