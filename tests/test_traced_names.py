"""The benchmark's traced names must exist in the library.

``perfbench/tracing.py`` patches library functions by name and looks each
one up without a default, so a renamed or deleted name would break every
traced benchmark run, and a method it does not find on its own class is
not traced at all. These tests read the benchmark's tracer and edit
nothing under ``perfbench/``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

MODULES = ("dist", "generators", "boolfn", "analysis", "theorems", "serialize", "cli")
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    # Loaded by path, as the benchmark runner does; no bytecode is written.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_discovers_every_traced_name(monkeypatch):
    for name in MODULES:
        importlib.import_module(f"pivotal.{name}")
    tracing = _load_tracing(monkeypatch)
    for module, qualname, _ in tracing.SPANS + tracing.HOT + tracing.HOT_ITER:
        obj = sys.modules[f"pivotal.{module}"]
        for part in qualname.split("."):
            obj = getattr(obj, part)
    assert tracing.Tracer()._patches


def test_tracer_patches_every_traced_name(monkeypatch):
    # The tracer patches a method only where its class defines it, and skips
    # an inherited one silently, so a method moved to a base class would
    # read 0 in its layer. Each traced name must be one of the patches, on
    # its named class or, for a function, on its named module.
    for name in MODULES:
        importlib.import_module(f"pivotal.{name}")
    tracing = _load_tracing(monkeypatch)
    patched = {(owner, attr) for owner, attr, _, _ in tracing.Tracer()._patches}
    missing = []
    for module, qualname, _ in tracing.SPANS + tracing.HOT + tracing.HOT_ITER:
        *owner, attr = qualname.split(".")
        obj = sys.modules[f"pivotal.{module}"]
        for part in owner:
            obj = getattr(obj, part)
        if (obj, attr) not in patched:
            missing.append(f"{module}.{qualname}")
    assert missing == []
