"""The traced benchmark run wraps ncalg functions and methods by name.

perfbench/tracing.py is imported by path and left unchanged; every SPANNED
and COUNTED target must resolve with the same lookups that
`Tracer._find_patches` uses, so that a refactor cannot silently drop a span.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import ncalg.cli  # noqa: F401  (loads every ncalg module, as the tracer does)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
TARGETS = tracing.SPANNED + tracing.COUNTED


@pytest.mark.parametrize("module_name, path, span", TARGETS,
                         ids=[f"{m}:{p}" for m, p, _ in TARGETS])
def test_target_resolves(module_name, path, span):
    module = sys.modules[module_name]
    if "." in path:
        cls_name, attr = path.split(".")
        assert callable(getattr(module, cls_name).__dict__[attr])
    else:
        assert callable(getattr(module, path))


def test_every_target_is_patched_and_restored():
    tracer = tracing.Tracer()
    tracer.enable()
    try:
        patches = tracer._patches
        assert all(getattr(owner, attr) is wrapped
                   for owner, attr, _, wrapped in patches)
    finally:
        tracer.disable()
    patched = {(owner.__name__, attr) for owner, attr, _, _ in patches}
    for module_name, path, _ in TARGETS:
        owner, _, attr = path.rpartition(".")
        assert (owner or module_name, attr) in patched
    assert all(owner.__dict__[attr] is original
               for owner, attr, original, _ in patches)
