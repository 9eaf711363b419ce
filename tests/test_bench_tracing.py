"""The benchmark's trace list names functions the package still has.

``bench/tracing.py`` wraps each ``(module, function)`` of
``TRACED_FUNCTIONS`` and patches ``UsageIndex.hashtags`` when a run
passes ``--trace 1``; a name that no longer resolves makes every traced
run fail at start-up.  These tests load that file as it is and check
the names against the installed ``hashrec``.
"""

import importlib
import importlib.util
import pathlib
import sys

import pytest

import hashrec
from hashrec.corpus import UsageIndex

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing_under_test", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves(tracing):
    missing = [
        f"{module}.{name}"
        for module, name in tracing.TRACED_FUNCTIONS
        if not callable(getattr(importlib.import_module(f"hashrec.{module}"), name, None))
    ]
    assert not missing


def test_usage_index_has_the_patched_method():
    assert callable(getattr(UsageIndex, "hashtags", None))


def bindings():
    """Every module-level binding of the loaded ``hashrec`` modules."""
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "hashrec" or name.startswith("hashrec.")
        for attr, value in vars(module).items()
    }


def test_install_wraps_and_restore_undoes(tracing):
    before = bindings()
    hashtags = UsageIndex.hashtags
    restore = tracing.install(tracing.Tracer())
    try:
        assert hashrec.generate is not before[("hashrec", "generate")]
    finally:
        restore()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert UsageIndex.hashtags is hashtags
