"""The benchmark's tracer binds program names by string; each must exist."""

import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


@pytest.fixture(scope="module")
def tracing():
    # loaded from its file and never installed, so nothing gets wrapped
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def crysred_module(name):
    return importlib.import_module("crysred." + name)


def test_modules_import(tracing):
    for name in tracing.MODULES:
        crysred_module(name)


def test_functions_resolve(tracing):
    for mod, fn_name, _ in tracing.SPANS + tracing.LEAVES:
        assert mod in tracing.MODULES
        assert callable(getattr(crysred_module(mod), fn_name, None)), (mod, fn_name)


def test_methods_resolve(tracing):
    for mod, cls_name, meth, _ in tracing.METHOD_SPANS:
        cls = getattr(crysred_module(mod), cls_name, None)
        assert callable(getattr(cls, meth, None)), (mod, cls_name, meth)
