"""The benchmark's tracer (bench/tracing.py) wraps program functions by
name.  A rename in the program would break only a traced benchmark run, so
every name it lists is checked here."""

import importlib

import pytest

from support import load_bench

_tracing = load_bench("tracing")


@pytest.mark.parametrize(
    "module,attr",
    [(module, attr) for _, module, attr in _tracing.SPANS + _tracing.COUNTS],
    ids=[name for name, _, _ in _tracing.SPANS + _tracing.COUNTS],
)
def test_traced_name_resolves(module, attr):
    home = importlib.import_module(module)
    if "." in attr:
        # methods are wrapped through the class's own __dict__
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(home, cls_name))[meth])
    else:
        assert callable(getattr(home, attr))
