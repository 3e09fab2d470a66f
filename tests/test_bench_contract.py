"""The names the benchmark reaches into the package by.

``bench/tracer.py`` patches each function it lists in ``FUNCTIONS`` and the
``steering`` method of each class in ``STEERING_CLASSES``, looked up by
(module, attribute); ``bench/run.py`` calls ``monte_carlo(..., workers=...)``.
A package change that drops or renames one of them breaks ``bench/run.py
--trace 1``. ``bench/`` is imported from its directory, without writing
bytecode there.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

from wsnloc import harness

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, str(BENCH))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        yield importlib.import_module("tracer")
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(BENCH))


def test_traced_functions_resolve(tracer):
    for span, sites in tracer.FUNCTIONS.items():
        for module, attr in sites:
            fn = getattr(importlib.import_module(f"wsnloc.{module}"), attr, None)
            assert callable(fn), f"{span}: wsnloc.{module}.{attr} is gone"


def test_steering_classes_resolve(tracer):
    for module, name in tracer.STEERING_CLASSES:
        cls = getattr(importlib.import_module(f"wsnloc.{module}"), name, None)
        steering = vars(cls).get("steering") if cls is not None else None
        assert callable(steering), f"wsnloc.{module}.{name}.steering is gone"


def test_monte_carlo_takes_workers():
    params = inspect.signature(harness.monte_carlo).parameters
    assert params["workers"].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
