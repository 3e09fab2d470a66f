"""The names the benchmark reaches into the package by.

``bench/tracer.py`` patches each function it lists in ``FUNCTIONS`` and the
``steering`` method of each class in ``STEERING_CLASSES``, looked up by
(module, attribute). Its ``AMOUNTS`` readers take a work count from the
arguments and result of a traced call, and it tags trials by ``run_trial``'s
``snr_index`` and ``trial_index``, by position or name; ``bench/run.py`` calls
``monte_carlo(..., workers=...)``. A package change that drops or renames one
of them, or changes what a reader reads, breaks ``bench/run.py --trace 1``.
``bench/`` is imported from its directory, without writing bytecode there.
"""

import importlib
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from wsnloc import harness
from wsnloc.arrays import (
    SourceSet,
    UniformCircularArray,
    UniformLinearArray,
    sample_covariance,
    synthesize_snapshots,
)
from wsnloc.channel import ChannelModel, path_loss
from wsnloc.doa import music
from wsnloc.geometry import build_lop_system
from wsnloc.pme import VandermondeArray
from wsnloc.rss import huber_irls

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


def test_run_trial_takes_its_trial_at_positions_2_and_3():
    params = list(inspect.signature(harness.run_trial).parameters)
    assert params[2:4] == ["snr_index", "trial_index"]


def test_amount_readers_read_real_calls(tracer):
    # each reader applied to a real call of the function it counts, with the arguments
    # it reads given by position and by name
    read = tracer.AMOUNTS
    assert set(read) == {tracer.STEERING, "doa.music", "channel.path_loss", "rss.irls"}
    rng = np.random.default_rng(0)
    theta = np.radians([-20.0, 5.0, 40.0])
    ula = UniformLinearArray(n=6, spacing=0.5, wavelength=1.0)
    geometries = [ula, UniformCircularArray(6, 0.5, 0.3, 1.0), VandermondeArray(6)]
    assert {type(g).__name__ for g in geometries} == {n for _, n in tracer.STEERING_CLASSES}
    for geometry in geometries:
        steering = vars(type(geometry))["steering"]
        for args, kwargs in [((geometry, theta), {}), ((geometry,), {"theta": theta})]:
            assert read[tracer.STEERING](args, kwargs, steering(*args, **kwargs)) == theta.size

    d = np.array([10.0, 20.0, 30.0])
    model = ChannelModel(d0=1.0, eta=2.0, sigma_db=4.0, wavelength=0.3)
    for args, kwargs in [((d, model, rng), {}), ((), {"d": d, "model": model, "rng": rng})]:
        assert read["channel.path_loss"](args, kwargs, path_loss(*args, **kwargs)) == d.size

    r = sample_covariance(synthesize_snapshots(ula, SourceSet(theta[:1]), 32, 20.0, rng))
    result = music(r, ula, 1)
    assert read["doa.music"]((r, ula, 1), {}, result) == result[0].grid.size > 1

    anchors = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0], [100.0, 100.0]])
    report = huber_irls(build_lop_system(anchors, [40.0, 70.0, 65.0, 90.0]))
    assert type(report.iterations) is int and report.iterations >= 1
    assert read["rss.irls"]((), {}, report) == report.iterations
