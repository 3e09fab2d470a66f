"""The names the benchmark reaches into the package by.

``bench/tracer.py`` patches each function it lists in ``FUNCTIONS`` and the
``steering`` method of each class in ``STEERING_CLASSES``, looked up by
(module, attribute). Its ``AMOUNTS`` readers take a work count from the
arguments and result of a traced call, and it tags trials by ``run_trial``'s
``snr_index`` and ``trial_index``, by position or name; ``bench/run.py`` calls
``monte_carlo(..., workers=...)``, and every ``bench/*.py`` module reaches
the package through ``harness.<name>``. A package change that drops or renames
one of them, or changes what a reader reads, breaks ``bench/run.py``.
``bench/`` is imported from its directory, without writing bytecode there.
"""

import ast
import collections
import importlib
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from wsnloc import config, errors, harness
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

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def bench_module(name: str):
    sys.path.insert(0, str(BENCH))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return importlib.import_module(name)
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(BENCH))


@pytest.fixture(scope="module")
def tracer():
    return bench_module("tracer")


def harness_chains(source: str) -> set[tuple[str, ...]]:
    """Each attribute chain ``harness.<name>[.<name>...]`` that ``source`` reads."""
    chains = set()
    for node in ast.walk(ast.parse(source)):
        names = []
        while isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
        if names and isinstance(node, ast.Name) and node.id == "harness":
            chains.add(tuple(reversed(names)))
    return chains


def test_bench_harness_names_resolve():
    # bench/ is not edited with the package: whatever it reads through harness, names
    # that moved to another module included, must still be there
    chains = set().union(*(harness_chains(path.read_text()) for path in BENCH.glob("*.py")))
    assert {("load_config",), ("ScenarioConfig", "from_dict"), ("monte_carlo",)} <= chains
    for chain in chains:
        found = harness
        for name in chain:
            found = getattr(found, name, None)
            assert found is not None, f"harness.{'.'.join(chain)} is gone"


def test_bench_workloads_build_their_scenarios():
    # each sweep loads its config through harness.load_config, then replaces its seed
    # and trials and applies its method overrides with ScenarioConfig.with_method
    workloads = bench_module("workloads")
    for sweeps in workloads.WORKLOADS.values():
        for sweep in sweeps:
            cfg = sweep.scenario(harness, ROOT, workloads.HELD_OUT_SEED)
            assert isinstance(cfg, harness.ScenarioConfig)
            assert (cfg.seed, cfg.trials) == (workloads.HELD_OUT_SEED, sweep.trials)
            assert set(dict(sweep.method).items()) <= set(cfg.method.items())


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


@pytest.mark.parametrize("kind", ["doa", "rss"])
def test_monte_carlo_reruns_each_unsolved_trial_through_run_trial(monkeypatch, kind):
    # the tracer counts trials and tags failures on run_trial's span: monte_carlo calls
    # the module-global run_trial once per doa trial and once per trial a stack did not
    # solve, and each failure raises out of that call
    if kind == "doa":  # three sources on four elements at 0 dB: MUSIC often finds too few
        cfg = config.ScenarioConfig.from_dict({
            "seed": 5, "trials": 20, "snr_grid_db": [0, 30],
            "array": {"kind": "ula", "n_elements": 4, "spacing_wavelengths": 0.5},
            "sources": {"azimuths_deg": [-20.0, 0.0, 20.0], "snapshots": 10},
        })
    else:  # 80 dB of shadowing overflows some WLS ranging variances
        cfg = config.ScenarioConfig.from_dict({
            "seed": 1234, "trials": 40, "snr_grid_db": [0.0, 0.5], "target": [30.0, 40.0],
            "channel": {"sigma_ref_db": 80.0}, "method": {"estimator": "wls"},
            "anchors": [[0.0, 0.0], [100.0, 0.0], [0.0, 100.0], [100.0, 100.0]],
        })
    calls, run_trial = [], harness.run_trial

    def traced(cfg, kind, snr_index, trial_index):
        calls.append([(snr_index, trial_index), None])
        try:
            return run_trial(cfg, kind, snr_index, trial_index)
        except errors.WsnlocError as exc:
            calls[-1][1] = type(exc).__name__
            raise

    monkeypatch.setattr(harness, "run_trial", traced)
    result = harness.monte_carlo(cfg, kind)
    trials = [pair for pair, _ in calls]
    assert len(set(trials)) == len(trials)
    failed = collections.Counter((si, exc) for (si, _), exc in calls if exc is not None)
    for si, row in enumerate(result.rows):
        assert row.failures > 0 or si == 1
        assert tuple(sorted((exc, n) for (s, exc), n in failed.items() if s == si)) == (
            row.failures_by_class
        )
    if kind == "doa":
        assert trials == [(si, ti) for si in range(2) for ti in range(cfg.trials)]
    else:
        assert len(trials) == sum(row.failures for row in result.rows)
