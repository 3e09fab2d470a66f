"""The rss row solves its trials as one stack, and a hybrid trilateration fix is a
stack of one system; these tests hold both to the systems solved one at a time by
the one-system solvers, byte for byte."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from wsnloc import geometry, harness, hybrid, rss
from wsnloc.channel import invert_distance, path_loss
from wsnloc.errors import (
    ConfigError,
    NonPositiveDistance,
    NumericOverflow,
    SingularSystem,
    WsnlocError,
)
from wsnloc.geometry import LinearSystem, distance
from wsnloc.harness import ScenarioConfig, monte_carlo, rng_for_trial, run_trial
from wsnloc.rss import huber_irls, ls_solve, wls_solve, wls_weights

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

RSS_RAW = {
    "seed": 1806,
    "trials": 25,
    "snr_grid_db": [1.0, 4.0, 9.0],
    "region": [100.0, 100.0],
    "target": [10.0, 15.0],
    "channel": {"frequency_hz": 1e9, "eta": 2.0, "sigma_ref_db": 8.0},
    "anchors": [[100.0, 0.0], [0.0, 100.0], [100.0, 100.0], [0.0, 0.0]],
    "method": {"huber_epsilon": 1.345},
}


def scenario(**changes) -> ScenarioConfig:
    raw = json.loads(json.dumps(RSS_RAW))
    channel = changes.pop("channel", {})
    raw["channel"].update(channel)
    raw.update(changes)
    return ScenarioConfig.from_dict(raw)


def one_trial(cfg: ScenarioConfig, snr_index: int, trial_index: int) -> tuple:
    """One trial ranged and solved on its own, the way trials ran before rows were
    stacked: its LOP system, then ls_solve, wls_solve or huber_irls on it."""
    gen_model, inv_model = harness._pipeline(cfg, "rss").models[snr_index]
    rng = rng_for_trial(cfg.seed, snr_index, trial_index)
    target = cfg.target
    while isinstance(target, str):  # a random target, drawn clear of the anchors
        cand = np.array([rng.uniform(0, cfg.region[0]), rng.uniform(0, cfg.region[1])])
        if all(distance(cand, a) >= cfg.d0 for a in cfg.anchors):
            target = cand
    diff = cfg.anchors - target
    d = invert_distance(path_loss(np.hypot(diff[:, 0], diff[:, 1]), gen_model, rng), inv_model)
    if not np.all((d > 0) & (d < math.inf)):
        raise NonPositiveDistance("range out of the float range")
    lop = geometry.lop_matrix(cfg.anchors)  # raises CollinearAnchors
    system = LinearSystem(lop.A, d[:-1] ** 2 - d[-1] ** 2 + lop.ref_sq - lop.pts_sq)
    estimator = cfg.method["estimator"]
    if estimator == "ls":
        est = ls_solve(system)
    elif estimator == "wls":
        est = wls_solve(system, wls_weights(inv_model, d))
    else:
        weights = wls_weights(inv_model, d) if inv_model.sigma_db > 0 else None
        epsilon = cfg.method["huber_epsilon"]
        est = huber_irls(system, epsilon=epsilon, initial_weights=weights).position
    error = distance(est, target)
    if not math.isfinite(error):
        raise NumericOverflow("estimate out of the float range")
    return est, target, error


def outcome(fn, *args):
    try:
        return fn(*args)
    except WsnlocError as exc:
        return exc


def assert_same(batched, looped):
    """A stacked trial and its one-system twin: the same failure class, or the same
    estimate, truth and error bytes."""
    if isinstance(looped, WsnlocError):
        assert type(batched) is type(looped)
        return
    est, target, error = looped
    assert not isinstance(batched, WsnlocError), batched
    assert np.array_equal(batched.estimate, est)
    assert np.array_equal(batched.truth, target)
    assert batched.error == error


def check_rows(cfg: ScenarioConfig) -> list[type]:
    """Every row's stacked trials against the looped ones; returns the failure classes."""
    p = harness._pipeline(cfg, "rss")
    classes = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for si in range(len(cfg.snr_grid_db)):
            row = p.row(p, si, range(cfg.trials))
            assert len(row) == cfg.trials
            for ti, batched in enumerate(row):
                looped = outcome(one_trial, cfg, si, ti)
                assert_same(batched, looped)
                assert_same(outcome(run_trial, cfg, "rss", si, ti), looped)
                classes.append(type(batched))
    return classes


ESTIMATORS = ("ls", "wls", "huber")


@pytest.mark.parametrize("estimator", ESTIMATORS)
@pytest.mark.parametrize(
    "changes",
    [
        {},
        {"target": "random"},
        {"channel": {"eta_true": 2.6}},
        {"target": "random", "channel": {"eta_true": 1.7, "sigma_ref_db": 3.0}},
        # no shadowing: WLS weighs every row alike and Huber starts from LS
        {"channel": {"sigma_ref_db": 0.0}},
    ],
    ids=["fixed", "random", "eta-true", "random-eta-true", "noiseless"],
)
def test_stacked_rows_equal_looped_trials(estimator, changes):
    classes = check_rows(scenario(**changes).with_method(estimator=estimator))
    assert set(classes) == {harness.TrialResult}


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_shipped_sweeps_equal_looped_trials(estimator):
    for name in ("rss_equal_distance", "rss_heterogeneous"):
        cfg = harness.load_config(CONFIGS / f"{name}.json")
        check_rows(dataclasses.replace(cfg, seed=7, trials=12).with_method(estimator=estimator))


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_ill_conditioned_layout_fails_ls_at_compile(estimator):
    # cond(A^T A) about 2.5e13: past the bound every unweighted LS solve checks, though
    # the layout is not collinear; WLS and Huber check their drawn weights per trial
    cfg = scenario(anchors=[[0.0, 0.0], [50.0, 50.0], [100.0, 100.0001]], target=[30.0, 60.0])
    cfg = cfg.with_method(estimator=estimator)
    assert geometry.lop_matrix(cfg.anchors).gram_cond > rss.MAX_CONDITION
    if estimator == "ls":
        with pytest.raises(ConfigError, match="ill-conditioned"):
            monte_carlo(cfg, "rss")
    else:
        assert set(check_rows(cfg)) <= {harness.TrialResult, SingularSystem}


@pytest.mark.parametrize(
    "estimator, sigma_ref, expected",
    [
        # squared ranges past the float range leave LS with no finite estimate;
        # some ranges overflow or underflow outright
        ("ls", 2500.0, {NumericOverflow, NonPositiveDistance}),
        # ranges a few dB high put the ranging variance past the float range, so the
        # WLS weights of those trials are degenerate; weights many orders of magnitude
        # apart put the normal equations of others past the condition bound
        ("wls", 80.0, {NumericOverflow, SingularSystem}),
        ("huber", 80.0, {NumericOverflow, SingularSystem}),
    ],
)
def test_extreme_shadowing_fails_some_stacked_trials(estimator, sigma_ref, expected):
    cfg = scenario(trials=40, snr_grid_db=[0.0, 0.5], channel={"sigma_ref_db": sigma_ref})
    classes = check_rows(cfg.with_method(estimator=estimator))
    assert harness.TrialResult in classes
    assert set(classes) - {harness.TrialResult} == expected


def test_one_ulp_square_of_the_last_range():
    # Trial 16 of this row has a last range whose scalar square is one ulp off its
    # array square (2951.261527185499 vs 2951.2615271854984); the stacked right-hand
    # side must square it as the one-trial system does.
    cfg = harness.load_config(CONFIGS / "rss_equal_distance.json")
    cfg = dataclasses.replace(cfg, seed=7, trials=30).with_method(estimator="ls")
    p = harness._pipeline(cfg, "rss")
    gen_model, inv_model = p.models[3]
    rng = rng_for_trial(7, 3, 16)
    d = invert_distance(harness._losses(p, harness._draw_target(p, rng), gen_model, rng), inv_model)
    assert d[-1] ** 2 != (d[None, -1:] ** 2)[0, 0]
    single = run_trial(cfg, "rss", 3, 16)
    batched = p.row(p, 3, range(30))[16]
    assert single.estimate.tobytes() == batched.estimate.tobytes()
    assert single.estimate.tobytes() == one_trial(cfg, 3, 16)[0].tobytes()


def test_failed_trials_are_counted_from_the_row():
    cfg = scenario(trials=40, snr_grid_db=[0.0, 0.5], channel={"sigma_ref_db": 80.0})
    cfg = cfg.with_method(estimator="wls")
    result = monte_carlo(cfg, "rss")
    for si, row in enumerate(result.rows):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            looped = [outcome(one_trial, cfg, si, ti) for ti in range(cfg.trials)]
        errors = [o[2] for o in looped if not isinstance(o, WsnlocError)]
        assert 0 < row.failures == cfg.trials - len(errors)
        assert row.rmse == math.sqrt(float(np.mean(np.square(errors))))


HYBRID_RAW = {
    "seed": 21,
    "trials": 3,
    "snr_grid_db": [10.0],
    "region": [30.0, 30.0],
    "target": [20.0, 18.0],
    "channel": {"frequency_hz": 1e9, "sigma_ref_db": 0.3},
    "anchors": [[2.0, 28.0], [28.0, 4.0], [22.0, 20.0]],
    "hybrid_node": {"center": [18.0, 16.0], "n_elements": 4, "radius_wavelengths": 0.3183},
    "snapshots": 32,
}


@pytest.mark.parametrize("scheme", ["ls", "wls", "fbss"])
def test_hybrid_trials_build_no_lop_matrix(monkeypatch, scheme):
    cfg = ScenarioConfig.from_dict(HYBRID_RAW).with_method(hybrid=scheme)
    run_trial(cfg, "hybrid", 0, 0)  # compiles the pipeline
    built = []
    for module, name in [(hybrid, "lop_matrix"), (geometry, "build_lop_system")]:
        original = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *args, _f=original: built.append(args) or _f(*args)
        )
    monte_carlo(cfg, "hybrid")
    assert built == []


# both anchors and the hybrid node's centre on the line y = x
COLLINEAR_HYBRID = dict(
    HYBRID_RAW,
    anchors=[[2.0, 2.0], [28.0, 28.0]],
    target=[8.0, 20.0],
    hybrid_node=dict(HYBRID_RAW["hybrid_node"], center=[18.0, 18.0]),
)


@pytest.mark.parametrize(
    "kind, method",
    [("rss", "ls"), ("rss", "wls"), ("rss", "huber"), ("hybrid", "ls"), ("hybrid", "wls")],
    ids=lambda v: v,
)
def test_collinear_layout_is_a_config_error(monkeypatch, kind, method):
    # the layout alone fails every trilateration, so the scenario fails to compile:
    # no trial draws a range or reaches a solver
    if kind == "rss":
        cfg = scenario(anchors=[[0.0, 0.0], [50.0, 50.0], [100.0, 100.0]])
        cfg = cfg.with_method(estimator=method)
    else:
        cfg = ScenarioConfig.from_dict(COLLINEAR_HYBRID).with_method(hybrid=method)
    monkeypatch.setattr(harness, "path_loss", lambda *a: pytest.fail("a trial drew ranges"))
    for call in (lambda: run_trial(cfg, kind, 0, 0), lambda: monte_carlo(cfg, kind)):
        with pytest.raises(ConfigError, match="collinear"):
            call()


def recording(monkeypatch, module, name) -> list:
    """Each call to ``module.name`` while the test runs, as (args, result)."""
    calls, original = [], getattr(module, name)

    def recorded(*args, **kwargs):
        calls.append((args, original(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(module, name, recorded)
    return calls


def run_rows(cfg: ScenarioConfig, kind: str) -> None:
    for si in range(len(cfg.snr_grid_db)):
        for ti in range(cfg.trials):
            run_trial(cfg, kind, si, ti)


@pytest.mark.parametrize("scheme", ["ls", "wls"])
def test_hybrid_anchor_fix_equals_one_system_solve(monkeypatch, scheme):
    # the fused point is the midpoint of the fix and the bearing point at the fix's range
    cfg = harness.load_config(CONFIGS / "hybrid_single.json")
    cfg = dataclasses.replace(cfg, seed=7, trials=3).with_method(hybrid=scheme)
    ranged = harness._pipeline(cfg, "hybrid").ranged
    calls = recording(monkeypatch, harness, "hybrid_anchor_fusion")
    run_rows(cfg, "hybrid")
    assert len(calls) == len(cfg.snr_grid_db) * cfg.trials
    for (node, _, d, doa, _, model), fused in calls:
        system = geometry.build_lop_system(ranged, d)
        fix = ls_solve(system) if scheme == "ls" else wls_solve(system, wls_weights(model, d))
        radius = float(np.linalg.norm(fix - node.center))
        point = node.center + radius * np.array([math.cos(doa), math.sin(doa)])
        assert fused.tobytes() == (0.5 * (fix + point)).tobytes()


def test_hybrid_fbss_coarse_fix_equals_ls_solve(monkeypatch):
    # the coarse fix only picks a bearing, from the direction the node sees it in
    cfg = harness.load_config(CONFIGS / "hybrid_coherent_fbss.json")
    cfg = dataclasses.replace(cfg, seed=7, trials=3)
    fusions = recording(monkeypatch, harness, "hybrid_with_fbss")
    bearings = recording(monkeypatch, hybrid, "bearing_to")
    run_rows(cfg, "hybrid")
    assert len(fusions) == len(bearings) == len(cfg.snr_grid_db) * cfg.trials
    for ((node, _, d, *_), _), ((center, coarse), _) in zip(fusions, bearings):
        assert center is node.center
        fix = ls_solve(geometry.build_lop_system(node.element_positions, d))
        assert coarse.tobytes() == fix.tobytes()


def test_rows_stack_in_chunks(monkeypatch):
    # trials 0-39 in chunks of 7, 7, ..., 5: the same rows as one stack of 40
    cfg = scenario(trials=40, snr_grid_db=[0.0, 0.5], channel={"sigma_ref_db": 80.0})
    cfg = cfg.with_method(estimator="wls")
    whole = monte_carlo(cfg, "rss")
    assert any(row.failures for row in whole.rows)
    monkeypatch.setattr(harness, "ROW_CHUNK", 7)
    p = harness._pipeline(cfg, "rss")
    chunks = []
    row = p.row
    monkeypatch.setattr(p, "row", lambda p, si, trials: chunks.append(trials) or row(p, si, trials))
    assert monte_carlo(cfg, "rss") == whole
    stacked = [list(t) for t in chunks if isinstance(t, range)]  # not run_trial's reruns
    assert stacked == 2 * [list(range(s, min(s + 7, 40))) for s in range(0, 40, 7)]
