"""The rss and hybrid stacks solve their trials' trilateration fixes as one stack;
these tests hold them to the systems solved one at a time, byte for byte: the rss
trials by ``lop_oracle``, which shares no code with the package's solvers, and the
hybrid fixes by the one-system solvers. A hybrid stack does every step after its draws
as array operations; these tests hold each of its trials to the public kernels composed
for that trial alone, and to an oracle that shares no code with the stack's scan, peak
pick and fusion, byte for byte. A stack takes a chunk of (snr_index, trial_index) pairs
that may cross SNR rows; a chunk must give each trial what its row run alone gives."""

import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import lop_oracle
import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsnloc import channel, geometry, harness, hybrid, rss
from wsnloc.arrays import (
    SourceSet,
    UniformCircularArray,
    draw_signals,
    noise_power,
    sample_covariance,
    steering_matrix,
    synthesize_snapshots,
)
from wsnloc.channel import invert_distance, path_loss, range_stack
from wsnloc.decorrelate import SmoothingPlan, fbss, smooth
from wsnloc.doa import eigenbases, music, music_peaks
from wsnloc.errors import (
    AllIntersectionsFailed,
    BehindRay,
    CoincidentSources,
    ConfigError,
    NonPositiveDistance,
    NoPeaksFound,
    NumericOverflow,
    SingularFusionMatrix,
    SingularSystem,
    WsnlocError,
)
from wsnloc.geometry import bearing_to, distance
from wsnloc.config import ScenarioConfig, load_config
from wsnloc.harness import monte_carlo, rng_for_trial, run_trial
from wsnloc.hybrid import hybrid_anchor_fusion, hybrid_single_node, hybrid_with_fbss, two_lines
from wsnloc.numerics import herm_eig
from wsnloc.pme import VandermondeArray, build_transform, to_vula
from wsnloc.rss import ls_solve, wls_solve, wls_weights

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
    stacked: its LOP system, then ``lop_oracle``'s LS, WLS or Huber solve of it."""
    snr_db = cfg.snr_grid_db[snr_index]
    gen_model, inv_model = cfg.channel_at(snr_db, eta=cfg.eta_true), cfg.channel_at(snr_db)
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
    a, b = lop.A, d[:-1] ** 2 - d[-1] ** 2 + lop.ref_sq - lop.pts_sq
    estimator = cfg.method["estimator"]
    if estimator == "ls":
        est = lop_oracle.normal_solve(a, b)
    elif estimator == "wls":
        est = lop_oracle.normal_solve(a, b, wls_weights(inv_model, d))
    else:
        # a log-domain variance that is 0, or underflows to it, has nothing to weigh
        shadowed = (inv_model.sigma_db * math.log(10.0) / (10.0 * inv_model.eta)) ** 2 > 0.0
        weights = wls_weights(inv_model, d) if shadowed else None
        est, _ = lop_oracle.huber(a, b, cfg.method["huber_epsilon"], weights)
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


def trial_outcomes(chunk: tuple) -> list:
    """A chunk's (truths, estimates, errors, failures) as one outcome per trial: the
    error that failed it, or its ``TrialResult``, as ``run_trial`` builds it."""
    truths, estimates, errors, failed = chunk
    assert np.array_equal(np.isnan(errors), np.not_equal(failed, None))
    return [
        harness.TrialResult(estimate=e, truth=t, error=float(err)) if f is None else f
        for t, e, err, f in zip(truths, estimates, errors, failed, strict=True)
    ]


def row(p, snr_index: int) -> list:
    """The outcomes of a row's trials, stacked alone as one chunk."""
    return trial_outcomes(p.stack(p, [(snr_index, ti) for ti in range(p.cfg.trials)]))


def sweep_pairs(cfg: ScenarioConfig) -> list:
    """Every (snr_index, trial_index) pair of the sweep, in row-major order."""
    return [(si, ti) for si in range(len(cfg.snr_grid_db)) for ti in range(cfg.trials)]


def check_rows(cfg: ScenarioConfig, kind: str = "rss") -> list[type]:
    """Every row's stacked trials against the looped ones; returns the failure classes."""
    p = harness._pipeline(cfg, kind)
    looped_trial = {"rss": one_trial, "hybrid": one_hybrid_trial}[kind]
    classes = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for si in range(len(cfg.snr_grid_db)):
            row_outcomes = row(p, si)
            assert len(row_outcomes) == cfg.trials
            for ti, batched in enumerate(row_outcomes):
                looped = outcome(looped_trial, cfg, si, ti)
                assert_same(batched, looped)
                assert_same(outcome(run_trial, cfg, kind, si, ti), looped)
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
        # a log-domain variance so small that exp(8 s^2) and exp(4 s^2) round alike
        {"snr_grid_db": [200.0, 400.0]},
        # one that underflows to 0, from a tiny std or a huge path-loss exponent
        {"channel": {"sigma_ref_db": 1e-300}},
        {"channel": {"eta": 1e300}},
    ],
    ids=[
        "fixed", "random", "eta-true", "random-eta-true", "noiseless", "vanishing", "tiny", "steep"
    ],
)
def test_stacked_rows_equal_looped_trials(estimator, changes):
    classes = check_rows(scenario(**changes).with_method(estimator=estimator))
    assert set(classes) == {harness.TrialResult}


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_shipped_sweeps_equal_looped_trials(estimator):
    for name in ("rss_equal_distance", "rss_heterogeneous"):
        cfg = load_config(CONFIGS / f"{name}.json")
        check_rows(dataclasses.replace(cfg, seed=7, trials=12).with_method(estimator=estimator))


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_ill_conditioned_layout_fails_ls_at_compile(estimator):
    # cond(A^T A) about 2.5e13: past the bound every unweighted LS solve checks, though
    # the layout is not collinear; WLS and Huber check their drawn weights per trial
    cfg = scenario(anchors=[[0.0, 0.0], [50.0, 50.0], [100.0, 100.0001]], target=[30.0, 60.0])
    cfg = cfg.with_method(estimator=estimator)
    a = geometry.lop_matrix(cfg.anchors).A
    assert rss.ill_conditioned(a.T @ a)
    if estimator == "ls":
        with pytest.raises(ConfigError, match="ill-conditioned"):
            monte_carlo(cfg, "rss")
    else:
        assert set(check_rows(cfg)) <= {harness.TrialResult, SingularSystem}


FOUND_LAYOUT = [[0.0, 0.0], [50.0, 50.0], [100.0, 100.0001]]  # cond(A^T A) about 2.5e13


def test_one_conditioning_verdict_at_compile_and_in_the_solves():
    # layouts whose cond(A^T A) runs from 1e11 to 1e13, the band within a factor of 4 of
    # the 1e12 bound (where rss.ill_conditioned defers to the SVD) included: the compile
    # check, the unweighted stack solve and a 50-digit SVD of the same float gram agree
    rng = np.random.default_rng(33)
    sides = []
    for offset in np.geomspace(1.6e-4, 1.6e-3, 80):
        turn = rng.uniform(0.0, 2.0 * math.pi)
        rot = np.array([[math.cos(turn), -math.sin(turn)], [math.sin(turn), math.cos(turn)]])
        layout = np.array([[0.0, 0.0], [50.0, 50.0], [100.0, 100.0 + offset]]) @ rot.T
        layout += rng.uniform(-100.0, 100.0, 2)
        lop = geometry.lop_matrix(layout)
        gram = lop.A.T @ lop.A
        with mpmath.workdps(50):
            s = mpmath.svd_r(mpmath.matrix(gram.tolist()), compute_uv=False)
            exact = float(max(s) / min(s))
        # the float SVD holds a condition number near 1e12 to about eps * 1e12: no layout
        # is that close to the bound
        assert abs(exact / rss.MAX_CONDITION - 1.0) > 1e-3
        try:
            harness._trilateration(layout, True, ())
            compiled = False
        except ConfigError:
            compiled = True
        d = np.hypot(*(layout - rng.uniform(0.0, 100.0, 2)).T)
        _, failed = rss.solve_stack(lop.A, lop.rhs(d[None]))
        solved = isinstance(failed[0], SingularSystem)
        assert compiled == solved == (exact > rss.MAX_CONDITION), exact
        sides.append(exact / rss.MAX_CONDITION)
    sides = np.array(sides)
    assert np.any(sides < 0.25) and np.any(sides > 4.0)
    assert np.any((sides > 0.25) & (sides < 1.0)) and np.any((sides > 1.0) & (sides < 4.0))


@pytest.mark.parametrize("estimator", ["wls", "huber"])
def test_ill_conditioned_layout_without_shadowing_is_a_config_error(estimator):
    # with no shadowing WLS weighs every range alike and Huber starts from LS, so every
    # trial's fix is the unweighted LS one, past the condition bound
    flat = scenario(anchors=FOUND_LAYOUT, target=[30.0, 60.0], channel={"sigma_ref_db": 0.0})
    with pytest.raises(ConfigError, match="ill-conditioned .* without shadowing"):
        monte_carlo(flat.with_method(estimator=estimator), "rss")
    # with shadowing the weights are drawn, and the trials run
    shadowed = scenario(anchors=FOUND_LAYOUT, target=[30.0, 60.0], channel={"sigma_ref_db": 4.0})
    assert set(check_rows(shadowed.with_method(estimator=estimator))) <= {
        harness.TrialResult,
        SingularSystem,
    }


@pytest.mark.parametrize("estimator", ["wls", "huber"])
@pytest.mark.parametrize("channel", [{"sigma_ref_db": 1e-300}, {"eta": 1e300}])
def test_ill_conditioned_layout_with_underflowing_shadowing_is_a_config_error(estimator, channel):
    # a shadowing whose log-domain variance underflows to 0 is no shadowing
    flat = scenario(anchors=FOUND_LAYOUT, target=[30.0, 60.0], channel=channel)
    with pytest.raises(ConfigError, match="ill-conditioned .* without shadowing"):
        monte_carlo(flat.with_method(estimator=estimator), "rss")


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
    cfg = load_config(CONFIGS / "rss_equal_distance.json")
    cfg = dataclasses.replace(cfg, seed=7, trials=30).with_method(estimator="ls")
    p = harness._pipeline(cfg, "rss")
    rng = rng_for_trial(7, 3, 16)
    (target,) = harness._draw_targets(p, [rng])
    shadows = [rng.normal(0.0, 1.0, size=4)]
    d = range_stack(p.ranged, target[None], shadows, p.sigma_db[[3]], *p.channel)[0]
    # a (T, k) array of the rows ranges as the list of them does
    whole = range_stack(p.ranged, target[None], np.array(shadows), p.sigma_db[[3]], *p.channel)
    assert whole.tobytes() == d.tobytes()
    assert d[-1] ** 2 != (d[None, -1:] ** 2)[0, 0]
    single = run_trial(cfg, "rss", 3, 16)
    batched = row(p, 3)[16]
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


def one_hybrid_trial(cfg: ScenarioConfig, snr_index: int, trial_index: int) -> tuple:
    """One hybrid trial on its own, the way trials ran before rows were stacked: its
    snapshots, then MUSIC on their covariance (fbss: the ranges, then hybrid_with_fbss),
    the ranges and the scheme's fusion. As for rss, ``eta_true`` (when set) generates
    the path losses and ``eta`` inverts them."""
    scheme, snr_db = cfg.method["hybrid"], cfg.snr_grid_db[snr_index]
    node = cfg.node
    gen_model, inv_model = cfg.channel_at(snr_db, eta=cfg.eta_true), cfg.channel_at(snr_db)
    grid_step = math.radians(cfg.method["grid_step_deg"])
    rng = rng_for_trial(cfg.seed, snr_index, trial_index)
    target = cfg.target
    clear = max(cfg.d0, 3.0 * node.geometry.radius)
    anchors = [] if cfg.anchors is None else list(cfg.anchors)
    while isinstance(target, str):  # a random target, drawn clear of the node and anchors
        cand = np.array([rng.uniform(0, cfg.region[0]), rng.uniform(0, cfg.region[1])])
        if distance(cand, node.center) >= clear and all(
            distance(cand, a) >= cfg.d0 for a in anchors
        ):
            target = cand
    bearing = bearing_to(node.center, target)
    if scheme == "fbss":
        azimuths = np.concatenate([[bearing], cfg.interferers.azimuths])
        src = SourceSet(azimuths, [1.0, *cfg.interferers.amplitudes], coherent=True)
    else:
        src = SourceSet(np.array([bearing]))
    x = synthesize_snapshots(node.geometry, src, cfg.snapshots, snr_db, rng)

    def ranges(points):
        diff = points - target
        d = invert_distance(path_loss(np.hypot(diff[:, 0], diff[:, 1]), gen_model, rng), inv_model)
        if not np.all((d > 0) & (d < math.inf)):
            raise NonPositiveDistance("range out of the float range")
        return d

    positions = node.element_positions
    if scheme == "fbss":
        d = ranges(positions)
        transform = build_transform(node.geometry)
        subarray_len = cfg.method.get("subarray_len")
        est = hybrid_with_fbss(node, x, d, transform, src.count, subarray_len, grid_step=grid_step)
    else:
        doa = float(music(sample_covariance(x), node.geometry, 1, grid_step)[1][0])
        if scheme == "single":
            est = hybrid_single_node(node, doa, ranges(positions))
        elif scheme in ("ls", "wls"):
            d = ranges(np.vstack([cfg.anchors, node.center]))
            est = hybrid_anchor_fusion(node, cfg.anchors, d, doa, scheme, inv_model)
        else:
            d = ranges(np.vstack([cfg.anchors[:1], positions]))
            est = two_lines(node, cfg.anchors[0], d[0], np.mean(d[1:]), doa)
    error = distance(est, target)
    if not math.isfinite(error):
        raise NumericOverflow("estimate out of the float range")
    return est, target, error


HYBRID_SCHEMES = ("single", "fbss", "ls", "wls", "two-lines")
# a 16-element ring (8 modes) for fbss, with interferers; the 4-element one cannot
# smooth three coherent sources
FBSS_RAW = dict(
    HYBRID_RAW,
    hybrid_node={"center": [5.0, 5.0], "n_elements": 16, "radius_wavelengths": 0.7},
    interferers_deg=[116.57, 32.0],
    interferer_amplitudes=[0.6, 0.6],
    method={"subarray_len": 6},
)


def hybrid_scenario(scheme: str, **changes) -> ScenarioConfig:
    raw = json.loads(json.dumps(FBSS_RAW if scheme == "fbss" else HYBRID_RAW))
    raw["channel"].update(changes.pop("channel", {}))
    raw["method"] = dict(raw.get("method", {}), **changes.pop("method", {}))
    raw.update(changes)
    return ScenarioConfig.from_dict(raw).with_method(hybrid=scheme)


@pytest.mark.parametrize("scheme", HYBRID_SCHEMES)
@pytest.mark.parametrize(
    "changes",
    [
        {"trials": 9, "snr_grid_db": [5.0, 15.0, 30.0]},
        {"trials": 9, "snr_grid_db": [10.0, 20.0], "target": "random"},
        {"trials": 6, "snr_grid_db": [10.0], "method": {"grid_step_deg": 2.0}},
        {"trials": 5, "snr_grid_db": [1e300]},  # noiseless: no noise draws, no shadowing
        {"trials": 9, "snr_grid_db": [10.0, 20.0], "target": "random", "channel": {"eta_true": 2.3}},
    ],
    ids=["fixed", "random", "coarse-grid", "noiseless", "eta-true"],
)
def test_hybrid_rows_equal_looped_trials(scheme, changes):
    classes = check_rows(hybrid_scenario(scheme, **changes), "hybrid")
    assert harness.TrialResult in classes


@pytest.mark.parametrize(
    "cfg",
    [
        scenario(channel={"eta_true": 2.6}, snr_grid_db=[-20.0, 1.0, 9.0]),
        hybrid_scenario("two-lines", channel={"eta_true": 2.3}, snr_grid_db=[0.0, 30.0]),
        hybrid_scenario("ls", channel={"eta_true": 1.7, "sigma_ref_db": 0.0}),
    ],
    ids=["rss", "hybrid-two-lines", "hybrid-ls-noiseless"],
)
def test_row_ranges_equal_looped_path_loss(cfg):
    # a chunk's ranges: its one mean-loss call under the generating model (eta_true),
    # plus each trial's shadows scaled by its own row's std, read back by the inverting
    # model; each is the bytes of that trial's own path_loss and invert_distance, for
    # a chunk of one row or one whose trials are spread over every row
    kind = "rss" if cfg.node is None else "hybrid"
    p = harness._pipeline(cfg, kind)
    rng = np.random.default_rng(3)
    targets = rng.uniform(0.0, cfg.region[0], (200, 2))
    shadows = [np.random.default_rng(t).normal(0.0, 1.0, size=len(p.ranged)) for t in range(200)]
    spread = np.sort(rng.integers(0, len(cfg.snr_grid_db), 200))
    for rows in [np.full(200, si) for si in range(len(cfg.snr_grid_db))] + [spread]:
        looped = []
        for t, target in enumerate(targets):
            snr_db = cfg.snr_grid_db[rows[t]]
            gen_model, inv_model = cfg.channel_at(snr_db, eta=cfg.eta_true), cfg.channel_at(snr_db)
            assert gen_model.eta == cfg.eta_true != inv_model.eta
            diff = p.ranged - target
            loss = path_loss(np.hypot(diff[:, 0], diff[:, 1]), gen_model, np.random.default_rng(t))
            looped.append(invert_distance(loss, inv_model))
        d = range_stack(p.ranged, targets, shadows, p.sigma_db[rows], *p.channel)
        assert d.tobytes() == np.array(looped).tobytes()


@pytest.mark.parametrize("scheme", HYBRID_SCHEMES)
def test_hybrid_honours_eta_true(scheme):
    # a true path-loss exponent other than the one ranging assumes biases every range
    plain = hybrid_scenario(scheme, trials=6, snr_grid_db=[10.0, 20.0])
    steeper = hybrid_scenario(scheme, trials=6, snr_grid_db=[10.0, 20.0], channel={"eta_true": 2.3})
    assert monte_carlo(steeper, "hybrid") != monte_carlo(plain, "hybrid")


@pytest.mark.parametrize("seed", range(4))
def test_row_covariances_are_exactly_hermitian(seed):
    # the hybrid row splits these without a Hermitian check before smoothing: for finite
    # input a sample covariance and its smoothing equal their conjugate transpose exactly
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-150, 150)
    x = scale * (rng.standard_normal((5, 9, 40)) + 1j * rng.standard_normal((5, 9, 40)))
    stack = sample_covariance(x)
    plan = SmoothingPlan.design(9, 3, forward_backward=True)
    for r in [sample_covariance(x[0]), stack, smooth(stack, plan), smooth(stack, plan, True)]:
        assert np.all(np.isfinite(r))
        assert np.array_equal(r, r.conj().swapaxes(-1, -2))


@pytest.mark.parametrize("scheme", ["single", "fbss"])
@pytest.mark.parametrize("snr_db", [5.0, 30.0, 1e300])
def test_hybrid_row_subspaces_equal_looped_kernels(scheme, snr_db):
    # MUSIC picks grid points, so an estimate hides small changes in the covariances:
    # the row's eigenbases themselves must be the bytes of each trial's own kernels
    cfg = hybrid_scenario(scheme, trials=7, snr_grid_db=[snr_db])
    p = harness._pipeline(cfg, "hybrid")
    azimuths, signals, looped = [], [], []
    for ti in range(cfg.trials):
        for stack in (True, False):
            rng = rng_for_trial(cfg.seed, 0, ti)
            bearing = bearing_to(p.node.center, harness._draw_targets(p, [rng])[0])
            if scheme == "fbss":
                bearings = [bearing, *cfg.interferers.azimuths]
                src = SourceSet(bearings, [1.0, 0.6, 0.6], coherent=True)
            else:
                src = SourceSet([bearing])
            if stack:
                azimuths.append(src.azimuths)
                size = p.geometry.size
                k = cfg.snapshots
                sigma2 = noise_power(src.amplitudes, snr_db)
                signals.append(draw_signals(src.amplitudes, src.coherent, size, k, sigma2, rng))
                continue
            x = synthesize_snapshots(p.geometry, src, cfg.snapshots, snr_db, rng)
            if scheme == "fbss":
                r = fbss(sample_covariance(to_vula(x, p.transform)), p.plan)
            else:
                r = sample_covariance(x)
            looped.append(herm_eig(r)[1])
    s, noise = zip(*signals)
    failed = np.full(cfg.trials, None, dtype=object)
    steer = steering_matrix(p.geometry, np.array(azimuths))
    q, failed = eigenbases(steer, np.array(s), noise, p.transform, p.plan, failed)
    assert list(failed) == [None] * cfg.trials
    assert q.shape == (cfg.trials, *looped[0].shape)
    for q_row, q_trial in zip(q, looped):
        assert q_row.tobytes() == q_trial.tobytes()


@pytest.mark.parametrize("scheme", HYBRID_SCHEMES)
def test_shipped_hybrid_sweeps_equal_looped_trials(scheme):
    name = "hybrid_coherent_fbss" if scheme == "fbss" else "hybrid_single"
    cfg = load_config(CONFIGS / f"{name}.json")
    check_rows(dataclasses.replace(cfg, seed=7, trials=8).with_method(hybrid=scheme), "hybrid")


@pytest.mark.parametrize("scheme", HYBRID_SCHEMES)
def test_hybrid_failure_precedence(scheme):
    # At -3070 dB the sample covariance overflows and the shadowing sends every range to
    # 0 or infinity: the spectrum fails first, except under fbss, which ranges first
    cfg = hybrid_scenario(scheme, trials=4, snr_grid_db=[-3070.0])
    expected = NonPositiveDistance if scheme == "fbss" else NumericOverflow
    assert set(check_rows(cfg, "hybrid")) == {expected}


@pytest.mark.parametrize("scheme", HYBRID_SCHEMES)
def test_hybrid_peaks_fail_before_ranges_and_fix(monkeypatch, scheme):
    # a spectrum without its peaks fails a trial before its ranges or its fix can; only
    # fbss ranges before its spectrum
    cfg = hybrid_scenario(
        scheme, trials=20, snr_grid_db=[-20.0], target="random", channel={"sigma_ref_db": 300.0}
    )
    p = harness._pipeline(cfg, "hybrid")

    def no_peaks(q, geometry, n_sources, grid_step):  # music_peaks' contract: per basis
        failed = np.empty(len(q), dtype=object)
        failed[:] = [NoPeaksFound("no spectral peaks") for _ in q]
        return np.full((len(q), n_sources), np.nan), failed

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        before = row(p, 0)
        monkeypatch.setattr(harness, "music_peaks", no_peaks)
        after = row(p, 0)
    assert NonPositiveDistance in {type(o) for o in before}
    for one, other in zip(before, after):
        ranged_first = scheme == "fbss" and isinstance(one, NonPositiveDistance)
        assert type(other) is (NonPositiveDistance if ranged_first else NoPeaksFound)


@pytest.mark.parametrize("scheme", HYBRID_SCHEMES)
def test_hybrid_rows_fail_as_looped_trials(scheme):
    # heavy shadowing sends some ranges to 0 or infinity, and some estimates (or, for
    # wls, ranging variances) out of the float range
    cfg = hybrid_scenario(
        scheme,
        trials=20,
        snr_grid_db=[-20.0, -5.0, 10.0],
        target="random",
        channel={"sigma_ref_db": 300.0},
    )
    classes = set(check_rows(cfg, "hybrid"))
    assert {NonPositiveDistance, NumericOverflow} <= classes
    assert (harness.TrialResult in classes) == (scheme != "wls")


def chunked(monkeypatch, cfg: ScenarioConfig, kind: str, budget: int) -> tuple:
    """``monte_carlo`` of ``cfg`` compiled afresh under a ``ROW_VALUES`` of ``budget``,
    and the chunks of pairs its stack calls got (not run_trial's reruns)."""
    monkeypatch.setattr(harness, "ROW_VALUES", budget)
    cfg = dataclasses.replace(cfg)  # an empty pipeline cache: compiled under the budget
    p = harness._pipeline(cfg, kind)
    chunks, stack, rerun, rerunning = [], p.stack, harness.run_trial, []

    def recorded(p, pairs):
        if not rerunning:
            chunks.append(list(pairs))
        return stack(p, pairs)

    def run_trial(*args):
        rerunning.append(args)
        try:
            return rerun(*args)
        finally:
            rerunning.pop()

    monkeypatch.setattr(p, "stack", recorded)
    monkeypatch.setattr(harness, "run_trial", run_trial)
    result = monte_carlo(cfg, kind)
    return result, chunks


def sweep_chunks(cfg: ScenarioConfig, size: int) -> list:
    """The sweep's pairs in row-major order, cut into chunks of ``size``."""
    pairs = sweep_pairs(cfg)
    return [pairs[start : start + size] for start in range(0, len(pairs), size)]


@pytest.mark.parametrize("scheme", HYBRID_SCHEMES)
def test_hybrid_rows_stack_in_chunks(monkeypatch, scheme):
    # one chunk holds the whole sweep; one pair per chunk, or 4 (chunks that end inside
    # a row and cross into the next), give the same rows
    cfg = hybrid_scenario(
        scheme, trials=11, snr_grid_db=[-5.0, 10.0], channel={"sigma_ref_db": 30.0}
    )
    whole, chunks = chunked(monkeypatch, cfg, "hybrid", 10**9)
    assert chunks == [sweep_pairs(cfg)]
    single, chunks = chunked(monkeypatch, cfg, "hybrid", 1)
    assert single == whole
    assert chunks == sweep_chunks(cfg, 1)
    values = len(harness._pipeline(cfg, "hybrid").ranged) + cfg.node.geometry.size * cfg.snapshots
    four, chunks = chunked(monkeypatch, cfg, "hybrid", 4 * values)
    assert four == whole
    assert chunks == sweep_chunks(cfg, 4)
    assert [si for si, _ in chunks[2]] == [0, 0, 0, 1]


def test_hybrid_row_chunk_holds_bounded_snapshots():
    # 16,384 drawn values: 40 trials of a 4-element ring with 100 snapshots (4 path losses
    # and 400 snapshot values each), 10 of a 16-element one; a trial larger than the limit
    # (4 + 4 x 4,096 = 16,388 values) still runs, one at a time. The chunks cut the 3 rows
    # of 45 trials as one sweep.
    for scheme, snapshots, size in [("single", 100, 40), ("fbss", 100, 10), ("single", 4096, 1)]:
        cfg = hybrid_scenario(scheme, snapshots=snapshots, snr_grid_db=[5.0, 10.0, 20.0])
        cfg = dataclasses.replace(cfg, trials=45)
        p = harness._pipeline(cfg, "hybrid")
        chunks = []
        stack = p.stack
        p.stack = lambda p, pairs: chunks.append(pairs) or stack(p, pairs)
        assert len(list(harness._outcomes(p))) == 135
        assert chunks == sweep_chunks(cfg, size)


# a full chunk's tracemalloc peak, in units of its drawn values x 16 B (one complex128
# each): 3.3 to 5.5 under 16,384 values, the 16-element single-node MUSIC scan highest
CHUNK_PEAK_PER_VALUE = 8


def shipped_hybrid_pipelines() -> list:
    """Each shipped hybrid config compiled under every scheme it runs."""
    pipelines = []
    for path in sorted(CONFIGS.glob("*.json")):
        cfg = load_config(path)
        if cfg.node is None:
            continue
        for scheme in HYBRID_SCHEMES:
            try:
                pipelines.append(harness._pipeline(cfg.with_method(hybrid=scheme), "hybrid"))
            except ConfigError:  # too few RSS anchors for the scheme
                continue
    return pipelines


def test_shipped_hybrid_chunks_take_the_array_stream_pass(monkeypatch):
    # every shipped hybrid sweep chunks at least ARRAY_PASS pairs, so its chunks derive
    # their streams in one array pass, never one trial at a time; and a full chunk's
    # memory stays a bounded multiple of the values it draws
    pipelines = shipped_hybrid_pipelines()
    compiled = {(p.cfg.node.geometry.size, p.cfg.method["hybrid"]) for p in pipelines}
    assert {(4, scheme) for scheme in HYBRID_SCHEMES} | {(16, "fbss"), (16, "single")} == compiled
    lane = harness._lane

    def array_lane(pool, word, *constants):  # the one-by-one path passes a Python int
        assert isinstance(word, np.ndarray)
        return lane(pool, word, *constants)

    monkeypatch.setattr(harness, "_lane", array_lane)
    for p in pipelines:
        assert p.chunk >= harness.ARRAY_PASS, (p.cfg.method, p.chunk)
        pairs = sweep_pairs(p.cfg)
        drawn = p.chunk * (len(p.ranged) + p.geometry.size * p.cfg.snapshots)
        assert len(pairs) >= 2 * p.chunk and drawn <= harness.ROW_VALUES
        p.stack(p, pairs[p.chunk : 2 * p.chunk])  # first-use caches out of the count
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            p.stack(p, pairs[: p.chunk])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= CHUNK_PEAK_PER_VALUE * 16 * drawn, (p.cfg.method, peak, drawn)


def test_hybrid_fbss_follows_the_grid_step():
    # the fbss MUSIC scan uses the configured grid step, as the single-node one does
    base = load_config(CONFIGS / "hybrid_coherent_fbss.json")
    for scheme in ("fbss", "single"):
        cfg = dataclasses.replace(base, trials=6, snr_grid_db=(30.0,)).with_method(hybrid=scheme)
        fine = monte_carlo(cfg, "hybrid")
        coarse = monte_carlo(cfg.with_method(grid_step_deg=2.0), "hybrid")
        assert fine.rows[0].rmse != coarse.rows[0].rmse


@pytest.mark.parametrize("sigma_ref, raises", [(0.0, True), (4.0, False)])
def test_hybrid_wls_ill_conditioned_without_shadowing(sigma_ref, raises):
    # the anchors and the node's centre make the ill-conditioned layout above
    cfg = hybrid_scenario(
        "wls",
        anchors=FOUND_LAYOUT[:2],
        hybrid_node=dict(HYBRID_RAW["hybrid_node"], center=FOUND_LAYOUT[2]),
        channel={"sigma_ref_db": sigma_ref},
        trials=6,
    )
    if raises:
        with pytest.raises(ConfigError, match="ill-conditioned .* without shadowing"):
            monte_carlo(cfg, "hybrid")
    else:
        assert set(check_rows(cfg, "hybrid")) <= {harness.TrialResult, SingularSystem}


@pytest.mark.parametrize("scheme", ["ls", "wls", "fbss"])
def test_hybrid_trials_build_no_lop_matrix(monkeypatch, scheme):
    cfg = ScenarioConfig.from_dict(HYBRID_RAW).with_method(hybrid=scheme)
    run_trial(cfg, "hybrid", 0, 0)  # compiles the pipeline
    built = []
    for module, name in [(hybrid, "build_lop_system"), (geometry, "lop_matrix")]:
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
    monkeypatch.setattr(channel, "mean_path_loss", lambda *a: pytest.fail("a trial drew ranges"))
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


def stacked_fixes(monkeypatch, cfg: ScenarioConfig) -> tuple[list, list]:
    """The hybrid sweep of ``cfg`` run as one stack. Returns, in row and trial order,
    ``(snr_index, ranges, fix)`` for each trial the stacked fix solved (none may fail),
    and each trial's outcome."""
    p = harness._pipeline(cfg, "hybrid")
    solved, fix = [], p.fix

    def recorded(p, rows, d):
        pos, failed = fix(p, rows, d)
        assert list(failed) == [None] * len(d)
        solved.extend(zip(rows, d, pos))
        return pos, failed

    monkeypatch.setattr(p, "fix", recorded)
    outcomes = trial_outcomes(p.stack(p, sweep_pairs(cfg)))
    return solved, outcomes


def row_peaks(scans: list) -> list:
    """Each trial's MUSIC azimuths from the recorded ``music_peaks`` calls of whole
    chunks, in row and trial order (none may fail)."""
    peaks = []
    for _, (azimuths, failed) in scans:
        assert list(failed) == [None] * len(azimuths)
        peaks.extend(azimuths)
    return peaks


@pytest.mark.parametrize("scheme", ["ls", "wls"])
def test_hybrid_anchor_fix_equals_one_system_solve(monkeypatch, scheme):
    # the rows' stacked fixes are the one-system solves; each fused point is the
    # midpoint of its trial's fix and the bearing point at the fix's range
    cfg = load_config(CONFIGS / "hybrid_single.json")
    cfg = dataclasses.replace(cfg, seed=7, trials=5).with_method(hybrid=scheme)
    node, ranged = cfg.node, harness._pipeline(cfg, "hybrid").ranged
    scans = recording(monkeypatch, harness, "music_peaks")
    solved, outcomes = stacked_fixes(monkeypatch, cfg)
    peaks = row_peaks(scans)
    assert len(solved) == len(peaks) == len(outcomes) == len(cfg.snr_grid_db) * cfg.trials
    for (si, d, stacked), azimuths, result in zip(solved, peaks, outcomes):
        system = geometry.build_lop_system(ranged, d)
        model = cfg.channel_at(cfg.snr_grid_db[si])
        one = ls_solve(system) if scheme == "ls" else wls_solve(system, wls_weights(model, d))
        assert stacked.tobytes() == one.tobytes()
        fused = oracle_midpoint(node.center, one, float(azimuths[0]))
        assert result.estimate.tobytes() == fused.tobytes()


def test_hybrid_fbss_coarse_fix_equals_ls_solve(monkeypatch):
    # the coarse fix only picks a bearing, from the direction the node sees it in
    cfg = load_config(CONFIGS / "hybrid_coherent_fbss.json")
    cfg = dataclasses.replace(cfg, seed=7, trials=5)
    node = cfg.node
    scans = recording(monkeypatch, harness, "music_peaks")
    solved, outcomes = stacked_fixes(monkeypatch, cfg)
    peaks = row_peaks(scans)
    assert len(solved) == len(peaks) == len(outcomes) == len(cfg.snr_grid_db) * cfg.trials
    for (_, d, stacked), azimuths, result in zip(solved, peaks, outcomes):
        fix = ls_solve(geometry.build_lop_system(node.element_positions, d))
        assert stacked.tobytes() == fix.tobytes()
        chosen = oracle_fbss_pick(node.center, azimuths, fix)
        fused = oracle_ray_fusion(node.center, chosen, node.element_positions, d)
        assert result.estimate.tobytes() == fused.tobytes()


def test_rows_stack_in_chunks(monkeypatch):
    # the 80 pairs of two rows of 40 in chunks of 7, 7, ..., 3 (the sixth chunk ends
    # row 0 and starts row 1): the same rows as one stack of 80
    cfg = scenario(trials=40, snr_grid_db=[0.0, 0.5], channel={"sigma_ref_db": 80.0})
    cfg = cfg.with_method(estimator="wls")
    whole = monte_carlo(cfg, "rss")
    assert any(row.failures for row in whole.rows)
    chunked_result, chunks = chunked(monkeypatch, cfg, "rss", 7 * 4)  # 4 path losses a trial
    assert chunked_result == whole
    assert chunks == sweep_chunks(cfg, 7)
    assert chunks[5] == [(0, 35), (0, 36), (0, 37), (0, 38), (0, 39), (1, 0), (1, 1)]
    one, chunks = chunked(monkeypatch, cfg, "rss", 10**9)
    assert one == whole and chunks == [sweep_pairs(cfg)]


@pytest.mark.parametrize("anchors, size", [(4, 4096), (3, 5461)])
def test_rss_row_chunk_holds_bounded_path_losses(anchors, size):
    # 16,384 drawn values: 4,096 trials of 4 path losses, 5,461 of 3, cut from the
    # 3 x 5,000 pairs of the sweep whatever row they are in
    cfg = dataclasses.replace(scenario(anchors=RSS_RAW["anchors"][:anchors]), trials=5000)
    p = harness._pipeline(cfg, "rss")
    chunks = []
    p.stack = lambda p, pairs: chunks.append(pairs) or (None, None, [math.nan] * len(pairs), None)
    assert len(list(harness._outcomes(p))) == 15000
    assert [len(c) for c in chunks] == [size] * (15000 // size) + [15000 % size]
    assert [pair for c in chunks for pair in c] == sweep_pairs(cfg)


# --- a chunk's draws against each trial's own --------------------------------------------
# A chunk draws all its targets, then (hybrid) each trial's waveforms and noise, then its
# (T, k) shadowing; each trial's stream is its own, so that is each trial's own order.


def looped_draws(p, pairs: list) -> tuple[np.ndarray, np.ndarray]:
    """Each pair's target and shadowing drawn on its own, on ``rng_for_trial``'s stream:
    a random target placed by rejection clear of the compiled clearance points, then
    (hybrid) the trial's waveforms and noise, then ``normal(0.0, 1.0, k)``."""
    cfg, (points, radii) = p.cfg, p.clearance
    targets, shadows = [], []
    for si, ti in pairs:
        rng = rng_for_trial(cfg.seed, si, ti)
        target = cfg.target
        while isinstance(target, str):
            cand = np.array([rng.uniform(0, cfg.region[0]), rng.uniform(0, cfg.region[1])])
            if all(distance(cand, q) >= r for q, r in zip(points, radii)):
                target = cand
        targets.append(target)
        if p.draw is not None:
            p.draw(p.noise[si], rng)
        shadows.append(rng.normal(0.0, 1.0, len(p.ranged)))
    return np.array(targets), np.array(shadows)


def stacked_draws(monkeypatch, p, pairs: list) -> tuple[np.ndarray, np.ndarray]:
    """The targets and shadowing a chunk of ``pairs`` ranges, as ``range_stack`` gets
    them; the chunk's truths are its targets."""
    seen = []

    def spy(points, targets, shadows, *rest):
        seen.append((targets, shadows))
        return range_stack(points, targets, shadows, *rest)

    monkeypatch.setattr(harness, "range_stack", spy)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        truths = p.stack(p, pairs)[0]
    ((targets, shadows),) = seen
    assert truths.tobytes() == targets.tobytes()
    return targets, shadows


@pytest.mark.parametrize(
    "kind, changes",
    [
        ("rss", {}),
        ("rss", {"target": "random"}),
        # 7,000 dB: the row's shadowing std underflows to 0, and its trials still draw
        ("rss", {"target": "random", "trials": 40, "snr_grid_db": [1.0, 7000.0]}),
        ("hybrid", {"target": "random", "trials": 40, "snr_grid_db": [10.0, 20.0]}),
    ],
    ids=["rss-fixed", "rss-random", "rss-unshadowed-row", "hybrid-random"],
)
@pytest.mark.parametrize("size", [harness.ARRAY_PASS - 1, harness.ARRAY_PASS, 30])
def test_chunk_draws_equal_looped_draws(monkeypatch, kind, changes, size):
    # chunks that cross a row, under ARRAY_PASS pairs (streams one at a time) and at or
    # past it (one array pass); a random target's rejection draws vary per trial
    cfg = scenario(**changes) if kind == "rss" else hybrid_scenario("single", **changes)
    p = harness._pipeline(cfg, kind)
    pairs = sweep_pairs(cfg)[cfg.trials - 3 :][:size]
    assert len(pairs) == size and pairs[0][0] != pairs[-1][0]
    targets, shadows = stacked_draws(monkeypatch, p, pairs)
    assert isinstance(shadows, np.ndarray) and shadows.shape == (size, len(p.ranged))
    oracle_targets, oracle_shadows = looped_draws(p, pairs)
    assert targets.tobytes() == oracle_targets.tobytes()
    assert shadows.tobytes() == oracle_shadows.tobytes()
    rows = np.array([si for si, _ in pairs])
    if 7000.0 in cfg.snr_grid_db:
        assert p.sigma_db[1] == 0.0 and np.all(shadows[rows == 1] != 0.0)
    if isinstance(cfg.target, str):  # distinct draws, not one target repeated
        assert len(np.unique(targets, axis=0)) == size


def test_a_drawn_negative_zero_shadowing_term_reads_positive_zero():
    # Generator.normal(0.0, 1.0) returns 0.0 + 1.0 * z, so a standard normal of -0.0
    # reads +0.0; the chunk's in-place fill adds the 0.0 itself
    class NegativeZeros:
        def standard_normal(self, out):
            out[...] = -0.0

    shadows = harness._draw_shadows([NegativeZeros(), NegativeZeros()], 3)
    assert shadows.shape == (2, 3) and not np.signbit(shadows).any()


def assert_same_outcome(chunked, alone):
    """A trial stacked in a chunk and in its row alone: the same failure class and
    message, or the same estimate, truth and error bytes."""
    assert type(chunked) is type(alone)
    if isinstance(alone, WsnlocError):
        assert str(chunked) == str(alone)
    else:
        assert chunked.estimate.tobytes() == alone.estimate.tobytes()
        assert chunked.truth.tobytes() == alone.truth.tobytes()
        assert chunked.error.hex() == alone.error.hex()


def rows_alone(cfg: ScenarioConfig, kind: str) -> list:
    """Each row of the sweep stacked on its own, in row-major order."""
    p = harness._pipeline(cfg, kind)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return [outcome for si in range(len(cfg.snr_grid_db)) for outcome in row(p, si)]


def outcomes_under(monkeypatch, cfg: ScenarioConfig, kind: str, budget: int) -> list:
    """Every outcome of the sweep of ``cfg`` compiled afresh under a ``ROW_VALUES`` of
    ``budget``, the chunks cut across rows, in row-major order: the chunks ``_outcomes``
    runs, each read by :func:`trial_outcomes`; the errors it yields must be theirs."""
    monkeypatch.setattr(harness, "ROW_VALUES", budget)
    p = harness._pipeline(dataclasses.replace(cfg), kind)
    chunks, stack = [], p.stack
    p.stack = lambda p, pairs: chunks.append(stack(p, pairs)) or chunks[-1]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        errors = list(harness._outcomes(p))
    outcomes = [outcome for chunk in chunks for outcome in trial_outcomes(chunk)]
    scored = [getattr(outcome, "error", math.nan) for outcome in outcomes]
    assert np.array_equal(scored, errors, equal_nan=True)
    return outcomes


def values_per_trial(cfg: ScenarioConfig, kind: str) -> int:
    """The values one trial draws, against ``ROW_VALUES``."""
    p = harness._pipeline(cfg, kind)
    return len(p.ranged) + (0 if p.node is None else p.geometry.size * cfg.snapshots)


# rss (80 dB of shadowing at 0 dB): ranges past the float range at -30 dB, overflowing
# variances and singular systems at 0 dB, a row at 12 dB and one without shadowing at
# 7,000 dB. hybrid: heavy shadowing at -20 dB, and no noise and no shadowing at 7,000 dB.
CROSSING = [("rss", estimator) for estimator in ESTIMATORS] + [
    ("hybrid", scheme) for scheme in HYBRID_SCHEMES
]


def crossing_scenario(kind: str, method: str, trials: int, grid: list) -> ScenarioConfig:
    if kind == "rss":
        channel = {"sigma_ref_db": 80.0}
        cfg = scenario(trials=trials, snr_grid_db=grid, target="random", channel=channel)
        return cfg.with_method(estimator=method)
    return hybrid_scenario(
        method, trials=trials, snr_grid_db=grid, target="random", channel={"sigma_ref_db": 30.0}
    )


@pytest.mark.parametrize("kind, method", CROSSING, ids=[f"{k}-{m}" for k, m in CROSSING])
def test_chunks_across_rows_equal_rows_alone(monkeypatch, kind, method):
    # chunks of 1, 4 and 7 trials end inside rows of 6 and cross into the next; 6 end
    # with each row; 10**9 values hold the whole sweep
    grid = [-30.0, 0.0, 12.0, 7000.0] if kind == "rss" else [-20.0, 10.0, 7000.0]
    cfg = crossing_scenario(kind, method, 6, grid)
    alone = rows_alone(cfg, kind)
    assert harness.TrialResult in {type(o) for o in alone}
    if kind == "rss":
        assert NonPositiveDistance in {type(o) for o in alone}
    per_trial = values_per_trial(cfg, kind)
    for budget in [per_trial, 4 * per_trial, 7 * per_trial + 3, 6 * per_trial, 10**9]:
        chunked_outcomes = outcomes_under(monkeypatch, cfg, kind, budget)
        assert len(chunked_outcomes) == len(alone)
        for one, other in zip(chunked_outcomes, alone):
            assert_same_outcome(one, other)


@settings(max_examples=40, deadline=None)
@given(
    case=st.sampled_from(CROSSING),
    grid=st.lists(st.sampled_from([-30.0, 0.0, 9.0, 7000.0]), min_size=1, max_size=4),
    trials=st.integers(1, 6),
    size=st.integers(1, 25),
)
def test_any_chunking_equals_rows_alone(case, grid, trials, size):
    kind, method = case
    cfg = crossing_scenario(kind, method, trials, grid)
    alone = rows_alone(cfg, kind)
    with pytest.MonkeyPatch.context() as patch:
        chunked_outcomes = outcomes_under(patch, cfg, kind, size * values_per_trial(cfg, kind))
    assert len(chunked_outcomes) == len(alone) == len(grid) * trials
    for one, other in zip(chunked_outcomes, alone):
        assert_same_outcome(one, other)


@pytest.mark.parametrize("estimator", ["wls", "huber"])
def test_chunk_mixes_rows_with_and_without_shadowing(monkeypatch, estimator):
    # at 7,000 dB the shadowing std underflows to 0: WLS weighs that row's ranges all
    # alike and Huber starts it from LS, while the 0 dB row is weighted
    cfg = scenario(trials=12, snr_grid_db=[0.0, 7000.0]).with_method(estimator=estimator)
    p = harness._pipeline(cfg, "rss")
    assert p.sigma_db[1] == 0.0 < p.sigma_db[0]
    alone = rows_alone(cfg, "rss")
    irls = recording(monkeypatch, rss, "huber_stack")
    weights = recording(monkeypatch, rss, "wls_row_weights")
    chunk = trial_outcomes(p.stack(p, sweep_pairs(cfg)))
    for one, other in zip(chunk, alone, strict=True):
        assert_same_outcome(one, other)
    by_row = {args[0].sigma_db: w for args, (w, _) in weights}
    assert np.all(by_row[p.sigma_db[0]] != 1.0)
    if estimator == "wls":
        assert np.all(by_row[0.0] == 1.0)
        assert irls == []
        return
    assert list(by_row) == [p.sigma_db[0]]  # the unshadowed row is never weighted
    # one weighted stack of row 0 (a, b, epsilon, weights, failed), one unweighted of row 1
    assert [(len(args), len(args[1])) for args, _ in irls] == [(5, 12), (3, 12)]
    # a chunk holds at most two IRLS loops: 24 pairs in chunks of 5, one of which crosses
    irls.clear()
    list(harness._outcomes(dataclasses.replace(p, chunk=5)))
    assert [len(args[1]) for args, _ in irls] == [5, 5, 2, 3, 5, 4]


@pytest.mark.parametrize("scheme", HYBRID_SCHEMES)
def test_chunk_mixes_noisy_and_noiseless_rows(scheme):
    # at 7,000 dB the noise power underflows to 0, so those trials draw no noise (and
    # no shadowing), next to the noisy 10 dB row in one chunk
    cfg = hybrid_scenario(scheme, trials=4, snr_grid_db=[10.0, 7000.0])
    p = harness._pipeline(cfg, "hybrid")
    amplitudes = np.ones(1) if p.sources is None else np.append(1.0, p.sources.amplitudes)
    assert p.noise == (noise_power(amplitudes, 10.0), 0.0)  # each row's, worked out once
    for sigma2, noiseless in zip(p.noise, [False, True]):
        rng = np.random.default_rng(0)
        noise = draw_signals(amplitudes, False, p.geometry.size, cfg.snapshots, sigma2, rng)[1]
        assert (noise is None) == noiseless
    alone = rows_alone(cfg, "hybrid")
    chunk = trial_outcomes(p.stack(p, sweep_pairs(cfg)))
    for one, other in zip(chunk, alone, strict=True):
        assert_same_outcome(one, other)
    assert harness.TrialResult in {type(o) for o in chunk}


# --- an independent oracle for the stacked hybrid row ----------------------------------
# Each hybrid trial written out on its own, sharing no code with the row's stacked
# kernels (music_peaks, single_node_stack, two_lines_stack, bearing_midpoint and
# fbss_bearing): an inline MUSIC scan with a point-by-point peak search, and fusion in
# scalar arithmetic with every 2-vector product written out.


def oracle_music(q: np.ndarray, geometry, n_sources: int, step: float) -> np.ndarray:
    """The sorted azimuths of the n_sources largest strict peaks of the MUSIC spectrum on
    a full circle of the covariance whose descending eigenbasis is ``q``, scanned in the
    noise form a^H a / ||Vn^H a||^2 whatever the subspaces' sizes; equal powers resolve
    toward the smaller angle."""
    grid = np.arange(-np.pi + step, np.pi + step / 2, step)
    a = geometry.steering(grid)
    num = np.sum(np.abs(a) ** 2, axis=0)
    noise = q[:, n_sources:]
    power = num / np.maximum(np.sum(np.abs(noise.conj().T @ a) ** 2, axis=0), 1e-300)
    g = grid.size
    peaks = sorted(
        (-power[i], grid[i])
        for i in range(g)
        if power[i] > power[i - 1] and power[i] > power[(i + 1) % g]
    )
    if len(peaks) < n_sources:
        raise NoPeaksFound(f"found {len(peaks)} spectral peaks, need {n_sources}")
    wrap = grid[-1] > np.pi + 1e-9  # the last point lies past pi, beyond rounding
    chosen = [angle for _, angle in peaks[:n_sources]]
    return np.sort([angle - 2.0 * np.pi if wrap and angle > np.pi else angle for angle in chosen])


def oracle_ray_fusion(center, doa: float, positions, ranges, paths: list | None = None):
    """hybrid_single_node in scalar arithmetic: the first forward root of each ray/circle
    quadratic, else the projection of the circle's centre when it lies ahead; the hits
    summed in element order and divided by their count. ``paths`` collects which of
    "root", "projection" or "behind" each element took."""
    c, s = math.cos(doa), math.sin(doa)
    norm = math.sqrt(c * c + s * s)
    dx, dy = c / norm, s / norm
    ox, oy = float(center[0]), float(center[1])
    hits = []
    for (px, py), radius in zip(positions, ranges):
        rx, ry = float(px) - ox, float(py) - oy
        mid = rx * dx + ry * dy
        disc = mid * mid - (rx * rx + ry * ry) + float(radius) * float(radius)
        roots = [mid - math.sqrt(disc), mid + math.sqrt(disc)] if disc >= 0.0 else []
        ahead = [t for t in roots if t > 0.0]
        path = "root" if ahead else ("projection" if mid > 0.0 else "behind")
        if paths is not None:
            paths.append(path)
        if path != "behind":
            t = ahead[0] if ahead else mid
            hits.append((ox + t * dx, oy + t * dy))
    if not hits:
        raise AllIntersectionsFailed("no element circle intersects the bearing ray")
    sx, sy = hits[0]
    for hx, hy in hits[1:]:
        sx, sy = sx + hx, sy + hy
    return np.array([sx / len(hits), sy / len(hits)])


def oracle_midpoint(center, fix, doa: float) -> np.ndarray:
    """bearing_midpoint in scalar arithmetic."""
    cx, cy, fx, fy = float(center[0]), float(center[1]), float(fix[0]), float(fix[1])
    radius = math.sqrt((fx - cx) * (fx - cx) + (fy - cy) * (fy - cy))
    px, py = cx + radius * math.cos(doa), cy + radius * math.sin(doa)
    return np.array([0.5 * (fx + px), 0.5 * (fy + py)])


def oracle_fbss_pick(center, azimuths, fix) -> float:
    """fbss_bearing one estimate at a time: the first nearest the fix's bearing."""
    implied = bearing_to(center, fix)
    gaps = [abs((float(a) - implied + math.pi) % (2.0 * math.pi) - math.pi) for a in azimuths]
    return float(azimuths[gaps.index(min(gaps))])


def oracle_two_lines(center, anchor, d_anchor: float, d_hybrid: float, doa: float) -> np.ndarray:
    """two_lines with its sums of squares written out; the 2x2 system solved by LAPACK."""
    (hx, hy), (ax, ay) = map(float, center), map(float, anchor)
    s, c = math.sin(doa), math.cos(doa)
    c_mat = np.array([[hx - ax, hy - ay], [s, -c]])
    squares = hx * hx + hy * hy - (ax * ax + ay * ay)
    d_vec = np.array([0.5 * (squares + d_anchor * d_anchor - d_hybrid * d_hybrid), s * hx - c * hy])
    (c00, c01), (c10, c11) = c_mat
    norm = math.sqrt(c00 * c00 + c01 * c01 + c10 * c10 + c11 * c11)
    if abs(np.linalg.det(c_mat)) < 1e-12 * max(norm, 1.0):
        raise SingularFusionMatrix("bearing line is parallel to the line of position")
    return np.linalg.solve(c_mat, d_vec)


def oracle_hybrid_trial(cfg: ScenarioConfig, snr_index: int, trial_index: int) -> tuple:
    """One hybrid trial as its own pass would run it, every failure in its order: its
    sources, its ranges (fbss), its covariance, its spectrum, its ranges, its fix, its
    fusion and its score."""
    scheme, snr_db, node = cfg.method["hybrid"], cfg.snr_grid_db[snr_index], cfg.node
    gen_model, inv_model = cfg.channel_at(snr_db, eta=cfg.eta_true), cfg.channel_at(snr_db)
    step = math.radians(cfg.method["grid_step_deg"])
    rng = rng_for_trial(cfg.seed, snr_index, trial_index)
    target = cfg.target
    clear = max(cfg.d0, 3.0 * node.geometry.radius)
    anchors = [] if cfg.anchors is None else list(cfg.anchors)
    while isinstance(target, str):  # a random target, drawn clear of the node and anchors
        cand = np.array([rng.uniform(0, cfg.region[0]), rng.uniform(0, cfg.region[1])])
        if distance(cand, node.center) >= clear and all(
            distance(cand, a) >= cfg.d0 for a in anchors
        ):
            target = cand
    bearing = bearing_to(node.center, target)
    if scheme == "fbss":  # raises CoincidentSources for a target on an interferer's bearing
        azimuths = [bearing, *cfg.interferers.azimuths]
        src = SourceSet(azimuths, [1.0, *cfg.interferers.amplitudes], coherent=True)
    else:
        src = SourceSet([bearing])
    x = synthesize_snapshots(node.geometry, src, cfg.snapshots, snr_db, rng)
    positions = node.element_positions
    ranged = {
        "ls": lambda: np.vstack([cfg.anchors, node.center]),
        "wls": lambda: np.vstack([cfg.anchors, node.center]),
        "two-lines": lambda: np.vstack([cfg.anchors[:1], positions]),
    }.get(scheme, lambda: positions)()
    diff = ranged - target
    d = invert_distance(path_loss(np.hypot(diff[:, 0], diff[:, 1]), gen_model, rng), inv_model)
    usable = np.all((d > 0) & (d < math.inf))
    if scheme == "fbss":
        if not usable:
            raise NonPositiveDistance("range out of the float range")
        transform = build_transform(node.geometry)
        plan = SmoothingPlan.design(
            transform.vula_size, src.count, cfg.method.get("subarray_len"), forward_backward=True
        )
        r = fbss(sample_covariance(to_vula(x, transform)), plan)
        scan = VandermondeArray(plan.subarray_len)
    else:
        r, scan = sample_covariance(x), node.geometry
    q = herm_eig(r)[1]
    peaks = oracle_music(q, scan, src.count, step)
    if not usable:
        raise NonPositiveDistance("range out of the float range")
    if scheme in ("ls", "wls", "fbss"):
        lop = geometry.lop_matrix(ranged)
        a, b = lop.A, d[:-1] ** 2 - d[-1] ** 2 + lop.ref_sq - lop.pts_sq
        weights = wls_weights(inv_model, d) if scheme == "wls" else None
        fix = lop_oracle.normal_solve(a, b, weights)
    if scheme == "single":
        est = oracle_ray_fusion(node.center, float(peaks[0]), positions, d)
    elif scheme == "fbss":
        chosen = oracle_fbss_pick(node.center, peaks, fix)
        est = oracle_ray_fusion(node.center, chosen, positions, d)
    elif scheme in ("ls", "wls"):
        est = oracle_midpoint(node.center, fix, float(peaks[0]))
    else:
        pooled = float(np.mean(d[1:]))
        est = oracle_two_lines(node.center, cfg.anchors[0], float(d[0]), pooled, float(peaks[0]))
    error = distance(est, target)
    if not math.isfinite(error):
        raise NumericOverflow("estimate out of the float range")
    return est, target, error


def check_oracle_rows(cfg: ScenarioConfig) -> list[type]:
    """Every stacked row of ``cfg`` against the oracle, trial by trial; returns the
    outcome classes."""
    p = harness._pipeline(cfg, "hybrid")
    classes = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for si in range(len(cfg.snr_grid_db)):
            for ti, batched in enumerate(row(p, si)):
                assert_same(batched, outcome(oracle_hybrid_trial, cfg, si, ti))
                classes.append(type(batched))
    return classes


# (config, scheme): every scheme on the 4-element node; the 16-element one has no anchors
ORACLE_SWEEPS = [("hybrid_single", scheme) for scheme in HYBRID_SCHEMES] + [
    ("hybrid_coherent_fbss", "single"),
    ("hybrid_coherent_fbss", "fbss"),
]
ORACLE_IDS = [f"{config}-{scheme}" for config, scheme in ORACLE_SWEEPS]


@pytest.mark.parametrize("config, scheme", ORACLE_SWEEPS, ids=ORACLE_IDS)
@pytest.mark.parametrize("seed", [0, 7, 1806])
def test_hybrid_rows_equal_the_oracle(config, scheme, seed):
    cfg = load_config(CONFIGS / f"{config}.json")
    cfg = dataclasses.replace(cfg, seed=seed, trials=4, snr_grid_db=cfg.snr_grid_db[::4])
    assert set(check_oracle_rows(cfg.with_method(hybrid=scheme))) == {harness.TrialResult}


@pytest.mark.parametrize("config, scheme", ORACLE_SWEEPS, ids=ORACLE_IDS)
def test_hybrid_rows_fail_as_the_oracle(config, scheme):
    # random targets under heavy shadowing: ranges at 0 or infinity, estimates out of the
    # float range, and (at -3070 dB) covariances that overflow
    raw = json.loads((CONFIGS / f"{config}.json").read_text())
    raw.update(target="random", trials=20, snr_grid_db=[-3070.0, -20.0, -5.0, 10.0])
    raw["channel"]["sigma_ref_db"] = 300.0
    cfg = ScenarioConfig.from_dict(raw).with_method(hybrid=scheme)
    classes = set(check_oracle_rows(cfg))
    assert {NonPositiveDistance, NumericOverflow} <= classes


def test_single_node_stack_falls_back_to_projection_or_fails_as_the_oracle():
    # ranges shorter than an element's distance from the ray leave the projection of its
    # centre; a ray with no direction lies behind every circle. On a ring, some element
    # always lies ahead of a finite bearing, so no finite one misses every circle.
    ring = UniformCircularArray(n=4, radius=0.15, elevation=np.pi / 2, wavelength=0.3)
    node = hybrid.HybridNode([2.0, -1.0], ring)
    rng = np.random.default_rng(3)
    doas = np.concatenate([rng.uniform(-np.pi, np.pi, 40), [np.nan]])
    ranges = 10.0 ** rng.uniform(-3, 1, (41, 4))
    fused, failed = hybrid.single_node_stack(node, doas, ranges)
    paths = []
    for est, fail, doa, d in zip(fused, failed, doas, ranges):
        looped = outcome(oracle_ray_fusion, node.center, doa, node.element_positions, d, paths)
        if isinstance(looped, WsnlocError):
            assert type(fail) is type(looped) is AllIntersectionsFailed
            assert np.all(np.isnan(est))
        else:
            assert fail is None and est.tobytes() == looped.tobytes()
    assert {"root", "projection", "behind"} <= set(paths)
    assert failed[-1] is not None and all(f is None for f in failed[:-1])


def test_ray_circle_point_equals_the_oracle():
    # the one-circle form, a stack of one, on random rays and circles, behind ones included
    rng = np.random.default_rng(4)
    paths = []
    for _ in range(200):
        origin, center = rng.uniform(-5, 5, 2), rng.uniform(-5, 5, 2)
        doa, radius = rng.uniform(-np.pi, np.pi), 10.0 ** rng.uniform(-2, 1)
        looped = outcome(oracle_ray_fusion, origin, doa, [center], [radius], paths)
        got = outcome(hybrid.ray_circle_point, origin, doa, center, radius)
        if isinstance(looped, WsnlocError):
            assert isinstance(got, BehindRay)
        else:
            assert got.tobytes() == looped.tobytes()
    assert set(paths) == {"root", "projection", "behind"}


def test_equal_power_peaks_resolve_toward_the_smaller_angle():
    # A real eigenbasis of a 3-element virtual array scanned every 90 degrees. With one
    # source the scan takes the signal column (1, 0, -1)/sqrt(2), with two the noise
    # column (1, 0, 1)/sqrt(2); either way the spectrum at -90 and +90 degrees is one
    # value, and both are peaks.
    q = np.array([[1.0, 0.0, 1.0], [0.0, math.sqrt(2.0), 0.0], [-1.0, 0.0, 1.0]], dtype=complex)
    q /= math.sqrt(2.0)
    scan, step = VandermondeArray(3), np.pi / 2
    a = scan.steering(np.arange(-np.pi + step, np.pi + step / 2, step))
    num = np.sum(np.abs(a) ** 2, axis=0)
    den = num - np.abs(q[:, :1].conj().T @ a)[0] ** 2  # the signal form, inline
    assert num[0] == num[2] and den[0] == den[2] and den[0] < den[1]
    stack = np.stack([q, q])
    azimuths, failed = music_peaks(stack, scan, 1, step)
    assert list(failed) == [None, None]
    assert azimuths.tobytes() == np.array([[-np.pi / 2]] * 2).tobytes()
    assert azimuths[0].tobytes() == oracle_music(q, scan, 1, step).tobytes()
    both, _ = music_peaks(stack, scan, 2, step)
    assert both[0].tolist() == [-np.pi / 2, np.pi / 2]
    assert both[0].tobytes() == oracle_music(q, scan, 2, step).tobytes()
    # a noise column (1, 1, 0)/sqrt(2) leaves one peak, at 180 degrees, for two sources
    q = np.array([[1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], [0.0, math.sqrt(2.0), 0.0]], dtype=complex)
    q /= math.sqrt(2.0)
    _, failed = music_peaks(np.stack([q, q]), scan, 2, step)
    assert all(isinstance(f, NoPeaksFound) for f in failed)
    assert [str(f) for f in failed] == ["found 1 spectral peaks, need 2"] * 2
    with pytest.raises(NoPeaksFound):
        oracle_music(q, scan, 2, step)


def target_bearing_in_degrees(cfg: ScenarioConfig, snr_index: int, trial_index: int) -> float:
    """A value in degrees whose radians are the bearing of the target a trial draws."""
    p = harness._pipeline(cfg, "hybrid")
    target = harness._draw_target(p, rng_for_trial(cfg.seed, snr_index, trial_index))
    bearing = bearing_to(p.node.center, target)
    deg = math.degrees(bearing)
    for _ in range(64):
        if np.radians(deg) == bearing:
            return deg
        deg = np.nextafter(deg, math.inf if np.radians(deg) < bearing else -math.inf)
    raise AssertionError("no degree value maps onto the bearing")


def test_random_target_on_an_interferer_bearing_fails_its_trial():
    cfg = hybrid_scenario("fbss", target="random", trials=6, snr_grid_db=[10.0, 20.0])
    deg = target_bearing_in_degrees(cfg, 1, 4)
    cfg = hybrid_scenario(
        "fbss", target="random", trials=6, snr_grid_db=[10.0, 20.0], interferers_deg=[deg, 32.0]
    )
    classes = check_oracle_rows(cfg)
    assert classes[6 + 4] is CoincidentSources
    assert classes.count(CoincidentSources) == 1
    result = monte_carlo(cfg, "hybrid")
    assert result.rows[1].failures_by_class == (("CoincidentSources", 1),)
