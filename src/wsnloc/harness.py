"""Seeded Monte-Carlo experiment harness: it compiles a scenario, dispatches its
trials to the library's kernels and counts their outcomes.

A scenario is loaded and checked by :mod:`wsnloc.config`. Four experiment
kinds exist, matching the CLI subcommands:

* ``rss``    - trilateration from RSS ranging, position RMSE vs SNR.
* ``doa``    - array DOA estimation, angular RMSE vs SNR.
* ``hybrid`` - RSS+DOA fusion around one hybrid node, position RMSE vs SNR.
* ``spectrum`` - one seeded MUSIC spectrum dump (angle_deg, power_db).

A scenario is compiled once per kind into a :class:`Pipeline`, which checks that the
kind has the parts it needs and every method/geometry combination, and builds what
all trials share; a trial then only draws randomness and calls kernels, through one
table, :data:`_STEPS`. doa and hybrid share one array front end,
:func:`_front_end`: the ring's phase-mode beamspace, the smoothing plan, the
geometry MUSIC scans (its grid must be able to show a peak per source) and the
draws. A config that cannot run is a :class:`ConfigError` there, before any trial:
an anchor layout that every trial's trilateration would reject, sources whose
power, or an SNR row whose noise power, leaves the float range, a trial that would
hold more than :data:`SIZE_BUDGET` complex values in its snapshots, its covariance
or its MUSIC scan, or more than :data:`SIZE_BUDGET` trials per SNR row, whose
errors :func:`monte_carlo` holds as one float64 array.

rss and hybrid trials run in chunks of the whole sweep: the (snr_index,
trial_index) pairs taken in row-major order, as many as draw at most
:data:`ROW_VALUES` values (shadowing terms, plus complex snapshot values for
hybrid) and at least one, so a chunk's memory does not grow with ``trials`` or
the grid, and a row does not end a chunk: 4,096 trials of a 4-anchor rss
sweep, 40 of the 4-element, 100-snapshot hybrid ring and 10 of a 16-element
one. Each trial draws on its own stream, at its own row's SNR; the chunk hands
its draws to the library's stack kernels, which give each trial the bits of
its own pass, and returns arrays: its (T, 2) truths and estimates, its (T,)
errors, NaN exactly where a trial failed, and its (T,) failures.
:func:`run_trial` is a chunk of one pair. doa trials run one at a time through
:func:`run_trial`, in row-major order. ``workers`` is still ignored.

Randomness: every trial owns an independent PCG64 stream, documented as
:func:`rng_for_trial`, ``SeedSequence(entropy=seed, spawn_key=(snr_index,
trial_index))``, so results are bit-identical across reruns and do not
depend on the order in which trials run or on how many share a chunk. Trials
draw on streams derived from it bit for bit: numpy's ``SeedSequence(seed,
spawn_key=(snr_index,))`` mixes each row's pool once (:func:`_row_pool`),
each trial mixes only its own index word into its row's pool and hashes its
PCG64 seed words out of it (:func:`_lane`), and numpy seeds a fresh PCG64
per trial from them. A chunk of :data:`ARRAY_PASS` pairs or more does this
for all its trials, rows included, in one pass of uint64 arrays
(:func:`_chunk_rngs`); a smaller chunk, :func:`run_trial` and each doa
trial do it one trial at a time on Python ints (:func:`_trial_rngs`). The
SNR axis drives both the array noise floor and the RSS shadowing std
through ``sigma_db = sigma_ref_db * 10^(-snr/20)``.

A failed trial (a spectrum without enough peaks at low SNR, a ray with no
forward intersection, a range or estimate that extreme shadowing drives out
of the float range, ...) is counted per SNR row, also by exception class,
and excluded from the RMSE; only a row where every trial fails raises
:class:`AllTrialsFailed`.
"""

import collections
import csv
import dataclasses
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import decorrelate
from .arrays import SourceSet, UniformCircularArray, coincident, draw_signals, noise_power
from .arrays import snapshots, steering_matrix
from .channel import lognormal_sigma_d, range_stack
from .config import ScenarioConfig, load_config  # bench/ reaches load_config here
from .doa import Spectrum, azimuth_error, capacity, covariance, esprit, music, music_peaks
from .doa import eigenbases, music_spectrum, root_music, scan_capacity, uca_esprit
from .doa import uca_root_music
from .errors import AllTrialsFailed, CoincidentSources, ConfigError, NonPositiveDistance
from .errors import NumericOverflow, WsnlocError
from .geometry import LopMatrix, as_anchor_array, bearing_to, distance, lop_matrix
from .hybrid import HybridNode, bearing_midpoint, fbss_bearing, single_node_stack, two_lines_pooled
from .pme import PmeTransform, VandermondeArray, build_transform
from .rss import MAX_CONDITION, huber_by_row, solve_stack, wls_weights_by_row

# Extreme shadowing drives ranges and estimates out of the float range; a trial fails
# on an explicit check of them and is counted, so numpy's warnings on the way there
# would only repeat that.
_QUIET = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}
_BAD_RANGE = "shadowing drove an estimated range to 0 or infinity"
_BAD_ESTIMATE = "the position estimate left the float range"
# most values (shadowing terms, complex snapshot values) one chunk draws: 40 trials of
# the 4-element, 100-snapshot hybrid ring, 10 of a 16-element one, so that each shipped
# hybrid chunk derives its streams in one array pass (ARRAY_PASS)
ROW_VALUES = 16384
# most complex values one trial's snapshots, its covariance or a MUSIC scan's steering
# matrix may hold (64 MiB); the shipped configs and tests stay under 600,000. Also the
# most trials per SNR row, whose errors monte_carlo holds as one float64 array (32 MiB)
SIZE_BUDGET = 1 << 22


@dataclass(frozen=True)
class TrialResult:
    estimate: np.ndarray
    truth: np.ndarray
    error: float


@dataclass(frozen=True)
class MonteCarloRow:
    """One SNR row; ``failures_by_class`` pairs each exception class name that failed
    a trial with its count, sorted by name (not written to the CSV)."""

    snr_db: float
    rmse: float
    trials: int
    failures: int
    failures_by_class: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class MonteCarloResult:
    unit: str  # "m" or "deg"
    rows: tuple[MonteCarloRow, ...]


def rng_for_trial(seed: int, snr_index: int, trial_index: int) -> np.random.Generator:
    """The documented per-trial stream: PCG64 keyed by (snr_index, trial_index)."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(snr_index, trial_index))
    return np.random.Generator(np.random.PCG64(seq))


# SeedSequence's uint32 hash-mix, as numpy's SeedSequence documents it after M. O'Neill,
# "Developing a seed_seq Alternative" (pcg-random.org, 2015). Written out (:func:`_lane`)
# so that each trial mixes only its own index word into the pool its row's SeedSequence
# leaves.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4  # SeedSequence's default pool size, in uint32 words
# generate_state's hash constants: its uint32 output words i and i + 4 (of 8) hash pool
# word i, with its i-th and (i + 1)-th and its (i + 4)-th and (i + 5)-th constants
_STATE = tuple(_INIT_B * _MULT_B**i & _MASK32 for i in range(2 * _POOL + 1))
_LANES = (_STATE[:_POOL], _STATE[1 : _POOL + 1], _STATE[_POOL:-1], _STATE[_POOL + 1 :])
ARRAY_PASS = 8  # fewest pairs whose streams one array pass derives faster than one by one


def _lane(p, w, x, m, s0, s1, s2, s3):
    """One pool word's part of a trial's PCG64 seed: the row's pool word ``p`` with the
    trial index word ``w`` hashed (with the hash constants ``x``, ``m``) and mixed in, as
    SeedSequence mixes entropy into its pool, then hashed into generate_state's two
    output words of it (with ``s0``, ``s1`` and ``s2``, ``s3``). It runs on Python ints
    (one trial) and on uint64 arrays (a chunk's trials) alike: a product of two uint32
    words fits in 64 bits, a difference that wraps below 0 keeps its low 32 bits, and
    the mask keeps only those."""
    h = (w ^ x) * m & _MASK32
    p = _MIX_L * p - _MIX_R * (h ^ h >> 16) & _MASK32
    p ^= p >> 16
    a, b = (p ^ s0) * s1 & _MASK32, (p ^ s2) * s3 & _MASK32
    return a ^ a >> 16, b ^ b >> 16


@functools.lru_cache(maxsize=64)
def _row_pool(seed: int, snr_index: int) -> tuple[tuple[int, ...], ...]:
    """:func:`_lane`'s arguments but the trial index word, for each of the 4 pool words
    of ``SeedSequence(seed, spawn_key=(snr_index, ...))`` once the seed and SNR-index
    words are mixed in: the pool words, the hash constants the trial index word is mixed
    into each with, and generate_state's constants. The pool is numpy's for the key
    ``(snr_index,)``; the hash constants have taken one step per hashed word: the 4
    padded seed words, the pool's 12 cross-mixes and 4 per uint32 word of the SNR
    index."""
    pool = np.random.SeedSequence(seed, spawn_key=(snr_index,)).pool
    steps = 16 + _POOL * max(1, -(-snr_index.bit_length() // 32))
    hc = tuple(_INIT_A * _MULT_A ** (steps + i) & _MASK32 for i in range(_POOL + 1))
    return tuple(pool.tolist()), hc[:-1], hc[1:], *_LANES


class _SeedWords(ISeedSequence):
    """Hands PCG64 the four uint64 seed words a trial's SeedSequence generates for it,
    so numpy still does PCG64's own seeding."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):  # PCG64 asks for 4 uint64 words
        return self.words


def _generator(words: np.ndarray) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_SeedWords(words)))


def _trial_rngs(seed: int, snr_index: int, trial_indices) -> Iterator[np.random.Generator]:
    """A fresh Generator per trial index, each in the state :func:`rng_for_trial` gives it,
    bit for bit: the row's seed and SNR-index words are mixed once (:func:`_row_pool`),
    each trial mixes only its own index word, on Python ints. An index that is not one
    uint32 word, which no sweep reaches, takes :func:`rng_for_trial` itself. The indices
    may be any integers that ``operator.index`` takes (numpy's included)."""
    snr_index = operator.index(snr_index)
    pool, *lanes = _row_pool(seed, snr_index)
    for ti in map(operator.index, trial_indices):
        if not 0 <= ti <= _MASK32:
            yield rng_for_trial(seed, snr_index, ti)
            continue
        (a0, b0), (a1, b1), (a2, b2), (a3, b3) = map(_lane, pool, itertools.repeat(ti), *lanes)
        words = [a0 | a1 << 32, a2 | a3 << 32, b0 | b1 << 32, b2 | b3 << 32]
        yield _generator(np.array(words, np.uint64))


def _chunk_rngs(seed: int, pairs: list) -> list[np.random.Generator]:
    """:func:`_trial_rngs` for each (snr_index, trial_index) pair of a chunk. From
    :data:`ARRAY_PASS` pairs on, where every trial index is one uint32 word, that is one
    pass of uint64 arrays over the pairs, rows included: each pair gathers its row's
    :func:`_row_pool`, and :func:`_lane` takes the (T, 4) pool words to the (T, 8)
    uint32 words of the trials' states, two to each PCG64 seed word. Fewer pairs go one
    at a time, on Python ints."""
    rows, trials = zip(*pairs)
    if len(pairs) < ARRAY_PASS or max(trials) > _MASK32:
        return [rng for si, ti in pairs for rng in _trial_rngs(seed, si, [ti])]
    keys = sorted(set(rows))
    table = np.array([_row_pool(seed, k) for k in keys], np.uint64)[np.searchsorted(keys, rows)]
    pool, *lanes = table.transpose(1, 0, 2)  # each (T, 4)
    v = np.hstack(_lane(pool, np.array(trials, np.uint64)[:, None], *lanes))
    return [_generator(words) for words in v[:, 0::2] | v[:, 1::2] << 32]


# --- pipelines ---------------------------------------------------------------


@dataclass
class Pipeline:
    """A scenario compiled for one kind. rss and hybrid run a chunk of (snr_index,
    trial_index) pairs, in row-major order, through ``stack(pipeline, pairs)``, which
    returns the chunk's truths, estimates, errors and failures (:func:`_score`); doa runs
    one trial through ``trial(pipeline, snr_index, rng)``. The method's parts come from
    :data:`_STEPS`: ``fix`` trilaterates a chunk's ranges (rss, hybrid ls/wls/fbss),
    ``step`` is the doa estimator or the hybrid fusion, and ``prepare`` the doa
    covariance and its decorrelation. The other fields are what all trials share,
    ``None`` where a kind has no use for them."""

    cfg: ScenarioConfig
    grid_step: float  # MUSIC grid step, radians
    stack: Callable | None = None
    trial: Callable | None = None
    step: Callable | None = None  # doa estimator, hybrid fusion
    fix: Callable | None = None  # rss, hybrid ls/wls/fbss: a chunk's fixes as one stack
    chunk: int = 1  # most pairs one stack call takes
    models: tuple = ()  # per SNR (rss, hybrid): the (generating, inverting) channel pair
    inverting: tuple = ()  # per SNR (rss, hybrid): the inverting model of each pair
    sigma_db: np.ndarray | None = None  # per SNR (rss, hybrid): both models' shadowing std
    clearance: tuple = ((), ())  # points a random target keeps clear of, and radii
    prepare: Callable | None = None
    draw: Callable | None = None  # doa, hybrid: a trial's waveforms and noise (draw_signals)
    geometry: Any = None  # the array (doa) or the hybrid ring
    sources: SourceSet | None = None  # doa sources, or the hybrid node's interferers
    transform: PmeTransform | None = None
    plan: decorrelate.SmoothingPlan | None = None  # doa fss/fbss, hybrid fbss
    scan: Any = None  # the geometry MUSIC and Root-MUSIC see after preprocessing
    node: HybridNode | None = None
    ranged: np.ndarray | None = None  # (k, 2) points a trial ranges the target from
    lop: LopMatrix | None = None  # rss, hybrid ls/wls/fbss: the LOP matrix of p.ranged
    steer: np.ndarray | None = None  # doa: the (N, M) steering matrix of the sources
    truth: np.ndarray | None = None  # doa: the sources' azimuths, sorted, radians
    truth_deg: np.ndarray | None = None  # doa: the same in degrees


def _clearance(cfg: ScenarioConfig, points: list, radii: list, ranged=()) -> tuple[list, list]:
    """Check the target setting; add the anchors to the points a random target keeps clear of.
    A fixed target may not sit on any of those points or on the other ``ranged`` points."""
    if not isinstance(cfg.target, np.ndarray) and cfg.target != "random":
        raise ConfigError("scenario needs a 'target' (coordinates or 'random')")
    anchors = [] if cfg.anchors is None else list(cfg.anchors)
    points, radii = points + anchors, radii + [cfg.d0] * len(anchors)
    if isinstance(cfg.target, np.ndarray):
        for q in [*points, *ranged]:
            if distance(cfg.target, q) == 0.0:
                raise ConfigError(f"target {cfg.target.tolist()} sits on ranging point {q.tolist()}")
    return points, radii


def _per_row(cfg: ScenarioConfig, quantity: str, fn: Callable) -> tuple:
    """``fn(snr_db)`` for each row of the SNR grid, worked out at compile: an SNR so far
    out that the row's ``quantity`` leaves the float range is a config error, not an
    ``OverflowError`` in a trial."""
    rows = []
    for snr in cfg.snr_grid_db:
        try:
            rows.append(fn(snr))
        except OverflowError as exc:
            raise ConfigError(f"snr {snr:g} dB puts the {quantity} out of the float range") from exc
    return tuple(rows)


def _channels(p: Pipeline, cfg: ScenarioConfig) -> None:
    """Each row's (generating, inverting) channel pair: ``eta_true``, when set, generates
    the path losses; ranging inverts them with ``eta``. The rows' pairs differ only in
    their shadowing std, which ``p.sigma_db`` holds per row."""
    p.models = _per_row(
        cfg, "shadowing std", lambda snr: (cfg.channel_at(snr, eta=cfg.eta_true), cfg.channel_at(snr))
    )
    p.inverting = tuple(inverting for _, inverting in p.models)
    p.sigma_db = np.array([inverting.sigma_db for inverting in p.inverting])


def _trilateration(points, ls: bool, inverting) -> LopMatrix:
    """The LOP matrix of ``points`` (collinear ones raise). An ``A^T A`` that every
    unweighted solve rejects is a config error for an ``ls`` fix, and for a weighted one
    if any row's ``inverting`` channel has no shadowing: there WLS weighs every range
    alike and Huber starts from LS. Other weighted solves check their own drawn
    weights."""
    lop = lop_matrix(points)
    if lop.gram_cond > MAX_CONDITION:
        cond = f"cond(A^T A) {lop.gram_cond:.3g}"
        if ls:
            raise ConfigError(f"anchor layout ill-conditioned for LS: {cond}")
        if any(lognormal_sigma_d(model) == 0.0 for model in inverting):
            raise ConfigError(
                f"anchor layout ill-conditioned for the unweighted fix of a row without "
                f"shadowing: {cond}"
            )
    return lop


def _check_size(p: Pipeline, geometry, scans: bool) -> None:
    """A config error where one trial's snapshots (elements x snapshots), its covariance
    (elements x elements, which also bounds a ring's beamspace transform) or, where the
    method ``scans``, the MUSIC scan's steering matrix (elements x grid points, the field
    of view over the grid step) would hold more than :data:`SIZE_BUDGET` complex values.
    It runs before any of them, or the transform, is built."""
    n = geometry.size
    sizes = {"snapshot matrix": n * p.cfg.snapshots, "covariance": n * n}
    if scans:
        lo, hi = geometry.fov
        sizes["MUSIC scan"] = n * math.ceil((hi - lo) / p.grid_step)
    for what, count in sizes.items():
        if count > SIZE_BUDGET:
            raise ConfigError(
                f"a trial's {what} on {n:,} elements holds {count:,} complex values, "
                f"over the budget of {SIZE_BUDGET:,}"
            )


def _compile_rss(p: Pipeline, cfg: ScenarioConfig) -> None:
    if cfg.anchors is None or cfg.anchors.shape[0] < 3:
        raise ConfigError("rss scenario needs at least 3 anchors")
    p.stack, p.fix = _rss_stack, _STEPS["estimator", cfg.method["estimator"]]
    p.ranged = cfg.anchors
    p.chunk = max(1, ROW_VALUES // len(p.ranged))
    p.clearance = _clearance(cfg, [], [])
    _channels(p, cfg)
    p.lop = _trilateration(cfg.anchors, cfg.method["estimator"] == "ls", p.inverting)


def _front_end(
    p: Pipeline, geometry, method: str, prep: str, name: str, amplitudes, coherent: bool
) -> None:
    """What every trial of an array kind (doa, hybrid) shares to estimate its bearings,
    built once on the ``geometry``: ``method`` estimates them, after spatial smoothing
    where ``prep`` is fss or fbss, and ``name`` is what a capacity error names. The
    trials draw ``len(amplitudes)`` sources of these ``amplitudes``, one shared waveform
    if ``coherent``; their power, and each row's noise power, must be floats. A ring
    reaches smoothing, and every estimator but MUSIC, only through its phase-mode
    beamspace, whose 2h+1-element virtual array is then what the estimator works on.
    Builds ``p.transform``, ``p.plan``, ``p.scan`` (a MUSIC scan must be able to show
    a peak per source, :func:`doa.scan_capacity`) and ``p.draw``."""
    count, ring = len(amplitudes), isinstance(geometry, UniformCircularArray)
    with np.errstate(over="ignore"):  # a check; each trial's draw redoes it
        _per_row(p.cfg, "noise power", lambda snr: noise_power(amplitudes, snr))
    smoothed = prep in ("fss", "fbss")
    if ring and (smoothed or method != "music"):
        p.transform = build_transform(geometry)
    size = geometry.size if p.transform is None else p.transform.vula_size
    most = capacity(method, size)
    if count > most:
        raise ConfigError(f"{name} resolves at most {most} sources, not {count}")
    p.geometry = p.scan = geometry
    if smoothed:
        p.plan = decorrelate.SmoothingPlan.design(
            size, count, p.cfg.method.get("subarray_len"), forward_backward=prep == "fbss"
        )
        sub = p.plan.subarray_len
        p.scan = VandermondeArray(sub) if ring else dataclasses.replace(geometry, n=sub)
    if method == "music":  # the scan must be able to show a peak per source
        most = scan_capacity(p.scan, p.grid_step)
        if count > most:
            step = p.cfg.method["grid_step_deg"]
            raise ConfigError(f"a {step:g} deg MUSIC grid shows at most {most} peaks, not {count}")
    p.draw = functools.partial(draw_signals, amplitudes, coherent, geometry.size, p.cfg.snapshots)


def _compile_doa(p: Pipeline, cfg: ScenarioConfig) -> None:
    """Linear arrays smooth (or Toeplitz-rebuild) their own covariance;
    circular arrays reach spatial smoothing only through the phase-mode
    beamspace, and Toeplitz reconstruction is not offered for them."""
    if cfg.array is None or cfg.sources is None:
        raise ConfigError("doa scenario needs an 'array' and a 'sources' section")
    method, prep = cfg.method["doa"], cfg.method["decorrelate"]
    _check_size(p, cfg.array, scans=method == "music")
    p.trial, p.step, p.prepare = _doa_trial, _STEPS["doa", method], _STEPS["decorrelate", prep]
    p.sources = sources = cfg.sources
    ring = isinstance(cfg.array, UniformCircularArray)
    if method != "music" and ring != method.startswith("uca-"):
        raise ConfigError(f"{method} does not run on a {'uca' if ring else 'ula'} array")
    if method not in ("music", "root-music") and prep != "none":
        raise ConfigError(f"{method} operates on raw snapshots; decorrelate must be none")
    if prep == "toeplitz" and ring:
        raise ConfigError("toeplitz preprocessing is only supported on ula arrays")
    _front_end(p, cfg.array, method, prep, method, sources.amplitudes, sources.coherent)
    # every trial's snapshots are p.steer @ s (+ noise), and its score compares its
    # sorted estimates with the sorted truths
    p.steer = steering_matrix(cfg.array, sources.azimuths)
    p.truth = np.sort(sources.azimuths)
    p.truth_deg = np.degrees(p.truth)  # every trial's TrialResult.truth
    for arr in (p.steer, p.truth, p.truth_deg):
        arr.flags.writeable = False


def _compile_hybrid(p: Pipeline, cfg: ScenarioConfig) -> None:
    """The ring scans the target's bearing; fbss also smooths out the interferers, the
    target signal's coherent copies, through the ring's phase-mode beamspace."""
    scheme = cfg.method["hybrid"]
    if cfg.node is None:
        raise ConfigError("hybrid scenario needs a 'hybrid_node' section")
    p.stack, p.step = _hybrid_stack, _STEPS["hybrid", scheme]
    p.node = node = cfg.node
    _check_size(p, node.geometry, scans=True)
    positions = node.element_positions
    radius = max(cfg.d0, 3.0 * node.geometry.radius)
    p.clearance = _clearance(cfg, [node.center], [radius], ranged=positions)
    _channels(p, cfg)
    needed = {"ls": 2, "wls": 2, "two-lines": 1}.get(scheme, 0)
    if (0 if cfg.anchors is None else cfg.anchors.shape[0]) < needed:
        raise ConfigError(f"{scheme} fusion needs at least {needed} RSS anchor(s)")
    if needed:
        as_anchor_array(np.vstack([cfg.anchors, node.center]))  # no anchor on the node
    if scheme in ("ls", "wls"):  # the anchors' circles, then the node's own
        p.ranged = np.vstack([cfg.anchors, node.center])
    elif scheme == "two-lines":  # anchor 0, then the ring elements
        p.ranged = np.vstack([cfg.anchors[:1], positions])
    else:
        p.ranged = positions
    p.chunk = max(1, ROW_VALUES // (len(p.ranged) + node.geometry.size * cfg.snapshots))
    # a trial's target signal, then (fbss) the interferers' coherent copies of it
    amplitudes = np.ones(1)
    if scheme == "fbss":
        p.sources = cfg.interferers
        amplitudes = np.concatenate([amplitudes, p.sources.amplitudes])
    # MUSIC on the ring; the scheme is the smoothing (fbss smooths) and the capacity's name
    _front_end(p, node.geometry, "music", scheme, scheme, amplitudes, p.sources is not None)
    if p.sources is not None and isinstance(cfg.target, np.ndarray):
        bearing = bearing_to(node.center, cfg.target)  # every trial sees the target on it
        if coincident(np.append(bearing, p.sources.azimuths)):
            bearing = math.degrees(bearing)
            raise ConfigError(f"target bearing {bearing:g} deg is an interferer's")
    if scheme in ("ls", "wls", "fbss"):  # the points fusion trilaterates from
        p.fix = _STEPS["estimator", "wls" if scheme == "wls" else "ls"]
        p.lop = _trilateration(p.ranged, scheme != "wls", p.inverting)


def _pipeline(cfg: ScenarioConfig, kind: str) -> Pipeline:
    """The scenario compiled for ``kind``, built on first use and cached on the config.
    Compiling draws no randomness, so whatever fails in it fails for the config alone
    and is reported as a :class:`ConfigError` (a ``KeyError`` means an unknown method)."""
    if kind not in _COMPILERS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    if kind not in cfg._pipelines:
        if cfg.trials > SIZE_BUDGET:  # monte_carlo holds each row's errors as one array
            raise ConfigError(f"{cfg.trials:,} trials per row, over the budget of {SIZE_BUDGET:,}")
        pipeline = Pipeline(cfg, math.radians(cfg.method["grid_step_deg"]))
        try:
            _COMPILERS[kind](pipeline, cfg)
        except ConfigError:
            raise
        except (KeyError, ValueError, WsnlocError) as exc:
            raise ConfigError(f"{kind} scenario: {exc}") from exc
        cfg._pipelines[kind] = pipeline
    return cfg._pipelines[kind]


def _draw_target(p: Pipeline, rng: np.random.Generator) -> np.ndarray:
    if isinstance(p.cfg.target, np.ndarray):
        return p.cfg.target
    width, height = p.cfg.region
    points, radii = p.clearance
    for _ in range(1000):
        cand = rng.random(2) * (width, height)  # the bits of two uniform(0, side) calls
        if all(distance(cand, q) >= c for q, c in zip(points, radii)):
            return cand
    raise ConfigError("could not place a random target clear of the ranging nodes")


def _draws(p: Pipeline, pairs: list, draw: Callable) -> list:
    """``draw(rng, snr_index)`` for each (snr_index, trial_index) pair of a chunk, on the
    trial's own stream; :func:`_chunk_rngs` derives the chunk's streams, from
    :data:`ARRAY_PASS` pairs on in one array pass over all its rows."""
    return [draw(rng, si) for rng, (si, _) in zip(_chunk_rngs(p.cfg.seed, pairs), pairs)]


def _usable(d: np.ndarray) -> np.ndarray:
    """Whether every range in the last axis of ``d`` is positive and finite."""
    return np.all((d > 0) & (d < math.inf), axis=-1)


def _live(failed: np.ndarray) -> np.ndarray:
    """The indices of the trials ``failed`` does not mark."""
    return np.flatnonzero(np.equal(failed, None))


def _fixes(p: Pipeline, rows, d: np.ndarray, failed: np.ndarray) -> tuple[np.ndarray, ...]:
    """``p.fix`` of the ranges of every trial that ``failed`` does not mark yet, as one
    stack, each trial in SNR row ``rows[t]``: the (T, 2) fixes, NaN where there is none
    (or no ``p.fix``), and ``failed`` with each fix's failure added."""
    fixes = np.full((len(d), 2), np.nan)
    live = _live(failed)
    if p.fix is not None:
        fixes[live], failed[live] = p.fix(p, rows[live], d[live])
    return fixes, failed


def _score(targets: np.ndarray, est: np.ndarray, failed: np.ndarray) -> tuple:
    """A chunk's outcome: its (T, 2) truths and estimates, the (T,) errors, NaN exactly
    where a trial failed, and ``failed``; an estimate with no finite error fails its
    trial."""
    errors = np.hypot(est[:, 0] - targets[:, 0], est[:, 1] - targets[:, 1])
    failed[np.equal(failed, None) & ~np.isfinite(errors)] = NumericOverflow(_BAD_ESTIMATE)
    errors[np.not_equal(failed, None)] = np.nan
    return targets, est, errors, failed


def _rss_stack(p: Pipeline, pairs: list) -> tuple:
    """Each trial of the chunk ``pairs`` draws its target and shadowing from its own
    stream; the chunk then ranges, checks and solves all its trials as one (T, k)
    block. A trial that fails a check gets the error its own solve would raise, and
    leaves the others alone. Returns the chunk's outcome (:func:`_score`)."""
    k = len(p.ranged)
    drawn = _draws(p, pairs, lambda rng, si: (_draw_target(p, rng), rng.normal(0.0, 1.0, size=k)))
    targets, shadows = zip(*drawn)
    targets, rows = np.array(targets), np.array([si for si, _ in pairs])
    d = range_stack(p.ranged, targets, shadows, p.sigma_db[rows], *p.models[0])
    failed = np.where(_usable(d), None, NonPositiveDistance(_BAD_RANGE))
    return _score(targets, *_fixes(p, rows, d, failed))


def _doa_trial(p: Pipeline, snr_index: int, rng) -> TrialResult:
    """One doa trial: it draws its waveforms and noise (``p.draw``, the draws of
    ``synthesize_snapshots``), forms its snapshots on the steering matrix built at
    compile, runs the method on them and scores its estimates against the sorted truths
    (:func:`doa.azimuth_error`)."""
    est = p.step(p, snapshots(p.steer, *p.draw(p.cfg.snr_grid_db[snr_index], rng))).azimuths
    error = azimuth_error(est, p.truth, isinstance(p.geometry, UniformCircularArray))
    return TrialResult(estimate=np.degrees(est), truth=p.truth_deg, error=error)


def _hybrid_stack(p: Pipeline, pairs: list) -> tuple:
    """Each trial of the chunk ``pairs`` draws its target, signal, noise (at its row's
    SNR) and shadowing from its own stream; the chunk then checks each trial's sources
    for two on one azimuth (:func:`arrays.coincident`), splits their covariances
    (:func:`doa.eigenbases`), scans their MUSIC spectra and picks their peaks one
    basis at a time (:func:`music_peaks`), ranges its trials as one (T, k) block
    (:func:`channel.range_stack`), solves its trilateration fixes as one stack and fuses
    them with the scheme's stacked kernel. A trial gets the error its own pass would
    raise first: its sources' (a target on an interferer's bearing), its ranges' (fbss
    only), its covariance's, its spectrum's, its ranges', its fix's, its fusion's, its
    score's. Returns the chunk's outcome (:func:`_score`)."""

    def draw(rng, si):
        target = _draw_target(p, rng)
        return target, p.draw(p.cfg.snr_grid_db[si], rng), rng.normal(0.0, 1.0, size=len(p.ranged))

    targets, signals, shadows = zip(*_draws(p, pairs, draw))
    targets, rows = np.array(targets), np.array([si for si, _ in pairs])
    d = range_stack(p.ranged, targets, shadows, p.sigma_db[rows], *p.models[0])
    center = p.node.center  # each bearing as bearing_to gives it
    azimuths = np.arctan2(targets[:, 1] - center[1], targets[:, 0] - center[0])[:, None]
    if p.sources is not None:  # the target's bearing first, then the interferers
        others = np.broadcast_to(p.sources.azimuths, (len(d), p.sources.count))
        azimuths = np.hstack([azimuths, others])
    failed = np.where(coincident(azimuths), CoincidentSources(), None)
    bad_ranges = ~_usable(d)
    if p.plan is not None:  # fbss ranges before its spectrum
        failed[np.equal(failed, None) & bad_ranges] = NonPositiveDistance(_BAD_RANGE)
    n_sources = azimuths.shape[1]
    peaks = np.full(azimuths.shape, np.nan)
    live = _live(failed)
    if live.size:
        s, noise = zip(*signals)
        del signals  # the stacks replace the trials' own arrays
        s, noise = np.array([s[t] for t in live]), [noise[t] for t in live]
        steer = steering_matrix(p.geometry, azimuths[live])
        q, failed[live] = eigenbases(steer, s, noise, p.transform, p.plan, failed[live])
        del steer, s, noise  # free the chunk's snapshots before its scans
        split = np.equal(failed[live], None)
        live, q = live[split], q[split]
        peaks[live], failed[live] = music_peaks(q, p.scan, n_sources, p.grid_step)
    # what fails a trial once its spectrum has peaks: its ranges, then its fix
    failed[np.equal(failed, None) & bad_ranges] = NonPositiveDistance(_BAD_RANGE)
    fixes, failed = _fixes(p, rows, d, failed)
    est = np.full((len(d), 2), np.nan)
    live = _live(failed)
    if live.size:
        est[live], failed[live] = p.step(p, peaks[live], d[live], fixes[live])
    return _score(targets, est, failed)


def _fuse_midpoint(p, azimuths, d, fixes):
    return bearing_midpoint(p.node, fixes, azimuths[:, 0]), np.full(len(d), None, dtype=object)


# (method setting, value) -> the part of a trial the method decides; each entry looks its
# kernels up by module-global name when it runs. Arguments: estimator (pipeline, each
# trial's (T,) SNR row, (T, k) ranges) -> (T, 2) positions and per-trial failures, as
# rss.solve_stack, also the hybrid fix; decorrelate and doa (pipeline, snapshots) ->
# covariance and DoaEstimate; hybrid (pipeline, a chunk's (T, M) MUSIC azimuths, its
# (T, k) ranges, its (T, 2) fixes or NaN) -> (T, 2) positions and per-trial failures, the
# target's bearing first among each trial's azimuths except for fbss, which picks it.
_STEPS: dict[tuple[str, str], Callable] = {
    ("estimator", "ls"): lambda p, rows, d: solve_stack(p.lop.A, p.lop.rhs(d)),
    ("estimator", "wls"): lambda p, rows, d: solve_stack(
        p.lop.A, p.lop.rhs(d), *wls_weights_by_row(p.inverting, rows, d)
    ),
    ("estimator", "huber"): lambda p, rows, d: huber_by_row(
        p.lop, p.inverting, rows, d, p.cfg.method["huber_epsilon"]
    ),
    ("decorrelate", "none"): lambda p, x: covariance(x, p.transform),
    ("decorrelate", "fss"): lambda p, x: decorrelate.fss(covariance(x, p.transform), p.plan),
    ("decorrelate", "fbss"): lambda p, x: decorrelate.fbss(covariance(x, p.transform), p.plan),
    ("decorrelate", "toeplitz"): lambda p, x: decorrelate.toeplitz_reconstruct(
        covariance(x, p.transform)
    ),
    ("doa", "music"): lambda p, x: music(p.prepare(p, x), p.scan, p.sources.count, p.grid_step)[1],
    ("doa", "root-music"): lambda p, x: root_music(p.prepare(p, x), p.scan, p.sources.count),
    ("doa", "esprit"): lambda p, x: esprit(x, p.geometry, p.sources.count),
    ("doa", "uca-root-music"): lambda p, x: uca_root_music(x, p.transform, p.sources.count),
    ("doa", "uca-esprit"): lambda p, x: uca_esprit(x, p.transform, p.sources.count),
    ("hybrid", "single"): lambda p, az, d, fixes: single_node_stack(p.node, az[:, 0], d),
    ("hybrid", "fbss"): lambda p, az, d, fixes: single_node_stack(
        p.node, fbss_bearing(p.node, az, fixes), d
    ),
    ("hybrid", "ls"): _fuse_midpoint,
    ("hybrid", "wls"): _fuse_midpoint,
    ("hybrid", "two-lines"): lambda p, az, d, fixes: two_lines_pooled(
        p.node, p.cfg.anchors[0], d, az[:, 0]
    ),
}

_COMPILERS = {"rss": _compile_rss, "doa": _compile_doa, "hybrid": _compile_hybrid}


def _outcomes(p: Pipeline) -> Iterator[float]:
    """Each trial's error over the whole sweep, in row-major order: from the stacked
    chunk function, ``p.chunk`` (snr_index, trial_index) pairs at a time and a chunk
    only once an earlier one is used up, NaN where its trial failed; or NaN for every
    trial where there is none."""
    trials = p.cfg.trials
    total = len(p.cfg.snr_grid_db) * trials
    if p.stack is None:
        return itertools.repeat(math.nan, total)
    return itertools.chain.from_iterable(
        p.stack(p, [divmod(i, trials) for i in range(start, min(start + p.chunk, total))])[2]
        for start in range(0, total, p.chunk)
    )


def run_trial(cfg: ScenarioConfig, kind: str, snr_index: int, trial_index: int) -> TrialResult:
    """One deterministic trial of the configured pipeline; raises the error that fails
    it. Where the kind stacks its trials, this is a chunk of one pair, read into the
    only :class:`TrialResult` a stack trial gets. The indices may be any integers that
    ``operator.index`` takes (numpy's included)."""
    p = _pipeline(cfg, kind)
    snr_index, trial_index = operator.index(snr_index), operator.index(trial_index)
    if p.stack is None:
        (rng,) = _trial_rngs(cfg.seed, snr_index, [trial_index])
        return p.trial(p, snr_index, rng)
    (truth,), (estimate,), (error,), (failed,) = p.stack(p, [(snr_index, trial_index)])
    if failed is not None:
        raise failed
    return TrialResult(estimate=estimate, truth=truth, error=float(error))


def monte_carlo(cfg: ScenarioConfig, kind: str, workers: int = 1) -> MonteCarloResult:
    """RMSE over seeded trials for every SNR in the grid.

    The scenario is compiled before the first trial; a :class:`ConfigError`,
    from compiling or from a trial, propagates, and any other
    :class:`WsnlocError` counts as a failed trial. rss and hybrid trials run
    as stacks, in chunks of the whole sweep that rows do not end (a hybrid
    chunk's MUSIC scans one subspace at a time), and each row reads its
    trials' errors into one float64 array, NaN for each trial a stack did not
    solve and for every doa trial. Only those trials go through
    :func:`run_trial`, one at a time: a doa trial runs there, and each failed
    trial's error leaves it once, for a caller that watches it (a failed rss
    or hybrid trial is drawn and solved twice). A doa trial whose error is
    NaN is kept in its row. The rows are counted in grid order, and the
    first row whose trials all fail raises :class:`AllTrialsFailed` before a
    later chunk runs. A row whose squared errors overflow is scaled by its
    largest error.
    ``workers`` is accepted for compatibility and ignored: trials run
    serially.
    """
    p = _pipeline(cfg, kind)
    rows, outcomes = [], _outcomes(p)
    with np.errstate(**_QUIET):
        for si, snr in enumerate(cfg.snr_grid_db):
            errors = np.fromiter(itertools.islice(outcomes, cfg.trials), float, cfg.trials)
            failed, kept = collections.Counter(), np.ones(cfg.trials, dtype=bool)
            for ti in np.flatnonzero(np.isnan(errors)).tolist():
                try:
                    errors[ti] = run_trial(cfg, kind, si, ti).error
                except WsnlocError as exc:
                    if isinstance(exc, ConfigError):
                        raise
                    failed[type(exc).__name__] += 1
                    kept[ti] = False
            errors = errors[kept]
            if not errors.size:
                raise AllTrialsFailed(f"all {cfg.trials} trials failed at snr={snr} dB")
            rmse = math.sqrt(float(np.mean(np.square(errors))))
            if math.isinf(rmse):  # squares of finite errors overflowed: scale by the largest
                top = float(errors.max())
                rmse = top * math.sqrt(float(np.mean(np.square(errors / top))))
            by_class = tuple(sorted(failed.items()))
            rows.append(MonteCarloRow(snr, rmse, cfg.trials, cfg.trials - errors.size, by_class))
    return MonteCarloResult(unit="deg" if kind == "doa" else "m", rows=tuple(rows))


def compute_spectrum(cfg: ScenarioConfig) -> Spectrum:
    """The seeded MUSIC spectrum for trial 0 at the first grid SNR."""
    if cfg.method["doa"] != "music":
        raise ConfigError("spectrum dumps need method.doa == 'music'")
    p = _pipeline(cfg, "doa")
    rng = rng_for_trial(cfg.seed, 0, 0)
    snr_db = cfg.snr_grid_db[0]
    with np.errstate(**_QUIET):
        x = snapshots(p.steer, *p.draw(snr_db, rng))
        try:
            spectrum = music_spectrum(p.prepare(p, x), p.scan, p.sources.count, p.grid_step)
        except NumericOverflow as exc:  # the sample covariance left the float range
            raise ConfigError(f"snr {snr_db:g} dB: {exc}") from exc
    return spectrum


def dump_spectrum(cfg: ScenarioConfig, out) -> None:
    """Write the seeded spectrum as CSV with header ``angle_deg,power_db``."""
    spectrum = compute_spectrum(cfg)
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["angle_deg", "power_db"])
        for angle, power in zip(spectrum.grid, spectrum.power_db):
            writer.writerow([f"{math.degrees(angle):.6f}", f"{power:.10g}"])


def write_rmse_csv(result: MonteCarloResult, out) -> None:
    """Write the per-SNR table with header ``snr_db,rmse,trials,failures``."""
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["snr_db", "rmse", "trials", "failures"])
        for row in result.rows:
            writer.writerow(
                [f"{row.snr_db:g}", f"{row.rmse:.12g}", row.trials, row.failures]
            )
