"""Seeded Monte-Carlo experiment harness.

A scenario is a JSON document validated against :data:`CONFIG_SCHEMA`
(unknown keys are rejected). Four experiment kinds exist, matching the CLI
subcommands:

* ``rss``    - trilateration from RSS ranging, position RMSE vs SNR.
* ``doa``    - array DOA estimation, angular RMSE vs SNR.
* ``hybrid`` - RSS+DOA fusion around one hybrid node, position RMSE vs SNR.
* ``spectrum`` - one seeded MUSIC spectrum dump (angle_deg, power_db).

A scenario is compiled once per kind into a :class:`Pipeline`, which checks
every method/geometry combination and builds what all trials share; a trial
then only draws randomness and calls kernels, through one table, :data:`_STEPS`.
An anchor layout that every trial's trilateration would reject is a
:class:`ConfigError` there too.

Trials run one SNR row at a time. rss and hybrid compile a stacked row
function, and their :func:`run_trial` is that row with one trial in it. Both
kinds range through each row's (generating, inverting) channel pair, so
``channel.eta_true`` applies to either. Each trial draws on its own stream;
the row then does its numerics as stacks, bit for bit what each trial's own
pass gives:

* both rows solve their trilateration fixes (rss LS, WLS or Huber; hybrid
  ls, wls and the fbss coarse fix) as one stack, and score their (T, 2)
  estimates in one pass;
* a hybrid row also forms its snapshots (one product per trial) and sample
  covariances, fbss's beamspace map and smoothing, and the checks and
  eigendecompositions of :func:`numerics.herm_eig` as stacks; the MUSIC scan
  of each trial's noise subspace and the fusion run trial by trial.

A row is stacked in chunks of as many trials as draw at most
:data:`ROW_VALUES` values (path losses, plus complex snapshot values for
hybrid), and at least one, so its memory does not grow with ``trials``. doa
rows run trial by trial through :func:`run_trial`. ``workers`` is still
ignored.

Randomness: every trial owns an independent PCG64 stream derived as
``SeedSequence(entropy=seed, spawn_key=(snr_index, trial_index))``, so
results are bit-identical across reruns and do not depend on the order in
which trials run or on how many share a row. The SNR axis drives both the
array noise floor and the RSS shadowing std through
``sigma_db = sigma_ref_db * 10^(-snr/20)``.

A failed trial (a spectrum without enough peaks at low SNR, a ray with no
forward intersection, a range or estimate that extreme shadowing drives out
of the float range, ...) is counted per SNR row, also by exception class,
and excluded from the RMSE; only a row where every trial fails raises
:class:`AllTrialsFailed`.
"""

import collections
import csv
import dataclasses
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from . import decorrelate
from .arrays import (
    SourceSet,
    UniformCircularArray,
    UniformLinearArray,
    draw_snapshots,
    noise_power,
    sample_covariance,
    synthesize_snapshots,
)
from .channel import (
    ChannelModel,
    invert_distance,
    lognormal_sigma_d,
    path_loss,
    sigma_from_snr,
    wavelength_from_frequency,
)
from .doa import Spectrum, capacity, esprit, music, music_peaks, root_music
from .doa import uca_esprit, uca_root_music
from .errors import (
    AllTrialsFailed,
    CoincidentSources,
    ConfigError,
    NonPositiveDistance,
    NumericOverflow,
    WsnlocError,
)
from .geometry import LopMatrix, as_anchor_array, bearing_to, distance, lop_matrix
from .hybrid import HybridNode, bearing_midpoint, fbss_bearing, hybrid_single_node, two_lines
from .numerics import herm_eig_stack
from .pme import PmeTransform, VandermondeArray, build_transform
from .rss import MAX_CONDITION, huber_stack, solve_stack, wls_row_weights

# Extreme shadowing drives ranges and estimates out of the float range; a trial fails
# on an explicit check of them and is counted, so numpy's warnings on the way there
# would only repeat that.
_QUIET = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}
_BAD_RANGE = "shadowing drove an estimated range to 0 or infinity"
_BAD_ESTIMATE = "the position estimate left the float range"
ROW_VALUES = 8192  # most values (path losses, complex snapshot values) one row call draws

_XY = {
    "type": "array",
    "items": {"type": "number"},
    "minItems": 2,
    "maxItems": 2,
}

CONFIG_SCHEMA: dict[str, Any] = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "wsnloc scenario",
    "type": "object",
    "additionalProperties": False,
    "required": ["seed", "trials", "snr_grid_db"],
    "properties": {
        "seed": {"type": "integer", "minimum": 0, "maximum": 2**64 - 1},
        "trials": {"type": "integer", "minimum": 1},
        "snr_grid_db": {
            "type": "array",
            "items": {"type": "number"},
            "minItems": 1,
        },
        "region": {
            "type": "array",
            "items": {"type": "number", "exclusiveMinimum": 0},
            "minItems": 2,
            "maxItems": 2,
        },
        "target": {
            "oneOf": [{"const": "random"}, _XY],
        },
        "channel": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "d0_m": {"type": "number", "exclusiveMinimum": 0},
                "eta": {"type": "number", "exclusiveMinimum": 0},
                "eta_true": {"type": "number", "exclusiveMinimum": 0},
                "sigma_ref_db": {"type": "number", "minimum": 0},
                "wavelength_m": {"type": "number", "exclusiveMinimum": 0},
                "frequency_hz": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "anchors": {"type": "array", "items": _XY, "minItems": 1},
        "array": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind", "n_elements"],
            "properties": {
                "kind": {"enum": ["ula", "uca"]},
                "n_elements": {"type": "integer", "minimum": 2},
                "spacing_wavelengths": {"type": "number", "exclusiveMinimum": 0},
                "radius_wavelengths": {"type": "number", "exclusiveMinimum": 0},
                "elevation_deg": {"type": "number", "minimum": 0, "maximum": 90},
            },
        },
        "sources": {
            "type": "object",
            "additionalProperties": False,
            "required": ["azimuths_deg"],
            "properties": {
                "azimuths_deg": {
                    "type": "array",
                    "items": {"type": "number"},
                    "minItems": 1,
                },
                "amplitudes": {
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": 0},
                },
                "coherent": {"type": "boolean"},
                "snapshots": {"type": "integer", "minimum": 1},
            },
        },
        "hybrid_node": {
            "type": "object",
            "additionalProperties": False,
            "required": ["center", "n_elements", "radius_wavelengths"],
            "properties": {
                "center": _XY,
                "n_elements": {"type": "integer", "minimum": 2},
                "radius_wavelengths": {"type": "number", "exclusiveMinimum": 0},
                "elevation_deg": {"type": "number", "minimum": 0, "maximum": 90},
            },
        },
        "interferers_deg": {"type": "array", "items": {"type": "number"}},
        "interferer_amplitudes": {
            "type": "array",
            "items": {"type": "number", "exclusiveMinimum": 0},
        },
        "snapshots": {"type": "integer", "minimum": 1},
        "method": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "estimator": {"enum": ["ls", "wls", "huber"]},
                "doa": {
                    "enum": [
                        "music",
                        "root-music",
                        "esprit",
                        "uca-root-music",
                        "uca-esprit",
                    ]
                },
                "decorrelate": {"enum": ["none", "fss", "fbss", "toeplitz"]},
                "hybrid": {"enum": ["single", "fbss", "ls", "wls", "two-lines"]},
                # 0.01 degrees caps the MUSIC grid at 36,000 points over 360 degrees
                "grid_step_deg": {"type": "number", "minimum": 0.01},
                "huber_epsilon": {"type": "number", "exclusiveMinimum": 0},
                "subarray_len": {"type": "integer", "minimum": 2},
            },
        },
    },
}

# Checked against the metaschema and compiled once, not on every config load.
Draft202012Validator.check_schema(CONFIG_SCHEMA)
_VALIDATOR = Draft202012Validator(CONFIG_SCHEMA)

_DEFAULT_METHOD = {
    "estimator": "ls",
    "doa": "music",
    "decorrelate": "none",
    "hybrid": "single",
    "grid_step_deg": 0.1,
    "huber_epsilon": 1e-3,
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Parsed scenario: everything a pipeline needs, plus the raw document."""

    seed: int
    trials: int
    snr_grid_db: tuple[float, ...]
    region: tuple[float, float] | None
    target: np.ndarray | str | None
    d0: float
    eta: float
    eta_true: float | None
    sigma_ref_db: float
    wavelength: float
    anchors: np.ndarray | None
    array_spec: dict | None
    sources_spec: dict | None
    hybrid_spec: dict | None
    interferers_deg: tuple[float, ...]
    interferer_amplitudes: tuple[float, ...] | None
    snapshots: int
    method: dict
    # Compiled pipelines by kind. Not an init field, so ``with_method`` and
    # ``dataclasses.replace`` start a new config with an empty cache.
    _pipelines: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        error = best_match(_VALIDATOR.iter_errors(raw))  # what jsonschema.validate raises
        if error is not None:
            raise ConfigError(f"invalid scenario config: {error.message}") from error

        channel = raw.get("channel", {})
        if "wavelength_m" in channel and "frequency_hz" in channel:
            raise ConfigError("give wavelength_m or frequency_hz, not both")
        if "frequency_hz" in channel:
            wavelength = wavelength_from_frequency(channel["frequency_hz"])
        else:
            wavelength = channel.get("wavelength_m", wavelength_from_frequency(1e9))

        region = tuple(raw["region"]) if "region" in raw else None
        target: np.ndarray | str | None = raw.get("target")
        if isinstance(target, list):
            target = np.asarray(target, dtype=float)
            if region is not None and not (
                0 <= target[0] <= region[0] and 0 <= target[1] <= region[1]
            ):
                raise ConfigError("target lies outside the region")
        elif target == "random" and region is None:
            raise ConfigError("random target needs a region")

        method = dict(_DEFAULT_METHOD)
        method.update(raw.get("method", {}))

        sources = raw.get("sources")
        if sources is not None and "amplitudes" in sources:
            if len(sources["amplitudes"]) != len(sources["azimuths_deg"]):
                raise ConfigError("amplitudes must match azimuths_deg in length")

        return cls(
            seed=raw["seed"],
            trials=raw["trials"],
            snr_grid_db=tuple(float(s) for s in raw["snr_grid_db"]),
            region=region,
            target=target,
            d0=channel.get("d0_m", 1.0),
            eta=channel.get("eta", 2.0),
            eta_true=channel.get("eta_true"),
            sigma_ref_db=channel.get("sigma_ref_db", 8.0),
            wavelength=wavelength,
            anchors=np.asarray(raw["anchors"], dtype=float) if "anchors" in raw else None,
            array_spec=raw.get("array"),
            sources_spec=sources,
            hybrid_spec=raw.get("hybrid_node"),
            interferers_deg=tuple(raw.get("interferers_deg", ())),
            interferer_amplitudes=tuple(raw["interferer_amplitudes"])
            if "interferer_amplitudes" in raw
            else None,
            snapshots=raw.get("snapshots", raw.get("sources", {}).get("snapshots", 100)),
            method=method,
        )

    def with_method(self, **overrides) -> "ScenarioConfig":
        method = dict(self.method)
        method.update({k: v for k, v in overrides.items() if v is not None})
        return dataclasses.replace(self, method=method)

    # -- derived pieces -----------------------------------------------------

    def channel_at(self, snr_db: float, eta: float | None = None) -> ChannelModel:
        return ChannelModel(
            d0=self.d0,
            eta=self.eta if eta is None else eta,
            sigma_db=sigma_from_snr(snr_db, self.sigma_ref_db),
            wavelength=self.wavelength,
        )

    def _ring(self, spec: dict) -> UniformCircularArray:
        return UniformCircularArray(
            n=spec["n_elements"],
            radius=spec["radius_wavelengths"] * self.wavelength,
            elevation=math.radians(spec.get("elevation_deg", 90.0)),
            wavelength=self.wavelength,
        )

    def build_array(self):
        spec = self.array_spec
        if spec is None:
            raise ConfigError("scenario needs an 'array' section")
        size = "spacing_wavelengths" if spec["kind"] == "ula" else "radius_wavelengths"
        if size not in spec:
            raise ConfigError(f"{spec['kind']} array needs {size}")
        if spec["kind"] == "uca":
            return self._ring(spec)
        spacing = spec[size] * self.wavelength
        return UniformLinearArray(n=spec["n_elements"], spacing=spacing, wavelength=self.wavelength)

    def build_sources(self) -> SourceSet:
        spec = self.sources_spec
        if spec is None:
            raise ConfigError("scenario needs a 'sources' section")
        azimuths = np.radians(spec["azimuths_deg"])
        return SourceSet(azimuths, spec.get("amplitudes"), coherent=spec.get("coherent", False))

    def build_hybrid_node(self) -> HybridNode:
        spec = self.hybrid_spec
        if spec is None:
            raise ConfigError("scenario needs a 'hybrid_node' section")
        return HybridNode(center=np.asarray(spec["center"], dtype=float), geometry=self._ring(spec))


def load_config(path) -> ScenarioConfig:
    """Read and validate a scenario JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return ScenarioConfig.from_dict(raw)


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


# --- pipelines ---------------------------------------------------------------


@dataclass
class Pipeline:
    """A scenario compiled for one kind: ``row(pipeline, snr_index, trial_indices)`` (rss,
    hybrid) or ``trial(pipeline, snr_index, rng)`` (doa) hands the trilateration to
    ``fix`` and the method's part to ``step`` (doa preprocessing to ``prepare``), all
    from :data:`_STEPS`; the other fields are what all trials share, ``None`` where a
    kind has no use for them."""

    cfg: ScenarioConfig
    grid_step: float  # MUSIC grid step, radians
    row: Callable | None = None
    trial: Callable | None = None
    step: Callable | None = None  # doa estimator, hybrid fusion
    fix: Callable | None = None  # rss, hybrid ls/wls/fbss: a row's fixes as one stack
    chunk: int = 1  # trials one row call stacks
    models: tuple = ()  # per SNR (rss, hybrid): the (generating, inverting) channel pair
    clearance: tuple = ((), ())  # points a random target keeps clear of, and radii
    prepare: Callable | None = None
    geometry: Any = None  # the array (doa) or the hybrid ring
    sources: SourceSet | None = None  # doa sources, or the hybrid node's interferers
    transform: PmeTransform | None = None
    plan: decorrelate.SmoothingPlan | None = None  # doa fss/fbss, hybrid fbss
    scan: Any = None  # the geometry MUSIC and Root-MUSIC see after preprocessing
    node: HybridNode | None = None
    ranged: np.ndarray | None = None  # (k, 2) points a trial ranges the target from
    lop: LopMatrix | None = None  # rss, hybrid ls/wls/fbss: the LOP matrix of p.ranged


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


def _channels(cfg: ScenarioConfig) -> tuple:
    """Each row's (generating, inverting) channel pair: ``eta_true``, when set, generates
    the path losses; ranging inverts them with ``eta``."""
    return _per_row(
        cfg, "shadowing std", lambda snr: (cfg.channel_at(snr, eta=cfg.eta_true), cfg.channel_at(snr))
    )


def _trilateration(points, ls: bool, models) -> LopMatrix:
    """The LOP matrix of ``points`` (collinear ones raise). An ``A^T A`` that every
    unweighted solve rejects is a config error for an ``ls`` fix, and for a weighted one
    if any row's inverting channel (of its ``models`` pair) has no shadowing: there WLS
    weighs every range alike and Huber starts from LS. Other weighted solves check their
    own drawn weights."""
    lop = lop_matrix(points)
    if lop.gram_cond > MAX_CONDITION:
        cond = f"cond(A^T A) {lop.gram_cond:.3g}"
        if ls:
            raise ConfigError(f"anchor layout ill-conditioned for LS: {cond}")
        if any(lognormal_sigma_d(inverting) == 0.0 for _, inverting in models):
            raise ConfigError(
                f"anchor layout ill-conditioned for the unweighted fix of a row without "
                f"shadowing: {cond}"
            )
    return lop


def _compile_rss(p: Pipeline, cfg: ScenarioConfig) -> None:
    if cfg.anchors is None or cfg.anchors.shape[0] < 3:
        raise ConfigError("rss scenario needs at least 3 anchors")
    p.row, p.fix = _rss_row, _STEPS["estimator", cfg.method["estimator"]]
    p.ranged = cfg.anchors
    p.chunk = max(1, ROW_VALUES // len(p.ranged))
    p.clearance = _clearance(cfg, [], [])
    p.models = _channels(cfg)
    p.lop = _trilateration(cfg.anchors, cfg.method["estimator"] == "ls", p.models)


def _compile_doa(p: Pipeline, cfg: ScenarioConfig) -> None:
    """Linear arrays smooth (or Toeplitz-rebuild) their own covariance;
    circular arrays reach spatial smoothing only through the phase-mode
    beamspace, and Toeplitz reconstruction is not offered for them."""
    method, prep = cfg.method["doa"], cfg.method["decorrelate"]
    p.trial, p.step, p.prepare = _doa_trial, _STEPS["doa", method], _STEPS["decorrelate", prep]
    p.geometry = p.scan = geometry = cfg.build_array()
    p.sources = sources = cfg.build_sources()
    ring = isinstance(geometry, UniformCircularArray)
    _per_row(cfg, "noise power", lambda snr: noise_power(sources, snr))  # a check; trials redo it
    if method != "music" and ring != method.startswith("uca-"):
        raise ConfigError(f"{method} does not run on a {cfg.array_spec['kind']} array")
    if method not in ("music", "root-music") and prep != "none":
        raise ConfigError(f"{method} operates on raw snapshots; decorrelate must be none")
    if prep == "toeplitz" and ring:
        raise ConfigError("toeplitz preprocessing is only supported on ula arrays")

    smoothed = prep in ("fss", "fbss")
    if ring and (smoothed or method != "music"):
        p.transform = build_transform(geometry)
    # a transform's 2h+1-element virtual array is what the estimator works on
    size = geometry.size if p.transform is None else p.transform.vula_size
    most = capacity(method, size)
    if sources.count > most:
        raise ConfigError(f"{method} resolves at most {most} sources, not {sources.count}")
    if smoothed:
        p.plan = decorrelate.SmoothingPlan.design(
            size, sources.count, cfg.method.get("subarray_len"), forward_backward=prep == "fbss"
        )
        sub = p.plan.subarray_len
        p.scan = VandermondeArray(sub) if ring else dataclasses.replace(geometry, n=sub)


def _compile_hybrid(p: Pipeline, cfg: ScenarioConfig) -> None:
    scheme = cfg.method["hybrid"]
    p.row, p.step = _hybrid_row, _STEPS["hybrid", scheme]
    p.node = node = cfg.build_hybrid_node()
    p.geometry = p.scan = node.geometry
    positions = node.element_positions
    radius = max(cfg.d0, 3.0 * node.geometry.radius)
    p.clearance = _clearance(cfg, [node.center], [radius], ranged=positions)
    p.models = _channels(cfg)
    # a check; the overflow is in 10^(-snr/10), whatever power a trial's sources carry
    _per_row(cfg, "noise power", lambda snr: noise_power(None, snr))
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
    if scheme == "fbss":
        amps = cfg.interferer_amplitudes
        if amps is not None and len(amps) != len(cfg.interferers_deg):
            raise ConfigError("interferer_amplitudes must match interferers_deg")
        p.sources = SourceSet(np.radians(cfg.interferers_deg), amps, coherent=True)
        n_sources = p.sources.count + 1  # the target's bearing comes first
        p.transform = build_transform(node.geometry)
        most = capacity("music", p.transform.vula_size)
        if n_sources > most:
            raise ConfigError(f"fbss resolves at most {most} sources, not {n_sources}")
        p.plan = decorrelate.SmoothingPlan.design(
            p.transform.vula_size, n_sources, cfg.method.get("subarray_len"), forward_backward=True
        )
        p.scan = VandermondeArray(p.plan.subarray_len)
        if isinstance(cfg.target, np.ndarray):  # every trial sees the target on one bearing
            bearing = bearing_to(node.center, cfg.target)
            try:
                _hybrid_sources(p, bearing)
            except CoincidentSources as exc:
                raise ConfigError(
                    f"target bearing {math.degrees(bearing):g} deg is an interferer's"
                ) from exc
    if scheme in ("ls", "wls", "fbss"):  # the points fusion trilaterates from
        p.fix = _STEPS["estimator", "wls" if scheme == "wls" else "ls"]
        p.lop = _trilateration(p.ranged, scheme != "wls", p.models)


def _pipeline(cfg: ScenarioConfig, kind: str) -> Pipeline:
    """The scenario compiled for ``kind``, built on first use and cached on the config.
    Compiling draws no randomness, so whatever fails in it fails for the config alone
    and is reported as a :class:`ConfigError` (a ``KeyError`` means an unknown method)."""
    if kind not in _COMPILERS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    if kind not in cfg._pipelines:
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
        cand = np.array([rng.uniform(0, width), rng.uniform(0, height)])
        if all(distance(cand, q) >= c for q, c in zip(points, radii)):
            return cand
    raise ConfigError("could not place a random target clear of the ranging nodes")


def _losses(p: Pipeline, target, model, rng) -> np.ndarray:
    """Path losses from each of ``p.ranged`` to ``target``: one ``path_loss`` call draws
    a shadowing term per point in point order (the draws k scalar calls would make)."""
    diff = p.ranged - target
    return path_loss(np.hypot(diff[:, 0], diff[:, 1]), model, rng)


def _usable(d: np.ndarray) -> np.ndarray:
    """Whether every range in the last axis of ``d`` is positive and finite."""
    return np.all((d > 0) & (d < math.inf), axis=-1)


def _fixes(p: Pipeline, model, d: np.ndarray, failed: np.ndarray) -> tuple[np.ndarray, ...]:
    """``p.fix`` of the ranges of every trial that ``failed`` does not mark yet, as one
    stack: the (T, 2) fixes, NaN where there is none (or no ``p.fix``), and ``failed``
    with each fix's failure added."""
    fixes = np.full((len(d), 2), np.nan)
    live = np.flatnonzero(np.equal(failed, None))
    if p.fix is not None:
        fixes[live], failed[live] = p.fix(p, model, d[live])
    return fixes, failed


def _score(targets: np.ndarray, est: np.ndarray, failed: np.ndarray) -> list:
    """Each trial's result from its row of the (T, 2) estimates, or its error in
    ``failed``; an estimate with no finite error fails its trial."""
    errors = np.hypot(est[:, 0] - targets[:, 0], est[:, 1] - targets[:, 1])
    failed[np.equal(failed, None) & ~np.isfinite(errors)] = NumericOverflow(_BAD_ESTIMATE)
    return [
        TrialResult(estimate=e, truth=t, error=float(err)) if f is None else f
        for e, t, err, f in zip(est, targets, errors, failed)
    ]


def _rss_row(p: Pipeline, snr_index: int, trials) -> list:
    """Each trial draws its target and shadowing from its own stream; the row then
    inverts, checks and solves all its ranges as one (T, k) block. A trial that fails
    a check gets the error its own solve would raise, and leaves the others alone.
    Returns each trial's result, or that error."""
    gen_model, inv_model = p.models[snr_index]
    targets, losses = [], []
    for ti in trials:
        rng = rng_for_trial(p.cfg.seed, snr_index, ti)
        targets.append(_draw_target(p, rng))
        losses.append(_losses(p, targets[-1], gen_model, rng))
    targets, d = np.array(targets), invert_distance(np.array(losses), inv_model)
    failed = np.where(_usable(d), None, NonPositiveDistance(_BAD_RANGE))
    return _score(targets, *_fixes(p, inv_model, d, failed))


def _rss_huber(p, model, d):
    weighted = wls_row_weights(model, d) if model.sigma_db > 0 else ()
    return huber_stack(p.lop.A, p.lop.rhs(d), p.cfg.method["huber_epsilon"], *weighted)[:2]


def _doa_trial(p: Pipeline, snr_index: int, rng) -> TrialResult:
    snr_db = p.cfg.snr_grid_db[snr_index]
    x = synthesize_snapshots(p.geometry, p.sources, p.cfg.snapshots, snr_db, rng)
    est = p.step(p, x).azimuths
    truth = np.sort(p.sources.azimuths)
    err = math.degrees(math.sqrt(float(np.mean((est - truth) ** 2))))
    return TrialResult(estimate=np.degrees(est), truth=np.degrees(truth), error=err)


def _covariance(p, x):
    """Sample covariance; of the beamspace snapshots when a ring is smoothed."""
    return sample_covariance(x if p.transform is None else np.asarray(p.transform.Tv @ x))


def _hybrid_sources(p: Pipeline, bearing: float) -> SourceSet:
    """A hybrid trial's sources: the target's bearing, then (fbss) the coherent
    interferers; ``CoincidentSources`` if the bearing is an interferer's."""
    if p.sources is None:
        return SourceSet(azimuths=np.array([bearing]))
    azimuths = np.concatenate([[bearing], p.sources.azimuths])
    return SourceSet(azimuths, np.concatenate([[1.0], p.sources.amplitudes]), coherent=True)


def _noise_subspaces(p: Pipeline, draws: list, failed: np.ndarray) -> tuple[np.ndarray, ...]:
    """The (T, n, n) eigenvectors, descending, of the covariances of T trials' snapshots
    (fbss: mapped into the beamspace and smoothed), from each trial's factors as
    :func:`draw_snapshots` gives them; ``failed`` updated by the checks each trial's
    own covariance passes through."""
    a, s, noise = zip(*draws)
    x = np.array(a) @ np.array(s)  # one product per trial, as synthesize_snapshots makes
    if noise[0] is not None:  # the noise power is the row's, the same for every trial
        x += np.array(noise)
    r = _covariance(p, x)
    if p.plan is not None:  # a sample covariance is Hermitian: smooth skips fbss's check
        r = decorrelate.smooth(r, p.plan, forward_backward=True)
    _, q, failed = herm_eig_stack(r, failed)
    return q, failed


def _hybrid_row(p: Pipeline, snr_index: int, trials) -> list:
    """Each trial draws its target, signal, noise and shadowing from its own stream; the
    row then forms its snapshots and covariances (fbss: beamspace-mapped and smoothed)
    as stacks, splits them with one eigendecomposition, inverts its ranges as one (T, k)
    block and solves its trilateration fixes as one stack. The MUSIC scan and the fusion
    run trial by trial. A trial gets the error its own pass would raise first: its
    ranges' (fbss only), its spectrum's, its ranges', its fix's, its fusion's, its
    score's. Returns each trial's result, or that error."""
    snr_db, (gen_model, inv_model) = p.cfg.snr_grid_db[snr_index], p.models[snr_index]
    failed = np.full(len(trials), None, dtype=object)
    targets, draws, losses = [], [], []
    for i, ti in enumerate(trials):
        rng = rng_for_trial(p.cfg.seed, snr_index, ti)
        targets.append(_draw_target(p, rng))
        try:
            src = _hybrid_sources(p, bearing_to(p.node.center, targets[-1]))
        except CoincidentSources as exc:  # a random target on an interferer's bearing
            failed[i] = exc
            losses.append(np.full(len(p.ranged), np.nan))
            continue
        draws.append(draw_snapshots(p.geometry, src, p.cfg.snapshots, snr_db, rng))
        losses.append(_losses(p, targets[-1], gen_model, rng))
    targets, d = np.array(targets), invert_distance(np.array(losses), inv_model)
    bad_ranges = ~_usable(d)
    drawn = np.flatnonzero(np.equal(failed, None))
    if p.plan is not None:  # fbss ranges before its spectrum
        failed[drawn[bad_ranges[drawn]]] = NonPositiveDistance(_BAD_RANGE)
    if drawn.size:
        q, failed[drawn] = _noise_subspaces(p, draws, failed[drawn])
        del draws  # free the row's snapshots before the per-trial scans
    # what fails a trial once its spectrum has peaks: its ranges, then its fix
    pending = np.where(bad_ranges, NonPositiveDistance(_BAD_RANGE), failed)
    fixes, pending = _fixes(p, inv_model, d, pending)
    est = np.full((len(d), 2), np.nan)
    n_sources = 1 if p.sources is None else 1 + p.sources.count
    for j, i in enumerate(drawn):
        if failed[i] is not None:
            continue
        try:
            azimuths = music_peaks(q[j][:, n_sources:], p.scan, n_sources, p.grid_step)
            if pending[i] is not None:
                raise pending[i]
            est[i] = p.step(p, azimuths, d[i], fixes[i])
        except WsnlocError as exc:
            failed[i] = exc
    return _score(targets, est, failed)


def _fuse_two_lines(p, azimuths, d, fix):
    # The hybrid node's own range pools its per-element measurements
    # (the ring radius is negligible against the node-target distance).
    # Both ranges stay numpy scalars, whose square past the float range is inf.
    return two_lines(p.node, p.cfg.anchors[0], d[0], np.mean(d[1:]), float(azimuths[0]))


# (method setting, value) -> the part of a trial the method decides; each entry looks its
# kernels up by module-global name when it runs. Arguments: estimator (pipeline, inverting
# model, (T, k) ranges) -> (T, 2) positions and per-trial failures, as rss.solve_stack,
# also the hybrid fix; decorrelate and doa (pipeline, snapshots) -> covariance and
# DoaEstimate; hybrid (pipeline, one trial's MUSIC azimuths, its ranges, its fix or NaN)
# -> position, the target's bearing first among the azimuths except for fbss, which
# picks it.
_STEPS: dict[tuple[str, str], Callable] = {
    ("estimator", "ls"): lambda p, model, d: solve_stack(p.lop.A, p.lop.rhs(d)),
    ("estimator", "wls"): lambda p, model, d: solve_stack(
        p.lop.A, p.lop.rhs(d), *wls_row_weights(model, d)
    ),
    ("estimator", "huber"): _rss_huber,
    ("decorrelate", "none"): _covariance,
    ("decorrelate", "fss"): lambda p, x: decorrelate.fss(_covariance(p, x), p.plan),
    ("decorrelate", "fbss"): lambda p, x: decorrelate.fbss(_covariance(p, x), p.plan),
    ("decorrelate", "toeplitz"): lambda p, x: decorrelate.toeplitz_reconstruct(_covariance(p, x)),
    ("doa", "music"): lambda p, x: music(p.prepare(p, x), p.scan, p.sources.count, p.grid_step)[1],
    ("doa", "root-music"): lambda p, x: root_music(p.prepare(p, x), p.scan, p.sources.count),
    ("doa", "esprit"): lambda p, x: esprit(x, p.geometry, p.sources.count),
    ("doa", "uca-root-music"): lambda p, x: uca_root_music(x, p.transform, p.sources.count),
    ("doa", "uca-esprit"): lambda p, x: uca_esprit(x, p.transform, p.sources.count),
    ("hybrid", "single"): lambda p, az, d, fix: hybrid_single_node(p.node, float(az[0]), d),
    ("hybrid", "fbss"): lambda p, az, d, fix: hybrid_single_node(
        p.node, fbss_bearing(p.node, az, fix), d
    ),
    ("hybrid", "ls"): lambda p, az, d, fix: bearing_midpoint(p.node, fix, float(az[0])),
    ("hybrid", "wls"): lambda p, az, d, fix: bearing_midpoint(p.node, fix, float(az[0])),
    ("hybrid", "two-lines"): _fuse_two_lines,
}

_COMPILERS = {"rss": _compile_rss, "doa": _compile_doa, "hybrid": _compile_hybrid}


def _row_outcomes(p: Pipeline, snr_index: int):
    """Each trial's outcome in row ``snr_index`` from the stacked row function,
    ``p.chunk`` trials at a time, or ``None`` for every trial where there is none."""
    if p.row is None:
        yield from itertools.repeat(None, p.cfg.trials)
        return
    for start in range(0, p.cfg.trials, p.chunk):
        yield from p.row(p, snr_index, range(start, min(start + p.chunk, p.cfg.trials)))


def run_trial(cfg: ScenarioConfig, kind: str, snr_index: int, trial_index: int) -> TrialResult:
    """One deterministic trial of the configured pipeline; raises the error that fails
    it. Where the kind stacks its rows, this is a row of one trial."""
    p = _pipeline(cfg, kind)
    if p.row is None:
        return p.trial(p, snr_index, rng_for_trial(cfg.seed, snr_index, trial_index))
    (outcome,) = p.row(p, snr_index, [trial_index])
    if isinstance(outcome, WsnlocError):
        raise outcome
    return outcome


def monte_carlo(cfg: ScenarioConfig, kind: str, workers: int = 1) -> MonteCarloResult:
    """RMSE over seeded trials for every SNR in the grid.

    The scenario is compiled before the first trial; a :class:`ConfigError`,
    from compiling or from a trial, propagates, and any other
    :class:`WsnlocError` counts as a failed trial. Each row is stacked where
    the kind allows it; every trial a stacked row did not solve goes through
    :func:`run_trial`, so each failed trial's error leaves it once, for a
    caller that watches it (a failed rss trial is solved twice). ``workers``
    is accepted for compatibility and ignored: trials run serially.
    """
    p = _pipeline(cfg, kind)
    rows = []
    with np.errstate(**_QUIET):
        for si, snr in enumerate(cfg.snr_grid_db):
            errors, failed = [], collections.Counter()
            for ti, outcome in enumerate(_row_outcomes(p, si)):
                if not isinstance(outcome, TrialResult):
                    try:
                        outcome = run_trial(cfg, kind, si, ti)
                    except WsnlocError as exc:
                        if isinstance(exc, ConfigError):
                            raise
                        failed[type(exc).__name__] += 1
                        continue
                errors.append(outcome.error)
            if not errors:
                raise AllTrialsFailed(f"all {cfg.trials} trials failed at snr={snr} dB")
            rmse = math.sqrt(float(np.mean(np.square(errors))))
            if math.isinf(rmse):  # squares of finite errors overflowed: scale by the largest
                top = max(errors)
                rmse = top * math.sqrt(float(np.mean(np.square(np.divide(errors, top)))))
            by_class = tuple(sorted(failed.items()))
            rows.append(MonteCarloRow(snr, rmse, cfg.trials, cfg.trials - len(errors), by_class))
    return MonteCarloResult(unit="deg" if kind == "doa" else "m", rows=tuple(rows))


def compute_spectrum(cfg: ScenarioConfig) -> Spectrum:
    """The seeded MUSIC spectrum for trial 0 at the first grid SNR."""
    if cfg.method["doa"] != "music":
        raise ConfigError("spectrum dumps need method.doa == 'music'")
    p = _pipeline(cfg, "doa")
    rng = rng_for_trial(cfg.seed, 0, 0)
    snr_db = cfg.snr_grid_db[0]
    with np.errstate(**_QUIET):
        x = synthesize_snapshots(p.geometry, p.sources, cfg.snapshots, snr_db, rng)
        try:
            spectrum, _ = music(p.prepare(p, x), p.scan, p.sources.count, p.grid_step)
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
