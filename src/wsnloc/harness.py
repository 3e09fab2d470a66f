"""Seeded Monte-Carlo experiment harness.

A scenario is a JSON document checked against :data:`CONFIG_SCHEMA` (unknown
keys are rejected) by :func:`_schema_error`, a walk over the schema itself that
knows only the keywords the schema uses and gives draft 2020-12's verdict; no
JSON Schema library is loaded. A schema error names its path and keyword and
shows the offending value cut short. Four experiment kinds exist, matching the
CLI subcommands:

* ``rss``    - trilateration from RSS ranging, position RMSE vs SNR.
* ``doa``    - array DOA estimation, angular RMSE vs SNR.
* ``hybrid`` - RSS+DOA fusion around one hybrid node, position RMSE vs SNR.
* ``spectrum`` - one seeded MUSIC spectrum dump (angle_deg, power_db).

Loading a scenario builds each of its sections (the array, the sources, the
hybrid node, the interferers) into its library object, once. A scenario is
then compiled once per kind into a :class:`Pipeline`, which checks that the
kind has the parts it needs and every method/geometry combination (a MUSIC
grid included: it must be able to show a peak per source), and builds what
all trials share; a trial then only draws randomness and calls kernels,
through one table, :data:`_STEPS`.
An anchor layout that every trial's trilateration would reject is a
:class:`ConfigError` there too.

rss and hybrid trials run in chunks of the whole sweep: the (snr_index,
trial_index) pairs taken in row-major order, as many as draw at most
:data:`ROW_VALUES` values (shadowing terms, plus complex snapshot values for
hybrid) and at least one, so a chunk's memory does not grow with ``trials``
or the grid, and a row does not end a chunk. Each kind compiles a stacked
chunk function, and its :func:`run_trial` is a chunk of one pair. A chunk
returns arrays, as the library's stack kernels do: its (T, 2) truths and
estimates, its (T,) errors, NaN exactly where a trial failed, and its (T,)
failures; :func:`monte_carlo` reads each row's errors into one float64
array and builds no per-trial object. Both kinds
range through each row's (generating, inverting) channel pair, so
``channel.eta_true`` applies to either. Each trial draws on its own stream,
at its own row's SNR; the chunk then does its numerics as stacks, bit for bit
what each trial's own pass gives:

* a chunk ranges all its trials at once (:func:`_ranges`): besides its
  target (and a hybrid trial's waveforms and noise), a trial draws only the
  k standard-normal shadowing terms ``path_loss`` would draw, and the chunk
  forms its (T, k) distances with one ``hypot``, their mean losses with one
  :func:`channel.mean_path_loss` call (the rows' channels differ only in
  their shadowing std), adds each trial's shadowing scaled by its row's std
  and inverts the losses as one block;
* a chunk solves its trilateration fixes (rss LS, WLS or Huber; hybrid ls,
  wls and the fbss coarse fix) as one stack, WLS weights from each trial's
  own row, Huber in at most two (rows with shadowing start from WLS, rows
  without from LS), and scores its (T, 2) estimates in one pass;
* a hybrid chunk checks its targets' bearings against the interferers, forms
  its snapshots (one product per trial) and sample covariances, fbss's
  beamspace map and smoothing, the checks and eigendecompositions of
  :func:`numerics.herm_eig_stack` and the fusion (the stacked kernels of
  :mod:`hybrid`) as array operations over its trials; its MUSIC scans and
  peak picks (:func:`doa.music_peaks`) run one subspace at a time.

doa trials run one at a time through :func:`run_trial`, in row-major order:
the sources' steering matrix and sorted truths are built at compile, so a
trial draws its waveforms and noise (:func:`arrays.draw_signals`, the draws
of ``synthesize_snapshots``), forms ``steer @ s (+ noise)``, runs the method
and scores its estimates. ``workers`` is still ignored.

A doa or hybrid scenario whose trial would hold more than
:data:`SIZE_BUDGET` complex values in its snapshots, its covariance or its
MUSIC scan is a :class:`ConfigError` at compile, before any of them is built;
so is a scenario of more than :data:`SIZE_BUDGET` trials per SNR row, whose
errors :func:`monte_carlo` holds as one float64 array.

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
import json
import math
import operator
import reprlib
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import decorrelate
from .arrays import (
    SourceSet,
    UniformCircularArray,
    UniformLinearArray,
    draw_signals,
    noise_power,
    sample_covariance,
    steering_matrix,
)
from .channel import (
    ChannelModel,
    invert_distance,
    lognormal_sigma_d,
    mean_path_loss,
    sigma_from_snr,
    wavelength_from_frequency,
)
from .doa import Spectrum, capacity, esprit, music, music_peaks, music_spectrum, root_music
from .doa import scan_capacity, uca_esprit, uca_root_music
from .errors import (
    AllTrialsFailed,
    CoincidentSources,
    ConfigError,
    NonPositiveDistance,
    NumericOverflow,
    WsnlocError,
)
from .geometry import LopMatrix, as_anchor_array, bearing_to, distance, lop_matrix
from .hybrid import HybridNode, bearing_midpoint, fbss_bearing, single_node_stack, two_lines_stack
from .numerics import herm_eig_stack
from .pme import PmeTransform, VandermondeArray, build_transform
from .rss import MAX_CONDITION, huber_stack, solve_stack, wls_row_weights

# Extreme shadowing drives ranges and estimates out of the float range; a trial fails
# on an explicit check of them and is counted, so numpy's warnings on the way there
# would only repeat that.
_QUIET = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}
_BAD_RANGE = "shadowing drove an estimated range to 0 or infinity"
_BAD_ESTIMATE = "the position estimate left the float range"
_COINCIDENT = "source azimuths must be distinct"
ROW_VALUES = 8192  # most values (shadowing terms, complex snapshot values) one chunk draws
# most complex values one trial's snapshots, its covariance or a MUSIC scan's steering
# matrix may hold (64 MiB); the shipped configs and tests stay under 600,000. Also the
# most trials per SNR row, whose errors monte_carlo holds as one float64 array (32 MiB)
SIZE_BUDGET = 1 << 22

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
                "elevation_deg": {"type": "number", "exclusiveMinimum": 0, "maximum": 90},
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
                "elevation_deg": {"type": "number", "exclusiveMinimum": 0, "maximum": 90},
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

_DEFAULT_METHOD = {
    "estimator": "ls",
    "doa": "music",
    "decorrelate": "none",
    "hybrid": "single",
    "grid_step_deg": 0.1,
    "huber_epsilon": 1e-3,
}


def _ring(spec: dict, wavelength: float) -> UniformCircularArray:
    return UniformCircularArray(
        n=spec["n_elements"],
        radius=spec["radius_wavelengths"] * wavelength,
        elevation=math.radians(spec.get("elevation_deg", 90.0)),
        wavelength=wavelength,
    )


def _array(spec: dict, wavelength: float) -> UniformLinearArray | UniformCircularArray:
    size = "spacing_wavelengths" if spec["kind"] == "ula" else "radius_wavelengths"
    if size not in spec:
        raise ConfigError(f"{spec['kind']} array needs {size}")
    if spec["kind"] == "uca":
        return _ring(spec, wavelength)
    return UniformLinearArray(spec["n_elements"], spec[size] * wavelength, wavelength)


_TYPES = {"object": dict, "array": list, "number": (int, float), "integer": int, "boolean": bool}
# keyword: (whether it bounds a list's length rather than a number, the test a value
# within the bound passes, how a value past it reads)
_BOUNDS = {
    "minimum": (False, operator.ge, "is less than"),
    "exclusiveMinimum": (False, operator.gt, "is not greater than"),
    "maximum": (False, operator.le, "is greater than"),
    "minItems": (True, operator.ge, "has fewer items than"),
    "maxItems": (True, operator.le, "has more items than"),
}
_SHOWN = reprlib.Repr()  # stops at 2 levels and 4 items however large the value
_SHOWN.maxlevel, _SHOWN.maxlist, _SHOWN.maxstring = 2, 4, 36


def _shown(value) -> str:
    text = _SHOWN.repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _same(value, fixed) -> bool:
    return isinstance(value, bool) == isinstance(fixed, bool) and value == fixed


def _is_type(value, kind: str) -> bool:
    if isinstance(value, bool):  # JSON's true is neither an integer nor a number
        return kind == "boolean"
    if kind == "integer" and isinstance(value, float):
        return value.is_integer()  # but 1.0 is an integer
    return isinstance(value, _TYPES[kind])


def _schema_error(value, schema: dict, path: tuple = ()) -> str | None:
    """How ``value`` first breaks ``schema`` (:data:`CONFIG_SCHEMA` or a part of it), as
    ``"<path>: <keyword>: <what failed>"``, or ``None`` if it conforms; the verdict is
    draft 2020-12's. Only the keywords the schema uses are known. The walk follows the
    schema, so it never goes deeper than the schema does, however deep ``value`` nests.

    A number it reaches that is NaN, infinite (``json`` reads a literal past the float
    range, such as ``1e400``, as infinity) or an integer past the float range raises
    :class:`ConfigError` at once, before any other check of that number."""
    at = "/".join(map(str, path)) or "(top level)"
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if number and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"invalid scenario config: {at} is NaN, infinite or too large")
    if "oneOf" in schema:
        fits = sum(_schema_error(value, part, path) is None for part in schema["oneOf"])
        if fits != 1:
            return f"{at}: oneOf: {_shown(value)} matches {fits} of its schemas, not 1"
    if "const" in schema and not _same(value, schema["const"]):
        return f"{at}: const: {_shown(value)} is not {schema['const']!r}"
    if "enum" in schema and not any(_same(value, choice) for choice in schema["enum"]):
        return f"{at}: enum: {_shown(value)} is not one of {schema['enum']}"
    if "type" in schema and not _is_type(value, schema["type"]):
        return f"{at}: type: {_shown(value)} is not of type {schema['type']}"
    for keyword, (of_list, within, reads) in _BOUNDS.items():
        if keyword in schema and (isinstance(value, list) if of_list else number):
            if not within(len(value) if of_list else value, schema[keyword]):
                return f"{at}: {keyword}: {_shown(value)} {reads} {schema[keyword]}"
    if isinstance(value, list) and "items" in schema:
        for index, item in enumerate(value):
            error = _schema_error(item, schema["items"], (*path, index))
            if error is not None:
                return error
    if isinstance(value, dict):
        missing = [key for key in schema.get("required", ()) if key not in value]
        if missing:
            return f"{at}: required: {missing[0]!r} is missing"
        known = schema.get("properties", {})
        for key, item in value.items():
            if key in known:
                error = _schema_error(item, known[key], (*path, key))
                if error is not None:
                    return error
            elif schema.get("additionalProperties") is False:
                return f"{at}: additionalProperties: {_shown(key)} is not in the schema"
    return None


@dataclass(frozen=True)
class ScenarioConfig:
    """Parsed scenario: each section built into its library object at load (``None``
    where the section is absent; ``interferers`` is empty where there are none)."""

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
    array: UniformLinearArray | UniformCircularArray | None
    sources: SourceSet | None
    node: HybridNode | None
    interferers: SourceSet  # coherent with the target's signal (hybrid fbss)
    snapshots: int
    method: dict
    # Compiled pipelines by kind. Not an init field, so ``with_method`` and
    # ``dataclasses.replace`` start a new config with an empty cache.
    _pipelines: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        error = _schema_error(raw, CONFIG_SCHEMA)
        if error is not None:
            raise ConfigError(f"invalid scenario config: {error}")

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

        array, src, hub = raw.get("array"), raw.get("sources"), raw.get("hybrid_node")
        try:
            array = None if array is None else _array(array, wavelength)
            sources = None if src is None else SourceSet(
                np.radians(src["azimuths_deg"]), src.get("amplitudes"), src.get("coherent", False)
            )
            node = None if hub is None else HybridNode(hub["center"], _ring(hub, wavelength))
            interferers = np.radians(raw.get("interferers_deg", []))
            interferers = SourceSet(interferers, raw.get("interferer_amplitudes"), coherent=True)
        except (ValueError, WsnlocError) as exc:
            raise ConfigError(f"invalid scenario config: {exc}") from exc

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
            array=array,
            sources=sources,
            node=node,
            interferers=interferers,
            snapshots=raw.get("snapshots", raw.get("sources", {}).get("snapshots", 100)),
            method=method,
        )

    def with_method(self, **overrides) -> "ScenarioConfig":
        method = dict(self.method)
        method.update({k: v for k, v in overrides.items() if v is not None})
        return dataclasses.replace(self, method=method)

    def channel_at(self, snr_db: float, eta: float | None = None) -> ChannelModel:
        return ChannelModel(
            d0=self.d0,
            eta=self.eta if eta is None else eta,
            sigma_db=sigma_from_snr(snr_db, self.sigma_ref_db),
            wavelength=self.wavelength,
        )


def load_config(path) -> ScenarioConfig:
    """Read and validate a scenario JSON file. A file that cannot be opened, is not
    UTF-8 JSON, holds an integer literal too long for ``int`` to parse, or nests past
    the interpreter's recursion limit is a :class:`ConfigError`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: decoding, JSON, int
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
    uint32 word, which no sweep reaches, takes :func:`rng_for_trial` itself."""
    pool, *lanes = _row_pool(seed, snr_index)
    for ti in trial_indices:
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
    """A scenario compiled for one kind: ``stack(pipeline, pairs)`` (rss, hybrid), for a
    chunk of (snr_index, trial_index) pairs in row-major order (returning the chunk's
    truths, estimates, errors and failures, :func:`_score`), or ``trial(pipeline,
    snr_index, rng)`` (doa) hands the trilateration to ``fix`` and the method's part to
    ``step`` (doa preprocessing to ``prepare``), all from :data:`_STEPS`; the other
    fields are what all trials share, ``None`` where a kind has no use for them."""

    cfg: ScenarioConfig
    grid_step: float  # MUSIC grid step, radians
    stack: Callable | None = None
    trial: Callable | None = None
    step: Callable | None = None  # doa estimator, hybrid fusion
    fix: Callable | None = None  # rss, hybrid ls/wls/fbss: a chunk's fixes as one stack
    chunk: int = 1  # most pairs one stack call takes
    models: tuple = ()  # per SNR (rss, hybrid): the (generating, inverting) channel pair
    sigma_db: np.ndarray | None = None  # per SNR (rss, hybrid): both models' shadowing std
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
    p.sigma_db = np.array([inverting.sigma_db for _, inverting in p.models])


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


def _check_scan(p: Pipeline, n_sources: int) -> None:
    """A MUSIC scan of ``p.scan`` on the method's grid must be able to show ``n_sources``
    peaks (:func:`doa.scan_capacity`), or every trial would find too few."""
    most = scan_capacity(p.scan, p.grid_step)
    if n_sources > most:
        step = p.cfg.method["grid_step_deg"]
        raise ConfigError(f"a {step:g} deg MUSIC grid shows at most {most} peaks, not {n_sources}")


def _compile_rss(p: Pipeline, cfg: ScenarioConfig) -> None:
    if cfg.anchors is None or cfg.anchors.shape[0] < 3:
        raise ConfigError("rss scenario needs at least 3 anchors")
    p.stack, p.fix = _rss_stack, _STEPS["estimator", cfg.method["estimator"]]
    p.ranged = cfg.anchors
    p.chunk = max(1, ROW_VALUES // len(p.ranged))
    p.clearance = _clearance(cfg, [], [])
    _channels(p, cfg)
    p.lop = _trilateration(cfg.anchors, cfg.method["estimator"] == "ls", p.models)


def _compile_doa(p: Pipeline, cfg: ScenarioConfig) -> None:
    """Linear arrays smooth (or Toeplitz-rebuild) their own covariance;
    circular arrays reach spatial smoothing only through the phase-mode
    beamspace, and Toeplitz reconstruction is not offered for them."""
    if cfg.array is None or cfg.sources is None:
        raise ConfigError("doa scenario needs an 'array' and a 'sources' section")
    method, prep = cfg.method["doa"], cfg.method["decorrelate"]
    _check_size(p, cfg.array, scans=method == "music")
    p.trial, p.step, p.prepare = _doa_trial, _STEPS["doa", method], _STEPS["decorrelate", prep]
    p.geometry = p.scan = geometry = cfg.array
    p.sources = sources = cfg.sources
    ring = isinstance(geometry, UniformCircularArray)
    # a check; trials redo it
    _per_row(cfg, "noise power", lambda snr: noise_power(sources.amplitudes, snr))
    if method != "music" and ring != method.startswith("uca-"):
        raise ConfigError(f"{method} does not run on a {'uca' if ring else 'ula'} array")
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
    if method == "music":
        _check_scan(p, sources.count)
    # what every trial shares: its snapshots are p.steer @ s (+ noise), and its score
    # compares its sorted estimates with the sorted truths
    p.steer = steering_matrix(geometry, sources.azimuths)
    p.truth = np.sort(sources.azimuths)
    p.truth_deg = np.degrees(p.truth)  # every trial's TrialResult.truth
    for arr in (p.steer, p.truth, p.truth_deg):
        arr.flags.writeable = False


def _compile_hybrid(p: Pipeline, cfg: ScenarioConfig) -> None:
    scheme = cfg.method["hybrid"]
    if cfg.node is None:
        raise ConfigError("hybrid scenario needs a 'hybrid_node' section")
    p.stack, p.step = _hybrid_stack, _STEPS["hybrid", scheme]
    p.node = node = cfg.node
    _check_size(p, node.geometry, scans=True)
    p.geometry = p.scan = node.geometry
    positions = node.element_positions
    radius = max(cfg.d0, 3.0 * node.geometry.radius)
    p.clearance = _clearance(cfg, [node.center], [radius], ranged=positions)
    _channels(p, cfg)
    # a check; the overflow is in 10^(-snr/10), whatever power a trial's sources carry
    _per_row(cfg, "noise power", lambda snr: noise_power((), snr))
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
        p.sources = cfg.interferers
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
            if _coincident(p, np.array([bearing]))[0]:
                bearing = math.degrees(bearing)
                raise ConfigError(f"target bearing {bearing:g} deg is an interferer's")
    if scheme in ("ls", "wls", "fbss"):  # the points fusion trilaterates from
        p.fix = _STEPS["estimator", "wls" if scheme == "wls" else "ls"]
        p.lop = _trilateration(p.ranged, scheme != "wls", p.models)
    _check_scan(p, 1 if p.sources is None else 1 + p.sources.count)


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


def _ranges(p: Pipeline, targets: np.ndarray, shadows, rows: np.ndarray) -> np.ndarray:
    """The (T, k) ranges T trials read from ``p.ranged``, trial t in SNR row ``rows[t]``
    and its ``shadows`` the k standard-normal draws ``path_loss`` would make for its
    points, in point order. The generating model of each trial's row gives its path
    losses (all mean losses in one call, as the rows' models differ only in their
    shadowing std, plus the shadows times the row's std) and the inverting one reads
    them back: each range is the value a trial's own ``path_loss`` and
    ``invert_distance`` give."""
    gen_model, inv_model = p.models[0]
    diff = p.ranged[None] - targets[:, None]
    mean = mean_path_loss(np.hypot(diff[..., 0], diff[..., 1]), gen_model)
    return invert_distance(mean + np.array(shadows) * p.sigma_db[rows, None], inv_model)


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
    d = _ranges(p, targets, shadows, rows)
    failed = np.where(_usable(d), None, NonPositiveDistance(_BAD_RANGE))
    return _score(targets, *_fixes(p, rows, d, failed))


def _wls_weights(p: Pipeline, rows: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each trial's WLS weights and their failures (:func:`wls_row_weights`), under the
    inverting channel of its own SNR row ``rows[t]``."""
    weights, failed = np.empty((len(d), d.shape[1] - 1)), np.empty(len(d), dtype=object)
    for si in set(rows.tolist()):  # not np.unique, whose first call imports numpy.ma
        at = rows == si
        weights[at], failed[at] = wls_row_weights(p.models[si][1], d[at])
    return weights, failed


def _rss_huber(p: Pipeline, rows: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Huber fixes in at most two stacks: trials in rows with shadowing start from their
    WLS fix, the others (no shadowing: every WLS weight alike) from the LS one."""
    pos, failed = np.empty((len(d), 2)), np.empty(len(d), dtype=object)
    shadowed, epsilon = p.sigma_db[rows] > 0, p.cfg.method["huber_epsilon"]
    for at in (np.flatnonzero(shadowed), np.flatnonzero(~shadowed)):
        if at.size:
            weighted = _wls_weights(p, rows[at], d[at]) if shadowed[at[0]] else ()
            pos[at], failed[at] = huber_stack(p.lop.A, p.lop.rhs(d[at]), epsilon, *weighted)[:2]
    return pos, failed


def _ring_error(est: np.ndarray, truth: np.ndarray) -> float:
    """RMS error, degrees, of sorted azimuths on a circle against the sorted truths: the
    best cyclic pairing, each difference wrapped into [-pi, pi] (one within it is kept
    as it is)."""
    d = np.array([np.roll(est, k) - truth for k in range(len(truth))])
    d -= 2.0 * np.pi * np.round(d / (2.0 * np.pi))
    return math.degrees(math.sqrt(float(np.min(np.mean(d**2, axis=1)))))


def _snapshots(p: Pipeline, snr_db: float, rng) -> np.ndarray:
    """A doa trial's (N, K) snapshots: the draws of :func:`draw_signals` and the bits of
    ``synthesize_snapshots``, on the sources' steering matrix built at compile."""
    src, size, k = p.sources, p.geometry.size, p.cfg.snapshots
    s, noise = draw_signals(src.amplitudes, src.coherent, size, k, snr_db, rng)
    x = p.steer @ s
    return x if noise is None else x + noise


def _doa_trial(p: Pipeline, snr_index: int, rng) -> TrialResult:
    """One doa trial: it draws its waveforms and noise, forms its snapshots on the
    compiled steering matrix and runs the method on them. It is scored against the
    sorted truths (the RMS by ``np.mean``'s arithmetic); on a ring, by the pairing of
    :func:`_ring_error` where that is lower (an estimate near +180 deg of a source near
    -180 deg)."""
    est = p.step(p, _snapshots(p, p.cfg.snr_grid_db[snr_index], rng)).azimuths
    d = est - p.truth
    err = math.degrees(math.sqrt(float(np.add.reduce(d * d) / d.size)))
    if isinstance(p.geometry, UniformCircularArray):
        err = min(err, _ring_error(est, p.truth))
    return TrialResult(estimate=np.degrees(est), truth=p.truth_deg, error=err)


def _covariance(p, x):
    """Sample covariance; of the beamspace snapshots when a ring is smoothed."""
    return sample_covariance(x if p.transform is None else np.asarray(p.transform.Tv @ x))


def _coincident(p: Pipeline, bearings: np.ndarray) -> np.ndarray:
    """Whether each of the target ``bearings`` is one of the interferers' azimuths, exactly
    or as a NaN (two NaNs are one azimuth to :class:`SourceSet`): a trial that draws such
    a target has two coincident sources."""
    if p.sources is None:
        return np.zeros(len(bearings), dtype=bool)
    others, bearings = p.sources.azimuths, bearings[:, None]
    return np.any((bearings == others) | (np.isnan(bearings) & np.isnan(others)), axis=1)


def _noise_subspaces(p: Pipeline, azimuths, s, noise, failed) -> tuple[np.ndarray, np.ndarray]:
    """The (T, n, n) eigenvectors, descending, of the covariances of T trials' snapshots
    (fbss: mapped into the beamspace and smoothed): sources at ``azimuths`` (T, M) with
    the waveforms ``s`` (T, M, K) and the T ``noise`` arrays (N, K), or ``None``, that
    :func:`draw_signals` gives each trial; ``failed`` updated by the checks each trial's
    own covariance passes through."""
    a = np.ascontiguousarray(p.geometry.steering(azimuths).transpose(1, 0, 2))
    x = a @ s  # one product per trial, as synthesize_snapshots makes
    for x_t, noise_t in zip(x, noise):  # a trial whose noise power is 0 adds none, not zeros
        if noise_t is not None:
            x_t += noise_t
    r = _covariance(p, x)
    if p.plan is not None:  # a sample covariance is Hermitian: smooth skips fbss's check
        r = decorrelate.smooth(r, p.plan, forward_backward=True)
    _, q, failed = herm_eig_stack(r, failed)
    return q, failed


def _hybrid_stack(p: Pipeline, pairs: list) -> tuple:
    """Each trial of the chunk ``pairs`` draws its target, signal, noise (at its row's
    SNR) and shadowing from its own stream; the chunk then checks the targets' bearings
    against the interferers, forms its snapshots and covariances (fbss:
    beamspace-mapped and smoothed) as stacks, splits them with one eigendecomposition,
    scans their MUSIC spectra and picks their peaks one subspace at a time
    (:func:`music_peaks`), ranges its trials as one (T, k) block, solves its
    trilateration fixes as one stack and fuses them with the scheme's stacked kernel.
    A trial gets the error its own pass would raise first: its sources' (a target on an
    interferer's bearing), its ranges' (fbss only), its covariance's, its spectrum's, its
    ranges', its fix's, its fusion's, its score's. Returns the chunk's outcome
    (:func:`_score`)."""
    amplitudes = np.ones(1) if p.sources is None else np.concatenate([[1.0], p.sources.amplitudes])
    size, k, coherent = p.geometry.size, p.cfg.snapshots, p.sources is not None

    def draw(rng, si):
        target = _draw_target(p, rng)
        signals = draw_signals(amplitudes, coherent, size, k, p.cfg.snr_grid_db[si], rng)
        return target, signals, rng.normal(0.0, 1.0, size=len(p.ranged))

    targets, signals, shadows = zip(*_draws(p, pairs, draw))
    targets, rows = np.array(targets), np.array([si for si, _ in pairs])
    d = _ranges(p, targets, shadows, rows)
    center = p.node.center  # each bearing as bearing_to gives it
    bearings = np.arctan2(targets[:, 1] - center[1], targets[:, 0] - center[0])
    azimuths = bearings[:, None]
    if p.sources is not None:  # the target's bearing first, then the interferers
        others = np.broadcast_to(p.sources.azimuths, (len(d), p.sources.count))
        azimuths = np.hstack([azimuths, others])
    failed = np.where(_coincident(p, bearings), CoincidentSources(_COINCIDENT), None)
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
        q, failed[live] = _noise_subspaces(p, azimuths[live], s, noise, failed[live])
        del s, noise  # free the row's snapshots before its scans
        split = np.equal(failed[live], None)
        live, noise_q = live[split], q[split][..., n_sources:]
        try:
            peaks[live], failed[live] = music_peaks(noise_q, p.scan, n_sources, p.grid_step)
        except WsnlocError as exc:  # a peak search that fails as a whole fails each trial
            failed[live] = exc
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


def _fuse_two_lines(p, azimuths, d, fixes):
    # The hybrid node's own range pools its per-element measurements
    # (the ring radius is negligible against the node-target distance).
    pooled = np.mean(d[:, 1:], axis=1)
    return two_lines_stack(p.node, p.cfg.anchors[0], d[:, 0], pooled, azimuths[:, 0])


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
        p.lop.A, p.lop.rhs(d), *_wls_weights(p, rows, d)
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
    ("hybrid", "single"): lambda p, az, d, fixes: single_node_stack(p.node, az[:, 0], d),
    ("hybrid", "fbss"): lambda p, az, d, fixes: single_node_stack(
        p.node, fbss_bearing(p.node, az, fixes), d
    ),
    ("hybrid", "ls"): _fuse_midpoint,
    ("hybrid", "wls"): _fuse_midpoint,
    ("hybrid", "two-lines"): _fuse_two_lines,
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
    only :class:`TrialResult` a stack trial gets."""
    p = _pipeline(cfg, kind)
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
        x = _snapshots(p, snr_db, rng)
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
