"""Scenario configs: the JSON schema, its checker and the loaded scenario.

A scenario is a JSON document checked against :data:`CONFIG_SCHEMA` (unknown
keys are rejected) by :func:`_schema_error`, a walk over the schema itself that
knows only the keywords the schema uses and gives draft 2020-12's verdict; no
JSON Schema library is loaded. A schema error names its path and keyword and
shows the offending value cut short. Loading a scenario builds each of its
sections (the array, the sources, the hybrid node, the interferers) into its
library object, once.
"""

import dataclasses
import json
import math
import operator
import reprlib
import sys
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .arrays import SourceSet, UniformCircularArray, UniformLinearArray
from .channel import ChannelModel, sigma_from_snr, wavelength_from_frequency
from .errors import ConfigError, WsnlocError
from .hybrid import HybridNode

_XY = {
    "type": "array",
    "items": {"type": "number"},
    "minItems": 2,
    "maxItems": 2,
}

# an azimuth within one turn either way, so that an estimate's error squares to a float
_AZIMUTH = {"type": "number", "minimum": -360, "maximum": 360}

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
                "azimuths_deg": {"type": "array", "items": _AZIMUTH, "minItems": 1},
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
        "interferers_deg": {"type": "array", "items": _AZIMUTH},
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

    A number it reaches that is NaN or infinite (``json`` reads a literal past the float
    range, such as ``1e400``, as infinity) raises :class:`ConfigError` at once, before
    any other check of that number. So does an integer past the float range, once the
    schema's checks of it, its bounds among them, have passed: one that breaks a bound
    is reported as breaking it."""
    at = "/".join(map(str, path)) or "(top level)"
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(value, float) and not abs(value) <= sys.float_info.max:
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
    if number and not abs(value) <= sys.float_info.max:  # an integer no float holds
        raise ConfigError(f"invalid scenario config: {at} is NaN, infinite or too large")
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
