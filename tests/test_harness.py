import collections
import copy
import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsnloc import arrays, channel, config, doa, geometry, harness
from wsnloc.arrays import UniformCircularArray, UniformLinearArray
from wsnloc.errors import AllTrialsFailed, ConfigError, WsnlocError
from wsnloc.config import CONFIG_SCHEMA, ScenarioConfig, load_config
from wsnloc.harness import (
    compute_spectrum,
    dump_spectrum,
    monte_carlo,
    rng_for_trial,
    run_trial,
    write_rmse_csv,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

RSS_RAW = {
    "seed": 1234,
    "trials": 20,
    "snr_grid_db": [5.0, 15.0],
    "region": [100.0, 100.0],
    "target": [30.0, 40.0],
    "channel": {"frequency_hz": 1e9, "eta": 2.0, "sigma_ref_db": 4.0},
    "anchors": [[0.0, 0.0], [100.0, 0.0], [0.0, 100.0], [100.0, 100.0]],
}

DOA_RAW = {
    "seed": 77,
    "trials": 10,
    "snr_grid_db": [10.0, 20.0],
    "array": {"kind": "ula", "n_elements": 8, "spacing_wavelengths": 0.5},
    "sources": {"azimuths_deg": [-10.0, 10.0], "snapshots": 100},
}

HYBRID_RAW = {
    "seed": 21,
    "trials": 4,
    "snr_grid_db": [10.0],
    "region": [30.0, 30.0],
    "target": [20.0, 18.0],
    "channel": {"frequency_hz": 1e9, "sigma_ref_db": 0.3},
    "anchors": [[2.0, 28.0], [28.0, 4.0], [22.0, 20.0]],
    "hybrid_node": {"center": [18.0, 16.0], "n_elements": 4, "radius_wavelengths": 0.3183},
    "snapshots": 32,
}


class TestConfig:
    def test_round_trip(self):
        cfg = ScenarioConfig.from_dict(RSS_RAW)
        assert cfg.seed == 1234
        assert cfg.snr_grid_db == (5.0, 15.0)
        assert cfg.wavelength == pytest.approx(0.299792458)

    def test_unknown_keys_rejected(self):
        bad = dict(RSS_RAW)
        bad["unexpected"] = 1
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(bad)

    def test_nested_unknown_keys_rejected(self):
        bad = json.loads(json.dumps(RSS_RAW))
        bad["channel"]["mystery"] = 2.0
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(bad)

    def test_target_outside_region(self):
        bad = dict(RSS_RAW)
        bad["target"] = [150.0, 40.0]
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(bad)

    def test_random_target_needs_region(self):
        bad = {k: v for k, v in RSS_RAW.items() if k != "region"}
        bad["target"] = "random"
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(bad)

    def test_wavelength_frequency_conflict(self):
        bad = json.loads(json.dumps(RSS_RAW))
        bad["channel"]["wavelength_m"] = 0.3
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(bad)

    def test_schema_is_strict_everywhere(self):
        assert CONFIG_SCHEMA["additionalProperties"] is False
        assert CONFIG_SCHEMA["properties"]["method"]["additionalProperties"] is False

    def test_grid_step_bounded_below(self):
        # 1e-9 degrees would ask for a 1.8e11-point grid; only validate it
        bad = json.loads(json.dumps(DOA_RAW))
        bad["method"] = {"grid_step_deg": 1e-9}
        with pytest.raises(ConfigError, match="grid_step_deg|0.01"):
            ScenarioConfig.from_dict(bad)
        bad["method"] = {"grid_step_deg": 0.01}
        assert ScenarioConfig.from_dict(bad).method["grid_step_deg"] == 0.01

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")

    def test_sections_built_at_load(self):
        doa_cfg = ScenarioConfig.from_dict(DOA_RAW)
        assert doa_cfg.array == UniformLinearArray(8, 0.5 * doa_cfg.wavelength, doa_cfg.wavelength)
        assert np.array_equal(doa_cfg.sources.azimuths, np.radians([-10.0, 10.0]))
        assert not doa_cfg.sources.coherent and doa_cfg.node is None
        assert doa_cfg.interferers.count == 0 and doa_cfg.interferers.coherent
        raw = with_keys(HYBRID_RAW, interferers_deg=[30.0, 60.0], interferer_amplitudes=[0.5, 0.7])
        cfg = ScenarioConfig.from_dict(raw)
        assert cfg.array is None and cfg.sources is None
        assert np.array_equal(cfg.node.center, [18.0, 16.0])
        ring = cfg.node.geometry
        assert isinstance(ring, UniformCircularArray)
        assert (ring.n, ring.radius, ring.elevation) == (4, 0.3183 * cfg.wavelength, math.pi / 2)
        assert np.array_equal(cfg.interferers.azimuths, np.radians([30.0, 60.0]))
        assert np.array_equal(cfg.interferers.amplitudes, [0.5, 0.7])


def with_keys(raw, drop=(), **changes):
    out = {k: v for k, v in json.loads(json.dumps(raw)).items() if k not in drop}
    out.update(changes)
    return out


# Invalid under the schema, one fault each
INVALID = {
    "missing_required_key": with_keys(RSS_RAW, drop=("trials",)),
    "unknown_key": with_keys(RSS_RAW, surprise=True),
    "bad_enum": with_keys(RSS_RAW, method={"estimator": "median"}),
    "below_minimum": with_keys(RSS_RAW, trials=0),
    "bad_target_one_of": with_keys(RSS_RAW, target=[30.0]),
    "grid_step_too_fine": with_keys(DOA_RAW, method={"grid_step_deg": 1e-9}),
    "boolean_trials": with_keys(RSS_RAW, trials=True),
    "fractional_trials": with_keys(RSS_RAW, trials=1.5),
    "empty_snr_grid": with_keys(RSS_RAW, snr_grid_db=[]),
    "region_of_three": with_keys(RSS_RAW, region=[1.0, 2.0, 3.0]),
    "zero_region_side": with_keys(RSS_RAW, region=[0, 100.0]),
    "seed_past_64_bits": with_keys(RSS_RAW, seed=2**64),
}

# What the config walker handles; a schema keyword outside these would go unchecked
BOUNDS = {"minimum", "maximum", "exclusiveMinimum", "minItems", "maxItems"}
WALKER_KEYWORDS = BOUNDS | {
    "type", "properties", "additionalProperties", "required", "items", "enum", "const", "oneOf"
}
ANNOTATIONS = {"$schema", "title"}  # at the top level only; they check nothing
VALIDATOR = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
SHIPPED = [json.loads(path.read_text()) for path in sorted(CONFIGS.glob("*.json"))]


def subschemas(schema):
    yield schema
    for part in [*schema.get("properties", {}).values(), *schema.get("oneOf", ())]:
        yield from subschemas(part)
    if "items" in schema:
        yield from subschemas(schema["items"])


def bound_extremes():
    """Every bound in the schema, as an int and a float, and its nearest neighbours."""
    out = set()
    for b in {part[k] for part in subschemas(CONFIG_SCHEMA) for k in BOUNDS & set(part)}:
        out |= {b, -b, b - 1, b + 1, float(b)}
        out |= {math.nextafter(b, -math.inf), math.nextafter(b, math.inf)}
    return sorted(out)


# Replacement values: the schema's bounds and their neighbours, magnitude extremes,
# integral and fractional floats, booleans, null, strings (enum members among them) and
# containers of the wrong shape or nested one level too deep
LEAVES = [
    *bound_extremes(), 1e-300, 1e300, -1e300, 0.5, 2.0, 1.5, True, False, None,
    "random", "ula", "uca", "ls", "music", "fbss", "none", "", "1",
    [], {}, [1.0], [1.0, 2.0], [1.0, 2.0, 3.0], [[1.0, 2.0]], [True, 1.0], [[1.0], [2.0]],
    {"kind": "ula", "n_elements": 2}, {"frequency_hz": 1e9},
]
KEYS = sorted({k for part in subschemas(CONFIG_SCHEMA) for k in part.get("properties", {})})


def nodes(value, path=()):
    yield path
    if isinstance(value, dict):
        children = value.items()
    else:
        children = enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from nodes(child, (*path, key))


def replaced(raw, path, new):
    if not path:
        return new
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return raw


@st.composite
def mutated_configs(draw):
    def leaf():  # a copy: a later mutation of the config must not edit LEAVES itself
        return copy.deepcopy(draw(st.sampled_from(LEAVES)))

    raw = json.loads(json.dumps(draw(st.sampled_from(SHIPPED))))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(nodes(raw))))
        node = raw
        for key in path:
            node = node[key]
        how = draw(st.sampled_from(["leaf", "flip", "wrap", "add", "drop"]))
        if how == "leaf":
            raw = replaced(raw, path, leaf())
        elif how == "flip" and isinstance(node, (int, float)) and not isinstance(node, bool):
            raw = replaced(raw, path, int(node) if isinstance(node, float) else float(node))
        elif how == "wrap":
            raw = replaced(raw, path, [node])
        elif how == "add" and isinstance(node, dict):
            node[draw(st.sampled_from([*KEYS, "surprise"]))] = leaf()
        elif how == "drop" and isinstance(node, dict) and node:
            del node[draw(st.sampled_from(sorted(node)))]
    return raw


def walker_accepts(raw):
    return config._schema_error(raw, CONFIG_SCHEMA) is None


class TestValidator:
    def test_schema_passes_metaschema(self):
        jsonschema.Draft202012Validator.check_schema(CONFIG_SCHEMA)

    def test_schema_uses_only_keywords_the_walker_knows(self):
        parts = list(subschemas(CONFIG_SCHEMA))
        assert set(CONFIG_SCHEMA) - WALKER_KEYWORDS == ANNOTATIONS
        assert all(set(part) <= WALKER_KEYWORDS for part in parts[1:])
        # the forms the walker reads them in
        assert all(part.get("additionalProperties", False) is False for part in parts)
        assert {part["type"] for part in parts if "type" in part} <= set(config._TYPES)
        fixed = [part["const"] for part in parts if "const" in part]
        fixed += [choice for part in parts for choice in part.get("enum", ())]
        assert all(isinstance(choice, str) for choice in fixed)

    @pytest.mark.parametrize("name", sorted(INVALID))
    def test_message_matches_jsonschema_validate(self, tmp_path, name):
        # The message names the path and keyword of the error jsonschema.validate raises
        # (the oneOf, where jsonschema reports a branch's error), and the key it concerns
        raw = INVALID[name]
        with pytest.raises(jsonschema.ValidationError) as reference:
            jsonschema.validate(raw, CONFIG_SCHEMA)
        error = reference.value
        at = "/".join(map(str, error.absolute_path)) or "(top level)"
        keyword = "oneOf" if "oneOf" in error.absolute_schema_path else error.validator
        with pytest.raises(ConfigError) as from_dict:
            ScenarioConfig.from_dict(raw)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError) as loaded:
            load_config(path)
        message = str(from_dict.value)
        assert message == str(loaded.value)
        assert message.startswith(f"invalid scenario config: {at}: {keyword}: ")
        if keyword in ("required", "additionalProperties"):
            assert error.message.split("'")[1] in message
        assert len(message) <= 120

    @settings(max_examples=500, deadline=None)
    @given(raw=mutated_configs())
    def test_verdict_is_draft_2020_12(self, raw):
        assert walker_accepts(raw) == VALIDATOR.is_valid(raw)

    def test_every_leaf_replacement_gets_the_draft_2020_12_verdict(self):
        # every place in the shipped configs (the first two items of a list stand for
        # the rest) set to every replacement value
        verdicts, places = collections.Counter(), set()
        for config in SHIPPED:
            for path in nodes(config):
                place = tuple(min(key, 1) if isinstance(key, int) else key for key in path)
                if place in places:
                    continue
                places.add(place)
                for leaf in LEAVES:
                    raw = replaced(json.loads(json.dumps(config)), path, leaf)
                    verdict = VALIDATOR.is_valid(raw)
                    assert walker_accepts(raw) == verdict, (path, leaf)
                    verdicts[verdict] += 1
        assert min(verdicts.values()) > 500, verdicts

    def test_deep_nesting_is_a_config_error(self):
        deep = []
        for _ in range(5000):
            deep = [deep]
        for key, value, where in [
            ("region", deep, "region: minItems"),
            ("region", [deep, 1.0], "region/0: type"),
            ("target", deep, "target: oneOf"),
            ("channel", {"eta": deep}, "channel/eta: type"),
            ("surprise", deep, "(top level): additionalProperties"),
        ]:
            with pytest.raises(ConfigError) as info:
                ScenarioConfig.from_dict(with_keys(RSS_RAW, **{key: value}))
            assert str(info.value).startswith(f"invalid scenario config: {where}: ")
            assert len(str(info.value)) <= 120

    def test_load_config_builds_no_validator(self):
        # Configs are checked without jsonschema: the CLI's import and loading every
        # shipped config leave it out of a fresh interpreter
        code = (
            "import pathlib, sys, wsnloc.cli\n"
            "from wsnloc.config import load_config\n"
            "paths = sorted(pathlib.Path(sys.argv[1]).glob('*.json'))\n"
            "print(len([load_config(p) for p in paths]))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'jsonschema'))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(CONFIGS.parent / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", code, str(CONFIGS)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.split() == [str(len(SHIPPED)), "[]"]


class TestRunTrial:
    def test_deterministic(self):
        cfg = ScenarioConfig.from_dict(RSS_RAW)
        a = run_trial(cfg, "rss", 0, 3)
        b = run_trial(cfg, "rss", 0, 3)
        assert np.array_equal(a.estimate, b.estimate)
        assert a.error == b.error

    def test_error_matches_recomputation(self):
        cfg = ScenarioConfig.from_dict(RSS_RAW)
        res = run_trial(cfg, "rss", 1, 0)
        assert res.error == pytest.approx(
            float(np.linalg.norm(res.estimate - res.truth)), abs=1e-12
        )

    def test_noiseless_trial_has_zero_error(self):
        raw = json.loads(json.dumps(RSS_RAW))
        raw["channel"]["sigma_ref_db"] = 0.0
        cfg = ScenarioConfig.from_dict(raw)
        assert run_trial(cfg, "rss", 0, 0).error < 1e-9

    def test_random_target_is_deterministic_and_in_region(self):
        raw = json.loads(json.dumps(RSS_RAW))
        raw["target"] = "random"
        cfg = ScenarioConfig.from_dict(raw)
        a = run_trial(cfg, "rss", 0, 4)
        b = run_trial(cfg, "rss", 0, 4)
        assert np.array_equal(a.truth, b.truth)
        assert 0 <= a.truth[0] <= 100 and 0 <= a.truth[1] <= 100
        other = run_trial(cfg, "rss", 0, 5)
        assert not np.array_equal(a.truth, other.truth)

    def test_method_override_compiles_afresh(self):
        cfg = ScenarioConfig.from_dict(DOA_RAW)
        music_est = run_trial(cfg, "doa", 0, 0).estimate
        esprit_est = run_trial(cfg.with_method(doa="esprit"), "doa", 0, 0).estimate
        assert not np.array_equal(music_est, esprit_est)

    def test_unknown_kind(self):
        cfg = ScenarioConfig.from_dict(RSS_RAW)
        with pytest.raises(ConfigError):
            run_trial(cfg, "tdoa", 0, 0)

    @pytest.mark.parametrize("integer", [np.int64, np.int32, np.uint32])
    @pytest.mark.parametrize("kind", ["doa", "rss", "hybrid"])
    def test_numpy_integer_indices(self, kind, integer, monkeypatch):
        # a numpy index is the Python int it holds: the same trial and stream, bit for
        # bit, and no overflow warning from the stream's hash-mix on the way
        cfg = ScenarioConfig.from_dict({"doa": DOA_RAW, "rss": RSS_RAW, "hybrid": HYBRID_RAW}[kind])
        si, ti = len(cfg.snr_grid_db) - 1, cfg.trials - 1
        expected = run_trial(cfg, kind, si, ti)
        chunk_rngs, made = harness._chunk_rngs, []

        def recorded(seed, pairs):  # each stream's state as the trial receives it
            rngs = chunk_rngs(seed, pairs)
            made.append((pairs, [rng.bit_generator.state for rng in rngs]))
            return rngs

        monkeypatch.setattr(harness, "_chunk_rngs", recorded)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_trial(cfg, kind, integer(si), integer(ti))
        assert result.error.hex() == expected.error.hex()
        assert result.estimate.tobytes() == expected.estimate.tobytes()
        ((pairs, states),) = made
        assert pairs == [(si, ti)] and all(type(i) is int for i in pairs[0])
        assert states == [rng_for_trial(cfg.seed, si, ti).bit_generator.state]


class TestMonteCarlo:
    def test_single_trial_rmse_is_abs_error(self):
        raw = dict(RSS_RAW)
        raw["trials"] = 1
        cfg = ScenarioConfig.from_dict(raw)
        result = monte_carlo(cfg, "rss")
        single = run_trial(cfg, "rss", 0, 0)
        assert result.rows[0].rmse == pytest.approx(abs(single.error), abs=1e-12)

    def test_rows_cover_grid(self):
        cfg = ScenarioConfig.from_dict(RSS_RAW)
        result = monte_carlo(cfg, "rss")
        assert [row.snr_db for row in result.rows] == [5.0, 15.0]
        assert all(row.trials == 20 for row in result.rows)

    def test_parallel_equals_serial(self):
        cfg = ScenarioConfig.from_dict(RSS_RAW)
        serial = monte_carlo(cfg, "rss", workers=1)
        parallel = monte_carlo(cfg, "rss", workers=4)
        for a, b in zip(serial.rows, parallel.rows):
            assert a.rmse == b.rmse
            assert a.failures == b.failures

    def test_rmse_matches_independent_recomputation(self):
        cfg = ScenarioConfig.from_dict(RSS_RAW)
        result = monte_carlo(cfg, "rss")
        for si, row in enumerate(result.rows):
            errors = [run_trial(cfg, "rss", si, ti).error for ti in range(cfg.trials)]
            assert row.rmse == pytest.approx(
                math.sqrt(float(np.mean(np.square(errors)))), rel=1e-12
            )

    def test_toeplitz_rejected_for_circular_arrays(self):
        raw = json.loads(json.dumps(DOA_RAW))
        raw["array"] = {
            "kind": "uca",
            "n_elements": 8,
            "radius_wavelengths": 0.55,
            "elevation_deg": 40.0,
        }
        raw["method"] = {"decorrelate": "toeplitz"}
        cfg = ScenarioConfig.from_dict(raw)
        with pytest.raises(ConfigError):
            run_trial(cfg, "doa", 0, 0)

    def test_doa_pipeline_unit(self):
        cfg = ScenarioConfig.from_dict(DOA_RAW)
        result = monte_carlo(cfg, "doa")
        assert result.rows[1].rmse < result.rows[0].rmse + 1.0

    def test_phase_mode_clamp_warns_once_per_run(self):
        # 6 elements on a 0.55-wavelength ring excite modes up to 3, so
        # build_transform clamps h to 2; the transform is built once per run.
        raw = json.loads(json.dumps(DOA_RAW))
        raw["array"] = {"kind": "uca", "n_elements": 6, "radius_wavelengths": 0.55}
        raw["sources"] = {"azimuths_deg": [30.0], "snapshots": 50}
        raw["method"] = {"doa": "uca-root-music"}
        cfg = ScenarioConfig.from_dict(raw)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            monte_carlo(cfg, "doa")
        clamps = [w for w in caught if "clamping phase-mode order" in str(w.message)]
        assert len(clamps) == 1

    def test_config_error_in_trial_is_not_a_failure(self):
        # a random target cannot be placed clear of anchors covering the region
        raw = json.loads(json.dumps(RSS_RAW))
        raw["region"] = [1.0, 1.0]
        raw["target"] = "random"
        raw["channel"]["d0_m"] = 5.0
        cfg = ScenarioConfig.from_dict(raw)
        with pytest.raises(ConfigError, match="could not place"):
            monte_carlo(cfg, "rss")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_failures_counted_and_all_failed_raises(self):
        # a shadowing std of tens of thousands of dB drives every drawn range out of
        # the float range: each trial fails on its draws, not on the layout
        raw = json.loads(json.dumps(RSS_RAW))
        raw["channel"]["sigma_ref_db"] = 1e5
        for estimator in ("ls", "wls", "huber"):
            cfg = ScenarioConfig.from_dict(raw).with_method(estimator=estimator)
            harness._pipeline(cfg, "rss")  # the scenario compiles; its trials fail
            with pytest.raises(AllTrialsFailed, match="all 20 trials failed"):
                monte_carlo(cfg, "rss")


    @pytest.mark.parametrize("kind", ["rss", "hybrid"])
    def test_first_all_failed_row_raises_within_one_chunk(self, kind):
        # at -3,000 dB the shadowing sends every range out of the float range, so rows 0
        # and 2 fail every trial and row 1 does not; one chunk holds the whole sweep, and
        # the error names row 0
        raw = json.loads(json.dumps(RSS_RAW if kind == "rss" else HYBRID_RAW))
        raw["snr_grid_db"] = [-3000.0, 9.0, -3001.0]
        cfg = ScenarioConfig.from_dict(raw)
        p = harness._pipeline(cfg, kind)
        trials = cfg.trials
        assert p.chunk >= 3 * trials
        with np.errstate(**harness._QUIET):
            failed = np.isnan(np.fromiter(harness._outcomes(p), float)).reshape(3, trials)
        assert failed[0].all() and failed[2].all()
        assert not failed[1].all()
        with pytest.raises(AllTrialsFailed, match=rf"all {trials} trials failed at snr=-3000.0 dB"):
            monte_carlo(cfg, kind)

    def test_config_error_of_a_trial_in_the_chunk_of_an_all_failed_row(self, monkeypatch):
        # row 0 fails every trial and row 1's first trial cannot place its target. In one
        # chunk the ConfigError leaves as the chunk draws, before any row is counted; with
        # a chunk per row, row 0 is counted and raises before row 1 draws
        raw = json.loads(json.dumps(RSS_RAW))
        raw.update(snr_grid_db=[-3000.0, 9.0], target="random")
        cfg = ScenarioConfig.from_dict(raw)
        unplaced, draw_target = rng_for_trial(cfg.seed, 1, 0).bit_generator.state, harness._draw_target

        def placing(p, rng):
            if rng.bit_generator.state == unplaced:
                raise ConfigError("could not place a random target clear of the ranging nodes")
            return draw_target(p, rng)

        monkeypatch.setattr(harness, "_draw_target", placing)
        with pytest.raises(ConfigError, match="could not place"):
            monte_carlo(cfg, "rss")
        monkeypatch.setattr(harness, "ROW_VALUES", cfg.trials * len(cfg.anchors))
        with pytest.raises(AllTrialsFailed, match="snr=-3000.0 dB"):
            monte_carlo(cfg.with_method(), "rss")  # compiled afresh: a chunk per row

    @pytest.mark.parametrize("kind", ["doa", "rss"])
    def test_failures_by_class_count_each_failed_trial(self, kind):
        # doa: three sources on four elements at 0 dB, where MUSIC often finds too few
        # peaks; rss: WLS under a shadowing std of 80 dB, which overflows some ranging
        # variances and puts some normal equations past the condition bound
        if kind == "doa":
            raw = dict(
                DOA_RAW,
                seed=5,
                trials=20,
                snr_grid_db=[0.0, 30.0],
                array={"kind": "ula", "n_elements": 4, "spacing_wavelengths": 0.5},
                sources={"azimuths_deg": [-20.0, 0.0, 20.0], "snapshots": 10},
            )
            expected = {"NoPeaksFound"}
        else:
            raw = json.loads(json.dumps(RSS_RAW))
            raw.update(trials=40, snr_grid_db=[0.0, 0.5], method={"estimator": "wls"})
            raw["channel"]["sigma_ref_db"] = 80.0
            expected = {"NumericOverflow", "SingularSystem"}
        cfg = ScenarioConfig.from_dict(raw)
        result = monte_carlo(cfg, kind)
        seen = set()
        for si, row in enumerate(result.rows):
            counts = collections.Counter()
            for ti in range(cfg.trials):
                try:
                    with np.errstate(all="ignore"):
                        run_trial(cfg, kind, si, ti)
                except WsnlocError as exc:
                    counts[type(exc).__name__] += 1
            assert row.failures_by_class == tuple(sorted(counts.items()))
            assert sum(n for _, n in row.failures_by_class) == row.failures
            seen.update(name for name, _ in row.failures_by_class)
        assert result.rows[0].failures > 0 and seen == expected

    def test_overflowing_squares_scale_by_the_largest_error(self, monkeypatch):
        # squares of errors near 1e200 overflow: the row's RMSE is the largest error
        # times the RMS of the errors scaled by it, as the list formula gave it
        cfg = ScenarioConfig.from_dict(dict(RSS_RAW, trials=4, snr_grid_db=[5.0]))
        errors = [1.5e200, 3.25e200, 7e199, 2.2e200]
        p = harness._pipeline(cfg, "rss")
        monkeypatch.setattr(p, "stack", lambda p, pairs: (None, None, np.array(errors), None))
        (row,) = monte_carlo(cfg, "rss").rows
        top = max(errors)
        scaled = top * math.sqrt(float(np.mean(np.square(np.divide(errors, top)))))
        with np.errstate(over="ignore"):
            assert math.isinf(math.sqrt(float(np.mean(np.square(errors)))))
        assert row.rmse.hex() == scaled.hex()
        assert row.failures == 0

    def test_doa_trial_with_a_nan_error_is_kept_in_its_row(self, monkeypatch):
        # a doa trial that returns a NaN error is scored, not failed: its row's RMSE is NaN
        cfg = ScenarioConfig.from_dict(dict(DOA_RAW, trials=3))
        trial, scored = harness._doa_trial, []

        def scoring(p, snr_index, rng):  # the second trial of each row scores NaN
            result = trial(p, snr_index, rng)
            scored.append(result.error)
            if len(scored) % cfg.trials == 2:
                result = harness.TrialResult(result.estimate, result.truth, math.nan)
            return result

        monkeypatch.setattr(harness, "_doa_trial", scoring)
        result = monte_carlo(cfg, "doa")
        assert len(scored) == cfg.trials * len(cfg.snr_grid_db)
        assert [row.failures for row in result.rows] == [0, 0]
        assert all(math.isnan(row.rmse) for row in result.rows)


@pytest.mark.parametrize("scheme", ["single", "ls", "wls", "two-lines"])
def test_hybrid_target_due_west_of_the_node(scheme):
    # the node at (18, 16) sees the target at (10, 16) along 180 degrees, the two ends of its
    # MUSIC scan; missing that peak once put the errors at metres, growing with SNR
    raw = json.loads((CONFIGS / "hybrid_single.json").read_text())
    raw.update(target=[10.0, 16.0], trials=30, snr_grid_db=[1.0, 10.0])
    low, high = monte_carlo(ScenarioConfig.from_dict(raw).with_method(hybrid=scheme), "hybrid").rows
    assert low.failures == high.failures == 0
    assert high.rmse < low.rmse < 1.0


def test_ring_doa_pairs_estimates_across_the_seam():
    # sources at -179.95 and 0 deg: a MUSIC peak at +180 deg is 0.05 deg from the first,
    # wrapped; pairing sorted estimates with sorted truths read the row's RMSE as 127 deg
    raw = json.loads((CONFIGS / "spectrum_uca.json").read_text())
    raw.update(trials=20, snr_grid_db=[30.0])
    raw["sources"]["azimuths_deg"] = [-179.95, 0.0]
    (row,) = monte_carlo(ScenarioConfig.from_dict(raw), "doa").rows
    assert row.failures == 0
    assert row.rmse < 0.1


class TestRngStreams:
    def test_numpy_streams_are_the_pinned_ones(self):
        # Every golden CSV rests on numpy's PCG64 Generator streams, which NEP 19 does not
        # freeze: a numpy release that changed them would fail every golden at once, and
        # this test names that cause
        draws = {
            "random": np.random.Generator(np.random.PCG64(1806)).random(3),
            "standard_normal": np.random.Generator(np.random.PCG64(1806)).standard_normal(3),
            "rng_for_trial": rng_for_trial(1806, 0, 0).standard_normal(1),
        }
        assert {name: [float(x).hex() for x in values] for name, values in draws.items()} == {
            "random": ["0x1.c1baceb056ac4p-3", "0x1.8b4af476493dep-2", "0x1.c8a44cd8d91e1p-1"],
            "standard_normal": ["0x1.55faf57c4e5bap-1", "-0x1.dbc38879b065ap-3", "-0x1.22d841b353a63p-2"],
            "rng_for_trial": ["0x1.f1d4560525800p+0"],
        }, f"numpy {np.__version__} draws other PCG64 streams than the goldens were made with"

    def test_streams_independent_of_each_other(self):
        a = rng_for_trial(9, 0, 0).standard_normal(4)
        b = rng_for_trial(9, 0, 1).standard_normal(4)
        c = rng_for_trial(9, 1, 0).standard_normal(4)
        assert not np.allclose(a, b)
        assert not np.allclose(a, c)

    def test_stream_reproducible(self):
        assert np.array_equal(
            rng_for_trial(9, 2, 7).standard_normal(8),
            rng_for_trial(9, 2, 7).standard_normal(8),
        )

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.sampled_from([0, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1]) | st.integers(0, 2**64 - 1),
        # an SNR index past one uint32 word adds its words to the row's hash constant
        snr_index=st.integers(0, 50) | st.sampled_from([2**32 - 1, 2**32, 2**40]),
        trials=st.lists(
            st.integers(0, 10**6) | st.integers(2**32 - 2, 2**32 + 2) | st.integers(2**64 - 2, 2**70),
            min_size=1,
            max_size=4,
        ),
    )
    def test_row_streams_are_rng_for_trial(self, seed, snr_index, trials):
        # numpy's own SeedSequence, behind rng_for_trial, is the oracle of a chunk under
        # ARRAY_PASS pairs, which derives its streams one at a time on Python ints
        rngs = harness._chunk_rngs(seed, [(snr_index, ti) for ti in trials])
        for ti, rng in zip(trials, rngs, strict=True):
            oracle = rng_for_trial(seed, snr_index, ti)
            assert rng.bit_generator.state == oracle.bit_generator.state
            assert np.array_equal(rng.standard_normal(8), oracle.standard_normal(8))
            assert rng.uniform() == oracle.uniform()

    # a chunk's (snr_index, trial_index) pairs in any order across rows: SNR indices past
    # one uint32 word take other hash constants. A chunk under ARRAY_PASS pairs goes one
    # trial at a time on Python ints, where a trial index past one word takes
    # rng_for_trial itself; a larger chunk's trial indices are one word each, as every
    # sweep's are (at most SIZE_BUDGET trials per row)
    ONE_WORD = st.integers(0, 10**6) | st.sampled_from([0, 2**32 - 1])
    WIDE = ONE_WORD | st.sampled_from([2**32, 2**64 - 1])
    SNR = st.integers(0, 12) | st.sampled_from([2**32 - 1, 2**32, 2**40])

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]) | st.integers(0, 2**64 - 1),
        pairs=st.lists(st.tuples(SNR, ONE_WORD), min_size=1, max_size=40)
        | st.lists(st.tuples(SNR, WIDE), min_size=1, max_size=harness.ARRAY_PASS - 1),
    )
    def test_chunk_streams_are_rng_for_trial(self, seed, pairs):
        # numpy's own SeedSequence, behind rng_for_trial, is the oracle of the chunk deriver
        rngs = harness._chunk_rngs(seed, pairs)
        for (si, ti), rng in zip(pairs, rngs, strict=True):
            oracle = rng_for_trial(seed, si, ti)
            assert rng.bit_generator.state == oracle.bit_generator.state
            assert np.array_equal(rng.standard_normal(8), oracle.standard_normal(8))
            assert rng.uniform() == oracle.uniform()

    def test_chunk_of_array_pass_pairs_derives_its_streams_in_one_pass(self, monkeypatch):
        # one _lane call on arrays for the whole chunk; one per pool word and trial, on
        # Python ints, for a chunk under ARRAY_PASS pairs
        words, lane = [], harness._lane

        def recorded(pool, word, *constants):
            words.append(word)
            return lane(pool, word, *constants)

        monkeypatch.setattr(harness, "_lane", recorded)
        rows = [3, 0, 2**32, 3, 0, 7, 7, 2**40]  # across rows, in no order
        pairs = list(zip(rows, [5, 2**32 - 1, 0, 6, 9, 1, 2, 4]))
        assert len(pairs) == harness.ARRAY_PASS
        rngs = harness._chunk_rngs(11, pairs)
        assert len(words) == 1 and words[0].shape == (harness.ARRAY_PASS, 1)
        assert [r.bit_generator.state for r in rngs] == [
            rng_for_trial(11, si, ti).bit_generator.state for si, ti in pairs
        ]
        words.clear()
        harness._chunk_rngs(11, pairs[1:])
        assert words == [ti for _, ti in pairs[1:] for _ in range(4)]


class TestCsvOutputs:
    def test_rmse_csv_layout(self, tmp_path):
        cfg = ScenarioConfig.from_dict(RSS_RAW)
        result = monte_carlo(cfg, "rss")
        out = tmp_path / "rmse.csv"
        write_rmse_csv(result, out)
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["snr_db", "rmse", "trials", "failures"]
        assert len(rows) == 1 + len(cfg.snr_grid_db)
        assert float(rows[1][1]) == pytest.approx(result.rows[0].rmse, rel=1e-10)

    def test_rerun_byte_identical(self, tmp_path):
        cfg = ScenarioConfig.from_dict(RSS_RAW)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_rmse_csv(monte_carlo(cfg, "rss"), out1)
        write_rmse_csv(monte_carlo(cfg, "rss", workers=3), out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_spectrum_dump(self, tmp_path):
        raw = json.loads(json.dumps(DOA_RAW))
        raw["sources"] = {"azimuths_deg": [10.0], "snapshots": 200}
        raw["snr_grid_db"] = [20.0]
        cfg = ScenarioConfig.from_dict(raw)
        out = tmp_path / "spec.csv"
        dump_spectrum(cfg, out)
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["angle_deg", "power_db"]
        spectrum = compute_spectrum(cfg)
        assert len(rows) == 1 + spectrum.grid.size
        data = np.array([[float(a), float(p)] for a, p in rows[1:]])
        peak_angle = data[np.argmax(data[:, 1]), 0]
        assert abs(peak_angle - 10.0) <= 0.1 + 1e-9

    def test_spectrum_with_fewer_peaks_than_sources(self):
        # six coherent sources on seven elements without decorrelation: the spectrum shows
        # only five peaks, which a dump does not need
        raw = json.loads((CONFIGS / "doa_coherent_toeplitz.json").read_text())
        cfg = ScenarioConfig.from_dict(raw).with_method(decorrelate="none")
        p = harness._pipeline(cfg, "doa")
        with pytest.raises(WsnlocError, match="found 5 spectral peaks, need 6"):
            run_trial(cfg, "doa", 0, 0)
        spectrum = compute_spectrum(cfg)
        assert np.array_equal(spectrum.grid, doa._angle_grid(p.scan, p.grid_step))
        assert np.all(np.isfinite(spectrum.power_db))

    def test_spectrum_requires_music(self, tmp_path):
        raw = json.loads(json.dumps(DOA_RAW))
        raw["method"] = {"doa": "esprit"}
        cfg = ScenarioConfig.from_dict(raw)
        with pytest.raises(ConfigError):
            dump_spectrum(cfg, tmp_path / "x.csv")


def counting(monkeypatch, module, name):
    """Record the arguments of every call to ``module.name`` while the test runs."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestTrialCallCounts:
    """A chunk of the sweep works out the mean path losses of all its trials' points in
    one call; the anchors' LOP matrix is built once, when the scenario is compiled."""

    @pytest.mark.parametrize("estimator", ["ls", "wls", "huber"])
    def test_rss_trial(self, monkeypatch, estimator):
        cfg = ScenarioConfig.from_dict(RSS_RAW).with_method(estimator=estimator)
        verdicts = counting(monkeypatch, harness, "lop_matrix")
        run_trial(cfg, "rss", 0, 0)  # compiles the pipeline
        assert len(verdicts) == 1
        ranged = counting(monkeypatch, channel, "mean_path_loss")
        systems = counting(monkeypatch, geometry, "build_lop_system")
        run_trial(cfg, "rss", 1, 2)
        assert [args[0].shape for args in ranged] == [(1, 4)]
        assert systems == []
        ranged.clear()
        monte_carlo(cfg, "rss")
        assert len(verdicts) == 1
        assert [args[0].shape for args in ranged] == [(40, 4)]  # the two rows in one chunk

    @pytest.mark.parametrize(
        "scheme, points", [("single", 4), ("fbss", 4), ("ls", 4), ("wls", 4), ("two-lines", 5)]
    )
    def test_hybrid_trial(self, monkeypatch, scheme, points):
        cfg = ScenarioConfig.from_dict(HYBRID_RAW).with_method(hybrid=scheme)
        ranged = counting(monkeypatch, channel, "mean_path_loss")
        run_trial(cfg, "hybrid", 0, 0)
        assert [args[0].shape for args in ranged] == [(1, points)]
        ranged.clear()
        monte_carlo(cfg, "hybrid")
        assert [args[0].shape for args in ranged] == [(4, points)]

    @pytest.mark.parametrize("method", ["music", "root-music", "esprit"])
    def test_doa_trial(self, monkeypatch, method):
        # the sources are steered once, at compile; a trial only draws its waveforms and
        # noise, and a root-music trial roots one polynomial, through numerics.poly_roots
        cfg = ScenarioConfig.from_dict(DOA_RAW).with_method(doa=method)
        steered, original = [], UniformLinearArray.steering

        def steering(geometry, theta):
            steered.append(np.size(theta))
            return original(geometry, theta)

        monkeypatch.setattr(UniformLinearArray, "steering", steering)
        synthesized = counting(monkeypatch, arrays, "synthesize_snapshots")
        rooted = counting(monkeypatch, doa, "poly_roots")
        trials, original_trial = [], harness._doa_trial

        def trial(p, snr_index, rng):
            result = original_trial(p, snr_index, rng)
            trials.append((snr_index, result.error))
            return result

        monkeypatch.setattr(harness, "_doa_trial", trial)
        result = monte_carlo(cfg, "doa")
        assert steered.count(2) == 1  # the two sources; a MUSIC grid has 1,799 angles
        assert synthesized == []
        assert len(rooted) == (len(trials) if method == "root-music" else 0)
        assert [row.failures for row in result.rows] == [0, 0]
        # a replay gives each trial's error bits; the sweep ran each row's trials in order
        swept = [err.hex() for _, err in trials]
        trials.clear()
        for si in range(len(cfg.snr_grid_db)):
            for ti in range(cfg.trials):
                run_trial(cfg, "doa", si, ti)
        assert [err.hex() for _, err in trials] == swept
        assert steered.count(2) == 1  # the replays reuse the compiled steering matrix

    @pytest.mark.parametrize("kind, raw", [("rss", RSS_RAW), ("hybrid", HYBRID_RAW), ("doa", DOA_RAW)])
    def test_trials_draw_on_row_streams(self, monkeypatch, kind, raw):
        seeded = counting(monkeypatch, harness, "rng_for_trial")
        monte_carlo(ScenarioConfig.from_dict(raw), kind)
        assert seeded == []

    def test_collinear_anchors_fail_at_compile(self, monkeypatch):
        raw = json.loads(json.dumps(RSS_RAW))
        raw["anchors"] = [[0.0, 0.0], [50.0, 50.0], [100.0, 100.0]]
        raw["target"] = [30.0, 60.0]
        cfg = ScenarioConfig.from_dict(raw)
        verdicts = counting(monkeypatch, harness, "lop_matrix")
        ranged = counting(monkeypatch, channel, "mean_path_loss")
        with pytest.raises(ConfigError, match="rss scenario: anchors are collinear"):
            run_trial(cfg, "rss", 0, 0)
        assert len(verdicts) == 1
        assert ranged == []
