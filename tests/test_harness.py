import collections
import csv
import json
import math
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from wsnloc import geometry, harness
from wsnloc.errors import AllTrialsFailed, ConfigError, WsnlocError
from wsnloc.harness import (
    CONFIG_SCHEMA,
    ScenarioConfig,
    compute_spectrum,
    dump_spectrum,
    load_config,
    monte_carlo,
    rng_for_trial,
    run_trial,
    write_rmse_csv,
)

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
}


class TestValidator:
    def test_schema_passes_metaschema(self):
        jsonschema.Draft202012Validator.check_schema(CONFIG_SCHEMA)

    @pytest.mark.parametrize("name", sorted(INVALID))
    def test_message_matches_jsonschema_validate(self, tmp_path, name):
        raw = INVALID[name]
        with pytest.raises(jsonschema.ValidationError) as reference:
            jsonschema.validate(raw, CONFIG_SCHEMA)
        expected = "invalid scenario config: " + reference.value.message
        with pytest.raises(ConfigError) as from_dict:
            ScenarioConfig.from_dict(raw)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError) as loaded:
            load_config(path)
        assert str(from_dict.value) == str(loaded.value) == expected

    def test_load_config_builds_no_validator(self, monkeypatch):
        calls = []
        check_schema = jsonschema.Draft202012Validator.check_schema.__func__
        validator_for = jsonschema.validators.validator_for

        def counted_check_schema(cls, *args, **kwargs):
            calls.append("check_schema")
            return check_schema(cls, *args, **kwargs)

        def counted_validator_for(schema, *args, **kwargs):
            # jsonschema's own descent looks up a class for each subschema; only a
            # lookup for the whole schema means a validator is being built afresh
            if schema is CONFIG_SCHEMA:
                calls.append("validator_for")
            return validator_for(schema, *args, **kwargs)

        monkeypatch.setattr(
            jsonschema.Draft202012Validator, "check_schema", classmethod(counted_check_schema)
        )
        monkeypatch.setattr(jsonschema.validators, "validator_for", counted_validator_for)
        configs = Path(__file__).resolve().parent.parent / "configs"
        for path in sorted(configs.glob("*.json")):
            load_config(path)
        assert calls == []


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
        assert result.unit == "m"

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
        assert result.unit == "deg"
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


class TestRngStreams:
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
    """A trial ranges all its points in one call; the anchors' LOP matrix is built
    once, when the scenario is compiled."""

    @pytest.mark.parametrize("estimator", ["ls", "wls", "huber"])
    def test_rss_trial(self, monkeypatch, estimator):
        cfg = ScenarioConfig.from_dict(RSS_RAW).with_method(estimator=estimator)
        verdicts = counting(monkeypatch, harness, "lop_matrix")
        run_trial(cfg, "rss", 0, 0)  # compiles the pipeline
        assert len(verdicts) == 1
        ranged = counting(monkeypatch, harness, "path_loss")
        systems = counting(monkeypatch, geometry, "build_lop_system")
        run_trial(cfg, "rss", 1, 2)
        assert [len(args[0]) for args in ranged] == [4]
        assert systems == []
        monte_carlo(cfg, "rss")
        assert len(verdicts) == 1

    @pytest.mark.parametrize(
        "scheme, points", [("single", 4), ("fbss", 4), ("ls", 4), ("wls", 4), ("two-lines", 5)]
    )
    def test_hybrid_trial(self, monkeypatch, scheme, points):
        cfg = ScenarioConfig.from_dict(HYBRID_RAW).with_method(hybrid=scheme)
        ranged = counting(monkeypatch, harness, "path_loss")
        run_trial(cfg, "hybrid", 0, 0)
        assert [len(args[0]) for args in ranged] == [points]

    def test_collinear_anchors_fail_at_compile(self, monkeypatch):
        raw = json.loads(json.dumps(RSS_RAW))
        raw["anchors"] = [[0.0, 0.0], [50.0, 50.0], [100.0, 100.0]]
        raw["target"] = [30.0, 60.0]
        cfg = ScenarioConfig.from_dict(raw)
        verdicts = counting(monkeypatch, harness, "lop_matrix")
        ranged = counting(monkeypatch, harness, "path_loss")
        with pytest.raises(ConfigError, match="rss scenario: anchors are collinear"):
            run_trial(cfg, "rss", 0, 0)
        assert len(verdicts) == 1
        assert ranged == []
