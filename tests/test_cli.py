import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import unittest.mock
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wsnloc import cli, config, harness
from wsnloc.channel import wavelength_from_frequency
from wsnloc.cli import main
from wsnloc.config import ScenarioConfig, load_config
from wsnloc.errors import CoincidentSources, ConfigError

RSS_RAW = {
    "seed": 5,
    "trials": 8,
    "snr_grid_db": [6.0, 12.0],
    "region": [100.0, 100.0],
    "target": [30.0, 40.0],
    "channel": {"frequency_hz": 1e9, "sigma_ref_db": 4.0},
    "anchors": [[0.0, 0.0], [100.0, 0.0], [0.0, 100.0], [100.0, 100.0]],
}


def write_cfg(tmp_path, raw, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


def test_rss_subcommand(tmp_path):
    cfg = write_cfg(tmp_path, RSS_RAW)
    out = tmp_path / "rmse.csv"
    assert main(["rss", "--config", str(cfg), "--out", str(out), "--estimator", "wls"]) == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["snr_db", "rmse", "trials", "failures"]
    assert len(rows) == 3


def test_seed_override_changes_result(tmp_path):
    cfg = write_cfg(tmp_path, RSS_RAW)
    out1, out2, out3 = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    assert main(["rss", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["rss", "--config", str(cfg), "--out", str(out2), "--seed", "99"]) == 0
    assert main(["rss", "--config", str(cfg), "--out", str(out3)]) == 0
    assert out1.read_bytes() == out3.read_bytes()
    assert out1.read_bytes() != out2.read_bytes()


def test_workers_do_not_change_output(tmp_path):
    cfg = write_cfg(tmp_path, RSS_RAW)
    out1, out2 = tmp_path / "serial.csv", tmp_path / "par.csv"
    assert main(["rss", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["rss", "--config", str(cfg), "--out", str(out2), "--workers", "4"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_config_error_exit_code(tmp_path):
    bad = dict(RSS_RAW)
    bad["surprise"] = True
    cfg = write_cfg(tmp_path, bad)
    assert main(["rss", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1


def test_seed_out_of_range_exit_code(tmp_path, capsys):
    # the config schema's seed rule checks the override too, both of its bounds, and a
    # seed past the float range; each exits 1 on one line that names the seed's range
    cfg = write_cfg(tmp_path, RSS_RAW)
    out = str(tmp_path / "x.csv")
    for seed, shown in [(-3, "-3"), (2**64, str(2**64)), (int("9" * 400), "999999999999")]:
        assert main(["rss", "--config", str(cfg), "--out", out, "--seed", str(seed)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, seed
        assert err.startswith(f"config error: --seed: {shown}"), err
        assert err.rstrip().endswith(" is outside the seed's range 0 ... 2^64 - 1"), err
        assert "NaN" not in err and "scenario config" not in err
    for seed in (0, 2**64 - 1):
        assert main(["rss", "--config", str(cfg), "--out", out, "--seed", str(seed)]) == 0


@pytest.mark.parametrize(
    "extra, says",
    [
        (["--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
        (["--workers", "x"], "argument --workers: invalid int value: 'x'"),
        (["--seed", "9" * 4301], "argument --seed: invalid int value: '9999"),  # int() refuses it
        (["--estimator", "nope"], "argument --estimator: invalid choice: 'nope'"),
        (["--surprise"], "unrecognized arguments: --surprise"),
        (["--seed"], "argument --seed: expected one argument"),
    ],
)
def test_malformed_options_exit_1(tmp_path, capsys, extra, says):
    # argparse's own exit code, 2, is the one kept for sweeps whose every trial failed
    cfg, out = write_cfg(tmp_path, RSS_RAW), tmp_path / "x.csv"
    assert main(["rss", "--config", str(cfg), "--out", str(out), *extra]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and len(err) < 160, err
    prefix = "config error: wsnloc rss: " if extra != ["--surprise"] else "config error: wsnloc: "
    assert err.startswith(prefix + says), err
    assert not out.exists()


def test_missing_subcommand_or_option_exits_1(tmp_path, capsys):
    assert main([]) == 1
    assert capsys.readouterr().err == (
        "config error: wsnloc: the following arguments are required: command\n"
    )
    assert main(["rss", "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err == "config error: wsnloc rss: the following arguments are required: --config\n"


def test_cli_process_exit_codes(tmp_path):
    cfg = write_cfg(tmp_path, RSS_RAW)
    env = dict(os.environ, PYTHONPATH=str(CONFIGS.parent / "src"))
    cli = [sys.executable, "-m", "wsnloc.cli"]
    for args, code in [
        (["--help"], 0),
        (["rss", "--help"], 0),
        (["rss", "--config", str(cfg), "--out", str(tmp_path / "x.csv"), "--seed", "abc"], 1),
        (["rss", "--config", str(cfg), "--out", str(tmp_path / "x.csv")], 0),
    ]:
        proc = subprocess.run(cli + args, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == code, (args, proc.stderr[-2000:])
        assert (proc.stdout.startswith("usage: wsnloc")) == (code == 0 and "--help" in args)


def test_missing_config_exit_code(tmp_path):
    assert (
        main(["rss", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path / "x.csv")])
        == 1
    )


def nested_region(depth):
    return json.dumps(dict(RSS_RAW, region="@")).replace('"@"', "[" * depth + "]" * depth)


@pytest.mark.parametrize(
    "content",
    [
        b"\xff\xfe" + json.dumps(RSS_RAW).encode(),  # a UTF-16 byte-order mark: not UTF-8
        nested_region(990).encode(),  # past the recursion limit once the CLI's frames count
        nested_region(100_000).encode(),
        json.dumps(dict(RSS_RAW, seed="@")).replace('"@"', "1" * 5000).encode(),
    ],
    ids=["not_utf8", "nested_990", "nested_100000", "int_of_5000_digits"],
)
def test_unreadable_config_exit_1(tmp_path, capsys, content):
    cfg, out = tmp_path / "scenario.json", tmp_path / "x.csv"
    cfg.write_bytes(content)
    assert main(["rss", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_nesting_near_the_recursion_limit_exits_1(tmp_path, capsys):
    # Somewhere in this range the JSON stops parsing, and below it the schema check
    # rejects the region; where exactly depends on the caller's stack, so every depth
    # is tried.
    cfg, out = tmp_path / "scenario.json", tmp_path / "x.csv"
    for depth in range(800, 1001):
        cfg.write_text(nested_region(depth))
        assert main(["rss", "--config", str(cfg), "--out", str(out)]) == 1, depth
        err = capsys.readouterr().err
        assert err.startswith("config error:") and len(err.splitlines()) == 1, depth
    assert not out.exists()


def test_long_value_gives_a_short_message(tmp_path, capsys):
    cfg = write_cfg(tmp_path, dict(RSS_RAW, region=[100.0] * 200_000))
    out = tmp_path / "x.csv"
    assert main(["rss", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid scenario config: region: maxItems: ")
    assert len(err.splitlines()) == 1 and len(err.encode()) <= 200
    assert not out.exists()


def test_all_trials_failed_exit_code(tmp_path, capsys):
    # schema-valid and compiled, but the drawn shadowing fails every trial
    raw = dict(RSS_RAW, channel=dict(RSS_RAW["channel"], sigma_ref_db=1e5))
    cfg, out = write_cfg(tmp_path, raw), tmp_path / "x.csv"
    for estimator in ("ls", "wls", "huber"):
        assert main(["rss", "--config", str(cfg), "--out", str(out), "--estimator", estimator]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: all 8 trials failed")
        assert len(err.splitlines()) == 1
        assert not out.exists()


def test_first_all_failed_row_exit_code_within_one_chunk(tmp_path, capsys):
    # row 0 at -3,000 dB fails every trial, row 1 does not; one chunk holds both rows
    raw = dict(RSS_RAW, snr_grid_db=[-3000.0, 12.0])
    cfg, out = write_cfg(tmp_path, raw), tmp_path / "x.csv"
    for estimator in ("ls", "wls", "huber"):
        assert main(["rss", "--config", str(cfg), "--out", str(out), "--estimator", estimator]) == 2
        assert capsys.readouterr().err == "error: all 8 trials failed at snr=-3000.0 dB\n"
        assert not out.exists()


def test_config_error_from_a_trial_exit_code(tmp_path, capsys):
    # anchors that keep a random target 5 m clear cover the 1 m region: no trial of any
    # row can place its target
    channel = dict(RSS_RAW["channel"], d0_m=5.0)
    raw = dict(RSS_RAW, region=[1.0, 1.0], target="random", snr_grid_db=[-3000.0, 12.0])
    cfg, out = write_cfg(tmp_path, dict(raw, channel=channel)), tmp_path / "x.csv"
    assert main(["rss", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: could not place a random target")
    assert not out.exists()


def test_doa_subcommand_with_decorrelation(tmp_path):
    raw = {
        "seed": 11,
        "trials": 5,
        "snr_grid_db": [20.0],
        "array": {"kind": "ula", "n_elements": 12, "spacing_wavelengths": 0.5},
        "sources": {
            "azimuths_deg": [-40.0, -30.0, -20.0, 20.0, 30.0, 40.0],
            "coherent": True,
            "snapshots": 100,
        },
    }
    cfg = write_cfg(tmp_path, raw)
    out = tmp_path / "doa.csv"
    code = main(
        ["doa", "--config", str(cfg), "--out", str(out), "--decorrelate", "fss"]
    )
    assert code == 0
    rows = list(csv.reader(out.open()))
    assert float(rows[1][1]) < 2.0  # six coherent sources recovered


def test_hybrid_subcommand(tmp_path):
    raw = {
        "seed": 21,
        "trials": 5,
        "snr_grid_db": [10.0],
        "region": [30.0, 30.0],
        "target": [20.0, 18.0],
        "channel": {"frequency_hz": 1e9, "sigma_ref_db": 0.3},
        "hybrid_node": {
            "center": [18.0, 16.0],
            "n_elements": 4,
            "radius_wavelengths": 0.3183,
            "elevation_deg": 90.0,
        },
        "snapshots": 64,
    }
    cfg = write_cfg(tmp_path, raw)
    out = tmp_path / "hyb.csv"
    assert main(["hybrid", "--config", str(cfg), "--out", str(out)]) == 0
    rows = list(csv.reader(out.open()))
    assert float(rows[1][1]) < 1.0


def test_spectrum_subcommand(tmp_path):
    raw = {
        "seed": 2,
        "trials": 1,
        "snr_grid_db": [20.0],
        "array": {"kind": "uca", "n_elements": 8, "radius_wavelengths": 0.55, "elevation_deg": 40.0},
        "sources": {"azimuths_deg": [100.0], "snapshots": 200},
    }
    cfg = write_cfg(tmp_path, raw)
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["angle_deg", "power_db"]
    data = [(float(a), float(p)) for a, p in rows[1:]]
    peak = max(data, key=lambda t: t[1])[0]
    assert abs(peak - 100.0) < 1.0


DOA_RAW = {
    "seed": 3,
    "trials": 4,
    "snr_grid_db": [10.0],
    "array": {"kind": "ula", "n_elements": 6, "spacing_wavelengths": 0.5},
    "sources": {"azimuths_deg": [-10.0, 10.0], "snapshots": 50},
}
UCA = {"kind": "uca", "n_elements": 8, "radius_wavelengths": 0.55, "elevation_deg": 40.0}
SMALL_RING = {"kind": "uca", "n_elements": 8, "radius_wavelengths": 0.3, "elevation_deg": 90.0}
THREE_SOURCES = {"azimuths_deg": [-40.0, 0.0, 40.0], "snapshots": 50}
HYBRID_RAW = {
    "seed": 21,
    "trials": 4,
    "snr_grid_db": [10.0],
    "region": [30.0, 30.0],
    "target": [20.0, 18.0],
    "channel": {"frequency_hz": 1e9, "sigma_ref_db": 0.3},
    "hybrid_node": {"center": [18.0, 16.0], "n_elements": 8, "radius_wavelengths": 0.5},
    "snapshots": 32,
}


def with_keys(raw, drop=(), **changes):
    out = {k: v for k, v in json.loads(json.dumps(raw)).items() if k not in drop}
    out.update(changes)
    return out


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def shipped(config, **changes):
    return with_keys(json.loads((CONFIGS / f"{config}.json").read_text()), **changes)


# A shipped config of each kind, to be run at an extreme SNR
EXTREME_SNR = [
    ("rss", "rss_heterogeneous"),
    ("doa", "doa_ula_music"),
    ("hybrid", "hybrid_single"),
    ("spectrum", "spectrum_uca"),
]


# Each scenario is valid under the schema but cannot run; every one must be
# reported as a configuration error before any trial, not as failed trials.
STRUCTURAL_ERRORS = {
    "rss_two_anchors": ("rss", with_keys(RSS_RAW, anchors=[[0.0, 0.0], [100.0, 0.0]]), []),
    "esprit_on_uca": ("doa", with_keys(DOA_RAW, array=UCA), ["--doa", "esprit"]),
    "toeplitz_on_uca": ("doa", with_keys(DOA_RAW, array=UCA), ["--decorrelate", "toeplitz"]),
    "ula_without_spacing": (
        "doa",
        with_keys(DOA_RAW, array={"kind": "ula", "n_elements": 6}),
        [],
    ),
    "three_sources_three_elements": (
        "doa",
        with_keys(
            DOA_RAW,
            array={"kind": "ula", "n_elements": 3, "spacing_wavelengths": 0.5},
            sources={"azimuths_deg": [-20.0, 0.0, 20.0]},
        ),
        [],
    ),
    "hybrid_without_node": ("hybrid", with_keys(HYBRID_RAW, drop=("hybrid_node",)), []),
    "two_lines_without_anchor": ("hybrid", HYBRID_RAW, ["--hybrid", "two-lines"]),
    "mismatched_interferer_amplitudes": (
        "hybrid",
        with_keys(HYBRID_RAW, interferers_deg=[30.0, 60.0], interferer_amplitudes=[0.5]),
        ["--hybrid", "fbss"],
    ),
    "rss_without_target": ("rss", with_keys(RSS_RAW, drop=("target",)), []),
    "subarray_longer_than_array": (
        "doa",
        with_keys(DOA_RAW, method={"subarray_len": 9}),
        ["--decorrelate", "fss"],
    ),
    "duplicate_azimuths": (
        "doa",
        with_keys(DOA_RAW, sources={"azimuths_deg": [10.0, 10.0]}),
        [],
    ),
    # estimator capacities: ESPRIT resolves N-2 sources, the ring variants 2h-1 and 2h
    "esprit_three_sources_four_elements": (
        "doa",
        with_keys(
            DOA_RAW,
            array={"kind": "ula", "n_elements": 4, "spacing_wavelengths": 0.5},
            sources=THREE_SOURCES,
        ),
        ["--doa", "esprit"],
    ),
    "uca_esprit_three_sources_small_ring": (
        "doa",
        with_keys(DOA_RAW, array=SMALL_RING, sources=THREE_SOURCES),
        ["--doa", "uca-esprit"],
    ),
    "uca_root_music_three_sources_small_ring": (
        "doa",
        with_keys(DOA_RAW, array=SMALL_RING, sources=THREE_SOURCES),
        ["--doa", "uca-root-music"],
    ),
    # an anchor layout every trilateration rejects: collinear (anchors, or anchors and the
    # hybrid node's centre, on one line), or past the condition bound of unweighted LS
    **{
        f"rss_collinear_anchors_{e}": (
            "rss",
            with_keys(RSS_RAW, anchors=[[0.0, 0.0], [50.0, 50.0], [100.0, 100.0]]),
            ["--estimator", e],
        )
        for e in ("ls", "wls", "huber")
    },
    **{
        f"hybrid_collinear_anchors_{h}": (
            "hybrid",
            with_keys(HYBRID_RAW, anchors=[[2.0, 0.0], [10.0, 8.0]]),
            ["--hybrid", h],
        )
        for h in ("ls", "wls")
    },
    "rss_ill_conditioned_ls": (
        "rss",
        with_keys(RSS_RAW, anchors=[[0.0, 0.0], [50.0, 50.0], [100.0, 100.0001]]),
        ["--estimator", "ls"],
    ),
    "hybrid_ill_conditioned_ls": (
        "hybrid",
        with_keys(HYBRID_RAW, anchors=[[2.0, 0.0], [10.0, 8.00001]]),
        ["--hybrid", "ls"],
    ),
    # with no shadowing (sigma_ref_db 0) WLS and Huber fix every trial by unweighted LS
    **{
        f"rss_ill_conditioned_unshadowed_{e}": (
            "rss",
            with_keys(
                RSS_RAW,
                anchors=[[0.0, 0.0], [50.0, 50.0], [100.0, 100.0001]],
                channel={"frequency_hz": 1e9, "sigma_ref_db": 0.0},
            ),
            ["--estimator", e],
        )
        for e in ("wls", "huber")
    },
    "hybrid_ill_conditioned_unshadowed_wls": (
        "hybrid",
        with_keys(
            HYBRID_RAW,
            anchors=[[2.0, 0.0], [10.0, 8.00001]],
            channel={"frequency_hz": 1e9, "sigma_ref_db": 0.0},
        ),
        ["--hybrid", "wls"],
    ),
    # a fixed target the fbss node sees along an interferer's bearing (45 degrees)
    "fbss_target_on_interferer_bearing": (
        "hybrid",
        with_keys(
            HYBRID_RAW,
            hybrid_node=dict(HYBRID_RAW["hybrid_node"], center=[0.0, 0.0]),
            target=[10.0, 10.0],
            interferers_deg=[45.0, 120.0],
        ),
        ["--hybrid", "fbss"],
    ),
    # a section is built at load, so its errors fail every kind, also one that never reads it
    "rss_duplicate_source_azimuths": (
        "rss",
        with_keys(RSS_RAW, sources={"azimuths_deg": [10.0, 10.0]}),
        [],
    ),
    "doa_interferer_amplitudes_without_interferers": (
        "doa",
        with_keys(DOA_RAW, interferer_amplitudes=[0.5]),
        [],
    ),
    "hybrid_mismatched_source_amplitudes": (
        "hybrid",
        with_keys(HYBRID_RAW, sources={"azimuths_deg": [10.0, 20.0], "amplitudes": [1.0]}),
        [],
    ),
    "spectrum_uca_without_radius": (
        "spectrum",
        with_keys(DOA_RAW, array={"kind": "uca", "n_elements": 8}),
        [],
    ),
    # a MUSIC grid too coarse to show a peak per source: g points show at most (g - 1) // 2
    # on a linear field of view, g // 2 on a full circle
    **{
        f"doa_music_grid_{step}_deg": (
            "doa",
            shipped("doa_ula_music", trials=3, method={"grid_step_deg": step}),
            [],
        )
        for step in (60, 90, 179, 200)
    },
    "doa_fbss_ring_grid_120_deg": (
        "doa",
        with_keys(DOA_RAW, array=UCA, method={"decorrelate": "fbss", "grid_step_deg": 120.0}),
        [],
    ),
    "spectrum_grid_180_deg": (
        "spectrum",
        shipped("spectrum_uca", method={"grid_step_deg": 180.0}),
        [],
    ),
    "hybrid_single_grid_400_deg": (
        "hybrid",
        shipped("hybrid_single", trials=3, method={"grid_step_deg": 400.0}),
        [],
    ),
    "hybrid_fbss_grid_120_deg": (
        "hybrid",
        shipped("hybrid_coherent_fbss", trials=3, method={"subarray_len": 6, "grid_step_deg": 120}),
        ["--hybrid", "fbss"],
    ),
    # a ring at zero elevation has no aperture
    **{
        f"{command}_zero_elevation": (
            command,
            shipped(config, trials=3, **{section: dict(spec, elevation_deg=0.0)}),
            [],
        )
        for command, config, section, spec in (
            ("doa", "spectrum_uca", "array", UCA),
            ("spectrum", "spectrum_uca", "array", UCA),
            ("hybrid", "hybrid_single", "hybrid_node", HYBRID_RAW["hybrid_node"]),
        )
    },
    # an aperture so small that every steering vector on the grid is the same: the
    # spectrum is flat and shows no peak
    **{
        f"{command}_vanishing_aperture_{config}": (
            command,
            shipped(config, trials=3, **{section: dict(shipped(config)[section], **{key: 1e-300})}),
            [],
        )
        for command, config, section, key in (
            ("doa", "spectrum_uca", "array", "elevation_deg"),
            ("spectrum", "spectrum_uca", "array", "elevation_deg"),
            ("hybrid", "hybrid_single", "hybrid_node", "elevation_deg"),
            ("doa", "doa_ula_music", "array", "spacing_wavelengths"),
        )
    },
    # a fixed target at zero distance from a point it is ranged from
    "rss_target_on_anchor": ("rss", with_keys(RSS_RAW, target=[0.0, 0.0]), []),
    "hybrid_target_on_anchor": (
        "hybrid",
        with_keys(HYBRID_RAW, anchors=[[2.0, 3.0], [25.0, 4.0]], target=[25.0, 4.0]),
        ["--hybrid", "ls"],
    ),
    "hybrid_target_on_node_center": ("hybrid", with_keys(HYBRID_RAW, target=[18.0, 16.0]), []),
    "hybrid_target_on_ring_element": (
        "hybrid",
        # element 0 sits at center + (radius, 0), radius 0.5 wavelengths at 1 GHz
        with_keys(HYBRID_RAW, target=[18.0 + 0.5 * wavelength_from_frequency(1e9), 16.0]),
        [],
    ),
    # an SNR so low that the shadowing std (below about -6,165 dB) or the array noise
    # power (below about -3,083 dB) leaves the float range
    **{
        f"{config}_snr_{snr:g}": (command, shipped(config, snr_grid_db=[snr], trials=3), [])
        for command, config in EXTREME_SNR
        for snr in (-7000.0, -1e300)
    },
    # a wavelength past the float range (a 1e-300 Hz carrier), under each kind
    **{
        f"{command}_frequency_1e-300": (
            command,
            shipped(config, trials=3, channel={"frequency_hz": 1e-300}),
            [],
        )
        for command, config in EXTREME_SNR
    },
    # an azimuth whose estimate's error would square past the float range
    "doa_azimuth_1e200": (
        "doa",
        shipped("doa_ula_music", trials=3, sources={"azimuths_deg": [1e200, 10.0]}),
        [],
    ),
    # a total source power past the float range: the doa sources', the fbss interferers'
    "doa_source_amplitude_1e300": (
        "doa",
        shipped(
            "doa_ula_music", trials=3, sources={"azimuths_deg": [-10, 10], "amplitudes": [1e300, 1]}
        ),
        [],
    ),
    "hybrid_interferer_amplitude_1e300": (
        "hybrid",
        shipped("hybrid_coherent_fbss", trials=3, interferer_amplitudes=[1e300, 0.6]),
        [],
    ),
    # more trials per row than monte_carlo's one float64 array of a row's errors may hold
    **{
        f"{command}_trials_{trials}": (command, with_keys(raw, trials=trials), [])
        for command, raw in (("rss", RSS_RAW), ("doa", DOA_RAW), ("hybrid", HYBRID_RAW))
        for trials in (harness.SIZE_BUDGET + 1, 10**9)
    },
}


@pytest.mark.parametrize("name", sorted(STRUCTURAL_ERRORS))
def test_structural_config_errors_exit_1(tmp_path, monkeypatch, capsys, name):
    def no_chunk(p):  # the error comes before any chunk runs or any row's array is made
        raise AssertionError(f"{name} reached the trials")

    monkeypatch.setattr(harness, "_outcomes", no_chunk)
    command, raw, extra = STRUCTURAL_ERRORS[name]
    cfg = write_cfg(tmp_path, raw)
    out = tmp_path / "x.csv"
    assert main([command, "--config", str(cfg), "--out", str(out), *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, config, key, literal",
    [
        # json reads NaN and +-Infinity, and a literal past the float range as infinity
        ("doa", "doa_ula_music", "snr_grid_db", "[NaN]"),
        ("spectrum", "spectrum_uca", "snr_grid_db", "[20, Infinity]"),
        ("rss", "rss_heterogeneous", "anchors", "[[0, 0], [50, -Infinity], [100, 0]]"),
        ("hybrid", "hybrid_single", "target", "[1e400, 5]"),
        ("rss", "rss_equal_distance", "channel", '{"eta": -1e400}'),
        ("rss", "rss_equal_distance", "snr_grid_db", f"[1{'0' * 400}]"),  # no float holds it
    ],
)
def test_non_finite_numbers_exit_1(tmp_path, capsys, command, config, key, literal):
    cfg, out = tmp_path / "scenario.json", tmp_path / "x.csv"
    cfg.write_text(json.dumps(shipped(config, **{key: "@"})).replace('"@"', literal))
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: invalid scenario config: {key}")
    assert err.rstrip().endswith("is NaN, infinite or too large")
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "key, literal, says",
    [
        ("seed", "9" * 400, "seed: maximum: 99999"),
        ("seed", "-" + "9" * 400, "seed: minimum: -9999"),
        ("trials", "9" * 400, "trials is NaN, infinite or too large"),  # within its bound
    ],
)
def test_integer_past_the_float_range_in_a_config(tmp_path, capsys, key, literal, says):
    # an integer no float holds is checked against its rule's bounds first, so a seed
    # past them is reported as breaking them, as the same --seed is
    cfg, out = tmp_path / "scenario.json", tmp_path / "x.csv"
    cfg.write_text(json.dumps(dict(RSS_RAW, **{key: "@"})).replace('"@"', literal))
    assert main(["rss", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: invalid scenario config: {says}"), err
    assert len(err.splitlines()) == 1 and len(err) < 160, err
    if key == "seed":
        bound = 2**64 - 1 if literal[0] == "9" else 0
        assert err.rstrip().endswith(f" {bound}"), err
    assert not out.exists()


ULA = {n: {"kind": "ula", "n_elements": n, "spacing_wavelengths": 0.5} for n in (2, 3, 5)}
RING5 = {"kind": "uca", "n_elements": 5, "radius_wavelengths": 0.3, "elevation_deg": 90.0}
# 0.2 wavelengths excite modes up to h = 1: a 3-element virtual array
TINY_RING = {"kind": "uca", "n_elements": 4, "radius_wavelengths": 0.2, "elevation_deg": 90.0}

# Every valid doa method x array x decorrelate combination, with the most sources its
# estimator resolves (capacity: elements - 1, or - 2 for ESPRIT; the virtual array's
# elements where a transform is built), on an array small enough that the smoothing
# plan admits that many: forward smoothing of L = N - M subarrays needs L >= M, and
# forward-backward smoothing 2L >= M.
DOA_CAPACITY = [
    *((m, p, ULA[5], 4) for m in ("music", "root-music") for p in ("none", "toeplitz")),
    *((m, "fss", ULA[2], 1) for m in ("music", "root-music")),
    *((m, "fbss", ULA[3], 2) for m in ("music", "root-music")),
    ("esprit", "none", ULA[5], 3),
    ("music", "none", RING5, 4),
    ("music", "fbss", TINY_RING, 2),
    ("music", "fss", TINY_RING, 2),
    ("uca-root-music", "none", TINY_RING, 2),
    ("uca-esprit", "none", TINY_RING, 1),
]


def doa_with_sources(array, count, method, prep):
    lo, hi = (-60.0, 60.0) if array["kind"] == "ula" else (-150.0, 150.0)
    azimuths = [lo + (hi - lo) * i / max(count - 1, 1) for i in range(count)]
    return with_keys(
        DOA_RAW,
        array=array,
        sources={"azimuths_deg": azimuths, "snapshots": 50},
        method={"doa": method, "decorrelate": prep},
    )


@pytest.mark.parametrize(
    "method, prep, array, most",
    DOA_CAPACITY,
    ids=[f"{m}-{p}-{a['kind']}{a['n_elements']}" for m, p, a, _ in DOA_CAPACITY],
)
def test_doa_capacity_boundary(tmp_path, capsys, method, prep, array, most):
    at_capacity = ScenarioConfig.from_dict(doa_with_sources(array, most, method, prep))
    if prep == "fss" and array["kind"] == "uca":
        # a (2h+1)-element virtual array forward-smoothed for its 2h sources leaves one
        # subarray: the plan, not the estimator, is the tighter limit on every ring
        with pytest.raises(ConfigError, match="cannot decorrelate"):
            harness._pipeline(at_capacity, "doa")
    else:
        harness._pipeline(at_capacity, "doa")
    cfg = write_cfg(tmp_path, doa_with_sources(array, most + 1, method, prep))
    assert main(["doa", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"resolves at most {most} sources" in err


# Root-MUSIC roots polynomials of at most doa.ROOTING_MOST = 16 elements: a ULA's own,
# its smoothing subarray's, or a ring's 2h + 1 virtual elements (h = 7 at 1.2
# wavelengths, 8 at 1.3)
ROOTING = [
    ("root-music", "none", {**ULA[5], "n_elements": 16}, {}, None),
    ("root-music", "none", {**ULA[5], "n_elements": 17}, {}, 17),
    ("root-music", "fbss", {**ULA[5], "n_elements": 20}, {"subarray_len": 16}, None),
    ("root-music", "fbss", {**ULA[5], "n_elements": 20}, {"subarray_len": 17}, 17),
    ("uca-root-music", "none", {**RING5, "n_elements": 17, "radius_wavelengths": 1.2}, {}, None),
    ("uca-root-music", "none", {**RING5, "n_elements": 17, "radius_wavelengths": 1.3}, {}, 17),
]


@pytest.mark.parametrize("method, prep, array, extra, rooted", ROOTING)
def test_root_music_rooting_bound(tmp_path, capsys, method, prep, array, extra, rooted):
    raw = doa_with_sources(array, 2, method, prep)
    raw["method"].update(extra)
    if rooted is None:
        harness._pipeline(ScenarioConfig.from_dict(raw), "doa")
        return
    cfg = write_cfg(tmp_path, raw)
    assert main(["doa", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"roots at most 16 elements, not {rooted}" in err


TINY_NODE = {"center": [18.0, 16.0], "n_elements": 4, "radius_wavelengths": 0.2}


@pytest.mark.parametrize(
    "node, most", [(TINY_NODE, 2), (HYBRID_RAW["hybrid_node"], 6)], ids=["h1", "h3"]
)
def test_fbss_capacity_boundary(tmp_path, capsys, node, most):
    # the target's bearing (45 degrees from the node) and the interferers share the
    # virtual array; forward-backward smoothing of the 7-element one (h = 3) admits
    # fewer than its 6, so only the 3-element one is compiled at capacity
    interferers = [100.0, -100.0, 160.0, -40.0, -160.0, 10.0][:most]
    at_capacity = with_keys(HYBRID_RAW, hybrid_node=node, interferers_deg=interferers[:-1])
    if most == 2:
        cfg = ScenarioConfig.from_dict(at_capacity).with_method(hybrid="fbss")
        harness._pipeline(cfg, "hybrid")
    cfg = write_cfg(tmp_path, with_keys(at_capacity, interferers_deg=interferers))
    out = tmp_path / "x.csv"
    assert main(["hybrid", "--config", str(cfg), "--out", str(out), "--hybrid", "fbss"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"fbss resolves at most {most} sources" in err


WIDE_ULA = {"kind": "ula", "n_elements": 1000, "spacing_wavelengths": 0.5}
ONE_SNAPSHOT = {"azimuths_deg": [-10.0, 10.0], "snapshots": 1}
# Each config puts one of a trial's sizes past harness.SIZE_BUDGET (2^22 complex values):
# its snapshots (elements x snapshots), its covariance (elements^2) or the MUSIC scan's
# steering matrix (elements x the field of view over the grid step).
OVER_BUDGET = {
    "doa_snapshots": (
        "doa",
        with_keys(DOA_RAW, array=dict(WIDE_ULA, n_elements=10**9)),
        [],
        "snapshot matrix",
    ),
    "spectrum_snapshots": (
        "spectrum",
        with_keys(shipped("spectrum_uca"), array=dict(UCA, n_elements=10**9)),
        [],
        "snapshot matrix",
    ),
    "doa_covariance": (
        "doa",
        with_keys(DOA_RAW, array=dict(WIDE_ULA, n_elements=3000), sources=ONE_SNAPSHOT),
        ["--doa", "root-music"],
        "covariance",
    ),
    "doa_scan": (  # 1,000 elements x 18,000 grid points
        "doa",
        with_keys(DOA_RAW, array=WIDE_ULA, method={"grid_step_deg": 0.01}),
        [],
        "MUSIC scan",
    ),
    "uca_esprit_covariance": (
        "doa",
        with_keys(DOA_RAW, array=dict(UCA, n_elements=2049), sources=ONE_SNAPSHOT),
        ["--doa", "uca-esprit"],
        "covariance",
    ),
    "hybrid_snapshots": (
        "hybrid",
        with_keys(HYBRID_RAW, hybrid_node=dict(HYBRID_RAW["hybrid_node"], n_elements=10**9)),
        [],
        "snapshot matrix",
    ),
    "hybrid_scan": (  # 200 elements x 36,000 grid points
        "hybrid",
        with_keys(
            HYBRID_RAW,
            hybrid_node=dict(HYBRID_RAW["hybrid_node"], n_elements=200),
            method={"grid_step_deg": 0.01},
        ),
        ["--hybrid", "fbss"],
        "MUSIC scan",
    ),
}


@pytest.mark.parametrize("name", sorted(OVER_BUDGET))
def test_over_budget_sizes_exit_1_before_anything_is_built(tmp_path, monkeypatch, capsys, name):
    from wsnloc.arrays import UniformCircularArray, UniformLinearArray
    from wsnloc.pme import VandermondeArray

    built = []

    def refuse(what):
        def call(*args, **kwargs):
            built.append(what)
            raise AssertionError(f"{what} called for an over-budget config")

        return call

    for cls in (UniformLinearArray, UniformCircularArray, VandermondeArray):
        monkeypatch.setattr(cls, "steering", refuse(f"{cls.__name__}.steering"))
    monkeypatch.setattr(harness, "build_transform", refuse("build_transform"))
    monkeypatch.setattr(harness.HybridNode, "element_positions", property(refuse("positions")))
    command, raw, extra, what = OVER_BUDGET[name]
    cfg, out = write_cfg(tmp_path, raw), tmp_path / "x.csv"
    assert main([command, "--config", str(cfg), "--out", str(out), *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"a trial's {what} on " in err
    assert err.rstrip().endswith("complex values, over the budget of 4,194,304")
    assert len(err.splitlines()) == 1
    assert built == []
    assert not out.exists()


def test_size_budget_is_inclusive():
    # 16 elements x 262,144 snapshots is the budget exactly; one snapshot more is over
    sources = dict(ONE_SNAPSHOT, snapshots=harness.SIZE_BUDGET // 16)
    raw = with_keys(DOA_RAW, array=dict(WIDE_ULA, n_elements=16), sources=sources)
    cfg = ScenarioConfig.from_dict(raw).with_method(doa="root-music")
    harness._pipeline(cfg, "doa")
    over = dataclasses.replace(cfg, snapshots=cfg.snapshots + 1)
    with pytest.raises(ConfigError, match="snapshot matrix on 16 elements holds 4,194,320"):
        harness._pipeline(over, "doa")


def test_trials_budget_is_inclusive():
    # compiling builds no row, so the budget itself is only compiled, never run
    cfg = ScenarioConfig.from_dict(with_keys(RSS_RAW, trials=harness.SIZE_BUDGET))
    harness._pipeline(cfg, "rss")
    over = dataclasses.replace(cfg, trials=cfg.trials + 1)  # as a caller past the schema would
    with pytest.raises(ConfigError, match="^4,194,305 trials per row, over the budget"):
        harness._pipeline(over, "rss")


def test_random_target_on_interferer_bearing_fails_its_trial(tmp_path, capsys):
    # a region 1e-300 m wide puts every random target straight above or below the fbss
    # node, at 90 or -90 degrees: a trial above it sees the target along the interferer
    raw = with_keys(
        HYBRID_RAW,
        region=[1e-300, 30.0],
        target="random",
        hybrid_node=dict(HYBRID_RAW["hybrid_node"], center=[0.0, 15.0]),
        interferers_deg=[90.0],
        trials=12,
        snr_grid_db=[10.0, 20.0],
    )
    cfg, out = write_cfg(tmp_path, raw), tmp_path / "x.csv"
    assert main(["hybrid", "--config", str(cfg), "--out", str(out), "--hybrid", "fbss"]) == 0
    assert capsys.readouterr().err == ""
    scenario = ScenarioConfig.from_dict(raw).with_method(hybrid="fbss")
    p = harness._pipeline(scenario, "hybrid")
    for si, row in enumerate(csv.DictReader(out.open())):
        above = [
            ti
            for ti in range(12)
            if harness._draw_target(p, harness.rng_for_trial(21, si, ti))[1] > 15.0
        ]
        assert 0 < len(above) <= int(row["failures"]) < 12
        for ti in above:
            with pytest.raises(CoincidentSources):
                harness.run_trial(scenario, "hybrid", si, ti)


@pytest.mark.parametrize("command, config", EXTREME_SNR)
def test_extreme_high_snr_runs(tmp_path, capsys, command, config):
    # noiseless: the shadowing std and the noise power underflow to 0
    cfg = write_cfg(tmp_path, shipped(config, snr_grid_db=[1e300], trials=3))
    out = tmp_path / "x.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert out.exists()


def test_coincident_ring_elements_name_themselves(tmp_path, capsys):
    # at 1e300 Hz the 0.7-wavelength ring shrinks into its center: fbss trilaterates from
    # its elements, and the error names two of them, not "anchors"
    raw = shipped("hybrid_coherent_fbss", trials=2)
    raw["channel"]["frequency_hz"] = 1e300
    cfg, out = write_cfg(tmp_path, raw), tmp_path / "x.csv"
    assert main(["hybrid", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "config error: fbss trilaterates from ring elements 0 and 1, which coincide\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, says",
    [
        ("spectrum", "spectrum scenario needs an 'array' and a 'sources' section"),
        ("doa", "doa scenario needs an 'array' and a 'sources' section"),
        ("hybrid", "hybrid scenario needs a 'hybrid_node' section"),
    ],
)
def test_missing_section_names_the_command(tmp_path, capsys, command, says):
    # spectrum compiles the doa pipeline; its error names the command that was run
    cfg, out = CONFIGS / "rss_heterogeneous.json", tmp_path / "x.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {says}\n"
    assert not out.exists()


# Where the log-domain shadowing variance s^2 underflows to 0, or is so small that
# exp(8 s^2) and exp(4 s^2) round alike, WLS weighs the ranges as without shadowing, or
# by exp(4 s^2) expm1(4 s^2); where s^2 is subnormal or barely normal (a std of 1e-158
# or 1e-160 dB) and the variances fall below 1e-308, by the variances rescaled by their
# largest. None of these fails a trial.
VANISHING_SHADOWING = [
    ("snr_grid_db", [200.0]),
    ("snr_grid_db", [400.0]),
    ("channel", {"sigma_ref_db": 1e-300}),
    ("channel", {"eta": 1e300}),
    ("channel", {"sigma_ref_db": 1e-158}),
    ("channel", {"sigma_ref_db": 1e-160}),
]


@pytest.mark.parametrize("estimator", ["wls", "huber"])
@pytest.mark.parametrize("key, value", VANISHING_SHADOWING)
def test_vanishing_shadowing_runs(tmp_path, capsys, estimator, key, value):
    raw = shipped("rss_heterogeneous", trials=3)
    raw[key] = dict(raw[key], **value) if key == "channel" else value
    cfg, out = write_cfg(tmp_path, raw), tmp_path / "x.csv"
    assert main(["rss", "--config", str(cfg), "--out", str(out), "--estimator", estimator]) == 0
    assert capsys.readouterr().err == ""
    rows = list(csv.DictReader(out.open()))
    assert all(row["failures"] == "0" and math.isfinite(float(row["rmse"])) for row in rows)


@pytest.mark.parametrize("estimator", ["wls", "huber"])
@pytest.mark.parametrize("channel", [{"eta": 1e-300}, {"sigma_ref_db": 1e300}])
def test_log_variance_past_the_float_range_fails_cleanly(tmp_path, capsys, estimator, channel):
    # s^2 itself overflows: every range leaves the float range, and no trial can run. At
    # eta 1e-300 the channel itself reads no range but d0, which compiling finds: a
    # config error. A 1e300 dB std leaves it to each trial's shadowing draws, which fail.
    raw = shipped("rss_heterogeneous", trials=3)
    raw["channel"].update(channel)
    cfg, out = write_cfg(tmp_path, raw), tmp_path / "x.csv"
    code = main(["rss", "--config", str(cfg), "--out", str(out), "--estimator", estimator])
    err = capsys.readouterr().err
    if "eta" in channel:
        assert code == 1 and err.startswith("config error: channel eta 1e-300 ranges nothing")
    else:
        assert code == 2 and err.startswith("error: all 3 trials failed at snr=1.0 dB")
    assert len(err.splitlines()) == 1 and not out.exists()


@pytest.mark.parametrize(
    "command, config, flag, value",
    [("rss", "rss_heterogeneous", "--estimator", "ls"), ("hybrid", "hybrid_single", "--hybrid", "wls")],
)
@pytest.mark.parametrize("sigma_ref", [0.0, 8.0])
def test_a_channel_that_ranges_nothing_is_a_config_error(tmp_path, capsys, command, config, flag, value, sigma_ref):
    # below eta ~1e-17 a loss one float step from the reference loss inverts past the
    # float range, and every mean loss rounds to the reference one: with shadowing or
    # without it, no range but d0 can be read
    raw = shipped(config, trials=3)
    raw["channel"].update(eta=1e-20, sigma_ref_db=sigma_ref)
    cfg, out = write_cfg(tmp_path, raw), tmp_path / "x.csv"
    assert main([command, "--config", str(cfg), "--out", str(out), flag, value]) == 1
    assert capsys.readouterr().err == (
        "config error: channel eta 1e-20 ranges nothing: a loss one float step from the "
        "reference loss inverts to 0 or infinity\n"
    )
    # at eta 1e-10 a loss step moves a range by 2e-5 of d0: without shadowing the trials
    # run, and an 8 dB shadow drives every range out of the float range, a trial failure
    raw["channel"]["eta"] = 1e-10
    cfg = write_cfg(tmp_path, raw)
    code = main([command, "--config", str(cfg), "--out", str(out), flag, value])
    assert code == (0 if sigma_ref == 0.0 else 2)


# Shipped scenarios with sigma_ref_db 100 or 1000 down to -20 dB SNR (a shadowing std of
# 1000 or 10000 dB): ranges overflow to infinity or underflow to 0, and squared ranges
# and ranging variances leave the float range
HYBRID_SCHEMES = ("single", "fbss", "ls", "wls", "two-lines")
EXTREME_SHADOWING = [
    *(("rss", "rss_heterogeneous", "--estimator", e) for e in ("ls", "wls", "huber")),
    *(("hybrid", "hybrid_single", "--hybrid", h) for h in HYBRID_SCHEMES),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("sigma_ref", [100.0, 1000.0])
@pytest.mark.parametrize("command, config, flag, value", EXTREME_SHADOWING)
def test_extreme_shadowing_fails_cleanly(tmp_path, capsys, command, config, flag, value, sigma_ref):
    raw = shipped(config, snr_grid_db=[-20, 0], trials=40)
    raw["channel"]["sigma_ref_db"] = sigma_ref
    cfg, out = write_cfg(tmp_path, raw), tmp_path / "x.csv"
    code = main([command, "--config", str(cfg), "--out", str(out), flag, value])
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
        assert all(math.isfinite(float(row["rmse"])) for row in csv.DictReader(out.open()))
    else:
        assert code in (1, 2)
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert not out.exists()


# From about -3,082 to -3,060 dB the noise power is finite but the sample covariance
# overflows: a trial fails on it (counted), and a spectrum of it is a config error
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "command, config, code",
    [("doa", "doa_ula_music", 2), ("hybrid", "hybrid_single", 2), ("spectrum", "spectrum_uca", 1)],
)
def test_overflowing_covariance_fails_cleanly(tmp_path, capsys, command, config, code):
    cfg = write_cfg(tmp_path, shipped(config, snr_grid_db=[-3070], trials=3))
    out = tmp_path / "x.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("config error:" if code == 1 else "error: all 3 trials failed")
    assert not out.exists()


SHIPPED = sorted(path.stem for path in CONFIGS.glob("*.json"))


@pytest.mark.parametrize("config", SHIPPED)
def test_shipped_configs_compile(config):
    # the compile checks (the scan's aperture among them) pass every shipped scenario
    cfg = load_config(CONFIGS / f"{config}.json")
    kind = {"spectrum": "doa"}.get(config.split("_")[0], config.split("_")[0])
    assert harness._pipeline(cfg, kind).cfg is cfg


@settings(max_examples=150, deadline=None)
@given(
    config=st.sampled_from(SHIPPED),
    command=st.sampled_from(["rss", "doa", "hybrid", "spectrum"]),
    grid_step=st.sampled_from([0.01, 30.0, 90.0, 179.0, 360.0, 1e6]),
    elevation=st.sampled_from([90.0, 1e-300, 0.0]),
)
def test_schema_edges_end_in_an_exit_code(config, command, grid_step, elevation):
    # any shipped scenario under any subcommand, at an extreme grid step or elevation: exit
    # 0, 1 or 2, with at most one line on stderr (a RuntimeWarning would raise here)
    raw = shipped(config, trials=2)
    raw.setdefault("method", {})["grid_step_deg"] = grid_step
    for section in ("array", "hybrid_node"):
        if section in raw:
            raw[section]["elevation_deg"] = elevation
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        cfg = write_cfg(Path(tmp), raw)
        code = main([command, "--config", str(cfg), "--out", str(Path(tmp) / "x.csv")])
    assert code in (0, 1, 2)
    assert len(err.getvalue().splitlines()) <= (0 if code == 0 else 1)
    assert "Traceback" not in err.getvalue()


def numeric_leaves(value, path=()):
    """The paths of the numbers in a JSON value, depth first."""
    if isinstance(value, dict):
        return [leaf for key, item in value.items() for leaf in numeric_leaves(item, (*path, key))]
    if isinstance(value, list):
        return [leaf for i, item in enumerate(value) for leaf in numeric_leaves(item, (*path, i))]
    return [path] if isinstance(value, (int, float)) and not isinstance(value, bool) else []


def rule_at(path):
    """The part of the config schema that the value at ``path`` must meet."""
    rule = config.CONFIG_SCHEMA
    for key in path:
        if "oneOf" in rule:  # the target: its coordinates
            rule = next(part for part in rule["oneOf"] if part.get("type") == "array")
        rule = rule["items"] if isinstance(key, int) else rule["properties"][key]
    return rule


def extremes(path):
    """The schema-valid extremes of the number at ``path``: its minimum, 1e-300, 1e300
    and -1e300, and for an SNR +-400 dB."""
    rule = rule_at(path)
    values = [rule.get("minimum"), 1e-300, 1e300, -1e300]
    values += [400.0, -400.0] if path[0] == "snr_grid_db" else []
    values = [v for v in dict.fromkeys(values) if v is not None]
    return [v for v in values if config._schema_error(v, rule) is None]


# every shipped config with one number set to one of its extremes, under its subcommand
EXTREME_LEAVES = [
    (name, path, value, ())
    for name in SHIPPED
    for path in numeric_leaves(shipped(name))
    for value in extremes(path)
]


def set_leaf(raw, path, value):
    *parents, last = path
    for key in parents:
        raw = raw.setdefault(key, {}) if isinstance(raw, dict) else raw[key]
    raw[last] = value


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=len(EXTREME_LEAVES), deadline=None)
@given(case=st.sampled_from(EXTREME_LEAVES))
# an infinite wavelength, under each subcommand
@example(case=("rss_heterogeneous", ("channel", "frequency_hz"), 1e-300, ()))
@example(case=("doa_ula_music", ("channel", "frequency_hz"), 1e-300, ()))
@example(case=("hybrid_single", ("channel", "frequency_hz"), 1e-300, ()))
@example(case=("spectrum_uca", ("channel", "frequency_hz"), 1e-300, ()))
# a source azimuth whose error squares past the float range
@example(case=("doa_ula_music", ("sources", "azimuths_deg", 0), 1e200, ()))
# source power past the float range: the doa sources', the hybrid interferers'
@example(case=("doa_ula_music", ("sources", "amplitudes"), [1e300, 1.0], ()))
@example(case=("hybrid_coherent_fbss", ("interferer_amplitudes",), [1e300, 0.6], ()))
# rings whose phase-mode order is clamped, one with a 300-digit order
@example(case=("spectrum_uca", ("array", "n_elements"), 3, ("--decorrelate", "fss")))
@example(case=("hybrid_coherent_fbss", ("hybrid_node", "n_elements"), 3, ()))
@example(case=("spectrum_uca", ("array", "radius_wavelengths"), 1e300, ("--decorrelate", "fss")))
def test_one_extreme_number_ends_cleanly(case):
    # exit 0, 1 or 2; one stderr line per warning and at most one error line after them,
    # each short; no RuntimeWarning (it raises here); every RMSE finite
    name, path, value, extra = case
    command = name.split("_")[0]
    raw = shipped(name, trials=2)
    set_leaf(raw, path, value)
    err, shown = io.StringIO(), []

    def counted(message, *args, **kwargs):  # cli's own warning line, counted
        shown.append(message)
        warning_line(message, *args, **kwargs)

    warning_line = cli._warning_line
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        cfg, out = write_cfg(Path(tmp), raw), Path(tmp) / "x.csv"
        with unittest.mock.patch.object(cli, "_warning_line", counted):
            code = main([command, "--config", str(cfg), "--out", str(out), *extra])
        rows = list(csv.DictReader(out.open())) if code == 0 and command != "spectrum" else []
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2)
    warned = [f"warning: {cli._cut(str(message))}" for message in shown]
    assert lines[: len(warned)] == warned, lines
    assert len(lines) == len(warned) + (code != 0), lines
    assert all(line.startswith(("config error:", "error:")) for line in lines[len(warned) :])
    assert all(len(line) <= 200 for line in lines)
    assert all(math.isfinite(float(row["rmse"])) for row in rows)


@pytest.mark.parametrize(
    "name, path, value, extra, says",
    [
        ("spectrum_uca", ("array", "n_elements"), 3, ["--decorrelate", "fss"], "music resolves"),
        ("hybrid_coherent_fbss", ("hybrid_node", "n_elements"), 3, [], "fbss resolves"),
        (
            "spectrum_uca",
            ("array", "radius_wavelengths"),
            1e300,
            ["--decorrelate", "fss"],
            "spectrum scenario: unsupported Bessel range",
        ),
    ],
)
def test_clamped_ring_warns_on_one_line_in_a_process(tmp_path, name, path, value, extra, says):
    # a process shows warnings as Python does (pytest records them instead): the clamp is
    # one short line before the error's
    raw = shipped(name, trials=2)
    set_leaf(raw, path, value)
    cfg, out = write_cfg(tmp_path, raw), tmp_path / "x.csv"
    env = dict(os.environ, PYTHONPATH=str(CONFIGS.parent / "src"))
    command = [sys.executable, "-m", "wsnloc.cli", name.split("_")[0], "--config", str(cfg)]
    proc = subprocess.run(
        [*command, "--out", str(out), *extra], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 1
    warning, error = proc.stderr.splitlines()
    assert warning.startswith("warning: clamping phase-mode order from ") and len(warning) <= 129
    assert error.startswith(f"config error: {says}")


def test_runtime_imports_no_scipy():
    # scipy is a test dependency only; importing the package and its CLI must not load it
    env = dict(os.environ)
    env["PYTHONPATH"] = str(CONFIGS.parent / "src")
    code = "import sys, wsnloc, wsnloc.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"
