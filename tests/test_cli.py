import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wsnloc import harness
from wsnloc.channel import wavelength_from_frequency
from wsnloc.cli import main
from wsnloc.errors import CoincidentSources

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


def test_seed_out_of_range_exit_code(tmp_path):
    cfg = write_cfg(tmp_path, RSS_RAW)
    out = str(tmp_path / "x.csv")
    assert main(["rss", "--config", str(cfg), "--out", out, "--seed", "-3"]) == 1


def test_missing_config_exit_code(tmp_path):
    assert (
        main(["rss", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path / "x.csv")])
        == 1
    )


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
}


@pytest.mark.parametrize("name", sorted(STRUCTURAL_ERRORS))
def test_structural_config_errors_exit_1(tmp_path, capsys, name):
    command, raw, extra = STRUCTURAL_ERRORS[name]
    cfg = write_cfg(tmp_path, raw)
    out = tmp_path / "x.csv"
    assert main([command, "--config", str(cfg), "--out", str(out), *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
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
    at_capacity = harness.ScenarioConfig.from_dict(doa_with_sources(array, most, method, prep))
    if prep == "fss" and array["kind"] == "uca":
        # a (2h+1)-element virtual array forward-smoothed for its 2h sources leaves one
        # subarray: the plan, not the estimator, is the tighter limit on every ring
        with pytest.raises(harness.ConfigError, match="cannot decorrelate"):
            harness._pipeline(at_capacity, "doa")
    else:
        harness._pipeline(at_capacity, "doa")
    cfg = write_cfg(tmp_path, doa_with_sources(array, most + 1, method, prep))
    assert main(["doa", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"resolves at most {most} sources" in err


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
        cfg = harness.ScenarioConfig.from_dict(at_capacity).with_method(hybrid="fbss")
        harness._pipeline(cfg, "hybrid")
    cfg = write_cfg(tmp_path, with_keys(at_capacity, interferers_deg=interferers))
    out = tmp_path / "x.csv"
    assert main(["hybrid", "--config", str(cfg), "--out", str(out), "--hybrid", "fbss"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"fbss resolves at most {most} sources" in err


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
    scenario = harness.ScenarioConfig.from_dict(raw).with_method(hybrid="fbss")
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
