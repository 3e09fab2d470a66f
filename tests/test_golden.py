"""Byte-exact regression pins for every shipped config and every method.

The shipped configs run as shipped through the CLI; every other
kind/method/preprocessing combination runs at a reduced trial count through
``load_config`` -> ``replace(trials=...)`` -> ``with_method`` ->
``monte_carlo`` -> ``write_rmse_csv``. Each output must equal its file under
``tests/golden/`` byte for byte.

After a deliberate behaviour change, regenerate the pins with::

    PYTHONPATH=src python tests/test_golden.py
"""

import dataclasses
from pathlib import Path

import pytest

from wsnloc.cli import main
from wsnloc.config import load_config
from wsnloc.harness import monte_carlo, write_rmse_csv

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"

# (config stem, CLI subcommand) for each shipped config, run as shipped
SHIPPED = [
    ("doa_coherent_toeplitz", "doa"),
    ("doa_ula_music", "doa"),
    ("hybrid_coherent_fbss", "hybrid"),
    ("hybrid_single", "hybrid"),
    ("rss_equal_distance", "rss"),
    ("rss_heterogeneous", "rss"),
    ("spectrum_uca", "spectrum"),
]

# (config stem, kind, trials, method overrides) for the remaining methods
METHODS = [
    ("rss_heterogeneous", "rss", 20, {"estimator": "ls"}),
    ("rss_heterogeneous", "rss", 20, {"estimator": "huber"}),
    ("doa_ula_music", "doa", 20, {"doa": "root-music"}),
    ("doa_ula_music", "doa", 20, {"doa": "esprit"}),
    ("doa_ula_music", "doa", 20, {"doa": "music", "decorrelate": "fss"}),
    ("doa_ula_music", "doa", 20, {"doa": "music", "decorrelate": "fbss"}),
    ("doa_ula_music", "doa", 20, {"doa": "root-music", "decorrelate": "fbss"}),
    ("spectrum_uca", "doa", 20, {"doa": "music"}),
    ("spectrum_uca", "doa", 20, {"doa": "uca-root-music"}),
    ("spectrum_uca", "doa", 20, {"doa": "uca-esprit"}),
    ("spectrum_uca", "doa", 20, {"doa": "music", "decorrelate": "fss"}),
    ("spectrum_uca", "doa", 20, {"doa": "music", "decorrelate": "fbss"}),
    ("hybrid_single", "hybrid", 10, {"hybrid": "ls"}),
    ("hybrid_single", "hybrid", 10, {"hybrid": "wls"}),
    ("hybrid_single", "hybrid", 10, {"hybrid": "two-lines"}),
]


def shipped_name(stem: str, command: str) -> str:
    return f"{stem}.{command}.csv"


def method_name(stem: str, kind: str, trials: int, overrides: dict) -> str:
    return f"{stem}.{kind}.{'-'.join(overrides.values())}.t{trials}.csv"


def run_shipped(stem: str, command: str, out: Path) -> None:
    assert main([command, "--config", str(CONFIGS / f"{stem}.json"), "--out", str(out)]) == 0


def run_method(stem: str, kind: str, trials: int, overrides: dict, out: Path) -> None:
    cfg = dataclasses.replace(load_config(CONFIGS / f"{stem}.json"), trials=trials)
    write_rmse_csv(monte_carlo(cfg.with_method(**overrides), kind), out)


@pytest.mark.parametrize("stem,command", SHIPPED)
def test_shipped_config_matches_golden(tmp_path, stem, command):
    out = tmp_path / "out.csv"
    run_shipped(stem, command, out)
    assert out.read_bytes() == (GOLDEN / shipped_name(stem, command)).read_bytes()


@pytest.mark.parametrize("stem,kind,trials,overrides", METHODS)
def test_method_matches_golden(tmp_path, stem, kind, trials, overrides):
    out = tmp_path / "out.csv"
    run_method(stem, kind, trials, overrides, out)
    assert out.read_bytes() == (GOLDEN / method_name(stem, kind, trials, overrides)).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stem, command in SHIPPED:
        run_shipped(stem, command, GOLDEN / shipped_name(stem, command))
    for stem, kind, trials, overrides in METHODS:
        run_method(stem, kind, trials, overrides, GOLDEN / method_name(stem, kind, trials, overrides))
