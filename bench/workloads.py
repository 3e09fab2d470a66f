"""The benchmark's workloads: fixed lists of Monte-Carlo sweeps.

A sweep is one ``monte_carlo`` call on a shipped ``configs/*.json`` scenario,
with the method override the CLI would apply (``--estimator``, ``--doa``,
``--hybrid``) and a worker count. Trial counts are sized so that one sweep
takes a few tenths of a second on a 2-core machine, so that a run, which
repeats passes over its sweeps for ``--seconds`` and sums each sweep's
median, takes dozens of samples of each.
"""

import dataclasses
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Sweep:
    config: str  # file stem under configs/
    kind: str  # rss | doa | hybrid, as the CLI subcommand
    method: tuple[tuple[str, str], ...]  # CLI method overrides, as (key, value)
    trials: int  # trials per SNR row
    workers: int = 1

    @property
    def key(self) -> str:
        """Reference file stem; sweeps that differ only in workers share it,
        because the pool must write the serial run's bytes."""
        override = "-".join(value for _, value in self.method) or "default"
        return f"{self.config}.{override}.t{self.trials}"

    def scenario(self, harness, root: Path, seed: int | None):
        """Load the config and apply the seed, trial count and overrides.

        The seed replaces the config seed exactly as the CLI's ``--seed`` does;
        ``None`` keeps the config's own seed.
        """
        cfg = harness.load_config(root / "configs" / f"{self.config}.json")
        cfg = dataclasses.replace(cfg, trials=self.trials)
        if seed is not None:
            cfg = dataclasses.replace(cfg, seed=seed)
        return cfg.with_method(**dict(self.method))


_DOA_MUSIC = Sweep("doa_ula_music", "doa", (("doa", "music"),), 30)
_RSS_WLS = Sweep("rss_heterogeneous", "rss", (("estimator", "wls"),), 30)
_HYBRID_FBSS = Sweep("hybrid_coherent_fbss", "hybrid", (), 10)

# Why each workload exists is recorded in BENCHMARK.json; in short: doa-ula
# stresses the ULA grid scan and polynomial rooting, rss-trilat the scalar
# ranging and LOP solvers with no arrays at all, hybrid-ring the UCA grid,
# per-trial beamspace transform and per-element ranging, and pool-2 is the
# only one that enters monte_carlo's thread pool.
WORKLOADS: dict[str, tuple[Sweep, ...]] = {
    "doa-ula": (
        _DOA_MUSIC,
        Sweep("doa_ula_music", "doa", (("doa", "root-music"),), 30),
        Sweep("doa_coherent_toeplitz", "doa", (), 30),
    ),
    "rss-trilat": (
        Sweep("rss_equal_distance", "rss", (("estimator", "ls"),), 30),
        _RSS_WLS,
        Sweep("rss_heterogeneous", "rss", (("estimator", "huber"),), 30),
    ),
    "hybrid-ring": (
        Sweep("hybrid_single", "hybrid", (("hybrid", "single"),), 10),
        Sweep("hybrid_single", "hybrid", (("hybrid", "wls"),), 10),
        _HYBRID_FBSS,
    ),
    "pool-2": tuple(
        dataclasses.replace(s, workers=2) for s in (_RSS_WLS, _DOA_MUSIC, _HYBRID_FBSS)
    ),
}

# Seeds with committed reference CSVs. Seed 1806 is held out: tune on the
# others (the configs' own seeds, 7 and 42, are among them) and confirm a
# claim on it.
HELD_OUT_SEED = 1806
REFERENCE_SEEDS = tuple(range(100)) + (HELD_OUT_SEED,)


def unique_sweeps() -> list[Sweep]:
    """One serial sweep per reference key, in workload order."""
    seen: dict[str, Sweep] = {}
    for sweeps in WORKLOADS.values():
        for sweep in sweeps:
            seen.setdefault(sweep.key, dataclasses.replace(sweep, workers=1))
    return list(seen.values())
