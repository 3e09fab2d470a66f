"""Wireless sensor network localization toolkit.

RSS trilateration (LS / WLS / robust IRLS), subspace DOA estimation on
linear and circular arrays (MUSIC, Root-MUSIC, ESPRIT and their beamspace
circular-array variants), coherent-signal decorrelation (forward and
forward/backward spatial smoothing, Toeplitz reconstruction), hybrid
RSS+DOA fusion, and a seeded Monte-Carlo harness with a CSV/CLI surface.
"""

from . import arrays, channel, config, decorrelate, doa, errors, geometry, harness, hybrid, numerics
from . import pme, rss

__all__ = [
    "arrays",
    "channel",
    "config",
    "decorrelate",
    "doa",
    "errors",
    "geometry",
    "harness",
    "hybrid",
    "numerics",
    "pme",
    "rss",
]

__version__ = "0.1.0"
