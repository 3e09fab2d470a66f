"""Fusing ranging circles with a bearing ray.

One hybrid node (a small antenna ring that measures per-element RSS and
estimates a bearing) localizes a target on its own; companion RSS nodes
enable the trilateration-averaging and two-line variants. The demo runs
a small seeded sweep of every scheme against the RSS-only baseline.

Run:  python demos/05_hybrid_fusion.py   (a few seconds)
"""

from wsnloc.config import ScenarioConfig
from wsnloc.harness import monte_carlo

A = [18.0, 16.0]   # hybrid node, close to the target
B = [22.0, 20.0]   # companion RSS node mirrored across the target
C = [2.0, 28.0]    # far corner nodes complete the trilateration sets
D = [28.0, 4.0]
TARGET = [20.0, 18.0]


def config(anchors, with_node=True, **method):
    raw = {
        "seed": 20240601,
        "trials": 60,
        "snr_grid_db": [2, 6, 10],
        "region": [30.0, 30.0],
        "target": TARGET,
        "channel": {"frequency_hz": 1e9, "eta": 2.0, "sigma_ref_db": 0.3},
        "snapshots": 100,
        "method": method or {},
    }
    if anchors:
        raw["anchors"] = anchors
    if with_node:
        raw["hybrid_node"] = {
            "center": A,
            "n_elements": 4,
            "radius_wavelengths": 0.3183,
            "elevation_deg": 90.0,
        }
    return ScenarioConfig.from_dict(raw)


runs = {
    "RSS-only (LS, 4 nodes)": ("rss", config([C, D, B, A], with_node=False)),
    "hybrid single node": ("hybrid", config(None, hybrid="single")),
    "hybrid + LS anchors": ("hybrid", config([C, D, B], hybrid="ls")),
    "hybrid + WLS anchors": ("hybrid", config([C, D, B], hybrid="wls")),
    "two lines (1 RSS node)": ("hybrid", config([B], hybrid="two-lines")),
}

print(f"target {TARGET}, hybrid node at {A}; RMSE in meters, 60 trials/SNR\n")
header = "scheme".ljust(24) + "".join(f"{f'snr {s} dB':>9}" for s in (2, 6, 10))
print(header)
print("-" * len(header))
for name, (kind, cfg) in runs.items():
    rows = monte_carlo(cfg, kind).rows
    cells = "".join(f"{row.rmse:9.3f}" for row in rows)
    print(name.ljust(24) + cells)

print(
    "\nThe single hybrid node wins: its bearing pins the cross-range"
    "\nerror while the tiny per-element circles pin the range. The"
    "\ntwo-line scheme approaches it once the bearing dominates, and"
    "\nweighting rescues the anchor-fusion variant from the far nodes."
)
