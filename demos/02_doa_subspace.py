"""Subspace direction finding on a uniform linear array.

Two narrowband sources hit an 8-element half-wavelength ULA. The demo
draws the MUSIC pseudospectrum as an ASCII plot, then compares the
search-free estimators (Root-MUSIC, ESPRIT) against the spectral peaks.

Run:  python demos/02_doa_subspace.py
"""

import numpy as np

from wsnloc.arrays import SourceSet, UniformLinearArray, sample_covariance, synthesize_snapshots
from wsnloc.doa import esprit, music, root_music

rng = np.random.default_rng(99)

array = UniformLinearArray(n=8, spacing=0.5, wavelength=1.0)
truth = np.array([-10.0, 10.0])
src = SourceSet(azimuths=np.radians(truth))

x = synthesize_snapshots(array, src, 200, 10.0, rng)
r = sample_covariance(x)
spectrum, est = music(r, array, 2)

# ---------------------------------------------------------------------------
# ASCII pseudospectrum, 2-degree bins
# ---------------------------------------------------------------------------
print(f"MUSIC pseudospectrum, true DOAs {truth.tolist()} deg, SNR 10 dB, K=200\n")
deg = np.degrees(spectrum.grid)
power = spectrum.power_db
lo, hi = power.min(), power.max()
for left in range(-90, 90, 2):
    mask = (deg >= left) & (deg < left + 2)
    level = power[mask].max()
    bar = "#" * int(60 * (level - lo) / (hi - lo))
    marker = " <-- true" if any(abs(t - (left + 1)) <= 1 for t in truth) else ""
    print(f"{left:+4d} deg |{bar}{marker}")

print(f"\nMUSIC peaks      : {np.round(np.degrees(est), 2)} deg")

# ---------------------------------------------------------------------------
# Search-free estimators on the same data
# ---------------------------------------------------------------------------
print(f"Root-MUSIC roots : {np.round(np.degrees(root_music(r, array, 2)), 2)} deg")
print(f"ESPRIT rotations : {np.round(np.degrees(esprit(x, array, 2)), 2)} deg")

# ---------------------------------------------------------------------------
# Resolution improves with aperture: repeat with 4 elements
# ---------------------------------------------------------------------------
small = UniformLinearArray(n=4, spacing=0.5, wavelength=1.0)
x4 = synthesize_snapshots(small, src, 200, 10.0, np.random.default_rng(99))
_, est4 = music(sample_covariance(x4), small, 2)
print(f"\nsame scene, N=4  : {np.round(np.degrees(est4), 2)} deg "
      "(wider peaks, larger spread)")
