"""Recovering coherent (fully correlated) sources.

Six multipath copies of one waveform collapse the array covariance to
rank one, which blinds subspace estimators. The demo walks through the
three decorrelation tools and the element counts at which each one
restores all six directions:

* forward spatial smoothing     - needs N = 12 for six sources (N/2 rule)
* forward/backward smoothing    - succeeds at N = 9 (2N/3 rule)
* Toeplitz reconstruction       - succeeds at N = 7 (N-1 rule)

Run:  python demos/03_coherent_decorrelation.py
"""

import numpy as np

from wsnloc.arrays import SourceSet, UniformLinearArray, analytic_covariance
from wsnloc.decorrelate import SmoothingPlan, fbss, fss, toeplitz_reconstruct
from wsnloc.doa import music
from wsnloc.errors import InvalidPlan, NoPeaksFound

TRUTH = [-40.0, -30.0, -20.0, 20.0, 30.0, 40.0]
SRC = SourceSet(azimuths=np.radians(TRUTH), coherent=True)


def rank(r):
    w = np.linalg.eigvalsh(r)[::-1]
    return int(np.sum(w > 1e-8 * np.trace(r).real))


def try_music(r, n_sub, label):
    geometry = UniformLinearArray(n=n_sub, spacing=0.5, wavelength=1.0)
    try:
        _, est = music(r, geometry, 6, grid_step=np.radians(0.05))
        print(f"  {label}: rank {rank(r)}, peaks {np.round(np.degrees(est), 1)}")
    except NoPeaksFound as exc:
        print(f"  {label}: rank {rank(r)}, MUSIC fails ({exc})")


print(f"six coherent sources at {TRUTH} deg, noiseless covariances\n")

# Raw covariance: rank one no matter how many elements
r12 = analytic_covariance(UniformLinearArray(12, 0.5, 1.0), SRC)
print(f"raw 12-element covariance rank: {rank(r12)}  (six sources hidden in rank one)")

# Forward smoothing with the minimum subarray length (seven elements)
plan12 = SmoothingPlan.design(12, 6)
print(f"\nFSS on N=12: {plan12.subarray_count} subarrays of length {plan12.subarray_len}")
try_music(fss(r12, plan12), plan12.subarray_len, "FSS  N=12")

# Nine elements are not enough for forward-only smoothing
try:
    SmoothingPlan.design(9, 6)
except InvalidPlan as exc:
    print(f"\nFSS on N=9 is impossible: {exc}")

# ... but the backward pass doubles the effective subarray count
r9 = analytic_covariance(UniformLinearArray(9, 0.5, 1.0), SRC)
plan9 = SmoothingPlan.design(9, 6, forward_backward=True)
try_music(fbss(r9, plan9), plan9.subarray_len, "FBSS N=9 ")

# Toeplitz reconstruction keeps the full aperture: seven elements suffice
r7 = analytic_covariance(UniformLinearArray(7, 0.5, 1.0), SRC)
try_music(toeplitz_reconstruct(r7), 7, "Toep N=7 ")

print(
    "\nToeplitz also boosts the recovered source powers from rho^2 to"
    " (sum rho) * rho, which sharpens the pseudospectrum peaks."
)
