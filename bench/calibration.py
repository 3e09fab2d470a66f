"""A fixed reference kernel that measures how fast the machine is right now.

On a shared host the speed of a CPU drifts by half or more over tens of
seconds and minutes, as other tenants come and go; a sweep's wall time
drifts with it, and so did the medians of whole runs. The kernel below is
timed before and after every sweep, and the benchmark's bounded time metrics
are each sweep's time over the kernel's mean time either side of it, scaled
by ``NOMINAL_S``: seconds at the machine speed at which the kernel takes
``NOMINAL_S``.

The kernel uses no wsnloc code, so no change to the package moves it. It is
single-threaded (its matrices are below OpenBLAS's threading threshold) and
mixes what the sweeps do: small complex ``eigh`` and GEMM, polynomial roots,
and scalar Python arithmetic. Changing it, or ``NOMINAL_S``, changes every
normalised figure: runs made before and after are not comparable.
"""

import math
import time

import numpy as np

NOMINAL_S = 0.04  # the kernel's typical time on the 2-vCPU VM it was sized on
REPS = 300

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((8, 8)) + 1j * _RNG.standard_normal((8, 8))
_H = _A @ _A.conj().T
_GRID = np.exp(1j * np.outer(np.arange(8), np.linspace(-1.5, 1.5, 200)))
_POLY = np.array([1.0, -2.0, 0.5, 0.1])


def kernel_seconds() -> float:
    """Wall seconds of one run of the reference kernel."""
    acc = 0.0
    start = time.perf_counter()
    for _ in range(REPS):
        _, q = np.linalg.eigh(_H)
        acc += float((np.abs(q[:, :6].conj().T @ _GRID) ** 2).sum())
        acc += float(np.roots(_POLY)[0].real)
        for k in range(300):
            acc += math.log10(1.0 + 0.5 * k)
    elapsed = time.perf_counter() - start
    if not math.isfinite(acc):
        raise RuntimeError("reference kernel produced a non-finite result")
    return elapsed
