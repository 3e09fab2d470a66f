"""Covariance preprocessing that restores rank under coherent sources:
forward spatial smoothing, forward/backward spatial smoothing, and
Toeplitz reconstruction.

Smoothing assumes vandermonde (linear-array) structure; circular-array
data must pass through the phase-mode beamspace first. Forward smoothing
with L subarrays of length p can decorrelate up to min(L, p-1) coherent
sources, which caps the capacity at N/2; the backward pass doubles the
effective subarray count, raising the cap to 2N/3 (Pillai & Kwon 1989).
Toeplitz reconstruction keeps the full aperture and restores rank for up
to N-1 coherent sources at the cost of discarding all but the first
row/column of the measured covariance.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidPlan
from .numerics import _check_hermitian


@dataclass(frozen=True)
class SmoothingPlan:
    """Subarray decomposition: L = N - p + 1 subarrays of length p, sized
    to decorrelate ``n_sources`` coherent signals."""

    subarray_len: int
    subarray_count: int
    n_sources: int

    def __post_init__(self):
        if self.subarray_len < 2 or self.subarray_count < 1 or self.n_sources < 1:
            raise InvalidPlan("subarray length/count and source count must be positive")

    @property
    def n_elements(self) -> int:
        return self.subarray_len + self.subarray_count - 1

    @classmethod
    def design(
        cls,
        n_elements: int,
        n_sources: int,
        subarray_len: int | None = None,
        forward_backward: bool = False,
    ) -> "SmoothingPlan":
        """Pick a valid plan for an N-element array, defaulting to the
        minimum subarray length M+1."""
        p = n_sources + 1 if subarray_len is None else subarray_len
        if p >= n_elements + 1:
            raise InvalidPlan(f"subarray length {p} exceeds array size {n_elements}")
        plan = cls(subarray_len=p, subarray_count=n_elements - p + 1, n_sources=n_sources)
        _validate(plan, forward_backward)
        return plan


def _validate(plan: SmoothingPlan, forward_backward: bool) -> None:
    p, l, m = plan.subarray_len, plan.subarray_count, plan.n_sources
    if p <= m:
        raise InvalidPlan(f"subarray length {p} must exceed source count {m}")
    # Rank restoration needs L (or 2L with the backward pass) subarray
    # shifts covering the M coherent sources.
    effective = 2 * l if forward_backward else l
    if effective < m:
        raise InvalidPlan(
            f"{l} subarrays ({'2x' if forward_backward else '1x'}) cannot "
            f"decorrelate {m} coherent sources"
        )


def _check_input(r: np.ndarray, plan: SmoothingPlan) -> np.ndarray:
    r = _check_hermitian(r)
    if r.shape[0] != plan.n_elements:
        raise DimensionMismatch(
            f"covariance is {r.shape[0]}x{r.shape[0]} but plan implies "
            f"{plan.n_elements} elements"
        )
    return r


def smooth(r: np.ndarray, plan: SmoothingPlan, forward_backward: bool = False) -> np.ndarray:
    """The smoothing of :func:`fss` (or, ``forward_backward``, :func:`fbss`) without
    their checks, of one covariance or of each in a (T, n, n) stack: a stack gives
    each matrix the bits of its own call."""
    p, l = plan.subarray_len, plan.subarray_count
    acc = np.zeros(r.shape[:-2] + (p, p), dtype=complex)
    for k in range(l):
        acc += r[..., k : k + p, k : k + p]
    acc /= l
    out = 0.5 * (acc + acc.conj().swapaxes(-1, -2))
    if not forward_backward:
        return out
    rb = out[..., ::-1, ::-1].conj()  # J R* J: reverse both axes and conjugate
    out = 0.5 * (out + rb)
    return 0.5 * (out + out.conj().swapaxes(-1, -2))


def fss(r: np.ndarray, plan: SmoothingPlan) -> np.ndarray:
    """Forward spatial smoothing: average the L leading-diagonal p x p blocks."""
    r = _check_input(r, plan)
    _validate(plan, forward_backward=False)
    return smooth(r, plan)


def fbss(r: np.ndarray, plan: SmoothingPlan) -> np.ndarray:
    """Forward/backward smoothing: average the forward result with its
    exchange-conjugated (backward) counterpart J R* J."""
    r = _check_input(r, plan)
    _validate(plan, forward_backward=True)
    return smooth(r, plan, forward_backward=True)


def toeplitz_reconstruct(r: np.ndarray) -> np.ndarray:
    """Hermitian Toeplitz matrix from the first row/column of a covariance.

    Row one of the coherent covariance retains one cleanly weighted copy of
    every steering lag, so the rebuilt Toeplitz matrix has full signal rank
    even when the input collapsed to rank one. No PSD projection is
    applied; downstream eigendecomposition only needs the rank structure.
    """
    r = _check_hermitian(r)
    row = r[0].copy()
    row[0] = row[0].real
    lag = np.arange(row.size)[:, None] - np.arange(row.size)  # i - j
    # on and below the diagonal the conjugated row, above it the row itself
    out = np.where(lag >= 0, np.conj(row)[lag], row[-lag])
    return 0.5 * (out + out.conj().T)
