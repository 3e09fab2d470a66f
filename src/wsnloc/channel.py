"""Log-normal shadowing path-loss channel.

The mean loss follows the log-distance model anchored at a reference
distance ``d0`` where free-space conditions hold; shadowing adds a
zero-mean Gaussian term (in dB) with standard deviation ``sigma_db``.
Inverting a measured loss through the mean model gives a distance
estimate whose ratio to the true distance is log-normal.

Randomness comes from an explicit ``numpy.random.Generator`` so every
draw is reproducible; the harness derives one PCG64 stream per trial, and
ranges many trials' draws at once (:func:`range_stack`).
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonPositiveDistance

SPEED_OF_LIGHT = 299_792_458.0  # m/s


@dataclass(frozen=True)
class ChannelModel:
    """Log-normal path-loss parameters.

    Attributes
    ----------
    d0 : float
        Reference distance in meters (free-space loss holds at d0).
    eta : float
        Path-loss exponent (2 = free space).
    sigma_db : float
        Shadowing standard deviation in dB (0 disables shadowing).
    wavelength : float
        Carrier wavelength in meters.
    """

    d0: float
    eta: float
    sigma_db: float
    wavelength: float

    def __post_init__(self):
        if self.d0 <= 0 or self.eta <= 0 or self.wavelength <= 0:
            raise ValueError("d0, eta and wavelength must be positive")
        if not (self.d0 < math.inf and self.wavelength < math.inf):
            raise ValueError("d0 and wavelength must be finite")
        if self.sigma_db < 0:
            raise ValueError("sigma_db must be non-negative")

    @cached_property
    def reference_loss_db(self) -> float:
        """The free-space loss at ``d0`` that anchors the mean model, worked out
        once per model instead of on every ranging call."""
        return free_space_path_loss(self.d0, self)


def wavelength_from_frequency(frequency_hz: float) -> float:
    """Free-space wavelength for a carrier frequency."""
    if frequency_hz <= 0:
        raise ValueError("frequency must be positive")
    return SPEED_OF_LIGHT / frequency_hz


def free_space_path_loss(d: float, model: ChannelModel) -> float:
    """Free-space loss 20 log10(4 pi d / wavelength) in dB."""
    if np.any(np.asarray(d) <= 0):
        raise NonPositiveDistance("free-space path loss needs d > 0")
    return 20.0 * np.log10(4.0 * np.pi * np.asarray(d, dtype=float) / model.wavelength)


def mean_path_loss(d, model: ChannelModel) -> np.ndarray:
    """Mean log-normal path loss PL_F(d0) + 10 eta log10(d / d0) at each distance in
    ``d`` (valid for d >= d0), element by element: any block of distances gets the
    values each distance gets alone."""
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise NonPositiveDistance("path loss needs d > 0")
    return model.reference_loss_db + 10.0 * model.eta * np.log10(d / model.d0)


def path_loss(d: float, model: ChannelModel, rng: np.random.Generator) -> float:
    """Sampled log-normal path loss at distance ``d`` (valid for d >= d0).

    PL(d) = PL_F(d0) + 10 eta log10(d / d0) + X, with X ~ Normal(0, sigma_db^2)
    drawn from ``rng`` (one draw even when sigma_db == 0, so a scenario's
    draw sequence does not depend on the noise setting).
    """
    mean = mean_path_loss(d, model)
    return mean + rng.normal(0.0, 1.0, size=mean.shape if mean.ndim else None) * model.sigma_db


def invert_distance(pl_db: float, model: ChannelModel) -> float:
    """Distance that the mean path-loss model assigns to a loss value.

    Composing with a noiseless ``path_loss`` is the identity on d. Under
    shadowing the result is log-normal about the true distance with
    log-std ``sigma_db * ln(10) / (10 eta)``. A loss too large for the
    float range inverts to ``inf`` (with numpy's overflow warning).

    ``10**x`` is evaluated one element at a time with the scalar power
    (libm ``pow``): numpy's vectorised power loop differs from it by one ulp
    on about 5% of inputs, and this way inverting an array gives exactly
    the values of inverting each element on its own.
    """
    pl_db = np.asarray(pl_db, dtype=float)
    exponent = (pl_db - model.reference_loss_db) / (10.0 * model.eta)
    return model.d0 * np.array([10.0**x for x in exponent.flat]).reshape(exponent.shape)


def range_stack(points, targets, shadows, sigma_db, generating, inverting) -> np.ndarray:
    """The (T, k) ranges T ``targets`` (T, 2) read from k ``points`` (k, 2), target t
    with the k standard-normal ``shadows[t]`` that :func:`path_loss` would draw for its
    points, in point order, and its own shadowing std ``sigma_db[t]``. ``shadows`` is a
    (T, k) float array, taken as it is, or anything ``np.asarray`` makes one of. The
    ``generating`` model gives every mean loss in one :func:`mean_path_loss` call
    (models that differ only in their shadowing std share them), and ``inverting``
    reads the losses back: each range is the value the target's own ``path_loss`` and
    :func:`invert_distance` give under models with its std."""
    diff = points[None] - targets[:, None]
    mean = mean_path_loss(np.hypot(diff[..., 0], diff[..., 1]), generating)
    return invert_distance(mean + np.asarray(shadows) * sigma_db[:, None], inverting)


def sigma_from_snr(snr_db: float, sigma_ref_db: float = 8.0) -> float:
    """Map an SNR (dB) to a shadowing std: sigma_ref * 10^(-snr/20).

    The reference std applies at SNR = 0 dB; higher SNR shrinks the
    shadowing proportionally to the amplitude ratio. This mapping is a
    scenario knob (``channel.sigma_ref_db`` in configs), chosen to give a
    monotone RMSE-vs-SNR trend while keeping the log-normal model intact.
    """
    if sigma_ref_db < 0:
        raise ValueError("sigma_ref_db must be non-negative")
    return sigma_ref_db * 10.0 ** (-snr_db / 20.0)


def lognormal_sigma_d(model: ChannelModel) -> float:
    """Log-domain std of the estimated/true distance ratio."""
    return model.sigma_db * math.log(10.0) / (10.0 * model.eta)
