"""Fusion of RSS ranging with array bearings.

Four schemes are provided, all built around a single hybrid node: an
antenna ring whose elements measure per-element RSS while the array as a
whole estimates a bearing.

* ``hybrid_single_node`` casts the bearing ray from the ring center and
  intersects it with one ranging circle per element, averaging the hits.
* ``hybrid_with_fbss`` recovers the bearings in a coherent multipath
  environment (beamspace mapping, forward/backward smoothing, MUSIC),
  picks the target's with ``fbss_bearing`` from a coarse fix off the
  element circles, then runs the same ray/circle fusion.
* ``hybrid_anchor_fusion`` trilaterates with the help of extra RSS-only
  anchors, then averages the trilateration fix with the point the bearing
  ray reaches at the fix's range (``bearing_midpoint``).
* ``two_lines`` intersects one line of position (hybrid vs one RSS anchor)
  with the bearing line.

Every scheme takes its RSS ranges as plain estimated distances. The two
fusion schemes above solve their trilateration fix with
:func:`rss.ls_solve` or :func:`rss.wls_solve` (weighted by the row that
:func:`rss.wls_weights` builds) on :func:`geometry.build_lop_system` of those
ranges.

Each fusion is written once, for a stack of T trials, so that a caller that
solves many trials at once (the harness's hybrid chunks) fuses them with array
arithmetic: :func:`single_node_stack` and :func:`two_lines_stack` take T
bearings and their ranges (``two_lines_stack`` pools the node's range from its
elements'), and ``fbss_bearing`` and ``bearing_midpoint`` take a (T, 2) stack of
fixes as readily as one fix. ``hybrid_single_node``, ``ray_circle_point`` and
``two_lines`` are stacks of one that raise the failure recorded for their trial.
Products of 2-vectors and their norms are written out as sums of products, not
handed to BLAS, so a fused point does not depend on which BLAS kernel is
installed; ``two_lines_stack`` solves its 2x2 systems through LAPACK, one call
per system.
"""

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .arrays import UniformCircularArray, sample_covariance
from .channel import ChannelModel
from .decorrelate import SmoothingPlan, fbss
from .doa import DEFAULT_GRID_STEP, music
from .errors import (
    AllIntersectionsFailed,
    BehindRay,
    LengthMismatch,
    SingularFusionMatrix,
    only,
)
from .geometry import build_lop_system
from .pme import PmeTransform, VandermondeArray, to_vula
from .rss import ls_solve, wls_solve, wls_weights


@dataclass(frozen=True)
class HybridNode:
    """A ring array anchored at a known center; each element also ranges via RSS."""

    center: np.ndarray
    geometry: UniformCircularArray

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.center.shape != (2,):
            raise ValueError("center must be a 2-vector")

    @functools.cached_property
    def element_positions(self) -> np.ndarray:
        """(N, 2) element coordinates on the ring around the center, computed once per
        node and read-only."""
        angles = self.geometry.element_angles
        offsets = self.geometry.radius * np.column_stack([np.cos(angles), np.sin(angles)])
        positions = self.center + offsets
        positions.flags.writeable = False
        return positions


def _directions(doas: np.ndarray) -> np.ndarray:
    """(T, 2) unit vectors along T azimuths: each (cos, sin) divided by its norm, which
    rounding may leave off 1."""
    c, s = np.cos(doas), np.sin(doas)
    norm = np.sqrt(c * c + s * s)
    return np.stack([c / norm, s / norm], axis=-1)


def _forward_points(
    origin: np.ndarray, directions: np.ndarray, centers: np.ndarray, radii: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Where each of T rays from ``origin`` along unit ``directions`` (T, 2) first meets
    each of N circles around ``centers`` (N, 2), of radii (T, N), as :func:`ray_circle_point`
    finds it: the (T, N, 2) points and whether there is one, (T, N)."""
    rel = centers - origin
    mid = rel[:, 0] * directions[:, :1] + rel[:, 1] * directions[:, 1:]  # |d| = 1
    disc = mid * mid - (rel[:, 0] * rel[:, 0] + rel[:, 1] * rel[:, 1]) + radii * radii
    real = disc >= 0.0
    sq = np.sqrt(np.where(real, disc, 0.0))
    near, far = mid - sq, mid + sq
    t = np.where(real & (near > 0.0), near, np.where(real & (far > 0.0), far, mid))
    return origin + t[..., None] * directions[:, None, :], (real & (far > 0.0)) | (mid > 0.0)


def ray_circle_point(origin, doa: float, center, radius: float) -> np.ndarray:
    """First forward intersection of the ray from ``origin`` along azimuth ``doa`` with a
    circle.

    Solves |origin + t d - center|^2 = radius^2 and returns the point at
    the smallest t > 0. When the ray misses the circle, falls back to the
    orthogonal projection of the circle center onto the ray (the same
    parameter the intersection formula degenerates to). Raises ``BehindRay``
    when neither lies forward of the origin.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    origin, center = np.asarray(origin, dtype=float), np.asarray(center, dtype=float)[None]
    directions = _directions(np.array([doa], dtype=float))
    points, hit = _forward_points(origin, directions, center, np.full((1, 1), radius))
    if not hit[0, 0]:
        raise BehindRay("circle lies behind the ray origin")
    return points[0, 0]


def single_node_stack(
    node: HybridNode, doas: np.ndarray, ranges: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`hybrid_single_node` of T trials: their bearings ``doas`` (T,) and each one's
    element ranges, (T, N) in element order.

    Returns the (T, 2) fused points and, per trial, ``None`` or the
    ``AllIntersectionsFailed`` raised when every element circle lies behind its ray
    (NaN point). The hits are summed element by element and divided by their count,
    the bits of their mean.
    """
    positions = node.element_positions
    ranges = np.asarray(ranges, dtype=float)
    if ranges.shape[-1] != positions.shape[0]:
        raise LengthMismatch(f"{ranges.shape[-1]} ranges for {positions.shape[0]} elements")
    if np.any(ranges <= 0):
        raise ValueError("radius must be positive")
    points, hit = _forward_points(node.center, _directions(doas), positions, ranges)
    total = np.full((len(ranges), 2), -0.0)  # -0.0 + x is x, for every x
    for k in range(positions.shape[0]):
        total += np.where(hit[:, k, None], points[:, k], -0.0)
    count = np.count_nonzero(hit, axis=1)
    fused = total / np.maximum(count, 1)[:, None]
    fused[count == 0] = np.nan
    missed = AllIntersectionsFailed("no element circle intersects the bearing ray")
    return fused, np.where(count == 0, missed, None)


def hybrid_single_node(node: HybridNode, doa: float, ranges: Sequence[float]) -> np.ndarray:
    """Fuse one bearing with per-element ranging circles.

    ``ranges`` holds each ring element's estimated distance to the target,
    in element order. The bearing ray is cast from the array center; every
    element's range defines a circle around that element, and the forward
    ray/circle intersection points are averaged uniformly. Elements whose
    circle falls behind the ray are skipped; if all do,
    ``AllIntersectionsFailed``.
    """
    ranges = np.asarray(ranges, dtype=float)
    if ranges.ndim != 1:
        raise LengthMismatch("ranges must be one distance per element")
    return only(*single_node_stack(node, np.array([doa], dtype=float), ranges[None]))


def fbss_bearing(node: HybridNode, azimuths: np.ndarray, fix: np.ndarray):
    """The one of several bearing estimates nearest the direction in which the node
    sees ``fix``, a coarse LS fix from its element circles. Takes a (T, k) stack of
    estimates with a (T, 2) stack of fixes as well, and then returns T bearings."""
    azimuths, fix = np.asarray(azimuths, dtype=float), np.asarray(fix, dtype=float)
    implied = np.arctan2(fix[..., 1] - node.center[1], fix[..., 0] - node.center[0])
    gaps = np.abs((azimuths - implied[..., None] + np.pi) % (2.0 * np.pi) - np.pi)
    return np.take_along_axis(azimuths, np.argmin(gaps, axis=-1)[..., None], axis=-1)[..., 0]


def hybrid_with_fbss(
    node: HybridNode,
    x: np.ndarray,
    ranges: Sequence[float],
    transform: PmeTransform,
    n_sources: int,
    subarray_len: int | None = None,
    *,
    grid_step: float = DEFAULT_GRID_STEP,
) -> np.ndarray:
    """Single-node fusion in a coherent environment.

    The ring snapshots are mapped into the virtual linear array (plain
    transform, keeping the shift structure), forward/backward smoothing
    restores the covariance rank, and MUSIC on the smoothed subarray, with
    a grid of ``grid_step`` radians, recovers all coherent bearings. The
    bearing used for fusion is :func:`fbss_bearing`'s pick, by the LS fix of
    the element circles; ``ranges`` holds each ring element's estimated
    distance to the target, in element order, as for :func:`hybrid_single_node`.

    ``subarray_len`` trades decorrelation headroom for aperture; the
    default is the shortest valid subarray, n_sources + 1.
    """
    xv = to_vula(x, transform, prewhitened=False)
    plan = SmoothingPlan.design(
        transform.vula_size, n_sources, subarray_len=subarray_len, forward_backward=True
    )
    r = fbss(sample_covariance(xv), plan)
    _, azimuths = music(r, VandermondeArray(plan.subarray_len), n_sources, grid_step)
    fix = ls_solve(build_lop_system(node.element_positions, ranges))
    chosen = fbss_bearing(node, azimuths, fix)
    return hybrid_single_node(node, chosen, ranges)


def hybrid_anchor_fusion(
    node: HybridNode,
    rss_anchors,
    distances: Sequence[float],
    doa: float,
    estimator: str = "ls",
    model: ChannelModel | None = None,
) -> np.ndarray:
    """Average a trilateration fix with the bearing point at equal range.

    ``distances`` holds one estimated distance per RSS anchor followed by the
    one to the hybrid node's center (the hybrid node ranges too, giving
    the third circle). The trilateration fix p0 comes from LS or from WLS
    with ``model``'s ranging weights; the bearing point lies along the DOA
    ray at radius |p0 - center|, and the result is the midpoint of the two
    (:func:`bearing_midpoint`).
    """
    if estimator not in ("ls", "wls"):
        raise ValueError(f"unknown estimator {estimator!r}")
    if estimator == "wls" and model is None:
        raise ValueError("wls fusion needs the channel model for its weights")
    anchors = np.vstack([np.asarray(rss_anchors, dtype=float), node.center])
    system = build_lop_system(anchors, distances)
    fix = ls_solve(system) if estimator == "ls" else wls_solve(system, wls_weights(model, distances))
    return bearing_midpoint(node, fix, doa)


def bearing_midpoint(node: HybridNode, fix, doa) -> np.ndarray:
    """The midpoint of a trilateration ``fix`` and the point the bearing ray from the
    node's center reaches at the fix's range. Takes a (T, 2) stack of fixes with T
    bearings as well."""
    fix, doa = np.asarray(fix, dtype=float), np.asarray(doa, dtype=float)
    rel = fix - node.center
    radius = np.sqrt(rel[..., 0] * rel[..., 0] + rel[..., 1] * rel[..., 1])
    bearing_point = node.center + radius[..., None] * np.stack([np.cos(doa), np.sin(doa)], axis=-1)
    return 0.5 * (fix + bearing_point)


def two_lines_stack(
    node: HybridNode, rss_anchor, ranges: np.ndarray, doas: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`two_lines` of T trials: their (T, 1 + N) ``ranges``, each row the range to
    the anchor followed by the node's N element ranges, and their (T,) bearings. The
    node's range is the mean of its element ranges (the ring radius is negligible against
    the node-target distance); :func:`two_lines` passes its one range as N = 1.

    Returns the (T, 2) intersections and, per trial, ``None`` or the
    ``SingularFusionMatrix`` raised when its two lines are parallel (NaN point).
    """
    anchor, hyb = np.asarray(rss_anchor, dtype=float), node.center
    d_anchor, d_hybrid = ranges[:, 0], np.mean(ranges[:, 1:], axis=1)
    sin, cos = np.sin(doas), np.cos(doas)
    c_mat = np.empty((len(doas), 2, 2))
    c_mat[:, 0] = hyb - anchor
    c_mat[:, 1, 0], c_mat[:, 1, 1] = sin, -cos
    squares = hyb[0] * hyb[0] + hyb[1] * hyb[1] - (anchor[0] * anchor[0] + anchor[1] * anchor[1])
    d_vec = np.stack(
        [0.5 * (squares + d_anchor * d_anchor - d_hybrid * d_hybrid), sin * hyb[0] - cos * hyb[1]],
        axis=-1,
    )
    sq = (c_mat * c_mat).reshape(-1, 4)
    norm = np.sqrt(sq[:, 0] + sq[:, 1] + sq[:, 2] + sq[:, 3])  # Frobenius
    singular = np.abs(np.linalg.det(c_mat)) < 1e-12 * np.maximum(norm, 1.0)
    points = np.full((len(doas), 2), np.nan)
    if not singular.all():
        points[~singular] = np.linalg.solve(c_mat[~singular], d_vec[~singular, :, None])[..., 0]
    parallel = SingularFusionMatrix("bearing line is parallel to the line of position")
    return points, np.where(singular, parallel, None)


def two_lines(
    node: HybridNode,
    rss_anchor,
    d_anchor: float,
    d_hybrid: float,
    doa: float,
) -> np.ndarray:
    """Intersect the hybrid/anchor line of position with the bearing line.

    The LOP differences the two ranging circles; the bearing line passes
    through the hybrid center along the DOA. Raises ``SingularFusionMatrix``
    when the two lines are parallel.
    """
    ranges = np.array([[d_anchor, d_hybrid]], dtype=float)
    return only(*two_lines_stack(node, rss_anchor, ranges, np.array([doa], dtype=float)))
