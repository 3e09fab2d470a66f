"""Fusion of RSS ranging with array bearings.

Four schemes are provided, all built around a single hybrid node: an
antenna ring whose elements measure per-element RSS while the array as a
whole estimates a bearing.

* ``hybrid_single_node`` casts the bearing ray from the ring center and
  intersects it with one ranging circle per element, averaging the hits.
* ``hybrid_with_fbss`` recovers the bearing in a coherent multipath
  environment (beamspace mapping, forward/backward smoothing, MUSIC)
  before running the same ray/circle fusion.
* ``hybrid_anchor_fusion`` trilaterates with the help of extra RSS-only
  anchors, then averages the trilateration fix with the point the bearing
  ray reaches at the fix's range.
* ``two_lines`` intersects one line of position (hybrid vs one RSS anchor)
  with the bearing line.

Every scheme takes its RSS ranges as plain estimated distances. The
trilateration fixes are one system through :func:`rss.solve_stack`.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .arrays import UniformCircularArray, sample_covariance
from .channel import ChannelModel
from .decorrelate import SmoothingPlan, fbss
from .doa import music
from .errors import (
    AllIntersectionsFailed,
    BehindRay,
    LengthMismatch,
    SingularFusionMatrix,
)
from .geometry import LopMatrix, bearing_to, lop_matrix
from .pme import PmeTransform, VandermondeArray, to_vula
from .rss import solve_stack, wls_row_weights


@dataclass(frozen=True)
class HybridNode:
    """A ring array anchored at a known center; each element also ranges via RSS."""

    center: np.ndarray
    geometry: UniformCircularArray

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.center.shape != (2,):
            raise ValueError("center must be a 2-vector")

    @property
    def element_positions(self) -> np.ndarray:
        """(N, 2) element coordinates on the ring around the center."""
        angles = self.geometry.element_angles
        offsets = self.geometry.radius * np.column_stack([np.cos(angles), np.sin(angles)])
        return self.center + offsets


@dataclass(frozen=True)
class BearingRay:
    """Half-line from an origin along a unit direction vector."""

    origin: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        origin = np.asarray(self.origin, dtype=float)
        direction = np.asarray(self.direction, dtype=float)
        norm = float(np.linalg.norm(direction))
        if norm == 0.0:
            raise ValueError("direction must be nonzero")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "direction", direction / norm)

    @classmethod
    def from_azimuth(cls, origin, azimuth: float) -> "BearingRay":
        return cls(origin=origin, direction=(math.cos(azimuth), math.sin(azimuth)))

    def point(self, t: float) -> np.ndarray:
        return self.origin + t * self.direction


def ray_circle_point(ray: BearingRay, center, radius: float) -> np.ndarray:
    """First forward intersection of a ray with a circle.

    Solves |origin + t d - center|^2 = radius^2 and returns the point at
    the smallest t > 0. When the ray misses the circle, falls back to the
    orthogonal projection of the circle center onto the ray (the same
    parameter the intersection formula degenerates to). Raises ``BehindRay``
    when neither lies forward of the origin.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    center = np.asarray(center, dtype=float)
    rel = center - ray.origin
    mid = float(rel @ ray.direction)  # projection parameter, |d| = 1
    disc = mid * mid - float(rel @ rel) + radius * radius
    if disc >= 0.0:
        sq = math.sqrt(disc)
        for t in (mid - sq, mid + sq):
            if t > 0.0:
                return ray.point(t)
    if mid > 0.0:
        return ray.point(mid)
    raise BehindRay("circle lies behind the ray origin")


def hybrid_single_node(node: HybridNode, doa: float, ranges: Sequence[float]) -> np.ndarray:
    """Fuse one bearing with per-element ranging circles.

    ``ranges`` holds each ring element's estimated distance to the target,
    in element order. The bearing ray is cast from the array center; every
    element's range defines a circle around that element, and the forward
    ray/circle intersection points are averaged uniformly. Elements whose
    circle falls behind the ray are skipped; if all do,
    ``AllIntersectionsFailed``.
    """
    positions = node.element_positions
    if len(ranges) != positions.shape[0]:
        raise LengthMismatch(f"{len(ranges)} ranges for {positions.shape[0]} elements")
    ray = BearingRay.from_azimuth(node.center, doa)
    hits = []
    for pos, radius in zip(positions, ranges):
        try:
            hits.append(ray_circle_point(ray, pos, radius))
        except BehindRay:
            continue
    if not hits:
        raise AllIntersectionsFailed("no element circle intersects the bearing ray")
    return np.mean(hits, axis=0)


def _wrapped_gap(a: float, b: float) -> float:
    return abs((a - b + np.pi) % (2.0 * np.pi) - np.pi)


def _trilaterate(lop: LopMatrix, ranges: Sequence[float], model: ChannelModel | None) -> np.ndarray:
    """LS fix of ``ranges`` against ``lop`` (WLS with ``model``'s ranging weights, if any),
    one system through the stacked solver; raises the error it records for that system."""
    b = lop.system(ranges).b[None]  # checks the ranges
    weighted = () if model is None else wls_row_weights(model, np.asarray([ranges], dtype=float))
    pos, failed = solve_stack(lop, b, *weighted)
    if failed[0] is not None:
        raise failed[0]
    return pos[0]


def hybrid_with_fbss(
    node: HybridNode,
    x: np.ndarray,
    ranges: Sequence[float],
    transform: PmeTransform,
    n_sources: int,
    subarray_len: int | None = None,
    *,
    lop: LopMatrix | None = None,
) -> np.ndarray:
    """Single-node fusion in a coherent environment.

    The ring snapshots are mapped into the virtual linear array (plain
    transform, keeping the shift structure), forward/backward smoothing
    restores the covariance rank, and MUSIC on the smoothed subarray
    recovers all coherent bearings. The bearing used for fusion is the one
    nearest the direction implied by a coarse LS fix from the element
    circles; ``ranges`` holds each ring element's estimated distance to the
    target, in element order, as for :func:`hybrid_single_node`.

    ``subarray_len`` trades decorrelation headroom for aperture; the
    default is the shortest valid subarray, n_sources + 1. ``lop`` is the
    ring elements' LOP matrix, for a caller that builds it once; it must be
    ``lop_matrix(node.element_positions)``, as nothing checks that it is.
    """
    xv = to_vula(x, transform, prewhitened=False)
    plan = SmoothingPlan.design(
        transform.vula_size, n_sources, subarray_len=subarray_len, forward_backward=True
    )
    r = fbss(sample_covariance(xv), plan)
    _, estimate = music(r, VandermondeArray(plan.subarray_len), n_sources)

    if lop is None:
        lop = lop_matrix(node.element_positions)
    implied = bearing_to(node.center, _trilaterate(lop, ranges, None))
    gaps = [_wrapped_gap(theta, implied) for theta in estimate.azimuths]
    chosen = float(estimate.azimuths[int(np.argmin(gaps))])
    return hybrid_single_node(node, chosen, ranges)


def hybrid_anchor_fusion(
    node: HybridNode,
    rss_anchors,
    distances: Sequence[float],
    doa: float,
    estimator: str = "ls",
    model: ChannelModel | None = None,
    *,
    lop: LopMatrix | None = None,
) -> np.ndarray:
    """Average a trilateration fix with the bearing point at equal range.

    ``distances`` holds one estimated distance per RSS anchor followed by the
    one to the hybrid node's center (the hybrid node ranges too, giving
    the third circle). The trilateration fix p0 comes from LS or from WLS
    with ``model``'s ranging weights; the bearing point lies along the DOA
    ray at radius |p0 - center|, and the result is the midpoint of the two.
    ``lop`` is the LOP matrix of the anchors followed by the center, for a
    caller that builds it once; it must be
    ``lop_matrix(np.vstack([rss_anchors, node.center]))``, as nothing checks
    that it is.
    """
    if estimator not in ("ls", "wls"):
        raise ValueError(f"unknown estimator {estimator!r}")
    if estimator == "wls" and model is None:
        raise ValueError("wls fusion needs the channel model for its weights")
    if lop is None:
        lop = lop_matrix(np.vstack([np.asarray(rss_anchors, dtype=float), node.center]))
    fix = _trilaterate(lop, distances, model if estimator == "wls" else None)
    radius = float(np.linalg.norm(fix - node.center))
    bearing_point = node.center + radius * np.array([math.cos(doa), math.sin(doa)])
    return 0.5 * (fix + bearing_point)


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
    anchor = np.asarray(rss_anchor, dtype=float)
    hyb = node.center
    c_mat = np.array(
        [
            [hyb[0] - anchor[0], hyb[1] - anchor[1]],
            [math.sin(doa), -math.cos(doa)],
        ]
    )
    d_vec = np.array(
        [
            0.5 * (hyb @ hyb - anchor @ anchor + d_anchor**2 - d_hybrid**2),
            math.sin(doa) * hyb[0] - math.cos(doa) * hyb[1],
        ]
    )
    if abs(np.linalg.det(c_mat)) < 1e-12 * max(np.linalg.norm(c_mat), 1.0):
        raise SingularFusionMatrix("bearing line is parallel to the line of position")
    return np.linalg.solve(c_mat, d_vec)
