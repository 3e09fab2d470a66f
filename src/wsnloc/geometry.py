"""Planar geometry shared by all estimators: distances, line-of-position
systems for trilateration, and point-to-point bearings.

Positions are 2-vectors ``[x, y]`` in meters. Azimuths are measured
counter-clockwise from the +x axis, in radians (the CLI converts degrees).
"""

from typing import NamedTuple, Sequence

import numpy as np

from .errors import CollinearAnchors, LengthMismatch


class LinearSystem(NamedTuple):
    """Stacked line-of-position equations ``A p = b`` for a node position p."""

    A: np.ndarray  # (S-1, 2)
    b: np.ndarray  # (S-1,)


def distance(a, b) -> float:
    """Euclidean distance between two planar points."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.hypot(a[0] - b[0], a[1] - b[1]))


def as_anchor_array(anchors) -> np.ndarray:
    """Validate and return anchors as an (S, 2) float array."""
    arr = np.asarray(anchors, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise LengthMismatch(f"anchors must be (S, 2), got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("anchor coordinates must be finite")
    diff = arr[:, None, :] - arr[None, :, :]
    pair_d = np.hypot(diff[..., 0], diff[..., 1])
    np.fill_diagonal(pair_d, np.inf)
    if np.min(pair_d) == 0.0:
        raise ValueError("two anchors coincide")
    return arr


class LopMatrix(NamedTuple):
    """The anchor half of the line-of-position system, fixed by the anchor layout.

    Built once by :func:`lop_matrix`, with the least-squares normal matrix
    ``A^T A`` and its condition number; :meth:`system` adds the right-hand
    side for one set of ranges, :meth:`rhs` for a block of them.
    """

    A: np.ndarray  # (S-1, 2) rows 2 (p_S - p_i)
    ref_sq: float  # |p_S|^2
    pts_sq: np.ndarray  # (S-1,) |p_i|^2
    gram: np.ndarray  # (2, 2) A^T A
    gram_cond: float  # 2-norm condition number of A^T A

    def system(self, distances: Sequence[float]) -> LinearSystem:
        """``A p = b`` with ``b_i = d_i^2 - d_S^2 + |p_S|^2 - |p_i|^2``."""
        d = np.asarray(distances, dtype=float)
        if d.ndim != 1 or d.shape[0] != self.A.shape[0] + 1:
            raise LengthMismatch(
                f"{self.A.shape[0] + 1} anchors but {d.shape[0]} distances"
            )
        if np.any(d <= 0):
            raise ValueError("distances must be positive")
        return LinearSystem(A=self.A, b=self.rhs(d[None])[0])

    def rhs(self, distances: np.ndarray) -> np.ndarray:
        """``b`` for each row of a (T, S) block of ranges, unchecked: (T, S-1).

        Each row's ``d_S^2`` is the scalar power of its last range, the value
        squaring that range on its own gives; numpy's array square is one ulp
        off it on some inputs.
        """
        last_sq = np.array([d_s**2 for d_s in distances[:, -1]])
        return distances[:, :-1] ** 2 - last_sq[:, None] + self.ref_sq - self.pts_sq


def lop_matrix(anchors) -> LopMatrix:
    """The range-independent part of :func:`build_lop_system` for an anchor layout.

    Raises
    ------
    LengthMismatch
        If there are fewer than 3 anchors.
    CollinearAnchors
        If the anchor layout leaves rank(A) < 2.
    """
    pts = as_anchor_array(anchors)
    if pts.shape[0] < 3:
        raise LengthMismatch("trilateration needs at least 3 anchors")
    ref = pts[-1]
    a_mat = 2.0 * (ref[None, :] - pts[:-1])
    s = np.linalg.svd(a_mat, compute_uv=False)
    if s[-1] <= 1e-12 * max(s[0], 1.0):
        raise CollinearAnchors("anchors are collinear; LOP system is rank deficient")
    gram = a_mat.T @ a_mat
    return LopMatrix(
        A=a_mat,
        ref_sq=np.sum(ref**2),
        pts_sq=np.sum(pts[:-1] ** 2, axis=1),
        gram=gram,
        gram_cond=np.linalg.cond(gram),
    )


def build_lop_system(anchors, distances: Sequence[float]) -> LinearSystem:
    """Line-of-position linear system from anchor positions and ranges.

    Each ranging circle ``|p - p_i|^2 = d_i^2`` is differenced against the
    circle of the last anchor, yielding S-1 independent lines:

        2 (p_S - p_i) . p = d_i^2 - d_S^2 + |p_S|^2 - |p_i|^2

    A point satisfying all circle equations exactly satisfies ``A p = b``.

    Raises
    ------
    LengthMismatch
        If ``len(distances) != len(anchors)`` or fewer than 3 anchors.
    CollinearAnchors
        If the anchor layout leaves rank(A) < 2.
    """
    return lop_matrix(anchors).system(distances)


def bearing_to(origin, target) -> float:
    """Azimuth (radians, CCW from +x) of the ray from ``origin`` to ``target``."""
    origin = np.asarray(origin, dtype=float)
    target = np.asarray(target, dtype=float)
    return float(np.arctan2(target[1] - origin[1], target[0] - origin[0]))
