import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsnloc.errors import CollinearAnchors, LengthMismatch
from wsnloc.geometry import (
    bearing_to,
    build_lop_system,
    distance,
)
from wsnloc.rss import ls_solve

ANCHORS = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])


def exact_distances(anchors, point):
    return [distance(a, point) for a in anchors]


class TestDistance:
    def test_3_4_5(self):
        assert distance((0, 0), (3, 4)) == 5.0

    def test_identity(self):
        assert distance((2.5, -1.0), (2.5, -1.0)) == 0.0

    def test_unit_diagonal(self):
        assert distance((0, 0), (1, 1)) == pytest.approx(1.4142135623730951, abs=1e-12)

    def test_symmetry(self):
        assert distance((1, 2), (5, -3)) == distance((5, -3), (1, 2))


class TestBuildLopSystem:
    def test_noiseless_circles_intersect_at_truth(self):
        truth = np.array([3.0, 4.0])
        system = build_lop_system(ANCHORS, exact_distances(ANCHORS, truth))
        assert np.allclose(ls_solve(system), truth, atol=1e-9)

    def test_overdetermined_still_consistent(self):
        anchors = np.vstack([ANCHORS, [10.0, 10.0]])
        truth = np.array([6.0, 2.0])
        system = build_lop_system(anchors, exact_distances(anchors, truth))
        assert system.A.shape == (3, 2)
        assert np.allclose(system.A @ truth, system.b, atol=1e-9)

    def test_perturbed_distances_first_order_residual(self):
        # residual of the true point grows linearly with the range error:
        # b_i depends on d_i^2, so d(b_i)/d(d_i) = 2 d_i
        truth = np.array([3.0, 4.0])
        d = np.array(exact_distances(ANCHORS, truth))
        eps = 1e-4
        system = build_lop_system(ANCHORS, d + eps)
        resid = np.abs(system.A @ truth - system.b)
        bound = 2.0 * (d[:-1] + d[-1]) * eps + 10 * eps**2
        assert np.all(resid <= bound)

    def test_relabeling_leaves_solution_unchanged(self):
        truth = np.array([4.5, 1.5])
        anchors = np.vstack([ANCHORS, [7.0, 9.0]])
        d = exact_distances(anchors, truth)
        base = ls_solve(build_lop_system(anchors, d))
        order = [2, 0, 3, 1]
        shuffled = ls_solve(build_lop_system(anchors[order], [d[i] for i in order]))
        assert np.allclose(base, shuffled, atol=1e-9)

    def test_collinear_anchors_rejected(self):
        bad = [[0.0, 0.0], [5.0, 5.0], [10.0, 10.0]]
        with pytest.raises(CollinearAnchors):
            build_lop_system(bad, [1.0, 2.0, 3.0])

    def test_count_mismatch(self):
        # a scalar or a 2-D block is no row of ranges, and is reported as such
        for distances in ([1.0, 2.0], 5.0, np.ones((1, len(ANCHORS)))):
            with pytest.raises(LengthMismatch, match="distances"):
                build_lop_system(ANCHORS, distances)

    @settings(max_examples=30, deadline=None)
    @given(
        x=st.floats(5.0, 95.0),
        y=st.floats(5.0, 95.0),
    )
    def test_exact_distances_recover_truth(self, x, y):
        anchors = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0], [100.0, 100.0]])
        truth = np.array([x, y])
        system = build_lop_system(anchors, exact_distances(anchors, truth))
        assert np.allclose(ls_solve(system), truth, atol=1e-9)


def walk_bearing(origin, node):
    """The point reached from ``origin`` along ``bearing_to(origin, node)``
    after ``distance(origin, node)``."""
    b = bearing_to(origin, node)
    step = distance(origin, node) * np.array([np.cos(b), np.sin(b)])
    return np.asarray(origin, dtype=float) + step


class TestBearingLines:
    def test_symmetric_intersection(self):
        node = [5.0, 5.0]
        assert np.degrees(bearing_to([0.0, 0.0], node)) == pytest.approx(45.0, abs=1e-12)
        assert np.degrees(bearing_to([10.0, 0.0], node)) == pytest.approx(135.0, abs=1e-12)

    def test_forward_computed_bearings_invert(self):
        anchors = np.array([[0.0, 10.0], [10.0, 10.0]])
        node = np.array([5.0, 0.0])
        bearings = [bearing_to(a, node) for a in anchors]
        assert np.degrees(bearings[0]) == pytest.approx(-63.43494882, abs=1e-6)
        assert np.degrees(bearings[1]) == pytest.approx(-116.56505118, abs=1e-6)
        for a in anchors:
            assert np.allclose(walk_bearing(a, node), node, atol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(x=st.floats(-40.0, 40.0), y=st.floats(-40.0, 40.0))
    def test_round_trip(self, x, y):
        anchors = np.array([[-50.0, -60.0], [55.0, -45.0], [0.0, 70.0]])
        node = np.array([x, y])
        for a in anchors:
            assert np.allclose(walk_bearing(a, node), node, atol=1e-9)
