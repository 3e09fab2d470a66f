import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsnloc.arrays import SourceSet, UniformCircularArray, synthesize_snapshots
from wsnloc.errors import BehindRay, SingularFusionMatrix
from wsnloc.geometry import bearing_to, distance
from wsnloc.hybrid import (
    HybridNode,
    hybrid_anchor_fusion,
    hybrid_single_node,
    hybrid_with_fbss,
    ray_circle_point,
    two_lines,
)
from wsnloc.harness import rng_for_trial
from wsnloc.pme import build_transform

WAVELENGTH = 0.299792458


def make_node(center, n=4, radius_wl=1.0 / np.pi, elevation=np.pi / 2):
    geometry = UniformCircularArray(
        n=n, radius=radius_wl * WAVELENGTH, elevation=elevation, wavelength=WAVELENGTH
    )
    return HybridNode(center=np.asarray(center, dtype=float), geometry=geometry)


def exact_rss(node, target):
    return [distance(p, target) for p in node.element_positions]


class TestRayCirclePoint:
    def test_concentric(self):
        point = ray_circle_point([0.0, 0.0], np.radians(45.0), [0.0, 0.0], np.sqrt(18.0))
        assert np.allclose(point, [3.0, 3.0], atol=1e-12)

    def test_offset_circle_quadratic(self):
        point = ray_circle_point([0.0, 0.0], 0.0, [5.0, 1.0], np.sqrt(2.0))
        assert np.allclose(point, [4.0, 0.0], atol=1e-12)

    def test_projection_fallback(self):
        # circle misses the ray; falls back to projecting its center
        point = ray_circle_point([0.0, 0.0], 0.0, [5.0, 3.0], 1.0)
        assert np.allclose(point, [5.0, 0.0], atol=1e-12)

    def test_behind_ray(self):
        with pytest.raises(BehindRay):
            ray_circle_point([0.0, 0.0], 0.0, [0.0, 5.0], 1.0)


class TestHybridSingleNode:
    def test_noiseless_recovers_target(self):
        node = make_node([0.0, 0.0])
        target = np.array([3.0, 3.0])
        doa = bearing_to(node.center, target)
        est = hybrid_single_node(node, doa, exact_rss(node, target))
        assert np.allclose(est, target, atol=1e-9)

    def test_element_positions_on_ring(self):
        node = make_node([2.0, -1.0])
        d = [distance(p, node.center) for p in node.element_positions]
        assert np.allclose(d, node.geometry.radius, atol=1e-12)

    def test_element_positions_built_once_and_read_only(self):
        node = make_node([2.0, -1.0])
        positions = node.element_positions
        assert node.element_positions is positions
        assert not positions.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            positions[0, 0] = 0.0


class TestHybridAnchorFusion:
    def test_noiseless_exact(self):
        node = make_node([0.0, 0.0])
        anchors = np.array([[10.0, 0.0], [0.0, 10.0]])
        target = np.array([4.0, 4.0])
        dists = [distance(a, target) for a in anchors] + [distance(node.center, target)]
        doa = bearing_to(node.center, target)
        est = hybrid_anchor_fusion(node, anchors, dists, doa)
        assert np.allclose(est, target, atol=1e-9)

    def test_bearing_point_arithmetic(self):
        # trilateration fix (4,4), bearing 45 degrees: the bearing point
        # lands on (4,4) as well, so the average is (4,4)
        node = make_node([0.0, 0.0])
        anchors = np.array([[10.0, 0.0], [0.0, 10.0]])
        target = np.array([4.0, 4.0])
        dists = [distance(a, target) for a in anchors] + [np.sqrt(32.0)]
        est = hybrid_anchor_fusion(node, anchors, dists, np.radians(45.0))
        assert np.allclose(est, [4.0, 4.0], atol=1e-9)

    def test_fixed_point_when_bearing_matches_fix(self):
        node = make_node([1.0, 2.0])
        anchors = np.array([[12.0, 2.0], [1.0, 14.0]])
        target = np.array([7.0, 8.0])
        dists = [distance(a, target) for a in anchors] + [distance(node.center, target)]
        doa = bearing_to(node.center, target)
        est = hybrid_anchor_fusion(node, anchors, dists, doa, estimator="ls")
        assert np.allclose(est, target, atol=1e-9)


class TestTwoLines:
    def test_noiseless_exact(self):
        node = make_node([0.0, 0.0])
        anchor = np.array([10.0, 0.0])
        target = np.array([4.0, 4.0])
        est = two_lines(
            node,
            anchor,
            distance(anchor, target),
            distance(node.center, target),
            bearing_to(node.center, target),
        )
        assert np.allclose(est, target, atol=1e-9)

    def test_parallel_lines_rejected(self):
        # bearing along +x, anchor displaced along x: the LOP is vertical
        # and the bearing line horizontal only when doa is perpendicular;
        # make them parallel instead
        node = make_node([0.0, 0.0])
        anchor = np.array([0.0, 10.0])
        with pytest.raises(SingularFusionMatrix):
            two_lines(node, anchor, 5.0, 5.0, 0.0)


class TestTranslationEquivariance:
    @settings(max_examples=20, deadline=None)
    @given(vx=st.floats(-50.0, 50.0), vy=st.floats(-50.0, 50.0))
    def test_all_schemes_translate(self, vx, vy):
        shift = np.array([vx, vy])
        target = np.array([3.0, 4.0])
        node = make_node([0.0, 0.0])
        node_shifted = make_node(shift)
        anchors = np.array([[10.0, 0.0], [0.0, 10.0]])

        doa = bearing_to(node.center, target)
        single = hybrid_single_node(node, doa, exact_rss(node, target))
        single_shifted = hybrid_single_node(
            node_shifted, doa, exact_rss(node_shifted, target + shift)
        )
        assert np.allclose(single_shifted, single + shift, atol=1e-9)

        dists = [distance(a, target) for a in anchors] + [distance(node.center, target)]
        fused = hybrid_anchor_fusion(node, anchors, dists, doa)
        fused_shifted = hybrid_anchor_fusion(node_shifted, anchors + shift, dists, doa)
        assert np.allclose(fused_shifted, fused + shift, atol=1e-9)

        tl = two_lines(node, anchors[0], dists[0], dists[-1], doa)
        tl_shifted = two_lines(node_shifted, anchors[0] + shift, dists[0], dists[-1], doa)
        assert np.allclose(tl_shifted, tl + shift, atol=1e-9)


class TestHybridWithFbss:
    def coherent_node(self):
        return make_node([5.0, 5.0], n=16, radius_wl=0.70, elevation=np.pi / 2)

    def test_three_coherent_signals_localize(self):
        node = self.coherent_node()
        target = np.array([8.0, 9.0])  # bearing 53.13 degrees from the node
        transform = build_transform(node.geometry)
        soi = bearing_to(node.center, target)
        src = SourceSet(
            azimuths=np.concatenate([[soi], np.radians([116.57, 32.0])]),
            amplitudes=[1.0, 0.6, 0.6],
            coherent=True,
        )
        rng = rng_for_trial(13, 0, 0)
        x = synthesize_snapshots(node.geometry, src, 300, 25.0, rng)
        rss = [
            distance(p, target) * float(np.exp(0.01 * rng.standard_normal()))
            for p in node.element_positions
        ]
        est = hybrid_with_fbss(node, x, rss, transform, 3, subarray_len=6)
        assert distance(est, target) < 1.0

    def test_uncorrelated_input_matches_single_node(self):
        node = self.coherent_node()
        target = np.array([9.0, 8.0])
        transform = build_transform(node.geometry)
        soi = bearing_to(node.center, target)
        src = SourceSet(azimuths=[soi])
        x = synthesize_snapshots(node.geometry, src, 200, 30.0, rng_for_trial(14, 0, 0))
        rss = exact_rss(node, target)
        est_fbss = hybrid_with_fbss(node, x, rss, transform, 1, subarray_len=6)
        est_single = hybrid_single_node(node, soi, rss)
        assert distance(est_fbss, est_single) < 0.2


# Fixed stacked fusions, printed as hex: single-node fusion (forward roots, projections
# and a ray that meets no circle), the fbss bearing pick and the bearing midpoint.
FUSION_CHILD = """
import numpy as np
from wsnloc import hybrid
from wsnloc.arrays import UniformCircularArray
rng = np.random.default_rng(9)
node = hybrid.HybridNode([3.0, -2.0], UniformCircularArray(6, 0.2, np.pi / 2, 0.3))
doas = np.append(rng.uniform(-np.pi, np.pi, 300), np.nan)
ranges = 10.0 ** rng.uniform(-1.5, 1.5, (301, 6))
fixes = rng.uniform(-20.0, 20.0, (301, 2))
fused, failed = hybrid.single_node_stack(node, doas, ranges)
picked = hybrid.fbss_bearing(node, rng.uniform(-np.pi, np.pi, (301, 3)), fixes)
for out in (fused, failed != None, picked, hybrid.bearing_midpoint(node, fixes, doas)):
    print(out.tobytes().hex())
"""


def fusion_bytes(**env) -> list[str]:
    env = dict(os.environ, **env)
    root = Path(__file__).resolve().parent.parent
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", FUSION_CHILD], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.split()


def test_fusion_bits_do_not_depend_on_the_blas_kernel():
    # 2-vector products written out: OpenBLAS's Haswell kernels give the bytes of the
    # default (SkylakeX here) ones, as a BLAS dot product's would not
    features = np._core._multiarray_umath.__cpu_features__
    if not features.get("AVX2"):
        pytest.skip("the Haswell kernels need AVX2")
    default = fusion_bytes()
    assert len(default) == 4
    assert fusion_bytes(OPENBLAS_CORETYPE="Haswell") == default
