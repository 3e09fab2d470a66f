"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Scenario files for the comparative criteria live in configs/; the same
parameters are embedded here so the suite is self-contained. Absolute
error levels depend on the seeded draws, so the comparative criteria
check orderings, envelopes, and agreement bands rather than point values.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np
import pytest

from wsnloc.arrays import (
    SourceSet,
    UniformCircularArray,
    UniformLinearArray,
    analytic_covariance,
    sample_covariance,
    synthesize_snapshots,
)
from wsnloc.decorrelate import SmoothingPlan, fbss, fss, toeplitz_reconstruct
from wsnloc.doa import eig_split, esprit, music, root_music, uca_esprit, uca_root_music
from wsnloc.errors import InvalidPlan
from wsnloc.geometry import bearing_to, build_lop_system, distance
from wsnloc.config import ScenarioConfig
from wsnloc.harness import monte_carlo, rng_for_trial
from wsnloc.hybrid import (
    HybridNode,
    hybrid_anchor_fusion,
    hybrid_single_node,
    hybrid_with_fbss,
    two_lines,
)
from wsnloc.numerics import poly_roots
from wsnloc.pme import build_transform
from wsnloc.rss import huber_irls, ls_solve, wls_solve

SEED = 42
FREQ = {"frequency_hz": 1e9}

# 100 m x 100 m RSS scenarios; the near anchor is listed last so the
# line-of-position rows difference against it.
RSS_ANCHORS = [[100.0, 0.0], [0.0, 100.0], [100.0, 100.0], [0.0, 0.0]]
HETERO_TARGET = [10.0, 15.0]
EQUAL_TARGET = [50.0, 50.0]

# 30 m x 30 m hybrid scenario: hybrid node A and companion RSS node B sit
# near the target, far nodes C/D complete the trilateration sets.
HYB_A = [18.0, 16.0]
HYB_B = [22.0, 20.0]
HYB_C = [2.0, 28.0]
HYB_D = [28.0, 4.0]
HYB_TARGET = [20.0, 18.0]


def report(num, name, ok, detail=""):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} {name} {detail}")
    assert ok, f"criterion {num}: {name} {detail}"


def rss_config(target, sigma_ref, eta=2.0, eta_true=None):
    channel = {**FREQ, "eta": eta, "sigma_ref_db": sigma_ref}
    if eta_true is not None:
        channel["eta_true"] = eta_true
    return ScenarioConfig.from_dict(
        {
            "seed": SEED,
            "trials": 150,
            "snr_grid_db": list(range(1, 13)),
            "region": [100.0, 100.0],
            "target": target,
            "channel": channel,
            "anchors": RSS_ANCHORS,
            "method": {"huber_epsilon": 1.345},
        }
    )


def hybrid_config(anchors, *, with_node=True, extra=None):
    raw = {
        "seed": SEED,
        "trials": 150,
        "snr_grid_db": list(range(1, 13)),
        "region": [30.0, 30.0],
        "target": HYB_TARGET,
        "channel": {**FREQ, "eta": 2.0, "sigma_ref_db": 0.3},
        "snapshots": 100,
    }
    if anchors:
        raw["anchors"] = anchors
    if with_node:
        raw["hybrid_node"] = {
            "center": HYB_A,
            "n_elements": 4,
            "radius_wavelengths": 0.3183,
            "elevation_deg": 90.0,
        }
    if extra:
        raw.update(extra)
    return ScenarioConfig.from_dict(raw)


def rmse_table(cfg, kind):
    return np.array([row.rmse for row in monte_carlo(cfg, kind).rows])


@pytest.fixture(scope="module")
def rss_tables():
    start = time.perf_counter()
    hetero = {
        est: rmse_table(rss_config(HETERO_TARGET, 8.0).with_method(estimator=est), "rss")
        for est in ("ls", "wls", "huber")
    }
    equal = {
        est: rmse_table(rss_config(EQUAL_TARGET, 1.5).with_method(estimator=est), "rss")
        for est in ("ls", "wls", "huber")
    }
    return hetero, equal, time.perf_counter() - start


@pytest.fixture(scope="module")
def hybrid_tables():
    start = time.perf_counter()
    tables = {
        "rss_only": rmse_table(
            hybrid_config([HYB_C, HYB_D, HYB_B, HYB_A], with_node=False), "rss"
        ),
        "single": rmse_table(hybrid_config(None).with_method(hybrid="single"), "hybrid"),
        "ls": rmse_table(
            hybrid_config([HYB_C, HYB_D, HYB_B]).with_method(hybrid="ls"), "hybrid"
        ),
        "wls": rmse_table(
            hybrid_config([HYB_C, HYB_D, HYB_B]).with_method(hybrid="wls"), "hybrid"
        ),
        "two_lines": rmse_table(
            hybrid_config([HYB_B]).with_method(hybrid="two-lines"), "hybrid"
        ),
    }
    return tables, time.perf_counter() - start


class TestCriterion1Exactness:
    def test_noiseless_exactness(self):
        start = time.perf_counter()
        failures = []

        def check(label, err, tol=1e-6):
            if not err <= tol:
                failures.append(f"{label}: {err:.3e}")

        # RSS estimators on exact ranges
        anchors = np.asarray(RSS_ANCHORS)
        truth = np.array([23.0, 71.0])
        system = build_lop_system(anchors, [distance(a, truth) for a in anchors])
        check("ls", distance(ls_solve(system), truth))
        check("wls", distance(wls_solve(system, np.eye(3)), truth))
        check("huber", distance(huber_irls(system).position, truth))

        # subspace estimators, zero noise
        ula = UniformLinearArray(n=8, spacing=0.5, wavelength=1.0)
        r = analytic_covariance(ula, SourceSet(azimuths=[np.radians(10.0)]))
        check("music-ula", abs(np.degrees(music(r, ula, 1)[1][0]) - 10.0))
        ula5 = UniformLinearArray(n=5, spacing=0.5, wavelength=1.0)
        r5 = analytic_covariance(ula5, SourceSet(azimuths=[np.radians(20.0)]))
        check("root-music", abs(np.degrees(root_music(r5, ula5, 1)[0]) - 20.0))
        x5 = synthesize_snapshots(
            ula5, SourceSet(azimuths=[np.radians(20.0)]), 64, np.inf, rng_for_trial(1, 0, 0)
        )
        check("esprit", abs(np.degrees(esprit(x5, ula5, 1)[0]) - 20.0))

        uca = UniformCircularArray(n=8, radius=0.55, elevation=np.radians(40.0), wavelength=1.0)
        ru = analytic_covariance(uca, SourceSet(azimuths=[np.radians(30.0)]))
        check("music-uca", abs(np.degrees(music(ru, uca, 1)[1][0]) - 30.0))
        big = UniformCircularArray(n=16, radius=0.55, elevation=np.radians(20.0), wavelength=1.0)
        t16 = build_transform(big)
        x16 = synthesize_snapshots(
            big, SourceSet(azimuths=[np.radians(30.0)]), 64, np.inf, rng_for_trial(2, 0, 0)
        )
        check(
            "uca-root-music",
            abs(np.degrees(uca_root_music(x16, t16, 1)[0]) - 30.0),
        )
        check("uca-esprit", abs(np.degrees(uca_esprit(x16, t16, 1)[0]) - 30.0))

        # hybrid fusion schemes on exact forward-modeled measurements
        lam = 0.299792458
        node = HybridNode(
            center=np.array([0.0, 0.0]),
            geometry=UniformCircularArray(
                n=4, radius=lam / np.pi, elevation=np.pi / 2, wavelength=lam
            ),
        )
        target = np.array([3.0, 3.0])
        rss = [distance(p, target) for p in node.element_positions]
        doa = bearing_to(node.center, target)
        check("hybrid-single", distance(hybrid_single_node(node, doa, rss), target))

        big_node = HybridNode(
            center=np.array([0.0, 0.0]),
            geometry=UniformCircularArray(
                n=16, radius=0.70 * lam, elevation=np.pi / 2, wavelength=lam
            ),
        )
        rss16 = [distance(p, target) for p in big_node.element_positions]
        tr = build_transform(big_node.geometry)
        xh = synthesize_snapshots(
            big_node.geometry,
            SourceSet(azimuths=[doa], coherent=True),
            128,
            np.inf,
            rng_for_trial(3, 0, 0),
        )
        check(
            "hybrid-fbss",
            distance(hybrid_with_fbss(big_node, xh, rss16, tr, 1), target),
        )

        fusion_anchors = np.array([[10.0, 0.0], [0.0, 10.0]])
        dists = [distance(a, target) for a in fusion_anchors] + [
            distance(node.center, target)
        ]
        check(
            "hybrid-ls",
            distance(hybrid_anchor_fusion(node, fusion_anchors, dists, doa), target),
        )
        model_for_wls = rss_config(HETERO_TARGET, 4.0).channel_at(10.0)
        check(
            "hybrid-wls",
            distance(
                hybrid_anchor_fusion(
                    node, fusion_anchors, dists, doa, estimator="wls", model=model_for_wls
                ),
                target,
            ),
        )
        check(
            "two-lines",
            distance(
                two_lines(node, fusion_anchors[0], dists[0], dists[-1], doa), target
            ),
        )

        elapsed = time.perf_counter() - start
        ok = not failures and elapsed < 5.0
        report(
            1,
            "noiseless exactness <= 1e-6 (m or deg), runtime < 5 s",
            ok,
            f"(failures={failures or 'none'}, {elapsed:.1f}s)",
        )


class TestCriterion2RssOrdering:
    def test_rss_estimator_ordering(self, rss_tables):
        hetero, equal, elapsed = rss_tables
        idx6 = range(5, 12)  # snr >= 6 dB
        wls_below_ls = all(hetero["wls"][i] < hetero["ls"][i] for i in idx6)
        huber_near_wls = bool(
            np.all(np.abs(hetero["huber"] / hetero["wls"] - 1.0) <= 0.15)
        )
        agree = max(
            float(np.max(np.abs(equal[a] / equal[b] - 1.0)))
            for a, b in (("ls", "wls"), ("ls", "huber"), ("wls", "huber"))
        )
        ok = wls_below_ls and huber_near_wls and agree <= 0.10 and elapsed < 60.0
        report(
            2,
            "WLS<LS at snr>=6, Huber within 15% of WLS, equal-distance within 10%",
            ok,
            f"(equal-dist max dev {agree:.3f}, {elapsed:.1f}s)",
        )


class TestCriterion3Robustness:
    def test_pathloss_exponent_sensitivity(self, rss_tables):
        hetero, _, _ = rss_tables
        degraded = {"ls": [], "wls": [], "huber": []}
        for eta_model in (1.5, 2.5):
            for est in degraded:
                cfg = rss_config(
                    HETERO_TARGET, 8.0, eta=eta_model, eta_true=2.0
                ).with_method(estimator=est)
                degraded[est].append(float(np.mean(rmse_table(cfg, "rss"))))
        factor = {
            est: float(np.mean(degraded[est]) / np.mean(hetero[est]))
            for est in degraded
        }
        ok = factor["ls"] > factor["wls"] and factor["ls"] > factor["huber"]
        report(
            3,
            "exponent mismatch degrades LS by a larger factor than WLS/Huber",
            ok,
            f"(LS/WLS {factor['ls'] / factor['wls']:.2f}, LS/Huber {factor['ls'] / factor['huber']:.2f})",
        )


class TestCriterion4SubspaceCapacity:
    def test_capacity_envelope(self):
        start = time.perf_counter()
        checks = []
        step = np.radians(0.05)

        def resolves(r, geometry, truth_deg):
            _, est = music(r, geometry, len(truth_deg), grid_step=step)
            return bool(
                np.allclose(np.degrees(est), sorted(truth_deg), atol=0.5)
            )

        ula = lambda n: UniformLinearArray(n=n, spacing=0.5, wavelength=1.0)
        four = [-40.0, -15.0, 10.0, 35.0]
        r5 = analytic_covariance(ula(5), SourceSet(azimuths=np.radians(four)))
        checks.append(("music N=5 M=4", resolves(r5, ula(5), four)))

        six = [-40.0, -30.0, -20.0, 20.0, 30.0, 40.0]
        coherent6 = lambda n: analytic_covariance(
            ula(n), SourceSet(azimuths=np.radians(six), coherent=True)
        )
        plan12 = SmoothingPlan.design(12, 6)
        checks.append(
            ("fss N=12 M=6", resolves(fss(coherent6(12), plan12), ula(7), six))
        )
        try:
            SmoothingPlan.design(9, 6)
            checks.append(("fss N=9 M=6 invalid", False))
        except InvalidPlan:
            checks.append(("fss N=9 M=6 invalid", True))
        plan9 = SmoothingPlan.design(9, 6, forward_backward=True)
        checks.append(
            ("fbss N=9 M=6", resolves(fbss(coherent6(9), plan9), ula(7), six))
        )
        checks.append(
            (
                "toeplitz N=7 M=6",
                resolves(toeplitz_reconstruct(coherent6(7)), ula(7), six),
            )
        )

        elapsed = time.perf_counter() - start
        bad = [name for name, ok in checks if not ok]
        ok = not bad and elapsed < 30.0
        report(4, "subspace detection capacity envelopes", ok, f"(failed={bad or 'none'}, {elapsed:.1f}s)")


class TestCriterion5EstimatorAgreement:
    def test_agreement(self):
        ula = UniformLinearArray(n=8, spacing=0.5, wavelength=1.0)
        worst_ula = 0.0
        for trial in range(50):
            rng = rng_for_trial(911, 0, trial)
            a1 = rng.uniform(-60.0, 40.0)
            a2 = a1 + rng.uniform(12.0, 25.0)
            src = SourceSet(azimuths=np.radians([a1, a2]))
            x = synthesize_snapshots(ula, src, 500, 20.0, rng)
            r = sample_covariance(x)
            ests = [
                music(r, ula, 2)[1],
                root_music(r, ula, 2),
                esprit(x, ula, 2),
            ]
            for i in range(3):
                for j in range(i + 1, 3):
                    worst_ula = max(
                        worst_ula, float(np.max(np.abs(np.degrees(ests[i] - ests[j]))))
                    )

        uca = UniformCircularArray(n=9, radius=0.6, elevation=np.radians(40.0), wavelength=1.0)
        t = build_transform(uca)
        assert t.h == 3
        wrap = lambda d: abs((d + np.pi) % (2 * np.pi) - np.pi)
        worst_uca = 0.0
        for trial in range(50):
            rng = rng_for_trial(912, 0, trial)
            theta = np.radians(rng.uniform(-175.0, 175.0))
            x = synthesize_snapshots(uca, SourceSet(azimuths=[theta]), 500, 20.0, rng)
            m = music(sample_covariance(x), uca, 1)[1][0]
            for est in (uca_root_music(x, t, 1), uca_esprit(x, t, 1)):
                worst_uca = max(worst_uca, np.degrees(wrap(est[0] - m)))

        ok = worst_ula <= 0.5 and worst_uca <= 1.0
        report(
            5,
            "music/root-music/esprit within 0.5 deg; UCA variants within 1 deg of UCA-MUSIC",
            ok,
            f"(worst ULA {worst_ula:.3f} deg, worst UCA {worst_uca:.3f} deg)",
        )


class TestCriterion6HybridOrdering:
    def test_hybrid_ordering(self, hybrid_tables):
        tables, elapsed = hybrid_tables
        single_below_rss = bool(np.all(tables["single"] < tables["rss_only"]))
        wls_le_ls = bool(np.all(tables["wls"] <= tables["ls"]))
        dev = float(
            np.max(np.abs(tables["two_lines"][9:] / tables["single"][9:] - 1.0))
        )
        ok = single_below_rss and wls_le_ls and dev <= 0.10 and elapsed < 120.0
        report(
            6,
            "single-node < RSS-only at every SNR, WLS <= LS fusion, two-lines within 10% at snr>=10",
            ok,
            f"(two-lines dev {dev:.3f}, {elapsed:.1f}s)",
        )


class TestCriterion7CoherentHybrid:
    def test_coherent_hybrid(self):
        cfg = ScenarioConfig.from_dict(
            {
                "seed": SEED,
                "trials": 150,
                "snr_grid_db": [5.0, 10.0, 15.0, 20.0, 25.0, 30.0],
                "region": [30.0, 30.0],
                "target": [8.0, 9.0],  # bearing 53.13 deg from the hybrid node
                "channel": {**FREQ, "eta": 2.0, "sigma_ref_db": 0.3},
                "snapshots": 100,
                "hybrid_node": {
                    "center": [5.0, 5.0],
                    "n_elements": 16,
                    "radius_wavelengths": 0.70,
                    "elevation_deg": 90.0,
                },
                "interferers_deg": [116.57, 32.0],
                "interferer_amplitudes": [0.6, 0.6],
                "method": {"hybrid": "fbss", "subarray_len": 6},
            }
        )
        rmse = rmse_table(cfg, "hybrid")
        below_1m = bool(np.all(rmse[3:] < 1.0))
        inversions = int(np.sum(np.diff(rmse) > 0))
        ok = below_1m and inversions <= 1
        report(
            7,
            "three coherent signals: RMSE < 1 m at snr>=20, monotone trend",
            ok,
            f"(rmse@[20,25,30]={np.round(rmse[3:], 3).tolist()}, inversions={inversions})",
        )


class TestCriterion8NumericalProperties:
    def test_property_suite(self):
        checks = []

        # Hermitian PSD covariances through the whole preprocessing chain
        ula = UniformLinearArray(n=9, spacing=0.5, wavelength=1.0)
        src = SourceSet(azimuths=np.radians([-40, -10, 25]), coherent=True)
        x = synthesize_snapshots(ula, src, 200, 10.0, rng_for_trial(8, 0, 0))
        r = sample_covariance(x)
        mats = {
            "sample": r,
            "fss": fss(r, SmoothingPlan.design(9, 3)),
            "fbss": fbss(r, SmoothingPlan.design(9, 3, forward_backward=True)),
        }
        for name, m in mats.items():
            herm = np.allclose(m, m.conj().T, atol=1e-12)
            psd = np.min(np.linalg.eigvalsh(m)) >= -1e-10 * np.trace(m).real
            checks.append((f"{name} hermitian psd", herm and psd))

        # prewhitened transform row orthonormality
        for n, r_wl, elev in ((9, 0.55, 20.0), (12, 0.5, 90.0), (16, 0.70, 90.0)):
            g = UniformCircularArray(
                n=n, radius=r_wl, elevation=np.radians(elev), wavelength=1.0
            )
            t = build_transform(g)
            dev = np.max(np.abs(t.Tw @ t.Tw.conj().T - np.eye(t.vula_size)))
            checks.append((f"Tw orthonormal N={n}", bool(dev <= 1e-10)))

        # Root-MUSIC root set closed under conjugate reciprocal
        ula5 = UniformLinearArray(n=5, spacing=0.5, wavelength=1.0)
        rr = analytic_covariance(ula5, SourceSet(azimuths=[np.radians(20.0)]), 0.05)
        noise = eig_split(rr, 1)[1]
        c = noise @ noise.conj().T
        coeffs = np.conj(np.array([np.trace(c, offset=k) for k in range(4, -5, -1)]))
        roots = poly_roots(coeffs)
        closure = all(
            np.min(np.abs(roots - 1.0 / np.conj(z))) < 1e-8 for z in roots
        )
        checks.append(("root reciprocal closure", bool(closure)))

        # IRLS l1 objective non-increasing
        rng = np.random.default_rng(17)
        monotone = True
        for _ in range(10):
            a = rng.normal(size=(6, 2))
            b = rng.normal(size=6) * 5
            pos = np.linalg.lstsq(a, b, rcond=None)[0]
            objectives = []
            for _ in range(20):
                e = a @ pos - b
                objectives.append(np.sum(np.abs(e)))
                w = np.diag(1.0 / (np.abs(e) + 1e-3))
                pos = np.linalg.solve(a.T @ w @ a, a.T @ w @ b)
            monotone &= bool(np.all(np.diff(objectives) <= 1e-8))
        checks.append(("irls objective monotone", monotone))

        # bit-identical reruns, serial vs parallel
        cfg = ScenarioConfig.from_dict(
            {
                "seed": SEED,
                "trials": 25,
                "snr_grid_db": [4.0, 10.0],
                "region": [100.0, 100.0],
                "target": HETERO_TARGET,
                "channel": {**FREQ, "sigma_ref_db": 4.0},
                "anchors": RSS_ANCHORS,
            }
        )
        serial = monte_carlo(cfg, "rss", workers=1)
        again = monte_carlo(cfg, "rss", workers=1)
        parallel = monte_carlo(cfg, "rss", workers=4)
        identical = all(
            a.rmse == b.rmse == c.rmse
            for a, b, c in zip(serial.rows, again.rows, parallel.rows)
        )
        checks.append(("seeded reruns bit-identical", identical))

        bad = [name for name, ok in checks if not ok]
        report(8, "numerical property suites", not bad, f"(failed={bad or 'none'})")
