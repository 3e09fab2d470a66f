"""Smoke test of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

Runs every workload at a tiny trial count, traced and untraced, and checks
that each metric BENCHMARK.json names is printed with its unit; checks the
reference comparison and the trace's failure accounting on their own.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import reference
import tracer as tr
from workloads import HELD_OUT_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))

from wsnloc import arrays, errors, harness  # noqa: E402
from wsnloc.pme import VandermondeArray  # noqa: E402


def _bench(*args, cwd=ROOT, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                  "--trace", str(trace), "--trials", "2")
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
    if not trace:
        unbounded = {"wall_raw_s": "s", "trials_per_raw_s": "1/s", "cpu_raw_s": "s", "setup_raw_s": "s",
                     "failed_trial_frac": "ratio", "rmse_max_rel_dev": "ratio"}
        for name, unit in unbounded.items():
            assert any(line.split()[:1] == [name] and line.split()[2] == unit for line in lines)
    # --trials 2 has no committed reference: the output says so.
    assert "first pass: " in done.stdout and "an RMSE change would pass" in done.stdout


def test_committed_references_pass_on_the_held_out_seed():
    done = _bench("--workload", "rss-trilat", "--seed", str(HELD_OUT_SEED), "--seconds", "0.1")
    assert done.returncode == 0, done.stdout + done.stderr
    record = json.loads((ROOT / ".bench_out" / f"result-rss-trilat-seed{HELD_OUT_SEED}-trace0.json").read_text())
    assert set(record["detail"]["checked_against"].values()) == {"reference"}
    assert "first pass" not in done.stdout


def test_reference_check_fails_on_a_perturbed_rmse():
    key = WORKLOADS["doa-ula"][0].key
    rows = reference.load(key)[HELD_OUT_SEED]
    assert reference.compare(rows, rows) == (0.0, [])

    perturbed = [list(r) for r in rows]
    perturbed[2][1] = repr(float(perturbed[2][1]) * (1 + 1e-6))
    dev, problems = reference.compare(perturbed, rows)
    assert dev == pytest.approx(1e-6, rel=1e-3) and problems

    recounted = [list(r) for r in rows]
    recounted[0][3] = str(int(recounted[0][3]) + 1)
    assert reference.compare(recounted, rows)[1]


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "doa-ula", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path, root=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


@pytest.mark.parametrize("workers", [1, 2])
def test_trace_accounts_for_failed_trials(workers):
    # Three sources on four elements at 0 dB: MUSIC often finds too few peaks.
    cfg = harness.ScenarioConfig.from_dict({
        "seed": 5, "trials": 20, "snr_grid_db": [0, 30],
        "array": {"kind": "ula", "n_elements": 4, "spacing_wavelengths": 0.5},
        "sources": {"azimuths_deg": [-20.0, 0.0, 20.0], "snapshots": 10},
        "method": {"doa": "music"},
    })
    tracer = tr.Tracer()
    tracer.sweep = 0
    with tracer.installed():
        start = time.perf_counter()
        result = harness.monte_carlo(cfg, "doa", workers=workers)
        wall = time.perf_counter() - start
    spans = tracer.drain()
    assert all(s.name != tr.MONTE_CARLO or s.parent is None for s in spans)

    failures = tr.trial_failures(spans, errors.WsnlocError)
    by_row = {si: sum(n for (_, s, _), n in failures.items() if s == si) for si in range(2)}
    assert by_row == {si: row.failures for si, row in enumerate(result.rows)}
    assert by_row[0] > 0 and {exc for *_, exc in failures} == {"NoPeaksFound"}

    assert tr.check_trial_ids(spans) == []
    assert tr.check_additivity(spans, wall) == []
    stats = tr.layer_stats(spans)
    assert stats[tr.RUN_TRIAL].calls == 40
    assert stats["doa.music"].calls - stats["doa.music"].returned == sum(by_row.values())


def test_tracer_restores_every_patched_name():
    def names():
        found = {name: vars(mod).copy() for name, mod in sys.modules.items() if name.startswith("wsnloc")}
        found["steering"] = [vars(arrays.UniformLinearArray)["steering"], vars(VandermondeArray)["steering"]]
        return found

    before = names()
    with tr.Tracer().installed():
        assert harness.run_trial is not before["wsnloc.harness"]["run_trial"]
        assert vars(VandermondeArray)["steering"] is not before["steering"][1]
    assert names() == before


def test_nested_calls_of_one_layer_count_once():
    def span(sid, name, parent, start, end):
        return tr.Span(sid, name, start, end, parent, 0, None, None, 1)

    # hybrid_with_fbss -> ls_solve, hybrid_single_node: one fuse call.
    spans = [
        span(0, "hybrid.fuse", None, 0.0, 1.0),
        span(1, "rss.solve", 0, 0.1, 0.2),
        span(2, "hybrid.fuse", 0, 0.5, 0.9),
    ]
    stats = tr.layer_stats(spans)
    assert (stats["hybrid.fuse"].calls, stats["hybrid.fuse"].amount) == (1, 1)
    assert stats["hybrid.fuse"].self_s == pytest.approx(0.9)
    assert stats["rss.solve"].calls == 1
