"""Regenerate the reference CSVs under bench/reference/ from this checkout.

    python3 bench/make_references.py

Run it only at a commit whose outputs are known good: every later run of the
benchmark is checked against what it writes. Each sweep runs serially, as
the benchmark's ``run_pass`` runs it, one process per available CPU; the
pool-2 workload's sweeps share these files, since the pool must write the
same bytes.
"""

import multiprocessing
import os
import sys
import tempfile
from pathlib import Path

import reference
from run import OUT_DIR, ROOT, run_pass
from workloads import REFERENCE_SEEDS, unique_sweeps


def _rows(job) -> list[list[str]]:
    sweep, seed = job
    sys.path.insert(0, str(ROOT / "src"))
    from wsnloc import errors, harness

    cfg = sweep.scenario(harness, ROOT, seed)
    with tempfile.TemporaryDirectory(prefix="reference-", dir=OUT_DIR) as tmp:
        run, problems = run_pass(harness, errors, [sweep], [cfg], Path(tmp))
    if problems:
        raise RuntimeError(f"seed {seed}: {'; '.join(problems)}")
    return run.rows[0]


def main() -> None:
    OUT_DIR.mkdir(exist_ok=True)
    jobs = [(sweep, seed) for sweep in unique_sweeps() for seed in REFERENCE_SEEDS]
    with multiprocessing.get_context("spawn").Pool(len(os.sched_getaffinity(0))) as pool:
        rows = pool.map(_rows, jobs, chunksize=4)
    by_key: dict[str, dict[int, list[list[str]]]] = {}
    for (sweep, seed), table in zip(jobs, rows):
        by_key.setdefault(sweep.key, {})[seed] = table
    for key, by_seed in by_key.items():
        reference.save(key, by_seed)
        print(f"{reference.REF_DIR / key}.csv: {len(by_seed)} seeds")


if __name__ == "__main__":
    main()
