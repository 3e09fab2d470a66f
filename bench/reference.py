"""Reference RMSE tables and the check that compares a sweep against them.

Each reference file ``reference/<sweep key>.csv`` holds, for every seed in
``workloads.REFERENCE_SEEDS``, the rows ``write_rmse_csv`` produced at the
commit that defined the benchmark, prefixed by the seed:
``seed,snr_db,rmse,trials,failures``.
"""

import csv
from pathlib import Path

REF_DIR = Path(__file__).resolve().parent / "reference"
HEADER = ["seed", "snr_db", "rmse", "trials", "failures"]

# Largest relative RMSE deviation a row may show. Outputs are bit-identical
# today; the slack only admits last-digit changes from a reordered sum.
TOLERANCE = 1e-9


def read_rmse_csv(path) -> list[list[str]]:
    """Rows of a ``snr_db,rmse,trials,failures`` file, header checked."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != HEADER[1:]:
        raise ValueError(f"{path}: unexpected header {rows[:1]}")
    return rows[1:]


def load(key: str) -> dict[int, list[list[str]]]:
    """Reference rows by seed; empty when the sweep has no reference file."""
    path = REF_DIR / f"{key}.csv"
    if not path.is_file():
        return {}
    by_seed: dict[int, list[list[str]]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader) != HEADER:
            raise ValueError(f"{path}: unexpected header")
        for seed, *row in reader:
            by_seed.setdefault(int(seed), []).append(row)
    return by_seed


def save(key: str, by_seed: dict[int, list[list[str]]]) -> None:
    REF_DIR.mkdir(exist_ok=True)
    with open(REF_DIR / f"{key}.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(HEADER)
        for seed in sorted(by_seed):
            for row in by_seed[seed]:
                writer.writerow([seed, *row])


def compare(actual: list[list[str]], expected: list[list[str]]) -> tuple[float, list[str]]:
    """Largest relative RMSE deviation of ``actual`` from ``expected``, and
    the problems found.

    A different row count, SNR, ``trials`` or ``failures`` value is a
    problem whatever the RMSE, as is a deviation above ``TOLERANCE``.
    """
    problems = []
    if len(actual) != len(expected):
        problems.append(f"{len(actual)} rows, reference has {len(expected)}")
    worst = 0.0
    for got, want in zip(actual, expected):
        snr, rmse, trials, failures = got
        if (snr, trials, failures) != (want[0], want[2], want[3]):
            problems.append(
                f"snr {snr}: trials/failures {trials}/{failures}, "
                f"reference {want[2]}/{want[3]} at snr {want[0]}"
            )
        ref = float(want[1])
        dev = abs(float(rmse) - ref) / abs(ref) if ref else abs(float(rmse))
        worst = max(worst, dev)
        if not dev <= TOLERANCE:
            problems.append(f"snr {snr}: rmse {rmse}, reference {want[1]} (rel dev {dev:.3g})")
    return worst, problems
