"""Time one fresh interpreter's set-up for a workload and print it in seconds,
followed by the reference kernel's median time over three runs in the same
interpreter.

Set-up is ``import wsnloc`` plus loading and validating each sweep's config
and applying its seed and method overrides: everything before the first
``monte_carlo`` call. Interpreter start-up itself is not counted.

    python3 bench/setup_probe.py <checkout root> <workload> <seed or "none">
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> None:
    root, workload, seed = Path(sys.argv[1]), sys.argv[2], sys.argv[3]
    sys.path.insert(0, str(root / "src"))
    import wsnloc  # noqa: F401
    from wsnloc import harness

    from workloads import WORKLOADS

    for sweep in WORKLOADS[workload]:
        sweep.scenario(harness, root, None if seed == "none" else int(seed))
    setup = time.perf_counter() - START
    import statistics

    import calibration

    print(repr(setup), repr(statistics.median(calibration.kernel_seconds() for _ in range(3))))


if __name__ == "__main__":
    main()
