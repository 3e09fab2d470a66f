"""wsnloc benchmark: seeded Monte-Carlo sweeps through the public harness API.

    python3 bench/run.py --workload doa-ula --seed 3 --seconds 20 --trace 0

Run it from any checkout of the repository: it imports the package from the
checkout's ``src/`` and reads the shipped ``configs/``. Each sweep goes
``load_config`` -> seed and trial count -> ``ScenarioConfig.with_method`` (the
CLI's overrides) -> ``monte_carlo`` -> ``write_rmse_csv``. A pass runs every
sweep of the workload once; a run repeats passes for ``--seconds`` and
reports medians. Every pass's CSVs are checked against the committed
reference rows for the seed (``reference.py``); for a seed without
references, against the run's first pass.

``--trace 0`` measures the end-to-end metrics: set-up time in fresh
interpreters, sweep wall and CPU time, trials per second and peak memory.
The bounded times (``wall_s``, ``cpu_s``, ``setup_s`` and the rate
``trials_per_s``) are in seconds at a nominal machine speed: each is divided by the time of a
fixed reference kernel run right next to it in the same process (before and
after each sweep; after each set-up), see ``calibration.py``. That removes
the drift of a shared host's CPU speed, which moves the times as measured by
a third from one minute to the next. The times as measured are printed too
(``*_raw_s``), not bounded, as are the failed-trial fraction and the largest
RMSE deviation from the references, which the reference check gates.

``--trace 1`` alternates untraced and traced passes (``tracer.py``) and
reports per-layer metrics, after checking the trace against itself and
against the CSVs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` and ``failed`` (sweep runs, and those that raised
or failed a check) and ``metrics``. A fuller record with the run's metadata
goes to ``.bench_out/``. Exit status: 0 when every check passes, 1 when one
fails, 2 when the checkout lacks the package or its configs.
"""

import argparse
import ctypes
import dataclasses
import gzip
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import calibration
import reference
import tracer as tr
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 7  # measured fresh interpreters per run, after one warm-up
MIN_PASSES = 3

END_TO_END_UNITS = {
    "wall_s": "s",
    "trials_per_s": "1/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
# Printed with every untraced run but not bounded. The times as measured
# drift with the host's speed past any useful bound; their normalised forms
# above are bounded instead. The last two are pinned exactly by the reference
# check, and both are 0 whenever the program is right.
UNBOUNDED_UNITS = {
    "wall_raw_s": "s",
    "trials_per_raw_s": "1/s",
    "cpu_raw_s": "s",
    "setup_raw_s": "s",
    "failed_trial_frac": "ratio",
    "rmse_max_rel_dev": "ratio",
}


@dataclasses.dataclass
class Pass:
    walls: list[float]  # wall time per sweep
    cpus: list[float]  # process CPU time over the same intervals, all threads
    refs: list[float]  # reference kernel's wall time before the first sweep and after each
    rows: list[list[list[str]] | None]  # CSV rows per sweep; None if it raised

    @property
    def wall(self) -> float:
        return sum(self.walls)

    def speeds(self) -> list[float]:
        """Per sweep, the mean kernel time of the runs either side of it."""
        return [(a + b) / 2 for a, b in zip(self.refs, self.refs[1:])]


def summed_medians(per_pass: list[list[float]]) -> float:
    """Sum over sweeps of each sweep's median across passes.

    A burst of load from another process that slows one sweep of a pass
    then leaves the other sweeps' figures alone.
    """
    return sum(statistics.median(column) for column in zip(*per_pass))


def normalised(per_pass: list[list[float]], passes: list[Pass]) -> float:
    """``summed_medians`` of each sweep's time over the reference kernel's
    time around it, in seconds at the kernel's nominal speed."""
    return summed_medians(
        [[t * calibration.NOMINAL_S / ref for t, ref in zip(times, p.speeds())] for times, p in zip(per_pass, passes)]
    )


class OutputCheck:
    """Compares every pass's CSV rows with the expected rows of each sweep."""

    def __init__(self, sweeps, cfgs):
        self.sweeps = sweeps
        self.expected = []
        self.sources = []
        for sweep, cfg in zip(sweeps, cfgs):
            rows = reference.load(sweep.key).get(cfg.seed)
            self.expected.append(rows)
            self.sources.append("reference" if rows is not None else "first pass")
        self.worst = 0.0
        self.problems: list[str] = []
        self.failed_runs = 0

    def check(self, run: Pass) -> None:
        for i, (sweep, rows) in enumerate(zip(self.sweeps, run.rows)):
            if rows is None:
                self.failed_runs += 1
                continue  # the problem was recorded when the sweep raised
            if self.expected[i] is None:
                self.expected[i] = rows
            dev, problems = reference.compare(rows, self.expected[i])
            self.worst = max(self.worst, dev)
            if problems:
                self.failed_runs += 1
                self.problems += [f"{sweep.key} ({self.sources[i]}): {p}" for p in problems]


def run_pass(harness, errors, sweeps, cfgs, out_dir: Path, tracer=None) -> tuple[Pass, list[str]]:
    """Run each sweep once, writing its CSV under ``out_dir``, and time the
    reference kernel before the first and after each."""
    walls, cpus, rows, problems = [], [], [], []
    refs = [calibration.kernel_seconds()]
    for i, (sweep, cfg) in enumerate(zip(sweeps, cfgs)):
        out = out_dir / f"sweep-{i}.csv"
        if tracer is not None:
            tracer.sweep = i
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            result = harness.monte_carlo(cfg, sweep.kind, workers=sweep.workers)
            harness.write_rmse_csv(result, out)
            failure = None
        except errors.WsnlocError as exc:
            failure = f"{sweep.key}: {type(exc).__name__}: {exc}"
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        refs.append(calibration.kernel_seconds())
        rows.append(None if failure else reference.read_rmse_csv(out))
        if failure:
            problems.append(failure)
    return Pass(walls, cpus, refs, rows), problems


def measure_setup(workload: str, seed: int | None) -> list[tuple[float, float]]:
    """Set-up seconds of fresh interpreters, each with the reference kernel's
    time in that interpreter right after it; the first (warm-up) dropped."""
    cmd = [sys.executable, str(Path(__file__).with_name("setup_probe.py")), str(ROOT), workload, str(seed).lower()]
    samples = []
    for _ in range(SETUP_PROBES + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        setup, ref = done.stdout.strip().splitlines()[-1].split()
        samples.append((float(setup), float(ref)))
    return samples[1:]


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if one is loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return "unknown (no git)"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _sha256(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def metadata(seed, sweeps, cfgs) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = None
    configs = sorted({s.config for s in sweeps})
    return {
        "git_commit": _git_commit(),
        "source_sha256": _sha256(sorted((ROOT / "src" / "wsnloc").glob("*.py"))),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": _blas_threads(),
            "process_threads_observed": threads,
        },
        "nproc": len(os.sched_getaffinity(0)),
        "config_sha256": {
            c: hashlib.sha256((ROOT / "configs" / f"{c}.json").read_bytes()).hexdigest() for c in configs
        },
        "workload_seed": seed,
        "config_seeds": sorted({cfg.seed for cfg in cfgs}),
        "trials_per_pass": sum(cfg.trials * len(cfg.snr_grid_db) for cfg in cfgs),
    }


def _row_failures(run: Pass) -> Counter:
    """Failed trials by (sweep, snr_index), from the CSV ``failures`` column."""
    return Counter(
        {(i, si): int(row[3]) for i, rows in enumerate(run.rows) for si, row in enumerate(rows or []) if int(row[3])}
    )


@dataclasses.dataclass
class Measured:
    metrics: dict[str, float]
    units: dict[str, str]
    cfgs: list
    problems: list[str]
    attempted: int  # sweep runs
    failed: int  # sweep runs that raised or failed the output check
    detail: dict


def untraced(args, harness, errors, sweeps, out_dir) -> Measured:
    setup = measure_setup(args.workload, args.seed)
    cfgs = [s.scenario(harness, ROOT, args.seed) for s in sweeps]
    check = OutputCheck(sweeps, cfgs)
    passes, problems = [], []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        run, failures = run_pass(harness, errors, sweeps, cfgs, out_dir)
        problems += failures
        check.check(run)
        passes.append(run)
    trials = sum(cfg.trials * len(cfg.snr_grid_db) for cfg in cfgs)
    wall = normalised([p.walls for p in passes], passes)
    wall_raw = summed_medians([p.walls for p in passes])
    metrics = {
        "wall_s": wall,
        "trials_per_s": trials / wall,
        "cpu_s": normalised([p.cpus for p in passes], passes),
        "setup_s": statistics.median(t * calibration.NOMINAL_S / ref for t, ref in setup),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    unbounded = {
        "wall_raw_s": wall_raw,
        "trials_per_raw_s": trials / wall_raw,
        "cpu_raw_s": summed_medians([p.cpus for p in passes]),
        "setup_raw_s": statistics.median(t for t, _ in setup),
        "failed_trial_frac": sum(_row_failures(passes[0]).values()) / trials,
        "rmse_max_rel_dev": check.worst,
    }
    detail = {
        "sweep_wall_s": {s.key: [p.walls[i] for p in passes] for i, s in enumerate(sweeps)},
        "reference_kernel_s": [p.refs for p in passes],
        "setup_samples_s": [t for t, _ in setup],
        "setup_reference_kernel_s": [ref for _, ref in setup],
        "checked_against": dict(zip((s.key for s in sweeps), check.sources)),
        **{k: {"value": v, "unit": UNBOUNDED_UNITS[k]} for k, v in unbounded.items()},
    }
    return Measured(
        metrics, END_TO_END_UNITS, cfgs, problems + check.problems,
        len(passes) * len(sweeps), check.failed_runs, detail,
    )


def traced(args, harness, errors, sweeps, out_dir) -> Measured:
    tracer = tr.Tracer()
    with tracer.installed():
        cfgs = [s.scenario(harness, ROOT, args.seed) for s in sweeps]
    setup_spans = tracer.drain()
    check = OutputCheck(sweeps, cfgs)
    plain, traced_runs, problems = [], [], []
    start = time.perf_counter()
    # Alternate untraced and traced passes so that both see the same load.
    while len(plain) < 1 or len(traced_runs) < 2 or time.perf_counter() - start < args.seconds:
        if len(traced_runs) < len(plain):
            with tracer.installed():
                run, failures = run_pass(harness, errors, sweeps, cfgs, out_dir, tracer)
            spans = tracer.drain()
            trial_failures = tr.trial_failures(spans, errors.WsnlocError)
            problems += check_trace(run, spans, trial_failures)
            traced_runs.append((run, spans, trial_failures))
        else:
            run, failures = run_pass(harness, errors, sweeps, cfgs, out_dir)
            plain.append(run)
        problems += failures
        check.check(run)

    overhead = summed_medians([r.walls for r, *_ in traced_runs]) / summed_medians([r.walls for r in plain]) - 1.0
    units = tr.PER_LAYER_UNITS
    per_pass = [
        tr.per_layer_metrics(tr.layer_stats(setup_spans + spans), sum(f.values()), overhead)
        for _, spans, f in traced_runs
    ]
    counts = [({k: v for k, v in m.items() if units[k] != "s"}, f) for m, (*_, f) in zip(per_pass, traced_runs)]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("per-layer counts differ between traced passes of one seed")
    metrics = {
        name: statistics.median(m[name] for m in per_pass) if unit == "s" else per_pass[0][name]
        for name, unit in units.items()
    }
    first_run, first_spans, first_failures = traced_runs[0]
    detail = {
        "passes": {"untraced": len(plain), "traced": len(traced_runs)},
        "trial_failures_by_class": _failure_table(sweeps, first_run, first_failures),
        "checked_against": dict(zip((s.key for s in sweeps), check.sources)),
        "trace_file": str(_write_trace(args, setup_spans + first_spans).relative_to(ROOT)),
    }
    return Measured(
        metrics, units, cfgs, problems + check.problems,
        (len(plain) + len(traced_runs)) * len(sweeps), check.failed_runs, detail,
    )


def check_trace(run: Pass, spans, trial_failures: Counter) -> list[str]:
    """The trace's self-checks for one traced pass."""
    problems = [f"trial ids: {p}" for p in tr.check_trial_ids(spans)[:5]]
    problems += [f"self-time additivity: {p}" for p in tr.check_additivity(spans, run.wall)]
    by_row = Counter()
    for (sweep, si, _), n in trial_failures.items():
        by_row[(sweep, si)] += n
    if by_row != _row_failures(run):
        problems.append(f"traced trial failures {dict(by_row)} != CSV failures {dict(_row_failures(run))}")
    return problems


def _failure_table(sweeps, run: Pass, trial_failures: Counter) -> dict:
    """Failed trials by exception class for each SNR row of each sweep."""
    table = {}
    for i, sweep in enumerate(sweeps):
        for si, row in enumerate(run.rows[i] or []):
            classes = {exc: n for (sw, s, exc), n in sorted(trial_failures.items()) if (sw, s) == (i, si)}
            table.setdefault(sweep.key, {})[row[0]] = classes
    return table


def _write_trace(args, spans) -> Path:
    lanes = {lane: i for i, lane in enumerate(dict.fromkeys(s.lane for s in spans))}
    t0 = spans[0].start if spans else 0.0
    doc = {
        "fields": ["id", "name", "start_s", "end_s", "parent", "lane", "trial", "exception", "amount"],
        "spans": [
            [s.id, s.name, s.start - t0, s.end - t0, s.parent, lanes[s.lane],
             s.trial, s.exc.__name__ if s.exc else None, s.amount]
            for s in spans
        ],
    }
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json.gz"
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def checked_against(sources: dict[str, str]) -> str:
    """Which sweeps were compared with committed references and which only
    with the run's first pass, which cannot catch a change in RMSE."""
    by_source: dict[str, list[str]] = {}
    for key, source in sources.items():
        by_source.setdefault(source, []).append(key)
    text = "; ".join(f"{source}: {', '.join(keys)}" for source, keys in by_source.items())
    if "first pass" in by_source:
        text += " (no reference for this seed and trial count: an RMSE change would pass)"
    return text


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None, help="replaces every config seed, as the CLI's --seed does")
    parser.add_argument("--seconds", type=float, default=20.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trials", type=int, default=None, help="trials per SNR row for every sweep (quick checks)")
    args = parser.parse_args(argv)
    if args.seed is not None and not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")
    if args.trials is not None and args.trials < 1:
        parser.error("--trials must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    package = ROOT / "src" / "wsnloc"
    if not (package / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"bench: no wsnloc checkout at {ROOT} (need src/wsnloc and configs/)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import wsnloc
    from wsnloc import errors, harness

    if Path(wsnloc.__file__).resolve().parent != package.resolve():
        print(f"bench: imported wsnloc from {wsnloc.__file__}, not {package}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    sweeps = WORKLOADS[args.workload]
    if args.trials is not None:
        sweeps = tuple(dataclasses.replace(s, trials=args.trials) for s in sweeps)

    # Each run writes its sweeps' CSVs to a directory of its own, so that
    # runs side by side cannot read each other's rows.
    with tempfile.TemporaryDirectory(prefix="sweeps-", dir=OUT_DIR) as out_dir:
        measured = (traced if args.trace else untraced)(args, harness, errors, sweeps, Path(out_dir))
    correct = not measured.problems
    meta = metadata(args.seed, sweeps, measured.cfgs)
    results = {k: {"value": v, "unit": measured.units[k]} for k, v in measured.metrics.items()}

    print(f"bench: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("metadata: " + json.dumps(meta))
    for name, entry in results.items():
        print(f"  {name:32s} {entry['value']!r:>24} {entry['unit']}")
    against = checked_against(measured.detail["checked_against"])
    for name in UNBOUNDED_UNITS:
        if name in measured.detail:
            entry = measured.detail[name]
            print(f"  {name:32s} {entry['value']!r:>24} {entry['unit']}  (not bounded)")
    print(f"  outputs checked against {against}")
    for problem in measured.problems:
        print(f"CHECK FAILED: {problem}")
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "correct": correct,
        "problems": measured.problems, "metadata": meta, "detail": measured.detail, "metrics": results,
    }
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": measured.attempted, "failed": measured.failed, "metrics": results}))
    return 0 if correct else 1

if __name__ == "__main__":
    sys.exit(main())
