"""In-memory span tracing of wsnloc's public functions, from outside the package.

While installed, the tracer replaces each traced function object wherever a
``wsnloc.*`` module namespace refers to it (its definition and every
``from ... import`` site), and the ``steering`` method of the three array
classes. Every call then records a span: name, start, end, parent span, the
thread it ran on, the trial it belongs to (sweep, ``snr_index``,
``trial_index``, from ``run_trial``'s arguments), the exception that left it
(before ``monte_carlo`` swallows a trial failure) and a layer-specific work
count. Spans stay in memory until ``drain``.

A layer is a package module; a span's name is ``<module>.<function>``.
"""

import functools
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

RUN_TRIAL = "harness.run_trial"
MONTE_CARLO = "harness.monte_carlo"

# span name -> the (module, attribute) definitions it covers
FUNCTIONS = {
    "arrays.synthesize": [("arrays", "synthesize_snapshots")],
    "arrays.covariance": [("arrays", "sample_covariance")],
    "doa.music": [("doa", "music")],
    "doa.root_music": [("doa", "root_music")],
    "numerics.eigh": [("numerics", "herm_eig")],
    "numerics.roots": [("numerics", "poly_roots")],
    "pme.build_transform": [("pme", "build_transform")],
    "pme.bessel": [("pme", "bessel_j")],
    "pme.to_vula": [("pme", "to_vula")],
    "decorrelate.smooth": [("decorrelate", "fss"), ("decorrelate", "fbss")],
    "decorrelate.toeplitz": [("decorrelate", "toeplitz_reconstruct")],
    "channel.path_loss": [("channel", "path_loss")],
    "channel.invert": [("channel", "invert_distance")],
    "geometry.lop": [("geometry", "build_lop_system")],
    "rss.solve": [("rss", "ls_solve"), ("rss", "wls_solve")],
    "rss.irls": [("rss", "huber_irls")],
    "hybrid.fuse": [
        ("hybrid", "hybrid_single_node"),
        ("hybrid", "hybrid_with_fbss"),
        ("hybrid", "hybrid_anchor_fusion"),
        ("hybrid", "two_lines"),
    ],
    "hybrid.ray": [("hybrid", "ray_circle_point")],
    "harness.run_trial": [("harness", "run_trial")],
    "harness.rng": [("harness", "rng_for_trial")],
    "harness.load_config": [("harness", "load_config")],
    "harness.monte_carlo": [("harness", "monte_carlo")],
    "harness.write_csv": [("harness", "write_rmse_csv")],
}
STEERING = "arrays.steering"
STEERING_CLASSES = [
    ("arrays", "UniformLinearArray"),
    ("arrays", "UniformCircularArray"),
    ("pme", "VandermondeArray"),
]


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Work counted per call, from the arguments and the returned value.
AMOUNTS = {
    STEERING: lambda a, k, r: np.size(_arg(a, k, 1, "theta")),  # angles steered
    "doa.music": lambda a, k, r: r[0].grid.size,  # grid points scanned
    "channel.path_loss": lambda a, k, r: np.size(_arg(a, k, 0, "d")),  # ranges drawn
    "rss.irls": lambda a, k, r: r.iterations,
}


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    lane: int  # thread identifier
    trial: tuple[int, int, int] | None  # (sweep, snr_index, trial_index)
    exc: type | None  # exception class that left the call
    amount: int


class Tracer:
    """Records spans while ``installed``; ``sweep`` tags the trials that follow."""

    def __init__(self):
        self.sweep: int | None = None
        self._spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._fanout: int | None = None  # open monte_carlo span, parent of pool work

    @contextmanager
    def installed(self):
        patches = self._patches()
        for target, attr, _, wrapper in patches:
            setattr(target, attr, wrapper)
        try:
            yield self
        finally:
            for target, attr, original, _ in patches:
                setattr(target, attr, original)

    def drain(self) -> list[Span]:
        """Recorded spans in call order; the tracer keeps none of them."""
        spans = sorted(self._spans)
        self._spans.clear()
        return spans

    def _patches(self):
        modules = [m for n, m in sys.modules.items() if n == "wsnloc" or n.startswith("wsnloc.")]
        patches = []
        for name, sites in FUNCTIONS.items():
            for module, attr in sites:
                fn = getattr(sys.modules[f"wsnloc.{module}"], attr)
                wrapper = self._wrap(name, fn)
                for mod in modules:
                    patches += [(mod, k, fn, wrapper) for k, v in vars(mod).items() if v is fn]
        for module, cls_name in STEERING_CLASSES:
            cls = getattr(sys.modules[f"wsnloc.{module}"], cls_name)
            fn = cls.__dict__["steering"]
            patches.append((cls, "steering", fn, self._wrap(STEERING, fn)))
        return patches

    def _wrap(self, name, fn):
        amount_of = AMOUNTS.get(name)
        starts_trial = name == RUN_TRIAL
        fans_out = name == MONTE_CARLO
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.trial = None
            # A pool thread has an empty stack: its work belongs to the open
            # monte_carlo span of the thread that submitted it.
            parent = stack[-1] if stack else self._fanout
            sid = next(self._ids)  # one C call: atomic under the interpreter lock
            outer_trial = local.trial
            if starts_trial:
                local.trial = (
                    self.sweep,
                    _arg(args, kwargs, 2, "snr_index"),
                    _arg(args, kwargs, 3, "trial_index"),
                )
            if fans_out:
                self._fanout = sid
            stack.append(sid)
            exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as error:
                exc = type(error)
                raise
            finally:
                end = clock()
                stack.pop()
                if fans_out:
                    self._fanout = None
                amount = int(amount_of(args, kwargs, result)) if amount_of and exc is None else 0
                self._spans.append(
                    Span(sid, name, start, end, parent, threading.get_ident(), local.trial, exc, amount)
                )
                local.trial = outer_trial
            return result

        return traced


# --- analysis ----------------------------------------------------------------


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span time minus the time its child spans cover (children on any thread)."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    own = {}
    for s in spans:
        inside = [(max(b, s.start), min(e, s.end)) for b, e in children[s.id]]
        own[s.id] = (s.end - s.start) - union_length((b, e) for b, e in inside if e > b)
    return own


@dataclass
class LayerStats:
    calls: int = 0
    returned: int = 0  # calls that returned instead of raising
    self_s: float = 0.0
    amount: int = 0


def layer_stats(spans: list[Span]) -> dict[str, LayerStats]:
    """Per-layer totals. A call made inside another call of the same layer
    (``hybrid_with_fbss`` calling ``hybrid_single_node``) is part of the
    outer call's work, so only the outermost one counts in ``calls``,
    ``returned`` and ``amount``; its self time still counts."""
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    stats: dict[str, LayerStats] = defaultdict(LayerStats)
    for s in spans:
        st = stats[s.name]
        st.self_s += own[s.id]
        if not _inside_layer(s, by_id):
            st.calls += 1
            st.returned += s.exc is None
            st.amount += s.amount
    return stats


def _inside_layer(span: Span, by_id: dict[int, Span]) -> bool:
    """Whether an enclosing span belongs to the same layer as ``span``."""
    parent = by_id.get(span.parent)
    while parent is not None:
        if parent.name == span.name:
            return True
        parent = by_id.get(parent.parent)
    return False


def trial_failures(spans: list[Span], failure_type: type) -> Counter:
    """Failed trials by (sweep, snr_index, exception class name)."""
    return Counter(
        (s.trial[0], s.trial[1], s.exc.__name__)
        for s in spans
        if s.name == RUN_TRIAL and s.exc is not None and issubclass(s.exc, failure_type)
    )


def check_trial_ids(spans: list[Span]) -> list[str]:
    """Each run_trial span carries a distinct trial id and every span below it
    carries the same id; spans outside a trial carry none."""
    by_id = {s.id: s for s in spans}
    seen = set()
    problems = []
    for s in spans:
        if s.name == RUN_TRIAL:
            if s.trial is None or s.trial in seen:
                problems.append(f"run_trial span {s.id} has trial id {s.trial}")
            seen.add(s.trial)
            continue
        parent = by_id.get(s.parent)
        expected = parent.trial if parent is not None else None
        if s.trial != expected:
            problems.append(f"{s.name} span {s.id} has trial {s.trial}, its parent {expected}")
    return problems


def check_additivity(spans: list[Span], wall: float) -> list[str]:
    """Self times plus unwrapped time must add up to the traced wall time.

    ``wall`` is the benchmark's own timing of the sweeps; unwrapped time is
    the part of it no root span covers. Pool threads run spans side by side,
    so their overlap is counted once per extra thread and taken off.
    """
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    unwrapped = wall - union_length((s.start, s.end) for s in spans if s.parent is None)
    fanned = [
        (s.start, s.end)
        for s in spans
        if s.parent in by_id and by_id[s.parent].lane != s.lane
    ]
    overlap = sum(e - b for b, e in fanned) - union_length(fanned)
    total = sum(own.values()) + unwrapped - overlap
    problems = []
    if abs(total - wall) > 1e-6 * max(wall, 1.0) or unwrapped < -1e-6:
        problems.append(
            f"self {sum(own.values()):.6f} s + unwrapped {unwrapped:.6f} s "
            f"- overlap {overlap:.6f} s != wall {wall:.6f} s"
        )
    return problems


# --- published per-layer metrics ---------------------------------------------

_CALLS = [
    "arrays.steering", "arrays.synthesize", "arrays.covariance", "doa.music",
    "doa.root_music", "numerics.eigh", "numerics.roots", "pme.build_transform",
    "pme.bessel", "decorrelate.smooth", "decorrelate.toeplitz", "channel.path_loss",
    "channel.invert", "geometry.lop", "rss.solve", "rss.irls", "hybrid.fuse",
    "harness.run_trial",
]
_SELF = [
    "arrays.steering", "arrays.synthesize", "arrays.covariance", "doa.music",
    "doa.root_music", "numerics.eigh", "numerics.roots", "pme.build_transform",
    "pme.bessel", "pme.to_vula", "decorrelate.smooth", "decorrelate.toeplitz",
    "channel.path_loss", "channel.invert", "geometry.lop", "rss.solve", "rss.irls",
    "hybrid.fuse", "harness.run_trial", "harness.rng", "harness.load_config",
    "harness.monte_carlo", "harness.write_csv",
]
_ESTIMATORS = ("doa.music", "doa.root_music")

PER_LAYER_UNITS = {
    **{f"{layer}.calls": "count" for layer in _CALLS},
    **{f"{layer}.self_s": "s" for layer in _SELF},
    "arrays.steering.points": "count",
    "doa.music.grid_points": "count",
    "doa.peak_yield": "ratio",
    "channel.ranges": "count",
    "channel.ranges_per_call": "ratio",
    "rss.irls.iterations": "count",
    "hybrid.ray_hit_ratio": "ratio",
    "harness.trial_failures": "count",
    "trace.overhead_frac": "ratio",
}


def _ratio(num: float, den: float) -> float:
    # A layer the workload never calls has no ratio; report 0 for it.
    return num / den if den else 0.0


def per_layer_metrics(stats: dict[str, LayerStats], failures: int, overhead: float) -> dict:
    """Every published per-layer metric, by name, from one traced pass."""
    get = lambda layer: stats.get(layer, LayerStats())  # noqa: E731
    values = {f"{layer}.calls": get(layer).calls for layer in _CALLS}
    values.update({f"{layer}.self_s": get(layer).self_s for layer in _SELF})
    estimators = [get(layer) for layer in _ESTIMATORS]
    ranges = get("channel.path_loss")
    values.update(
        {
            "arrays.steering.points": get("arrays.steering").amount,
            "doa.music.grid_points": get("doa.music").amount,
            "doa.peak_yield": _ratio(
                sum(e.returned for e in estimators), sum(e.calls for e in estimators)
            ),
            "channel.ranges": ranges.amount,
            "channel.ranges_per_call": _ratio(ranges.amount, ranges.calls),
            "rss.irls.iterations": get("rss.irls").amount,
            "hybrid.ray_hit_ratio": _ratio(get("hybrid.ray").returned, get("hybrid.ray").calls),
            "harness.trial_failures": failures,
            "trace.overhead_frac": overhead,
        }
    )
    return {name: values[name] for name in PER_LAYER_UNITS}
