"""Workload-independent parts of the benchmark: spans, speed calibration,
the closed loop and the statistics every workload reports.

Nothing here imports ``xlconsist``; the workloads module does.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

# one-sided 95% normal quantile, for the upper bound on the error rate
_Z95 = 1.6448536269514722
TAIL_BEYOND = 10
# error_rate is taken over the first ERROR_ITEMS items of a run.  Every run
# attempts at least that many, so the rate moves only when items fail, not
# when more or fewer of them fit in the run.
ERROR_ITEMS = 60

# Time of one calibration_work() call at reference speed.  On the 2-vCPU
# x86-64 container the benchmark was defined on, the same call took between
# 1.9 and 3.3 ms as neighbouring load changed the core's speed by up to 70%
# within seconds; item times divided by the calibration time next to them
# stayed within 2%.
CAL_REF_S = 0.002
# a run stops after this many times its budget of wall time, however slow
# the machine, so that a run of 20 seconds ends within a minute
WALL_CAP = 2.0


def calibration_work() -> float:
    """Fixed work shaped like the package's row algebra: small numpy arrays,
    float dicts and log-sum-exp in Python.  It never changes, so its time
    measures the speed of the machine, not of the program."""
    rng = np.random.default_rng(0)
    total = 0.0
    for _ in range(150):
        p = rng.random(8)
        p /= p.sum()
        logs = {i: float(x) for i, x in enumerate(np.log(p))}
        top = max(logs.values())
        total += top + math.log(sum(math.exp(v - top) for v in logs.values()))
        total += float(np.max(np.abs(np.sort(p) - p)))
    return total


def calibration_time() -> float:
    start = time.perf_counter()
    calibration_work()
    return time.perf_counter() - start


def scale_between(before: float, after: float) -> float:
    """Factor that turns a wall time into reference-speed time, from the
    calibrations on either side of it: the machine's speed can change
    while it is measured."""
    return 2 * CAL_REF_S / (before + after)


def at_reference_speed(fn):
    """Call ``fn()``; return its result and its time at reference speed."""
    before = calibration_time()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    return result, elapsed * scale_between(before, calibration_time())


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    item: int | None
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; spans opened inside another span become its
    children, and every span carries the item it belongs to."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._ids = itertools.count()
        self.item: int | None = None

    @contextlib.contextmanager
    def span(self, name: str):
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, parent, self.item, name, start, end))


class NullTracer:
    """The untraced path: every span is one shared no-op context."""

    item = None
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


NULL_TRACER = NullTracer()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.span_id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.span_id] = s.duration - covered
    return out


def tail_percentile(n: int, beyond: int = TAIL_BEYOND) -> int:
    """Highest whole percentile with at least ``beyond`` of ``n`` samples
    above its nearest-rank position (90 at 100 samples)."""
    if n <= beyond:
        raise ValueError(f"{n} samples leave none below {beyond} tail samples")
    return (100 * (n - beyond)) // n


def nearest_rank(sorted_values: list[float], pct: int) -> float:
    rank = max(1, math.ceil(pct * len(sorted_values) / 100))
    return sorted_values[rank - 1]


def error_rate_upper(failed: int, attempted: int, z: float = _Z95) -> float:
    """Upper end of the one-sided 95% Wilson interval on failed/attempted.

    With no failures it is z^2 / (n + z^2): never zero, and every failure
    raises it."""
    n = attempted
    p = failed / n
    z2 = z * z
    centre = p + z2 / (2 * n)
    half = z * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n))
    return (centre + half) / (1 + z2 / n)


@dataclass
class LoopResult:
    latencies: list[float] = field(default_factory=list)  # wall seconds
    scales: list[float] = field(default_factory=list)  # scale_between() of each
    failed_at: list[int] = field(default_factory=list)  # positions of failed items
    gate_failed: int = 0
    passes: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return len(self.failed_at)

    @property
    def scaled(self) -> list[float]:
        """Item times at reference speed, in seconds."""
        return [t * s for t, s in zip(self.latencies, self.scales)]


class ItemRunner:
    """One client, one item at a time: calibrate, time the item, gate it.

    ``workload`` supplies ``item(case, tracer)`` and ``gate(case, out)``;
    the gate returns a list of failures and runs outside the item's timing.
    An item that raises or fails its gate counts as failed.  Items are
    numbered across the runner's life; ``scales`` maps each to its factor."""

    def __init__(self, workload, cases):
        self.workload = workload
        self.cases = cases
        self.scales: dict[int, float] = {}
        self._next = 0
        self._reported = 0

    def run_one(self, tracer, result: LoopResult, on_output=None) -> None:
        index = self._next
        self._next += 1
        case = self.cases[index % len(self.cases)]
        tracer.item = index
        out = None
        before = calibration_time()
        start = time.perf_counter()
        try:
            with tracer.span("item"):
                out = self.workload.item(case, tracer)
        except Exception:
            self._report(f"item {index} raised", traceback.format_exc())
        finally:
            elapsed = time.perf_counter() - start
            scale = scale_between(before, calibration_time())
            self.scales[index] = scale
            result.latencies.append(elapsed)
            result.scales.append(scale)
        if out is None:
            result.failed_at.append(result.attempted - 1)
            return
        try:
            with tracer.span("propositions.check"):
                problems = self.workload.gate(case, out)
        except Exception:
            problems = [traceback.format_exc()]
        if problems:
            result.failed_at.append(result.attempted - 1)
            result.gate_failed += 1
            self._report(f"item {index} failed its gate", "\n".join(problems))
        elif on_output is not None:
            on_output(case, out)

    def _report(self, what: str, detail: str) -> None:
        # the first few failures are enough to diagnose; the rest are counted
        if self._reported < 3:
            print(f"{what}:\n{detail}", file=sys.stderr)
        self._reported += 1

    def run_for(self, seconds: float) -> LoopResult:
        """Items in pool order until their reference-speed time reaches
        ``seconds`` and there are at least ``ERROR_ITEMS`` of them."""
        result = LoopResult()
        wall_end = time.perf_counter() + WALL_CAP * seconds
        busy = 0.0
        while result.attempted < ERROR_ITEMS or (
                busy < seconds and time.perf_counter() < wall_end):
            self.run_one(NULL_TRACER, result)
            busy += result.latencies[-1] * result.scales[-1]
        return result

    def run_pass(self, tracer, result: LoopResult, on_output=None) -> None:
        """One item per case, in pool order; ``on_output(case, out)`` sees
        every item that passed its gate."""
        if self._next % len(self.cases):
            raise RuntimeError("a pass must start at the first case")
        for _ in self.cases:
            self.run_one(tracer, result, on_output)
        result.passes += 1


def error_rate(result: LoopResult, n: int = ERROR_ITEMS) -> float:
    """``error_rate_upper`` over the first ``n`` items of a run."""
    if result.attempted < n:
        raise ValueError(f"{result.attempted} items, fewer than the {n} the rate is taken over")
    return error_rate_upper(sum(i < n for i in result.failed_at), n)


def latency_metrics(result: LoopResult) -> dict[str, float]:
    """Throughput and latency at reference speed."""
    lat = result.scaled
    lat_ms = sorted(x * 1e3 for x in lat)
    pct = tail_percentile(len(lat_ms))
    return {
        "items_per_s": result.attempted / sum(lat),
        "item_p50_ms": statistics.median(lat_ms),
        "item_tail_ms": nearest_rank(lat_ms, pct),
        "tail_percentile": pct,
    }
