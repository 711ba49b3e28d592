"""Measurement primitives: the host reference probe, the normaliser,
percentiles, memory readings and the result line.

The benchmark runs on shared virtual machines whose speed drifts between
phases lasting tens of seconds.  Every timed interval is therefore
normalised against a fixed pure-Python reference probe that runs at fixed
points between the intervals: an interval's CPU time is scaled by
``NOMINAL_PROBE_MS / (mean of the probe readings just before and just
after it)``, and its waiting time (wall minus CPU) is kept as measured.  A normalised time reads as "milliseconds on a host where the
probe takes ``NOMINAL_PROBE_MS``".  Raw wall times are kept beside the
normalised ones as diagnostics.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field

#: Probe time, in ms, that normalised timings are expressed against.
NOMINAL_PROBE_MS = 0.5

#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10

_PROBE_KEYS = tuple(
    f"HKCU\\Software\\Vendor{i % 37}\\Setting{i}" for i in range(256)
)
_PROBE_REPEATS = 3


def _probe_body() -> int:
    """Fixed dict/set/frozenset/sort work, shaped like the program's own."""
    counts: dict[str, int] = {}
    seen = set()
    for i in range(2000):
        key = _PROBE_KEYS[i & 255]
        counts[key] = counts.get(key, 0) + 1
        seen.add((key, i & 7))
    groups = [frozenset(_PROBE_KEYS[j:j + 4]) for j in range(0, 256, 4)]
    ordered = sorted(groups, key=lambda g: (-len(g), min(g)))
    return len(seen) + len(ordered) + len(counts)


def probe_ms() -> float:
    """One probe reading: the fastest of a few runs of the fixed body.

    The collector is paused so a collection of the program's heap never
    lands inside a reading.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(_PROBE_REPEATS):
            started = time.perf_counter()
            _probe_body()
            best = min(best, time.perf_counter() - started)
    finally:
        if enabled:
            gc.enable()
    return best * 1000.0


@dataclass
class Normaliser:
    """Probe readings interleaved with timed intervals.

    Call :meth:`probe` at fixed points of the workload and :meth:`add`
    after each timed interval; :meth:`normalised` scales every interval
    by the probes around it.  ``probe_fn`` is injectable for tests.
    """

    probe_fn: object = probe_ms
    nominal_ms: float = NOMINAL_PROBE_MS
    probes: list[float] = field(default_factory=list)
    #: (raw seconds, CPU seconds, index of the last probe before it)
    intervals: list[tuple[float, float, int]] = field(default_factory=list)

    def probe(self) -> None:
        self.probes.append(self.probe_fn())

    def add(self, raw_seconds: float, cpu_seconds: float | None = None) -> int:
        """Record one timed interval; returns its index.

        Only the interval's CPU time is scaled by the probes: time spent
        waiting (on ``fsync``, say) does not depend on the processor's
        speed.  Without ``cpu_seconds`` the whole interval counts as CPU.
        """
        if not self.probes:
            raise RuntimeError("probe before timing the first interval")
        cpu = raw_seconds if cpu_seconds is None else min(cpu_seconds, raw_seconds)
        self.intervals.append((raw_seconds, cpu, len(self.probes) - 1))
        return len(self.intervals) - 1

    def factor(self, index: int) -> float:
        """Scale for interval ``index``: nominal / mean of its two probes."""
        before = self.intervals[index][2]
        around = self.probes[before:before + 2]
        return self.nominal_ms / (sum(around) / len(around))

    def raw(self, index: int) -> float:
        return self.intervals[index][0]

    def normalised(self, index: int) -> float:
        raw, cpu, _ = self.intervals[index]
        return cpu * self.factor(index) + (raw - cpu)

    def host_ref_ms(self) -> float:
        """Median probe reading of the run (a diagnostic, never gated)."""
        return statistics.median(self.probes)


def percentile(values: list[float], pct: float) -> float | None:
    """Nearest-rank percentile, or ``None`` without enough samples beyond.

    The value at rank ``ceil(pct/100 * n)`` is reported only when at least
    :data:`MIN_SAMPLES_BEYOND` samples lie above that rank.
    """
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    if len(ordered) - rank < MIN_SAMPLES_BEYOND:
        return None
    return ordered[rank - 1]


def current_rss_bytes() -> int:
    """Resident set size of this process now."""
    with open("/proc/self/statm") as handle:
        resident_pages = int(handle.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE")


def peak_rss_bytes() -> int:
    """Peak resident set size of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def settle_memory() -> int:
    """Collect garbage, freeze what survives, return the resident size.

    Freezing moves the harness's own objects (the loaded inputs) out of
    the collector's generations, so the program's full collections do not
    traverse data a deployment would never hold.  Undo with
    ``gc.unfreeze()`` when the run ends.
    """
    gc.collect()
    gc.freeze()
    return current_rss_bytes()


@dataclass
class Outcome:
    """Operations attempted and failed, for ``ok_ratio`` and the result."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    @property
    def ok_ratio(self) -> float:
        if self.attempted == 0:
            return 0.0
        return (self.attempted - self.failed) / self.attempted

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def result_line(outcome: Outcome, metrics: dict) -> str:
    """The benchmark's final stdout line."""
    return json.dumps(
        {
            "correct": outcome.correct,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": metrics,
        },
        sort_keys=False,
    )
