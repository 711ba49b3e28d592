"""Tests of the benchmark's own arithmetic and oracle accounting.

Run with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from harness import Normaliser, Outcome, percentile  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402


def _fixed_probes(*readings):
    values = iter(readings)
    return lambda: next(values)


def test_interval_scaled_by_mean_of_surrounding_probes():
    norm = Normaliser(probe_fn=_fixed_probes(1.0, 3.0, 2.0), nominal_ms=1.0)
    norm.probe()
    first = norm.add(0.4)
    second = norm.add(0.2)
    norm.probe()
    third = norm.add(0.5)
    norm.probe()
    # probes 1.0 and 3.0 bracket the first two intervals: mean 2.0
    assert norm.factor(first) == pytest.approx(0.5)
    assert norm.normalised(first) == pytest.approx(0.2)
    assert norm.normalised(second) == pytest.approx(0.1)
    # probes 3.0 and 2.0 bracket the third
    assert norm.normalised(third) == pytest.approx(0.5 / 2.5)
    assert norm.raw(third) == 0.5


def test_trailing_interval_uses_the_last_probe_alone():
    norm = Normaliser(probe_fn=_fixed_probes(4.0), nominal_ms=2.0)
    norm.probe()
    index = norm.add(1.0)
    assert norm.normalised(index) == pytest.approx(0.5)


def test_only_cpu_time_is_scaled():
    norm = Normaliser(probe_fn=_fixed_probes(2.0), nominal_ms=1.0)
    norm.probe()
    waiting = norm.add(1.0, 0.6)
    # CPU time beyond the wall time is clamped to it
    clamped = norm.add(1.0, 1.2)
    assert norm.normalised(waiting) == pytest.approx(0.6 * 0.5 + 0.4)
    assert norm.normalised(clamped) == pytest.approx(0.5)


def test_interval_before_any_probe_is_refused():
    with pytest.raises(RuntimeError):
        Normaliser(probe_fn=lambda: 1.0).add(1.0)


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("sharded", 0, 100, -1, "op"),
        Span("hac", 10, 60, 0, "op"),
        Span("cut_order", 20, 30, 1, "op"),
        Span("cut_order", 70, 80, 0, "op"),
        Span("ttkv.append", 200, 250, -1, "setup"),
    ]
    layers = self_times(spans, {"op"})
    assert layers["sharded"]["self_ns"] == 100 - 50 - 10
    assert layers["hac"]["self_ns"] == 50 - 10
    assert layers["cut_order"]["self_ns"] == 20
    assert layers["cut_order"]["calls"] == 2
    assert layers["sharded"]["top_ns"] == 100
    assert "ttkv.append" not in layers


def test_tracer_records_nested_spans_through_wrappers():
    tracer = Tracer()
    inner = tracer.wrap("inner", "t:inner", lambda x: x + 1)
    outer = tracer.wrap("outer", "t:outer", lambda x: inner(x) * 2)
    tracer.op = "op-1"
    assert outer(1) == 4
    outer_span, inner_span = tracer.spans
    assert inner_span.parent == 0 and outer_span.parent == -1
    assert outer_span.start <= inner_span.start <= inner_span.end <= outer_span.end
    assert {span.op for span in tracer.spans} == {"op-1"}


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(list(range(1, 100)), 90) is None
    assert percentile(list(range(1, 101)), 90) == 90
    assert percentile(list(range(1, 20)), 50) is None
    assert percentile(list(range(1, 21)), 50) == 10


def test_oracle_mismatch_gives_ok_ratio_below_one(monkeypatch):
    import workloads

    events = [(float(t), f"app/k{t % 3}", t) for t in range(0, 400, 2)]
    inputs = {"events": events, "prefixes": ["app/"]}
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)
    agreeing = workloads.run_stream(inputs, 4, 10)
    assert agreeing.outcome.ok_ratio == 1.0 and agreeing.outcome.correct

    measured = workloads.run_stream(
        inputs, 4, 10, check=lambda pipeline, events, prefixes: ["app/"]
    )
    assert measured.outcome.attempted == 10
    assert measured.outcome.ok_ratio < 1.0
    assert not measured.outcome.correct


def test_outcome_without_attempts_is_not_correct():
    assert not Outcome().correct
