"""Host-normalised end-to-end benchmark of the Ocasta reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload stream-win7 --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists): ``stream-win7``,
``ingest-vista2``, ``fleet-skew`` and ``repair-table3``.  Inputs are
generated from ``--seed`` in a child process and cached under
``.bench_build/perfbench/``; every timed interval is normalised by the
reference probe in :mod:`harness`.  A run measures whole sweeps of fixed
work, sized so that ``--seconds 10`` measures about ten seconds on a
2-vCPU host; ``--seconds`` scales the number of sweeps of stream-win7,
ingest-vista2 and repair-table3 (fleet-skew's round schedule is part of
its inputs).  The work measured never depends on the host's speed.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` the run is repeated with spans recorded around every
layer's entry points, and the line carries the per-layer metrics (self
time, calls, share of measured wall time, counters, tracing overhead).
The line before it is a diagnostics object (raw wall values, probe
readings) that no gate reads.  The exit code is 0 only when every output
matched its oracle.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import metric, percentile, result_line  # noqa: E402
from inputs import CACHE_DIR, SRC, cache_path, load  # noqa: E402

WORKLOADS = ("stream-win7", "ingest-vista2", "fleet-skew", "repair-table3")

#: Layer counters reported in traced runs: name -> unit.
COUNTERS = {
    "ttkv.append.events": "count",
    "windowing.groups_closed": "count",
    "correlation.fold.dirty_keys": "count",
    "sharded.components_reclustered": "count",
    "sharded.components_reused": "count",
    "sharded.backlog_events": "count",
    "hac.merges_reused": "count",
    "hac.merges_recomputed": "count",
    "hac.kernel_components": "count",
    "fleet.handoff.machines_updated": "count",
    "fleet.merge.dirty_keys": "count",
    "fleet.merge.components_reclustered": "count",
    "fleet.merge.components_reused": "count",
    "checkpoint.write.bytes": "B",
    "repair.trials.trials_to_fix": "count",
    "repair.trials.screenshots": "count",
}


def run_workload(name: str, inputs: dict, seconds: int, tracer=None):
    """One run; ``seconds`` / 10 (at least 1) scales the sweeps measured."""
    import workloads

    scale = max(1, round(seconds / 10))
    if name == "stream-win7":
        return workloads.run_stream(
            inputs, workloads.STREAM_WARM_DIVISOR, workloads.STREAM_REFRESHES,
            scale, tracer,
        )
    if name == "ingest-vista2":
        return workloads.run_stream(
            inputs, workloads.INGEST_WARM_DIVISOR, workloads.INGEST_REFRESHES,
            scale, tracer,
        )
    if name == "fleet-skew":
        return workloads.run_fleet(inputs, tracer)
    return workloads.run_repair(inputs, workloads.REPAIR_WARM_SWEEPS * scale, tracer)


def _op_seconds(measured, normalised: bool = True) -> list[float]:
    norm = measured.norm
    pick = norm.normalised if normalised else norm.raw
    return [pick(index) for index in measured.operations()]


def _required(value, what: str) -> float:
    if value is None:
        raise RuntimeError(f"{what}: too few samples for the percentile rule")
    return value


def end_to_end(measured, normalised: bool = True) -> dict[str, dict]:
    """Every end-to-end metric of one untraced run."""
    from workloads import setup_seconds, sweep_seconds

    ops = _op_seconds(measured, normalised)
    if normalised:
        sweeps = sweep_seconds(measured)
    else:
        sweeps = [sum(measured.norm.raw(i) for i in s) for s in measured.sweeps]
    held = max(1, measured.events_held)
    rates = [
        events / seconds for events, seconds in zip(measured.sweep_events, sweeps)
    ]
    return {
        "events_per_s": metric(statistics.median(rates), "1/s"),
        "refresh_p50_ms": metric(
            _required(percentile(ops, 50), "refresh_p50_ms") * 1000, "ms"
        ),
        "refresh_p90_ms": metric(
            _required(percentile(ops, 90), "refresh_p90_ms") * 1000, "ms"
        ),
        "sweep_s": metric(statistics.median(sweeps), "s"),
        "setup_s": metric(setup_seconds(measured, normalised), "s"),
        "peak_rss_mb": metric(measured.peak_rss / 2**20, "MB"),
        "mem_per_event_b": metric(
            max(0, measured.peak_rss - measured.baseline_rss) / held, "B"
        ),
        "ok_ratio": metric(measured.outcome.ok_ratio, "ratio"),
    }


def per_layer(measured, tracer, untraced_events_per_s: float) -> dict[str, dict]:
    """Every per-layer metric of one traced run."""
    from tracing import LAYERS, self_times

    raw_ops = _op_seconds(measured, normalised=False)
    norm_ops = _op_seconds(measured)
    wall_ns = sum(raw_ops) * 1e9
    scale = sum(norm_ops) / sum(raw_ops)
    layers = self_times(tracer.spans, measured.ops)
    metrics: dict[str, dict] = {}
    attributed = 0.0
    for layer in LAYERS:
        entry = layers.get(layer, {"self_ns": 0, "calls": 0, "top_ns": 0})
        attributed += entry["top_ns"]
        metrics[f"{layer}.self_ms"] = metric(entry["self_ns"] / 1e6 * scale, "ms")
        metrics[f"{layer}.calls"] = metric(entry["calls"], "count")
        metrics[f"{layer}.share"] = metric(entry["self_ns"] / wall_ns, "ratio")
    counters = dict(measured.counters)
    counters.update(tracer.counters)
    for name, unit in COUNTERS.items():
        metrics[name] = metric(counters.get(name, 0), unit)
    reused = counters.get("sharded.components_reused", 0)
    reclustered = counters.get("sharded.components_reclustered", 0)
    metrics["sharded.reuse_ratio"] = metric(
        reused / (reused + reclustered) if reused + reclustered else 0.0, "ratio"
    )
    kept = counters.get("hac.merges_reused", 0)
    redone = counters.get("hac.merges_recomputed", 0)
    metrics["hac.splice_reuse_ratio"] = metric(
        kept / (kept + redone) if kept + redone else 0.0, "ratio"
    )
    traced_events_per_s = sum(measured.sweep_events) / sum(norm_ops)
    metrics["trace.unattributed_share"] = metric(1 - attributed / wall_ns, "ratio")
    metrics["trace.events_per_s"] = metric(traced_events_per_s, "1/s")
    metrics["trace.untraced_events_per_s"] = metric(untraced_events_per_s, "1/s")
    metrics["trace.overhead"] = metric(
        untraced_events_per_s / traced_events_per_s, "ratio"
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # The first run in a checkout builds the seed-independent repair
    # traces (slow: one Table I profile takes minutes to generate), so
    # that no later run of any workload pays for it.
    if not cache_path("repair-table3", args.seed).exists():
        load("repair-table3", args.seed)
    inputs = load(args.workload, args.seed)

    measured = run_workload(args.workload, inputs, args.seconds)
    diagnostics = {
        "workload": args.workload,
        "seed": args.seed,
        "raw": {k: v["value"] for k, v in end_to_end(measured, False).items()},
        "host_ref_ms": measured.norm.host_ref_ms(),
        "cpu_share": sum(measured.norm.intervals[i][1] for i in measured.operations())
        / sum(_op_seconds(measured, normalised=False)),
        "probes": len(measured.norm.probes),
        "operations": len(measured.operations()),
        "problems": measured.outcome.problems,
    }
    metrics = end_to_end(measured)
    outcome = measured.outcome
    if args.trace:
        from tracing import Tracer

        untraced = metrics["events_per_s"]["value"]
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_workload(args.workload, inputs, args.seconds, tracer)
        finally:
            tracer.uninstall()
        traces = CACHE_DIR.parent / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(traces / f"{args.workload}-seed{args.seed}.jsonl")
        metrics = per_layer(traced, tracer, untraced)
        outcome.attempted += traced.outcome.attempted
        outcome.failed += traced.outcome.failed
        outcome.problems += traced.outcome.problems
    print(json.dumps({"diagnostics": diagnostics}))
    print(result_line(outcome, metrics))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
