"""The four workloads, driven through the program's public APIs only.

Every workload runs in this one process and thread: the serial shard
executor, fleet rounds through the synchronous ``FleetPipeline.update()``,
no injected faults.  Pipeline parameters are the defaults ``python -m
repro stream`` uses.  Each returns a :class:`Measured` with the timed
intervals (raw and normalised by the :class:`~harness.Normaliser`), the
operation counts and the oracle outcome; outputs are checked against the
program's batch references outside every timed region.
"""

from __future__ import annotations

import gc
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from harness import Normaliser, Outcome, peak_rss_bytes, settle_memory
from inputs import CACHE_DIR, decode

#: Cold starts per run, for the ``setup_s`` median.
SETUP_REPEATS = 5

#: stream-win7: warm-up prefix share and number of ~500-event refreshes.
STREAM_WARM_DIVISOR = 28
STREAM_REFRESHES = 140
#: ingest-vista2: a tenth of the trace is warm-up, the rest comes in ~2k
#: event batches, each followed by an update — enough refreshes that the
#: p90 has ten samples beyond it.
INGEST_WARM_DIVISOR = 10
INGEST_REFRESHES = 110
#: fleet-skew: a crash-safe checkpoint generation every K rounds.  A
#: checkpoint's cost grows with the fleet's state over the run, so a p90
#: that fell among the checkpoint rounds would sit on that slope; with
#: K=20 the checkpoint rounds (a twentieth) lie beyond the p90, which is
#: set by the heaviest ordinary rounds, and checkpoint cost shows in
#: events_per_s and sweep_s.
FLEET_CHECKPOINT_EVERY = 20
FLEET_SETUP_REPEATS = 3
#: repair-table3: warm sweeps after the cold one; 7 x 16 repairs give the
#: p90 ten samples beyond it.
REPAIR_WARM_SWEEPS = 7
#: Sequential Table IV trials-to-fix, DFS from the injection time.
TABLE4_TRIALS = (12, 101, 5, 34, 15, 6, 52, 18, 15, 14, 2, 2, 19, 13, 75, 56)


@dataclass
class Measured:
    """What one workload run measured."""

    norm: Normaliser = field(default_factory=Normaliser)
    outcome: Outcome = field(default_factory=Outcome)
    #: cold-start samples, each a list of interval indices
    setups: list[list[int]] = field(default_factory=list)
    #: interval indices of the measured operations, grouped by sweep
    sweeps: list[list[int]] = field(default_factory=list)
    #: events processed by each measured sweep
    sweep_events: list[int] = field(default_factory=list)
    events_held: int = 0
    baseline_rss: int = 0
    peak_rss: int = 0
    counters: dict[str, float] = field(default_factory=dict)
    ops: set[str] = field(default_factory=set)

    def start_sweep(self) -> None:
        self.sweeps.append([])
        self.sweep_events.append(0)

    def add_events(self, count: int) -> None:
        self.sweep_events[-1] += count

    def operations(self) -> list[int]:
        return [index for sweep in self.sweeps for index in sweep]

    def clock(self, run):
        """Time ``run()``, wall and CPU; returns (result, interval index)."""
        started, cpu_started = time.perf_counter(), time.process_time()
        result = run()
        index = self.norm.add(
            time.perf_counter() - started, time.process_time() - cpu_started
        )
        return result, index

    def timed(self, run, tracer, op: str):
        """Run ``run()`` as one measured operation; returns its result."""
        if tracer is not None:
            tracer.op = op
            tracer.counting = True
        self.ops.add(op)
        result, index = self.clock(run)
        self.sweeps[-1].append(index)
        if tracer is not None:
            tracer.op = "other"
            tracer.counting = False
        return result

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value


def _routed(events, prefixes):
    """Events per shard under longest-prefix routing (the sharded rule);
    ``""`` is the catch-all shard."""
    ordered = sorted(prefixes, key=lambda p: (-len(p), p))
    shards: dict[str, list] = {prefix: [] for prefix in prefixes}
    shards[""] = []
    for event in events:
        for prefix in ordered:
            if event[1].startswith(prefix):
                shards[prefix].append(event)
                break
        else:
            shards[""].append(event)
    return shards


def _key_sets(cluster_set) -> list[tuple[str, ...]]:
    return [tuple(cluster.sorted_keys()) for cluster in cluster_set]


def check_shards(pipeline, events, prefixes) -> list[str]:
    """Shards whose clusters differ from the batch ``cluster_settings``."""
    from repro import TTKV, cluster_settings

    mismatched = []
    for shard_id, shard_events in _routed(events, prefixes).items():
        reference = cluster_settings(TTKV.from_events(shard_events))
        if _key_sets(pipeline.cluster_set_for(shard_id)) != _key_sets(reference):
            mismatched.append(shard_id or "<catch-all>")
    return mismatched


def _record_stats(measured: Measured, stats) -> None:
    measured.count("sharded.components_reclustered", stats.components_reclustered)
    measured.count("sharded.components_reused", stats.components_reused)
    measured.count("hac.merges_reused", stats.merges_reused)
    measured.count("hac.merges_recomputed", stats.merges_recomputed)
    measured.count("hac.kernel_components", stats.kernel_components)


def _stream_sweep(measured, store, pipeline, events, warm, chunk, tracer) -> None:
    """Append the post-warm-up events chunk by chunk, updating after each."""
    norm = measured.norm
    measured.start_sweep()
    for number, start in enumerate(range(warm, len(events), chunk)):
        # the host changes speed within a second: probe before every operation
        norm.probe()
        batch = events[start:start + chunk]
        measured.count("sharded.backlog_events", pipeline.pending_events)

        def refresh(batch=batch):
            store.record_events(batch)
            return pipeline.update()

        measured.outcome.attempted += 1
        measured.timed(refresh, tracer, f"refresh-{len(measured.sweeps)}-{number}")
        _record_stats(measured, pipeline.last_stats)
        measured.add_events(len(batch))
    norm.probe()


def run_stream(inputs: dict, warm_divisor: int, refreshes: int, sweeps: int = 1,
               tracer=None, check=check_shards) -> Measured:
    """stream-win7 / ingest-vista2: appends, each followed by ``update()``."""
    from repro import TTKV, ShardedPipeline, make_executor

    events = decode(inputs["events"])
    prefixes = tuple(inputs["prefixes"])
    warm = len(events) // warm_divisor
    chunk = -(-(len(events) - warm) // refreshes)
    measured = Measured()
    norm = measured.norm
    measured.baseline_rss = settle_memory()

    executor = make_executor("serial")
    try:
        for sweep in range(sweeps):
            repeats = SETUP_REPEATS if sweep == 0 else 1
            for repeat in range(repeats):
                store = TTKV()
                store.record_events(events[:warm])
                if tracer is not None:
                    tracer.op = f"setup-{sweep}-{repeat}"
                norm.probe()

                def cold_start(store=store):
                    pipeline = ShardedPipeline(
                        store, shard_prefixes=prefixes, executor=executor
                    )
                    pipeline.update()
                    return pipeline

                pipeline, index = measured.clock(cold_start)
                measured.setups.append([index])
                norm.probe()
                if repeat < repeats - 1:
                    pipeline.close()
            _stream_sweep(measured, store, pipeline, events, warm, chunk, tracer)
            measured.peak_rss = peak_rss_bytes()
            measured.events_held = len(events)
            if pipeline.pending_events:
                measured.outcome.fail(
                    f"{pipeline.pending_events} events never consumed"
                )
            mismatched = check(pipeline, events, prefixes)
            if mismatched:
                measured.outcome.fail(
                    "clusters differ from batch cluster_settings on shard(s) "
                    + ", ".join(mismatched)
                )
            pipeline.close()
    finally:
        executor.close()
        gc.unfreeze()
    return measured


def check_fleet(fleet, machine_events, machine_prefixes) -> bool:
    """Fleet clusters equal the concatenated batch reference."""
    from repro.fleet.merge import concatenated_batch_clusters

    reference = concatenated_batch_clusters(machine_events, machine_prefixes)
    return [tuple(sorted(c)) for c in reference] == _key_sets(fleet.clusters())


def _tree_bytes(path: Path) -> int:
    return sum(item.stat().st_size for item in path.rglob("*") if item.is_file())


def run_fleet(inputs: dict, tracer=None) -> Measured:
    """fleet-skew: synchronous rounds over Zipf-skewed machine subsets."""
    from repro import TTKV, FleetPipeline, make_executor
    from repro.fleet.checkpointing import FleetCheckpointStore

    machines = {
        machine_id: (decode(data["events"]), data["warm"], tuple(data["prefixes"]))
        for machine_id, data in inputs["machines"].items()
    }
    schedule = inputs["schedule"]
    chunk = inputs["chunk"]
    measured = Measured()
    norm = measured.norm
    measured.baseline_rss = settle_memory()
    checkpoints = CACHE_DIR.parent / f"fleet-checkpoints-{id(measured)}"

    executor = make_executor("serial")
    try:
        for repeat in range(FLEET_SETUP_REPEATS):
            stores = {}
            for machine_id, (events, warm, _) in machines.items():
                stores[machine_id] = TTKV()
                stores[machine_id].record_events(events[:warm])
            if tracer is not None:
                tracer.op = f"setup-{repeat}"
            norm.probe()

            def cold_start(stores=stores):
                fleet = FleetPipeline(executor=executor)
                for machine_id, (_, _, prefixes) in machines.items():
                    fleet.add_machine(machine_id, stores[machine_id], prefixes)
                fleet.update()
                return fleet

            fleet, index = measured.clock(cold_start)
            measured.setups.append([index])
            norm.probe()
            if repeat < FLEET_SETUP_REPEATS - 1:
                fleet.close()

        cursors = {machine_id: warm for machine_id, (_, warm, _) in machines.items()}
        measured.start_sweep()
        for number, chosen in enumerate(schedule):
            if number:  # the first round follows the set-up's closing probe
                norm.probe()
            feeds = []
            for machine_id in chosen:
                events = machines[machine_id][0]
                start = cursors[machine_id]
                feeds.append((stores[machine_id], events[start:start + chunk]))
                cursors[machine_id] = start + chunk
            write = (number + 1) % FLEET_CHECKPOINT_EVERY == 0
            for _, batch in feeds:
                measured.add_events(len(batch))

            def round_(feeds=feeds, write=write):
                for store, batch in feeds:
                    store.record_events(batch)
                fleet.update()
                return fleet.to_state_dir(checkpoints) if write else None

            measured.outcome.attempted += 1
            generation = measured.timed(round_, tracer, f"round-{number}")
            stats = fleet.last_stats
            measured.count("fleet.handoff.machines_updated", stats.machines_updated)
            if stats.merge is not None:
                measured.count("fleet.merge.dirty_keys", stats.merge.dirty_keys)
                measured.count(
                    "fleet.merge.components_reclustered",
                    stats.merge.components_reclustered,
                )
                measured.count(
                    "fleet.merge.components_reused", stats.merge.components_reused
                )
            if generation is not None:
                written = FleetCheckpointStore(checkpoints).generation_dir(generation)
                measured.count("checkpoint.write.bytes", _tree_bytes(written))
        norm.probe()
        measured.peak_rss = peak_rss_bytes()
        measured.events_held = sum(cursors.values())

        short = [m for m, (events, _, _) in machines.items() if cursors[m] > len(events)]
        if short:
            measured.outcome.fail(f"feeds ran dry on machine(s) {short}")
        fed = {m: events[:cursors[m]] for m, (events, _, _) in machines.items()}
        prefixes = {m: prefixes for m, (_, _, prefixes) in machines.items()}
        if not check_fleet(fleet, fed, prefixes):
            measured.outcome.fail("fleet clusters differ from concatenated batch")
        fleet.close()
    finally:
        executor.close()
        shutil.rmtree(checkpoints, ignore_errors=True)
        gc.unfreeze()
    return measured


def _load_traces(inputs: dict) -> dict:
    """The Table I traces as the program's ``GeneratedTrace`` objects."""
    from repro import TTKV, create_app, profile_by_name
    from repro.common.clock import SimClock
    from repro.workload.tracegen import GeneratedTrace

    traces = {}
    for name, data in inputs["traces"].items():
        profile = profile_by_name(name)
        store = TTKV()
        for key, reads in data["reads"]:
            store.record_reads(key, reads)
        store.record_events(decode(data["events"]))
        clock = SimClock()
        traces[name] = GeneratedTrace(
            profile=profile,
            ttkv=store,
            apps={app: create_app(app, clock=clock) for app in profile.apps},
            loggers={},
            clock=clock,
            days=data["days"],
        )
    return traces


def run_repair(inputs: dict, warm_sweeps: int = REPAIR_WARM_SWEEPS,
               tracer=None) -> Measured:
    """repair-table3: the 16 Table III cases, DFS from the injection time.

    One cold sweep (the set-up sample), then ``warm_sweeps`` measured ones.

    Each case's scenario is prepared right before it is repaired, never all
    up front: ``prepare_scenario`` rewrites the live store of the trace's
    shared application object, so preparing a later case of the same
    application first would change an earlier case's search.  The warm
    sweeps reuse the prepared stores and rebuild each case's application
    state the way the cold sweep left it: a fresh application synced, in
    case order, with every scenario of that application up to this one.
    """
    measured = Measured()
    measured.baseline_rss = settle_memory()
    try:
        traces = _load_traces(inputs)
        _repair_sweeps(measured, traces, warm_sweeps, tracer)
    finally:
        gc.unfreeze()
    return measured


def _repair_sweeps(measured: Measured, traces: dict, warm_sweeps: int, tracer) -> None:
    from repro import ERROR_CASES, OcastaRepairTool, create_app, prepare_scenario
    from repro.common.clock import SimClock
    from repro.errors.injection import sync_app_store

    norm = measured.norm
    scenarios = []
    measured.setups.append([])

    def repair_case(sweep: int, case, scenario, app) -> None:
        def repair():
            tool = OcastaRepairTool(
                app,
                scenario.ttkv,
                window=scenario.window,
                correlation_threshold=scenario.correlation_threshold,
            )
            report = tool.repair(
                scenario.trial, scenario.is_fixed, start_time=scenario.injection_time
            )
            return tool, report

        norm.probe()
        measured.outcome.attempted += 1
        op = f"case-{sweep}-{case.case_id}"
        if sweep == 0:
            if tracer is not None:
                tracer.op = op
            (tool, report), index = measured.clock(repair)
            measured.setups[0].append(index)
        else:
            tool, report = measured.timed(repair, tracer, op)
            measured.add_events(tool.last_update_stats.events_consumed)
            measured.count("repair.trials.trials_to_fix", report.outcome.total_trials)
            measured.count(
                "repair.trials.screenshots", report.outcome.unique_screenshots
            )
            _record_stats(measured, tool.last_update_stats)
        expected = TABLE4_TRIALS[case.case_id - 1]
        if not report.fixed or report.outcome.trials_to_fix != expected:
            measured.outcome.fail(
                f"sweep {sweep} case {case.case_id}: fixed={report.fixed} "
                f"trials={report.outcome.trials_to_fix}, Table IV {expected}"
            )

    for case in ERROR_CASES:
        scenario = prepare_scenario(traces[case.trace_name], case)
        scenarios.append((case, scenario))
        repair_case(0, case, scenario, scenario.app)
    norm.probe()

    for sweep in range(1, warm_sweeps + 1):
        measured.start_sweep()
        synced: dict[tuple[str, str], object] = {}
        for case, scenario in scenarios:
            slot = (case.trace_name, case.app_name)
            app = synced.get(slot)
            if app is None:
                app = synced[slot] = create_app(case.app_name, clock=SimClock())
            sync_app_store(app, scenario.ttkv)
            repair_case(sweep, case, scenario, app)
        norm.probe()
    measured.peak_rss = peak_rss_bytes()
    measured.events_held = sum(len(t.ttkv.journal) for t in traces.values()) + sum(
        len(s.ttkv.journal) for _, s in scenarios
    )


def sweep_seconds(measured: Measured) -> list[float]:
    """Normalised seconds of each measured sweep."""
    return [sum(measured.norm.normalised(i) for i in sweep) for sweep in measured.sweeps]


def setup_seconds(measured: Measured, normalised: bool = True) -> float:
    """Median cold start: each sample sums its intervals."""
    norm = measured.norm
    pick = norm.normalised if normalised else norm.raw
    return statistics.median(
        sum(pick(i) for i in sample) for sample in measured.setups
    )
