"""Streaming shard updates: multi-app, kernel-bound and long-deployment.

Shards update serially in the calling thread (see *Why shards update
serially* in ``docs/ARCHITECTURE.md``).  Three profiles:

**The multi-app profile** extends ``bench_sharded.py``'s busy
five-application machine: warm a :class:`ShardedPipeline` on 90% of a
seeded trace, then append the interleaved tail in slices, timing every
``update()`` (``serial_seconds``, informational).  The final clusters
must equal the batch ``cluster_settings`` reference per application
prefix, catch-all included (``matches_batch``).

**The large-component profile** is the numpy HAC kernel's home ground
(:mod:`repro.core.hac_kernel`): a few applications whose settings form
one dense several-hundred-key component each, so per-shard update cost
is dominated by agglomeration.  The same stream runs once on the numpy
kernel and once on the pure-Python reference path;
``large_kernel_speedup`` (Python seconds over kernel seconds) is the
quick-mode regression headline, and both runs must produce identical
cluster sets.

**The deployment profile** measures state growth instead of speed: one
engine runs over several synthetic "weeks" of writes to a fixed key
population, checkpointing after each.  With matrix compaction the
checkpoint is O(live keys), so its size plateaus once the key/pair
population saturates — ``checkpoint_bytes`` (the final week's size) is
the regression headline, and ``deployment_checkpoint_flat`` asserts the
plateau (last week within 5% of week two).

Run as a script for CI/quick use::

    python benchmarks/bench_parallel.py --quick --out benchmarks/out/BENCH_parallel.json

or through the benchmark harness (``pytest benchmarks/ --benchmark-only``).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.hac_kernel import KERNEL_NUMPY, KERNEL_PYTHON
from repro.core.pipeline import cluster_settings
from repro.core.sharded import ShardedPipeline
from repro.ttkv.sharding import CATCH_ALL
from repro.ttkv.store import TTKV
from repro.workload.machines import MachineProfile, PLATFORM_LINUX
from repro.workload.tracegen import generate_trace

#: The applications sharing the benchmark machine (all Linux-flavoured).
APPS = (
    "Chrome Browser",
    "GNOME Edit",
    "Eye of GNOME",
    "Acrobat Reader",
    "Evolution Mail",
)

#: Trace-generation seed; recorded in the JSON so the CI regression gate
#: only ever compares runs over the identical trace.
SEED = 2024

#: Fraction of the stream appended (interleaved across all apps) after
#: the pipelines are warm.
TAIL_FRACTION = 0.10

#: How many update() calls the tail is spread over.
TAIL_SLICES = 20

#: Large-component profile: applications and per-app component size.
LARGE_APPS = 3
LARGE_KEYS = {"quick": 120, "full": 600}
LARGE_TAIL_UPDATES = {"quick": 4, "full": 5}

#: Deployment profile: synthetic "weeks" of writes to a fixed key
#: population, checkpointing after each.
DEPLOYMENT_WEEKS = {"quick": 3, "full": 6}
DEPLOYMENT_KEYS = 40
DEPLOYMENT_EVENTS_PER_WEEK = {"quick": 600, "full": 1500}


def _profile(quick: bool) -> MachineProfile:
    return MachineProfile(
        name="bench-parallel",
        platform=PLATFORM_LINUX,
        days=6 if quick else 32,
        apps=APPS,
        sessions_per_day=6,
        actions_per_session=12,
        pref_edits_per_day=3.0,
        noise_keys=80 if quick else 150,
        noise_writes_per_day=400 if quick else 1300,
        reads_per_day=0,
        seed=SEED,
    )


def _key_sets(cluster_set) -> list[tuple[str, ...]]:
    return [tuple(cluster.sorted_keys()) for cluster in cluster_set]


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _run_mode(prefixes, base, tail, slice_size) -> dict:
    """One full warm-then-tail pass; returns timings and final clusters."""
    store = TTKV()
    pipeline = ShardedPipeline(store, shard_prefixes=prefixes)
    store.record_events(base)
    pipeline.update()  # warm: consume the 90% prefix
    seconds = 0.0
    updates = 0
    for start in range(0, len(tail), slice_size):
        store.record_events(tail[start:start + slice_size])
        elapsed, _ = _timed(pipeline.update)
        seconds += elapsed
        updates += 1
    result = {
        "seconds": seconds,
        "updates": updates,
        "checkpoint_bytes": len(json.dumps(pipeline.to_state())),
        "key_sets": {
            shard_id: _key_sets(pipeline.cluster_set_for(shard_id))
            for shard_id in pipeline.shard_ids
        },
    }
    pipeline.close()
    return result


def _large_trace(quick: bool) -> tuple[tuple[str, ...], list[tuple], list[list[tuple]]]:
    """Per-app dense hot components plus per-update tail bursts.

    Each application's settings form one ~``LARGE_KEYS``-key connected
    component whose write groups sample random subsets of the key space —
    dense correlation structure, so agglomeration (not bookkeeping)
    dominates every repair.  The tail co-writes random key pairs: their
    many strong neighbours put the splice line near the component floor,
    forcing a near-full re-agglomeration per update — exactly the
    kernel-bound regime the profile exists to measure.
    """
    mode = "quick" if quick else "full"
    keys_per_app = LARGE_KEYS[mode]
    rng = random.Random(SEED)
    prefixes = tuple(f"app{chr(ord('a') + i)}/" for i in range(LARGE_APPS))
    names = {
        prefix: [f"{prefix}k{i:04d}" for i in range(keys_per_app)]
        for prefix in prefixes
    }
    width = max(3, keys_per_app // 13)
    base: list[tuple] = []
    t = 0.0
    group = 0
    for _ in range(keys_per_app * 2):
        for prefix in prefixes:
            t += 100.0
            for name in sorted(set(rng.sample(names[prefix], rng.randint(2, width)))):
                base.append((t, name, group))
            group += 1
    tails: list[list[tuple]] = []
    for update in range(LARGE_TAIL_UPDATES[mode]):
        burst: list[tuple] = []
        for prefix in prefixes:
            t += 100.0
            for name in sorted(rng.sample(names[prefix], 2)):
                burst.append((t, name, f"tail{update}"))
        tails.append(burst)
    return prefixes, base, tails


def _run_large_mode(prefixes, base, tails, kernel) -> dict:
    """One warm-then-tail pass over the large-component trace."""
    store = TTKV()
    pipeline = ShardedPipeline(
        store, shard_prefixes=prefixes, catch_all=False, kernel=kernel
    )
    store.record_events(base)
    pipeline.update()  # warm: build every hot component once
    seconds = 0.0
    recomputed = 0
    for tail in tails:
        store.record_events(tail)
        elapsed, _ = _timed(pipeline.update)
        seconds += elapsed
        recomputed += pipeline.last_stats.merges_recomputed
    result = {
        "seconds": seconds,
        "merges_recomputed": recomputed,
        "key_sets": {
            shard_id: _key_sets(pipeline.cluster_set_for(shard_id))
            for shard_id in pipeline.shard_ids
        },
    }
    pipeline.close()
    return result


def run_large_profile(quick: bool) -> dict:
    """The kernel-bound profile: numpy kernel vs the Python reference."""
    prefixes, base, tails = _large_trace(quick)
    kernel = _run_large_mode(prefixes, base, tails, KERNEL_NUMPY)
    python = _run_large_mode(prefixes, base, tails, KERNEL_PYTHON)
    mode = "quick" if quick else "full"
    return {
        "large_apps": len(prefixes),
        "large_keys_per_app": LARGE_KEYS[mode],
        "large_events": len(base) + sum(len(tail) for tail in tails),
        "large_tail_updates": len(tails),
        "large_merges_recomputed": kernel["merges_recomputed"],
        "large_serial_seconds": kernel["seconds"],
        "large_python_seconds": python["seconds"],
        "large_kernel_speedup": (
            python["seconds"] / kernel["seconds"]
            if kernel["seconds"]
            else float("inf")
        ),
        "large_kernels_agree": kernel["key_sets"] == python["key_sets"],
    }


def run_deployment_profile(quick: bool) -> dict:
    """Week-over-week checkpoint growth of one long-lived session.

    A fixed 40-key population keeps writing in small co-write bursts for
    several synthetic weeks; the session checkpoints after each.  With
    compaction the ``"groups"`` list never outgrows the provisional tail
    and the aggregate baseline is bounded by the live key/pair
    population, so the size plateaus — without it the checkpoint grows
    with every consumed group, i.e. linearly in weeks.  Deterministic
    (seeded, no timing), so ``checkpoint_bytes`` gates tightly in CI.
    """
    mode = "quick" if quick else "full"
    weeks = DEPLOYMENT_WEEKS[mode]
    per_week = DEPLOYMENT_EVENTS_PER_WEEK[mode]
    rng = random.Random(SEED)
    keys = [f"app/k{i:03d}" for i in range(DEPLOYMENT_KEYS)]
    store = TTKV()
    pipeline = ShardedPipeline(store, shard_prefixes=("app/",), catch_all=False)
    t = 0.0
    sizes: list[int] = []
    for week in range(weeks):
        for _ in range(per_week):
            # mostly tight co-write bursts, occasionally a long gap that
            # closes the open write group
            t += rng.choice((0.2, 0.3, 0.4, 120.0))
            store.record_write(rng.choice(keys), week, t)
        pipeline.update()
        sizes.append(len(json.dumps(pipeline.to_state())))
    pipeline.close()
    return {
        "deployment_weeks": weeks,
        "deployment_events_per_week": per_week,
        "deployment_checkpoint_bytes": sizes,
        # plateau: once the key/pair population saturates (week 2), the
        # checkpoint must stop growing
        "deployment_checkpoint_flat": sizes[-1] <= sizes[1] * 1.05,
        "checkpoint_bytes": sizes[-1],
    }


def run_benchmark(quick: bool = False) -> dict:
    trace = generate_trace(_profile(quick))
    prefixes = tuple(trace.apps[name].key_prefix for name in APPS)
    events = trace.ttkv.write_events()
    split = len(events) - max(1, int(len(events) * TAIL_FRACTION))
    base, tail = events[:split], events[split:]
    slice_size = max(1, -(-len(tail) // TAIL_SLICES))

    serial = _run_mode(prefixes, base, tail, slice_size)

    # -- exact equality with the batch reference, per shard ------------------
    full_store = TTKV()
    full_store.record_events(events)
    matches_batch = True
    for prefix in prefixes:
        if serial["key_sets"][prefix] != _key_sets(
            cluster_settings(full_store, key_filter=prefix)
        ):
            matches_batch = False
    leftover = TTKV.from_events(
        [e for e in events if not any(e[1].startswith(p) for p in prefixes)]
    )
    if serial["key_sets"][CATCH_ALL] != _key_sets(cluster_settings(leftover)):
        matches_batch = False

    large = run_large_profile(quick)
    deployment = run_deployment_profile(quick)

    return {
        "events": len(events),
        "tail_events": len(tail),
        "apps": len(APPS),
        "app_prefixes": list(prefixes),
        "seed": SEED,
        "quick": quick,
        "cpu_count": os.cpu_count() or 1,
        "gil": getattr(sys, "_is_gil_enabled", lambda: True)(),
        **large,
        **deployment,
        "multiapp_checkpoint_bytes": serial["checkpoint_bytes"],
        "tail_updates": serial["updates"],
        "serial_seconds": serial["seconds"],
        "matches_batch": matches_batch,
    }


def render(record: dict) -> str:
    return (
        "multi-app profile "
        f"({record['events']} events, {record['apps']} apps, "
        f"{record['tail_events']} appended over {record['tail_updates']} "
        f"updates; {record['cpu_count']} cpu(s)):\n"
        f"  update total         : {record['serial_seconds'] * 1000:8.2f} ms\n"
        f"  equal to batch per prefix: {record['matches_batch']}\n"
        "large-component profile "
        f"({record['large_apps']} apps x {record['large_keys_per_app']} keys, "
        f"{record['large_tail_updates']} updates, "
        f"{record['large_merges_recomputed']} merges recomputed):\n"
        f"  numpy kernel         : {record['large_serial_seconds'] * 1000:8.2f} ms\n"
        f"  python reference     : {record['large_python_seconds'] * 1000:8.2f} ms "
        f"(kernel {record['large_kernel_speedup']:.1f}x)\n"
        f"  cluster sets agree   : {record['large_kernels_agree']}\n"
        "deployment profile "
        f"({record['deployment_weeks']} weeks x "
        f"{record['deployment_events_per_week']} events):\n"
        "  checkpoint bytes/week: "
        + " ".join(str(b) for b in record["deployment_checkpoint_bytes"])
        + "\n"
        f"  flat after warm-up   : {record['deployment_checkpoint_flat']}"
    )


def _gate(record: dict, quick: bool) -> list[str]:
    """Human-readable failures; empty when the record passes its gates."""
    failures = []
    if not record["matches_batch"]:
        failures.append("clusters diverged from the batch reference")
    if not record["large_kernels_agree"]:
        failures.append(
            "large-component profile: numpy kernel and python reference "
            "cluster sets differ"
        )
    if not record["deployment_checkpoint_flat"]:
        sizes = record["deployment_checkpoint_bytes"]
        failures.append(
            "deployment profile: checkpoint size did not plateau "
            f"({' -> '.join(str(b) for b in sizes)} bytes)"
        )
    if quick:
        return failures
    if record["events"] < 40_000:
        failures.append("trace below the 40k-event acceptance floor")
    if record["large_kernel_speedup"] < 3.0:
        failures.append(
            "large-component profile is not kernel-bound: kernel speedup "
            f"{record['large_kernel_speedup']:.2f}x (< 3x)"
        )
    return failures


def test_streaming_profiles(benchmark, report):
    record = benchmark.pedantic(
        lambda: run_benchmark(quick=True), rounds=1, iterations=1
    )
    report("bench_parallel", render(record))
    (Path(__file__).parent / "out" / "BENCH_parallel.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    assert record["matches_batch"]
    assert record["large_kernels_agree"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small trace; skip the scale and speedup gates",
    )
    parser.add_argument("--out", type=Path, default=None, help="write the JSON record here")
    args = parser.parse_args(argv)
    record = run_benchmark(quick=args.quick)
    print(render(record))
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    failures = _gate(record, quick=args.quick)
    for failure in failures:
        print(f"ERROR: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
