"""Deterministic workload inputs, generated from the seed and cached.

Generation runs in a child process (``python3 perfbench/inputs.py
--workload W --seed N --out FILE``) so its memory never shows in the
measuring process's peak RSS, and so every run loads its inputs the same
way: from the cache file, by :func:`load`.  A cache file is keyed by
workload, seed and a hash of the program's source, and is written
atomically.

Inputs are plain data — event lists, key prefixes, schedules — with
deletions encoded as :data:`DELETED_MARK`; the program receives nothing
else.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

#: Stand-in for the store's deletion sentinel inside cache files.
DELETED_MARK = "\x00perfbench:deleted\x00"

#: Root of the checkout the benchmark runs in, and the program's source.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CACHE_DIR = ROOT / ".bench_build" / "perfbench" / "inputs"

STREAM_PROFILE = "Windows 7"
INGEST_PROFILE = "Windows Vista-2"

# fleet-skew: 64 Linux machines sharing four applications; rounds feed
# Zipf-skewed subsets (see fleet_schedule).
FLEET_MACHINES = 64
FLEET_APPS = ("Evolution Mail", "Eye of GNOME", "GNOME Edit", "Chrome Browser")
FLEET_ROUNDS = 200
FLEET_DRAWS = 8
FLEET_ZIPF_S = 0.8
FLEET_CHUNK = 20
#: Events of history each machine holds before the measured rounds.
FLEET_WARM_EVENTS = 160
#: Machine i's trace is generated from seed FLEET_TRACE_SEED + i; the run's
#: seed enters through the round schedule (see fleet_schedule).  The fleet
#: merge re-clusters the union of every machine's co-write pairs, and a
#: union drawn afresh per seed swung the workload's cost by a quarter.
FLEET_TRACE_SEED = 1000
#: Write rate of one fleet machine, to size its trace on the first try.
_FLEET_EVENTS_PER_DAY = 60


def source_digest() -> str:
    """Hash of the program's source and this generator: a cache file
    never outlives either."""
    digest = hashlib.sha256(Path(__file__).read_bytes())
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def cache_path(workload: str, seed: int) -> Path:
    # repair-table3 runs on the paper's fixed Table I traces: the Table IV
    # reference trial counts are defined on exactly those.  fleet-skew's
    # traces are fixed too; its seed enters through the schedule (load).
    fixed = workload in ("repair-table3", "fleet-skew")
    tag = "fixed" if fixed else f"seed{seed}"
    return CACHE_DIR / f"{workload}-{tag}-{source_digest()}.pickle"


def _encode(events) -> list[tuple]:
    from repro.ttkv.store import DELETED

    return [
        (t, key, DELETED_MARK if value is DELETED else value)
        for t, key, value in events
    ]


def decode(events) -> list[tuple]:
    """Cached events with the store's deletion sentinel restored."""
    from repro.ttkv.store import DELETED

    return [
        (t, key, DELETED if value == DELETED_MARK else value)
        for t, key, value in events
    ]


def _profile_trace(profile_name: str, seed: int) -> dict:
    from repro.workload.machines import profile_by_name
    from repro.workload.tracegen import generate_trace

    trace = generate_trace(profile_by_name(profile_name), seed=seed)
    return {
        "events": _encode(trace.ttkv.write_events()),
        "prefixes": [trace.apps[name].key_prefix for name in trace.profile.apps],
    }


def fleet_schedule(seed: int) -> list[list[str]]:
    """Machine ids fed in each round, Zipf-skewed, deterministic in ``seed``.

    Every round feeds exactly :data:`FLEET_DRAWS` distinct machines.
    Machine ``m<r>`` has rank r and is fed a quota of rounds proportional
    to 1/(r+1)**:data:`FLEET_ZIPF_S`.  The seed decides which rounds each
    machine is fed in.  Which machine is hot stays fixed: the fleet's cost
    hinges on the hot machines' own traces, and dealing the ranks afresh
    per seed swung it by a quarter.
    """
    rng = random.Random(seed)
    ids = [f"m{index:03d}" for index in range(FLEET_MACHINES)]
    weights = [1.0 / (rank + 1) ** FLEET_ZIPF_S for rank in range(FLEET_MACHINES)]
    total = FLEET_ROUNDS * FLEET_DRAWS
    shares = [total * w / sum(weights) for w in weights]
    quota = [min(FLEET_ROUNDS, int(share)) for share in shares]
    by_remainder = sorted(
        range(FLEET_MACHINES), key=lambda r: (shares[r] - int(shares[r]), -r),
        reverse=True,
    )
    while sum(quota) < total:
        for rank in by_remainder:
            if sum(quota) < total and quota[rank] < FLEET_ROUNDS:
                quota[rank] += 1
    # Each round feeds the machines furthest behind an even spread of their
    # quota over the run, so every round mixes hot and cold machines alike;
    # a random jitter of up to one round, drawn from the seed, decides ties.
    fed = [0] * FLEET_MACHINES
    schedule = []
    for number in range(1, FLEET_ROUNDS + 1):
        jitter = [rng.random() for _ in range(FLEET_MACHINES)]
        chosen = sorted(
            range(FLEET_MACHINES),
            key=lambda r: fed[r] - quota[r] * number / FLEET_ROUNDS - jitter[r],
        )[:FLEET_DRAWS]
        for rank in chosen:
            fed[rank] += 1
        schedule.append(sorted(ids[rank] for rank in chosen))
    return schedule


def _fleet() -> dict:
    from repro.workload.machines import MachineProfile, PLATFORM_LINUX
    from repro.workload.tracegen import generate_trace

    # every machine's trace covers its warm-up plus the largest quota any
    # rank can have, so no feed runs dry whichever rank it is dealt
    needed = FLEET_WARM_EVENTS + FLEET_ROUNDS * FLEET_CHUNK
    machines = {}
    for index in range(FLEET_MACHINES):
        days = math.ceil(needed / _FLEET_EVENTS_PER_DAY)
        while True:
            profile = MachineProfile(
                name=f"fleet:m{index:03d}",
                platform=PLATFORM_LINUX,
                days=days,
                apps=FLEET_APPS,
                sessions_per_day=4,
                actions_per_session=10,
                pref_edits_per_day=2.5,
                noise_keys=200,
                noise_writes_per_day=40,
                reads_per_day=0,
                seed=FLEET_TRACE_SEED + index,
            )
            trace = generate_trace(profile)
            events = trace.ttkv.write_events()
            if len(events) >= needed:
                break
            days += max(1, days // 4)
        machines[f"m{index:03d}"] = {
            "events": _encode(events[:needed]),
            "warm": FLEET_WARM_EVENTS,
            "prefixes": [trace.apps[name].key_prefix for name in FLEET_APPS],
        }
    return {"machines": machines, "chunk": FLEET_CHUNK}


def _repair() -> dict:
    from repro.errors.cases import ERROR_CASES
    from repro.workload.machines import profile_by_name
    from repro.workload.tracegen import generate_trace

    traces = {}
    for name in dict.fromkeys(case.trace_name for case in ERROR_CASES):
        trace = generate_trace(profile_by_name(name))
        traces[name] = {
            # record order matters to the repair search's tie-breaks, so
            # the key order of the store is kept alongside the events
            "reads": [
                (record.key, record.reads) for record in trace.ttkv.iter_records()
            ],
            "events": _encode(trace.ttkv.write_events()),
            "days": trace.days,
        }
    return {"traces": traces}


def generate(workload: str, seed: int) -> dict:
    if workload == "stream-win7":
        return _profile_trace(STREAM_PROFILE, seed)
    if workload == "ingest-vista2":
        return _profile_trace(INGEST_PROFILE, seed)
    if workload == "fleet-skew":
        return _fleet()
    if workload == "repair-table3":
        return _repair()
    raise ValueError(f"unknown workload {workload!r}")


def load(workload: str, seed: int) -> dict:
    """The workload's inputs, generating them in a child process if absent."""
    path = cache_path(workload, seed)
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload",
                workload,
                "--seed",
                str(seed),
                "--out",
                str(path),
            ],
            check=True,
            timeout=900,
        )
    with open(path, "rb") as handle:
        data = pickle.load(handle)
    if workload == "fleet-skew":
        data["schedule"] = fleet_schedule(seed)
    return data


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    data = generate(args.workload, args.seed)
    out = Path(args.out)
    partial = out.with_name(f"{out.name}.{os.getpid()}.tmp")
    with open(partial, "wb") as handle:
        pickle.dump(data, handle, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(partial, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
