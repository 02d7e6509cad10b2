#!/usr/bin/env python3
"""Benchmark for the secret-handshake stack: one command, every workload.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload hs-m8 --seed 1 --seconds 25 --trace 0

Workloads (closed loop; see README.md for why each exists):

* ``hs-m8``        -- repeated m=8 rooms of the same 8 members over
  loopback TCP to one in-process RendezvousServer, one room in flight;
* ``relay-replay`` -- a recorded m=4 room replayed crypto-free through a
  2-shard ClusterRouter, ``nproc`` rooms in flight;
* ``churn-m4``     -- revoke 2 / admit 2 / seal one epoch / one m=4
  survivor room per cycle, plus a room with a just-revoked member every
  fourth cycle.

``--trace 0`` measures the end-to-end metrics with no wrapper, sampler
or tracing installed.  ``--trace 1`` measures half the window untraced
and half traced with the outside-in wrappers of ``tracer.py``, and
reports the per-layer metrics; the spans are written to
``perfbench/out/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero when any room failed a check.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Every benchmark process (this driver and its shard workers) hashes
#: with this seed, so dict/set iteration order is the same on every run.
HASH_SEED = "0"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3

CLOCK_TICK = os.sysconf("SC_CLK_TCK")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("hs-m8", "relay-replay", "churn-m4"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", choices=("corrupt-replay",),
                        help="inject one output mismatch (smoke test)")
    return parser.parse_args(argv)


def git_sha() -> str:
    """The checkout's commit, read from .git without running git (the
    benchmark reads nothing outside its checkout)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_cpu(pids) -> float:
    """CPU seconds (user + system) used so far by live child processes."""
    total = 0.0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += (int(fields[11]) + int(fields[12])) / CLOCK_TICK
    return total


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_percentile(count: int):
    """The highest of p99/p90 with at least ten samples beyond it."""
    for pct in (99, 90):
        if count * (100 - pct) / 100 >= 10:
            return pct
    return None


def percentile(values, pct: float) -> float:
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


class Window:
    """Everything one timed closed-loop window produced."""

    def __init__(self, records, start, end, driver_cpu, shard_cpu,
                 epoch_seconds) -> None:
        self.records = records
        self.start = start
        self.end = end
        self.driver_cpu = driver_cpu
        self.shard_cpu = shard_cpu
        self.epoch_seconds = epoch_seconds

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def completed(self):
        """Rooms expected to succeed that did, with every check passed."""
        return [r for r in self.records if r.ok and r.expect_success]

    @property
    def failed(self):
        return [r for r in self.records if not r.ok]


async def measure(world, seconds: float, counter) -> Window:
    """Closed loop: each lane starts its next step when the last one
    ends, until ``seconds`` have passed; the window closes when the last
    step in flight finishes."""
    from workloads import RoomRecord

    records = []
    epochs_before = len(world.epoch_seconds)
    pids = world.child_pids()
    cpu0, shard0 = time.process_time(), child_cpu(pids)
    start = time.perf_counter()
    deadline = start + seconds

    async def lane(number: int) -> None:
        rng = world.lane_rng(number * 1000 + len(counter))
        while time.perf_counter() < deadline:
            index = len(counter)
            counter.append(index)
            try:
                records.extend(await world.step(number, index, rng))
            except Exception:
                now = time.perf_counter()
                records.append(RoomRecord(
                    room=f"step-{index}", expect_success=True, start=now,
                    end=now, problems=[traceback.format_exc(limit=4)]))
                return

    await asyncio.gather(*(lane(n) for n in range(world.lanes)))
    end = time.perf_counter()
    return Window(records, start, end, time.process_time() - cpu0,
                  child_cpu(pids) - shard0,
                  world.epoch_seconds[epochs_before:])


def end_to_end(window: Window, setups) -> dict:
    done = window.completed
    times = [r.seconds for r in done]
    count = max(len(done), 1)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "room_p50_s": (statistics.median(times) if times else 0.0, "s"),
        "rooms_per_s": (len(done) / window.wall, "1/s"),
        "cpu_per_room_s": ((window.driver_cpu + window.shard_cpu) / count,
                           "s"),
        "ok_ratio": ((len(window.records) - len(window.failed))
                     / max(len(window.records), 1), "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def report_lines(window: Window) -> list:
    """Human-readable extras: sample counts, the room tail where the
    sample supports one, and the churn epoch median."""
    times = [r.seconds for r in window.completed]
    lines = [f"rooms completed {len(times)} attempted "
             f"{len(window.records)} in {window.wall:.3f} s"]
    pct = tail_percentile(len(times))
    if pct is not None:
        lines.append(f"room_p{pct}_s {percentile(times, pct):.6f} s "
                     f"({len(times)} samples)")
    else:
        lines.append(f"room tail: not reported ({len(times)} samples, "
                     "fewer than 10 beyond p90)")
    if window.epoch_seconds:
        lines.append(f"epoch_p50_s "
                     f"{statistics.median(window.epoch_seconds):.6f} s "
                     f"({len(window.epoch_seconds)} epochs)")
    return lines


def per_layer(world, plain: Window, traced: Window, tracer, fb_before,
              fb_after, status_before, status_after) -> dict:
    from repro.obs import TimeSeries
    from tracer import MODEXP_CALLS, MODEXP_SPANS

    done = traced.completed
    n = max(len(done), 1)
    m = getattr(world, "m", 1)
    t0, t1 = traced.start, traced.end
    self_s = tracer.self_by_name(t0, t1)
    calls = tracer.calls_by_name(t0, t1)
    counts = tracer.counts

    def inclusive(name: str) -> float:
        return sum(tracer.durations(name, t0, t1))

    def counter_delta(name: str) -> int:
        new = status_after.get("counters") or {}
        old = status_before.get("counters") or {}
        return new.get(name, 0) - old.get(name, 0)

    per_room_calls = {r.room: 0 for r in done}
    for index, name in enumerate(tracer.names):
        if name in MODEXP_CALLS and tracer.rooms[index] in per_room_calls:
            per_room_calls[tracer.rooms[index]] += 1
    hits = fb_after["hits"] - fb_before["hits"]
    builds = fb_after["misses"] - fb_before["misses"]
    evictions = fb_after["evictions"] - fb_before["evictions"]
    series = TimeSeries()
    series.add(status_before, at=t0)
    series.add(status_after, at=t1)
    relay = series.rates()[0]
    places = [s for r in done for s in r.place_s]
    admissions = [r.admission_s for r in done if r.admission_s is not None]
    seals = tracer.durations("revocation.seal", t0, t1)

    intervals = sorted((r.start, r.end) for r in done)
    union = []
    for lo, hi in intervals:
        if union and lo <= union[-1][1]:
            union[-1] = (union[-1][0], max(union[-1][1], hi))
        else:
            union.append((lo, hi))
    room_wall = sum(hi - lo for lo, hi in union)
    plain_times = [r.seconds for r in plain.completed]
    traced_times = [r.seconds for r in done]

    def median(values):
        return statistics.median(values) if values else 0.0

    return {
        "modmath.calls": (median(list(per_room_calls.values())), "count"),
        "modmath.self_s": (sum(self_s.get(s, 0.0) for s in MODEXP_SPANS)
                           / n, "s"),
        "fixed_base.hit_ratio": (hits / (hits + builds)
                                 if hits + builds else 0.0, "ratio"),
        "fixed_base.builds": (builds / n, "count"),
        "fixed_base.evictions": (evictions / n, "count"),
        "gsig.sign_s": (inclusive("gsig.sign") / n, "s"),
        "gsig.verify_s": (inclusive("gsig.verify") / n, "s"),
        "gsig.verify_calls": (calls["gsig.verify"] / n, "count"),
        "dgka.self_s": (self_s.get("dgka", 0.0) / n, "s"),
        "symmetric.self_s": (self_s.get("symmetric", 0.0) / n, "s"),
        "symmetric.bytes": (counts["symmetric.bytes"] / n, "bytes"),
        "hashing.self_s": (self_s.get("hashing", 0.0) / n, "s"),
        "wire.self_s": (self_s.get("wire", 0.0) / n, "s"),
        "wire.bytes": (counts["wire.bytes"] / n, "bytes"),
        "protocol.self_s": (self_s.get("protocol", 0.0) / n, "s"),
        "framing.frames": (counts["framing.frames"] / n, "count"),
        "runner.self_s": (self_s.get("runner", 0.0) / n / m, "s"),
        "runner.steps": (calls["runner"] / n / m, "count"),
        "client.admission_s": (median(admissions), "s"),
        "client.retries": (sum(r.retries for r in traced.records), "count"),
        "server.relay_p50_s": (relay["relay_p50_s"] or 0.0, "s"),
        "server.relay_p99_s": (relay["relay_p99_s"] or 0.0, "s"),
        "server.sheds": (counter_delta("svc:busy-sheds"), "count"),
        "router.place_s": (median(places), "s"),
        "shard.cpu_s": (traced.shard_cpu / n, "s"),
        "cluster.placements": (counter_delta("svc-cluster:placements") / n,
                               "count"),
        "cluster.replacements": (counter_delta("svc-cluster:replacements"),
                                 "count"),
        "cluster.busy_sheds": (counter_delta("svc-cluster:busy-sheds"),
                               "count"),
        "revocation.seal_s": (median(seals), "s"),
        "revocation.epoch_p50_s": (median(traced.epoch_seconds), "s"),
        "revocation.refresh_s": (inclusive("revocation.refresh") / n, "s"),
        "revocation.reissues": (counts["revocation.reissues"], "count"),
        "accumulator.witness_update_s": (
            inclusive("accumulator.witness_update") / n, "s"),
        "authority.admit_s": (inclusive("authority.admit") / n, "s"),
        "cgkd.rekey_s": (inclusive("cgkd.rekey") / n, "s"),
        "driver.cpu_share": (traced.driver_cpu / traced.wall, "ratio"),
        "trace.coverage": (tracer.covered(union) / room_wall
                           if room_wall else 0.0, "ratio"),
        "trace.overhead": (median(traced_times) / median(plain_times)
                           if plain_times and traced_times else 0.0,
                           "ratio"),
    }


async def status_of(world) -> dict:
    from repro.service import query_status

    return await query_status("127.0.0.1", world.port)


async def run(args) -> int:
    from repro import accel
    from repro.accel import fixed_base
    from repro.crypto.params import acjt_profile
    import tracer as tracing
    from workloads import OFFLOAD, WORKLOADS

    accel.configure(enabled=True)
    cls = WORKLOADS[args.workload]
    header = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "git_sha": git_sha(), "accel": accel.state.snapshot(),
        "offload": OFFLOAD,
        "acjt_profile": vars(acjt_profile("tiny")),
        "lanes": cls.lanes, "hash_seed": os.environ.get("PYTHONHASHSEED"),
    }
    print(json.dumps({"header": header}), flush=True)

    setups = []
    world = None
    for number in range(1 if args.trace else SETUPS):
        if world is not None:
            await world.teardown()
        world = cls(args.seed, number, inject=args.inject)
        started = time.perf_counter()
        await world.setup()
        setups.append(time.perf_counter() - started)

    counter = []
    try:
        if not args.trace:
            window = await measure(world, args.seconds, counter)
            windows = [window]
            metrics = end_to_end(window, setups)
        else:
            plain = await measure(world, args.seconds / 2, counter)
            status_before = await status_of(world)
            fb_before = fixed_base.stats()
            tracer = tracing.Tracer()
            tracing.install_layers(tracer)
            for target in tracer.missing:
                print(f"trace: {target} not found, its layer reads 0")
            try:
                traced = await measure(world, args.seconds / 2, counter)
            finally:
                tracer.uninstall()
            fb_after = fixed_base.stats()
            status_after = await status_of(world)
            windows = [plain, traced]
            window = traced
            metrics = per_layer(world, plain, traced, tracer, fb_before,
                                fb_after, status_before, status_after)
            os.makedirs(OUT, exist_ok=True)
            tracer.write_jsonl(os.path.join(
                OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"),
                plain.start)
    finally:
        await world.teardown()

    for line in report_lines(window):
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    attempted = sum(len(w.records) for w in windows)
    failed = [r for w in windows for r in w.failed]
    for record in failed[:5]:
        print("FAILED", "; ".join(record.problems)[:2000], file=sys.stderr)
    correct = not failed and bool(window.completed)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


def main() -> int:
    args = parse_args(sys.argv[1:])
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no source tree at {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable] + sys.argv, env)
    sys.path.insert(0, SRC)
    try:
        return asyncio.run(run(args))
    finally:
        # Spawning the shards started multiprocessing's resource tracker;
        # stop it and wait for it, so no process outlives the run.
        from multiprocessing import resource_tracker
        resource_tracker._resource_tracker._stop()


if __name__ == "__main__":
    sys.exit(main())
