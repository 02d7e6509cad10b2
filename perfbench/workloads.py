"""The three benchmark workloads and the checks each room must pass.

All load comes from this one driver process and its event loop: no
thread or process pools.  Each workload is a closed loop -- a lane starts
its next room only when the previous one has finished -- with one lane
(``hs-m8``, ``churn-m4``) or ``nproc`` lanes (``relay-replay``).

A workload object goes through ``setup`` (group creation, admission,
server or cluster start, warm-up rooms), then ``step`` repeatedly inside
the timed window, then ``teardown``.  ``step`` returns one
:class:`RoomRecord` per room it ran; a record whose ``problems`` list is
non-empty is a failed operation.
"""

from __future__ import annotations

import asyncio
import contextvars
import os
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro import metrics
from repro.cluster import ClusterConfig, ClusterRouter
from repro.core.scheme1 import create_scheme1, scheme1_policy
from repro.load import HandshakeModel
from repro.revocation.service import RevocationService
from repro.service import (ClientConfig, RendezvousServer, ServerConfig,
                           framing, join_room, protocol)

from tracer import ROOM

#: Roster index of the member whose client task is running; set before
#: each member's task is created, so the task inherits it.
MEMBER: contextvars.ContextVar = contextvars.ContextVar("perfbench_member",
                                                        default=None)

#: Closed-form books every completed room is checked against.
MODEL = HandshakeModel("1")

#: Per-room cap: a room that takes longer is a failed operation, never a
#: hang.
ROOM_DEADLINE_S = 60.0

#: The CLI's ``serve``/``join`` pass ``offload=True`` with accel on, which
#: moves the client's device steps and the server's large-frame codec onto
#: ``accel.bridge``'s thread pool.  The benchmark keeps them inline: load
#: comes from one process with no thread pools, and the bridge does not
#: carry the room context variable into its threads, so spans would lose
#: their room.
OFFLOAD = False


@dataclass
class RoomRecord:
    """One room as the driver saw it."""

    room: str
    expect_success: bool
    start: float
    end: float
    problems: List[str] = field(default_factory=list)
    #: Room start -> last member's WELCOME.
    admission_s: Optional[float] = None
    #: Per member: HELLO sent -> WELCOME read (relay-replay only).
    place_s: List[float] = field(default_factory=list)
    #: ``svc-client:*`` retry counters booked by this room's members.
    retries: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def seconds(self) -> float:
        return self.end - self.start


async def run_socket_room(port: int, room: str, members: Sequence[object],
                          rng: random.Random, expect_success: bool
                          ) -> RoomRecord:
    """Run one real handshake room over loopback TCP and check it.

    Members join in roster order (member i receives index i), each under
    the room's own :class:`repro.metrics.Recorder`, so the per-party
    ``hs:<i>`` books can be checked against :data:`MODEL`.  An expected
    success must complete for every party with one shared session key
    and books equal to the closed forms; an expected failure must fail
    for every party as a terminal (non-retryable) verdict."""
    ROOM.set(room)
    m = len(members)
    config = ClientConfig(port=port, room=room, m=m,
                          deadline=ROOM_DEADLINE_S, offload=OFFLOAD)
    policy = scheme1_policy()
    rngs = [random.Random(rng.getrandbits(64)) for _ in range(m)]
    recorder = metrics.Recorder()
    welcomes: List[float] = []
    start = time.perf_counter()
    with metrics.using(recorder):
        tasks = []
        for i, member in enumerate(members):
            MEMBER.set(i)
            joined = asyncio.Event()
            task = asyncio.ensure_future(
                join_room(member, config, policy, rngs[i], joined=joined))
            tasks.append(task)
            waiter = asyncio.ensure_future(joined.wait())
            await asyncio.wait([waiter, task],
                               return_when=asyncio.FIRST_COMPLETED)
            waiter.cancel()
            if joined.is_set():
                welcomes.append(time.perf_counter())
        outcomes = list(await asyncio.gather(*tasks))
    end = time.perf_counter()
    record = RoomRecord(room=room, expect_success=expect_success,
                        start=start, end=end)
    if len(welcomes) == m:
        record.admission_s = welcomes[-1] - start
    extra = recorder.total().extra
    record.retries = sum(value for name, value in extra.items()
                         if name.startswith("svc-client:")
                         and name.endswith("retries"))
    if expect_success:
        failed = [o.index for o in outcomes if not o.success]
        if failed:
            record.problems.append(f"{room}: parties {failed} failed")
        keys = {o.session_key for o in outcomes}
        if len(keys) != 1 or None in keys:
            record.problems.append(f"{room}: session keys disagree")
        books = {name: counters.as_dict()
                 for name, counters in recorder.snapshot().items()}
        record.problems.extend(MODEL.validate_room(m, books, label=room))
    else:
        if any(o.success for o in outcomes):
            record.problems.append(f"{room}: a revoked member's room "
                                   "succeeded")
        if any(o.retryable for o in outcomes):
            record.problems.append(f"{room}: failure was retryable, not a "
                                   "terminal verdict")
    return record


class Workload:
    """Base: subclasses fill in setup/step/teardown."""

    name = ""
    #: Rooms in flight (closed-loop lanes).
    lanes = 1

    def __init__(self, seed: int, setup_index: int = 0,
                 inject: Optional[str] = None) -> None:
        self.seed = seed
        self.setup_index = setup_index
        self.inject = inject
        self.rng = random.Random(f"{self.name}/{seed}/setup{setup_index}")
        self.port = 0
        self.epoch_seconds: List[float] = []

    def lane_rng(self, lane: int) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/lane{lane}")

    async def setup(self) -> None:
        raise NotImplementedError

    async def step(self, lane: int, index: int,
                   rng: random.Random) -> List[RoomRecord]:
        raise NotImplementedError

    async def teardown(self) -> None:
        raise NotImplementedError

    def child_pids(self) -> List[int]:
        """Processes whose CPU the room work also uses."""
        return []

    async def _warm_up(self, rooms: int) -> None:
        rng = random.Random(f"{self.name}/{self.seed}/warm")
        for i in range(rooms):
            for record in await self.step(0, -1 - i, rng):
                if not record.ok:
                    raise RuntimeError("warm-up room failed: "
                                       + "; ".join(record.problems))


class HsM8(Workload):
    """Repeated m=8 rooms of the same 8 members, one in flight, over
    loopback TCP to one in-process RendezvousServer."""

    name = "hs-m8"
    m = 8

    async def setup(self) -> None:
        framework = create_scheme1(f"hs-{self.seed}", rng=self.rng)
        self.members = [framework.admit_member(f"user-{i}", self.rng)
                        for i in range(self.m)]
        self.server = RendezvousServer(ServerConfig(
            handshake_timeout=ROOM_DEADLINE_S, offload=OFFLOAD))
        await self.server.start()
        self.port = self.server.port
        await self._warm_up(1)

    async def step(self, lane, index, rng):
        room = f"hs-{self.seed}-{self.setup_index}-{lane}-{index}"
        return [await run_socket_room(self.port, room, self.members, rng,
                                      expect_success=True)]

    async def teardown(self) -> None:
        await self.server.shutdown()


class ChurnM4(Workload):
    """Scheme 1 under a RevocationService.  One step is one cycle:

    * admit 2: one enrolled (board-polling) member and one sleeper
      admitted without a handle (``enroll=False``), which misses epochs;
    * revoke 2: one enrolled survivor and the sleeper woken last cycle;
    * seal one epoch, then wake the sleeper due this cycle with
      ``service.refresh``.  Sleepers alternate between waking one cycle
      later (4 log entries behind: ``"replayed"``) and three cycles later
      (10 entries, past :attr:`HORIZON`: ``"reissued"``);
    * run one m=4 room of survivors (must succeed) and, every
      ``FAIL_EVERY``-th cycle, one room that includes the just-revoked
      enrolled member (must fail for every party).

    From the third cycle on every cycle does the same work, so set-up
    warms up with :attr:`WARM_CYCLES` cycles, the last one with its
    room."""

    name = "churn-m4"
    m = 4
    pool = 8
    FAIL_EVERY = 4
    #: Delta-log entries kept for replay; see the class docstring.
    HORIZON = 6
    WARM_CYCLES = 3

    async def setup(self) -> None:
        framework = create_scheme1(f"churn-{self.seed}", rng=self.rng)
        self.service = RevocationService(framework, horizon=self.HORIZON,
                                         register=False)
        self.handles: Dict[str, object] = {}
        self.survivors: List[str] = []
        self.joined = 0
        self.cycle = 0
        #: Wake cycle -> (sleeper id, credential, expected refresh result).
        self.asleep: Dict[int, tuple] = {}
        self.woken: Optional[str] = None
        for _ in range(self.pool):
            self._admit()
        self.server = RendezvousServer(ServerConfig(
            handshake_timeout=ROOM_DEADLINE_S, offload=OFFLOAD))
        await self.server.start()
        self.port = self.server.port
        # Fill the sleeper pipeline without rooms, then one full cycle.
        rng = random.Random(f"{self.name}/{self.seed}/warm-epochs")
        for _ in range(self.WARM_CYCLES - 1):
            _, problems = self._churn(rng)
            if problems:
                raise RuntimeError("warm-up epoch failed: "
                                   + "; ".join(problems))
        await self._warm_up(1)
        self.epoch_seconds.clear()

    def _admit(self) -> None:
        user = f"u{self.joined}"
        self.joined += 1
        self.handles[user] = self.service.admit(user, self.rng)
        self.survivors.append(user)

    def _sleep(self) -> None:
        user = f"s{self.cycle}"
        credential = self.service.admit(user, self.rng, enroll=False)
        gap, expected = ((3, "reissued") if self.cycle % 2 == 0
                         else (1, "replayed"))
        self.asleep[self.cycle + gap] = (user, credential, expected)

    def _epoch_problems(self, victim: str) -> List[str]:
        problems = []
        epoch = self.service.epoch
        for user in self.survivors:
            handle = self.handles[user]
            if handle.revoked or handle.credential.acc_epoch != epoch:
                problems.append(f"survivor {user} not at epoch {epoch}")
        if not self.handles[victim].revoked:
            problems.append(f"revoked {victim} still holds a live handle")
        return problems

    def _wake(self) -> List[str]:
        """Refresh the sleeper due this cycle, if any, and check it."""
        if self.cycle not in self.asleep:
            self.woken = None
            return []
        user, credential, expected = self.asleep.pop(self.cycle)
        self.woken = user
        result = self.service.refresh(credential)
        problems = []
        if result != expected:
            problems.append(f"sleeper {user}: refresh {result}, "
                            f"expected {expected}")
        if (credential.acc_epoch != self.service.epoch
                or not credential.witness_is_current()):
            problems.append(f"sleeper {user} not current after refresh")
        return problems

    def _churn(self, rng: random.Random) -> tuple:
        """One cycle's membership work: admit 2, revoke 2, seal, wake.
        Returns the revoked enrolled member and the problems found."""
        self._admit()
        self._sleep()
        victim = rng.choice(self.survivors[:-1])
        started = time.perf_counter()
        self.service.revoke(victim)
        self.survivors.remove(victim)
        if self.woken is not None:
            self.service.revoke(self.woken)
        self.service.seal_epoch()
        problems = self._wake()
        self.epoch_seconds.append(time.perf_counter() - started)
        problems.extend(self._epoch_problems(victim))
        self.cycle += 1
        return victim, problems

    async def step(self, lane, index, rng):
        tag = f"churn-{self.seed}-{self.setup_index}-{index}"
        ROOM.set(f"{tag}/epoch")
        victim, problems = self._churn(rng)
        chosen = rng.sample(self.survivors, self.m)
        record = await run_socket_room(
            self.port, f"{tag}/ok", [self.handles[u] for u in chosen], rng,
            expect_success=True)
        record.problems.extend(problems)
        records = [record]
        if index % self.FAIL_EVERY == 0:
            mixed = [self.handles[u] for u in chosen[:self.m - 1]]
            mixed.append(self.handles[victim])
            records.append(await run_socket_room(
                self.port, f"{tag}/revoked", mixed, rng,
                expect_success=False))
        return records

    async def teardown(self) -> None:
        await self.server.shutdown()


@dataclass
class Recording:
    """One real room's BROADCAST payloads, per roster index, in the
    order each member sent them, plus the DELIVER bodies each index must
    receive (every other member's payloads)."""

    m: int
    sends: Dict[int, List[object]]
    expect: Dict[int, Counter]


async def record_room(port: int, room: str, members: Sequence[object],
                      rng: random.Random) -> Recording:
    """Run one real room and capture every BROADCAST its members encode,
    by wrapping the public ``protocol.encode_message`` for the length of
    the room; :data:`MEMBER` tells whose client encoded it."""
    sent: Dict[int, List[object]] = {i: [] for i in range(len(members))}
    original = protocol.encode_message

    def capture(message):
        if isinstance(message, protocol.Broadcast):
            sent[MEMBER.get()].append(message.payload)
        return original(message)

    protocol.encode_message = capture
    try:
        record = await run_socket_room(port, room, members, rng,
                                       expect_success=True)
    finally:
        protocol.encode_message = original
    if not record.ok:
        raise RuntimeError("recording room failed: "
                           + "; ".join(record.problems))
    m = len(members)
    expect = {}
    for i in range(m):
        bodies = Counter()
        for j in range(m):
            if j != i:
                for payload in sent[j]:
                    bodies[protocol.encode_message(
                        protocol.Deliver(payload=payload))] += 1
        expect[i] = bodies
    return Recording(m=m, sends=sent, expect=expect)


async def _replay_member(port: int, room: str, recording: Recording,
                         corrupt: bool) -> tuple:
    """One crypto-free member: HELLO, then after ROOM_READY send the
    recorded payloads of its roster index in protocol order -- payload
    k once all (m-1)*k deliveries of the earlier rounds arrived -- and
    check every DELIVER byte for byte.  Returns (place_s, welcome time,
    problems)."""
    m = recording.m
    problems: List[str] = []
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        async def send(message) -> None:
            writer.write(framing.encode_frame(
                protocol.encode_message(message)))
            await writer.drain()

        async def read():
            blob = await framing.read_frame(reader)
            if blob is None:
                raise ConnectionError("relay closed the connection")
            return blob

        hello_at = time.perf_counter()
        await send(protocol.Hello(room=room, m=m))
        welcome = protocol.decode_message(await read())
        welcome_at = time.perf_counter()
        if not isinstance(welcome, protocol.Welcome):
            return (0.0, welcome_at,
                    [f"{room}: expected WELCOME, got {welcome!r}"])
        ready = protocol.decode_message(await read())
        if not isinstance(ready, protocol.RoomReady):
            return (0.0, welcome_at,
                    [f"{room}: expected ROOM_READY, got {ready!r}"])
        index = welcome.index
        payloads = recording.sends[index]
        expected = Counter(recording.expect[index])
        if corrupt:
            body = next(iter(expected))
            expected[body] -= 1
            expected[body[:-1] + bytes([body[-1] ^ 1])] += 1
        per_round = m - 1
        total = per_round * len(payloads)
        sent = received = 0
        await send(protocol.Broadcast(payload=payloads[0]))
        sent = 1
        while received < total:
            blob = await read()
            if expected[blob] <= 0:
                # Leave without DONE: the relay aborts the room, so the
                # other members fail fast instead of waiting it out.
                return welcome_at - hello_at, welcome_at, [
                    f"{room}/{index}: DELIVER #{received} is not "
                    "byte-equal to the recording"]
            expected[blob] -= 1
            received += 1
            if received == per_round * sent and sent < len(payloads):
                await send(protocol.Broadcast(payload=payloads[sent]))
                sent += 1
        await send(protocol.Done())
        # Books: the closed forms' message counts, exactly.
        want = MODEL.per_party(m)
        if sent != want["messages_sent"]:
            problems.append(f"{room}/{index}: sent {sent} broadcasts, "
                            f"model says {want['messages_sent']}")
        if received != want["messages_received"]:
            problems.append(f"{room}/{index}: received {received} "
                            f"deliveries, model says "
                            f"{want['messages_received']}")
        return welcome_at - hello_at, welcome_at, problems
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class RelayReplay(Workload):
    """Crypto-free replay of one recorded m=4 room through a 2-shard
    ClusterRouter, ``nproc`` rooms in flight."""

    name = "relay-replay"
    m = 4
    shards = 2
    lanes = max(1, os.cpu_count() or 1)

    async def setup(self) -> None:
        framework = create_scheme1(f"replay-{self.seed}", rng=self.rng)
        members = [framework.admit_member(f"user-{i}", self.rng)
                   for i in range(self.m)]
        self.router = ClusterRouter(ClusterConfig(
            shards=self.shards, handshake_timeout=ROOM_DEADLINE_S))
        await self.router.start()
        self.port = self.router.port
        self.recording = await record_room(
            self.port, f"replay-{self.seed}-{self.setup_index}-record",
            members, self.rng)
        await self._warm_up(4 * self.lanes)

    async def step(self, lane, index, rng):
        room = f"replay-{self.seed}-{self.setup_index}-{lane}-{index}"
        ROOM.set(room)
        corrupt = self.inject == "corrupt-replay" and index == 0
        start = time.perf_counter()
        try:
            results = await asyncio.wait_for(asyncio.gather(*(
                _replay_member(self.port, room, self.recording,
                               corrupt and i == 0)
                for i in range(self.m))), ROOM_DEADLINE_S)
        except (asyncio.TimeoutError, ConnectionError, OSError) as exc:
            return [RoomRecord(room=room, expect_success=True, start=start,
                               end=time.perf_counter(),
                               problems=[f"{room}: {exc!r}"])]
        record = RoomRecord(room=room, expect_success=True, start=start,
                            end=time.perf_counter())
        record.place_s = [r[0] for r in results]
        record.admission_s = max(r[1] for r in results) - start
        for r in results:
            record.problems.extend(r[2])
        return [record]

    def child_pids(self) -> List[int]:
        return [handle.process.pid
                for handle in self.router.monitor.handles.values()
                if handle.process is not None]

    async def teardown(self) -> None:
        await self.router.shutdown()


WORKLOADS = {cls.name: cls for cls in (HsM8, RelayReplay, ChurnM4)}
