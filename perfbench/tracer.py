"""Outside-in layer tracing for the benchmark.

Nothing under ``src/`` knows about this module.  :class:`Tracer` installs
timing wrappers on the names callers actually bind -- class attributes
(``HandshakeDevice.on_message``, ``AcjtCredential.sign``), module
attributes reached through a module object (``symmetric.encrypt`` as
``net.runner`` calls it), and every per-module copy of a function that
was imported by name (each ``from repro.crypto.modmath import mexp``).
:meth:`Tracer.uninstall` puts every original back.

A span is one call: layer name, room id, parent span, start and end.
Wrapped calls are synchronous, so a per-thread stack gives each span its
parent; a span's self time is its duration minus the durations of its
direct children (children of one synchronous call never overlap).  Spans
stay in memory in flat lists and are written out by :meth:`write_jsonl`
when the run ends.  Counters (frames, bytes, calls) are recorded at the
same boundaries.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import json
import sys
import threading
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

#: The room id every span started in the current task inherits.  The
#: driver sets it once per room task; asyncio copies it into the client
#: tasks that room spawns.
ROOM: contextvars.ContextVar = contextvars.ContextVar("perfbench_room",
                                                      default=None)

#: Spans of the modexp layer.  ``modmath.calls`` counts the first and
#: last (fixed per room); how many inversions a room needs depends on the
#: signs of its random exponents, so they add time but not calls.
MODEXP_SPANS = ("modmath.mexp", "accel.multi_exp", "modmath.inverse")
MODEXP_CALLS = MODEXP_SPANS[:2]


class Tracer:
    """Span recorder plus the wrapper install/uninstall bookkeeping."""

    def __init__(self) -> None:
        # Parallel flat lists keep per-span cost to a few appends.
        self.names: List[str] = []
        self.rooms: List[object] = []
        self.parents: List[int] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._undo: List[Tuple[object, str, object]] = []
        #: Targets that did not resolve (see :meth:`_resolve`).
        self.missing: List[str] = []

    # Recording -----------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _timed(self, name: str, original: Callable,
               on_call: Optional[Callable] = None) -> Callable:
        names, rooms, parents = self.names, self.rooms, self.parents
        starts, ends = self.starts, self.ends
        stack_of = self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            index = len(names)
            names.append(name)
            rooms.append(ROOM.get())
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        return wrapper

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _resolve(self, target: str):
        """``"module:Owner.attr"`` -> ``(owner, attr)``, or ``None`` (and
        the target noted in :attr:`missing`) when the program no longer
        has that name -- a renamed hook then reads 0, never crashes."""
        module_name, _, path = target.partition(":")
        *owners, attr = path.split(".")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            owner = None
        for name in owners:
            owner = getattr(owner, name, None)
        if owner is None or attr not in vars(owner):
            self.missing.append(target)
            return None
        return owner, attr

    def wrap(self, target: str, name: str,
             on_call: Optional[Callable] = None) -> None:
        """Time calls through ``target``: a class or module attribute."""
        resolved = self._resolve(target)
        if resolved is None:
            return
        owner, attr = resolved
        original = owner.__dict__[attr]
        if isinstance(original, staticmethod):
            self._set(owner, attr, staticmethod(
                self._timed(name, original.__func__, on_call)))
        else:
            self._set(owner, attr, self._timed(name, original, on_call))

    def wrap_everywhere(self, target: str, name: str) -> None:
        """Wrap every module-level binding of the function ``target``
        names under ``repro`` (the defining module and each by-name
        importer) with one shared wrapper."""
        resolved = self._resolve(target)
        if resolved is None:
            return
        function = getattr(*resolved)
        wrapper = self._timed(name, function)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    self._set(module, attr, wrapper)

    def count_async(self, target: str, counter: str) -> None:
        """Count non-``None`` results of an async function (``read_frame``)
        without timing it: its duration is mostly waiting, not work."""
        resolved = self._resolve(target)
        if resolved is None:
            return
        owner, attr = resolved
        original = owner.__dict__[attr]
        counts = self.counts

        @functools.wraps(original)
        async def wrapper(*args, **kwargs):
            result = await original(*args, **kwargs)
            if result is not None:
                counts[counter] += 1
            return result

        self._set(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # Analysis ------------------------------------------------------------

    def self_times(self) -> List[float]:
        """Per-span self time: duration minus the direct children's."""
        child = [0.0] * len(self.names)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[index] - self.starts[index]
        return [self.ends[i] - self.starts[i] - child[i]
                for i in range(len(self.names))]

    def self_by_name(self, t0: float = float("-inf"),
                     t1: float = float("inf")) -> Dict[str, float]:
        """Self seconds summed per span name over spans that started in
        ``[t0, t1)``."""
        out: Dict[str, float] = {}
        for index, value in enumerate(self.self_times()):
            if t0 <= self.starts[index] < t1:
                name = self.names[index]
                out[name] = out.get(name, 0.0) + value
        return out

    def calls_by_name(self, t0: float = float("-inf"),
                      t1: float = float("inf")) -> Counter:
        calls: Counter = Counter()
        for index, name in enumerate(self.names):
            if t0 <= self.starts[index] < t1:
                calls[name] += 1
        return calls

    def durations(self, name: str, t0: float = float("-inf"),
                  t1: float = float("inf")) -> List[float]:
        """Inclusive durations of the outermost spans called ``name``
        that started in ``[t0, t1)`` (a span nested in a same-name span
        is already inside its parent's duration)."""
        names, parents = self.names, self.parents
        return [self.ends[i] - self.starts[i]
                for i, n in enumerate(names)
                if n == name and t0 <= self.starts[i] < t1
                and (parents[i] < 0 or names[parents[i]] != name)]

    def covered(self, intervals: List[Tuple[float, float]]) -> float:
        """Seconds of ``intervals`` covered by top-level spans (the sum
        of all self times, since self times partition each top-level
        span).  ``intervals`` must be sorted and disjoint; spans are
        already in start order, so one sweep suffices."""
        total = 0.0
        first = 0
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                continue
            start, end = self.starts[index], self.ends[index]
            while first < len(intervals) and intervals[first][1] <= start:
                first += 1
            for lo, hi in intervals[first:]:
                if lo >= end:
                    break
                total += min(end, hi) - max(start, lo)
        return total

    def write_jsonl(self, path: str, epoch: float) -> None:
        """One JSON object per span; times in seconds from ``epoch``."""
        with open(path, "w") as handle:
            for index, name in enumerate(self.names):
                handle.write(json.dumps({
                    "id": index, "name": name, "room": self.rooms[index],
                    "parent": self.parents[index],
                    "start": round(self.starts[index] - epoch, 7),
                    "end": round(self.ends[index] - epoch, 7),
                }) + "\n")


#: Span name -> the names wrapped for it.  Modules are reached through
#: the module objects callers hold (``symmetric.encrypt`` as net.runner,
#: core.member and cgkd.lkh call it); classes through the attributes
#: instances look up.
TIMED = {
    "gsig.sign": ["repro.gsig.acjt:AcjtCredential.sign"],
    # core.member calls the module function as ``acjt.verify``.
    "gsig.verify": ["repro.gsig.acjt:verify"],
    # crypto.accumulator witness maintenance, as gsig.acjt binds it.
    "accumulator.witness_update": [
        "repro.gsig.acjt:update_witness_after_add",
        "repro.gsig.acjt:update_witness_after_delete",
        "repro.gsig.acjt:update_witness_epoch"],
    "dgka": ["repro.dgka.burmester_desmedt:BurmesterDesmedtParty.emit",
             "repro.dgka.burmester_desmedt:BurmesterDesmedtParty.absorb"],
    "hashing": [f"repro.crypto.hashing:{name}" for name in (
        "digest", "expand", "hash_to_int", "hash_mod", "hash_to_qr", "kdf",
        "int_to_key", "iter_digest")],
    "protocol": ["repro.service.protocol:encode_message",
                 "repro.service.protocol:decode_message"],
    "runner": ["repro.net.runner:HandshakeDevice.start",
               "repro.net.runner:HandshakeDevice.on_message"],
    "authority.admit": ["repro.core.group_authority:GroupAuthority."
                        "admit_member"],
    "cgkd.rekey": ["repro.cgkd.lkh:LkhController.join",
                   "repro.cgkd.lkh:LkhController.leave",
                   "repro.cgkd.lkh:LkhController.leave_many",
                   "repro.cgkd.lkh:LkhMember.rekey"],
    "revocation.seal": ["repro.revocation.service:RevocationService."
                        "seal_epoch"],
}

#: The modexp layer: every by-name binding of these functions.
#: ``repro.accel.multi_exp`` replaces a run of mexp calls.
EVERYWHERE = {
    "modmath.mexp": "repro.crypto.modmath:mexp",
    "modmath.inverse": "repro.crypto.modmath:inverse",
    "accel.multi_exp": "repro.accel.multi_exp:multi_exp",
}


def install_layers(tracer: Tracer) -> None:
    """Install the wrappers for every layer the benchmark reports."""
    counts = tracer.counts

    for name, target in EVERYWHERE.items():
        tracer.wrap_everywhere(target, name)
    for name, targets in TIMED.items():
        for target in targets:
            tracer.wrap(target, name)

    # Wrappers that also count what crossed the boundary.
    def add(counter: str, size: Callable):
        def on_call(args, kwargs, result):
            counts[counter] += size(args, result)
        return on_call

    def argument(args, result):
        return len(args[1])

    def output(args, result):
        return len(result)

    tracer.wrap("repro.crypto.symmetric:encrypt", "symmetric",
                add("symmetric.bytes", argument))
    tracer.wrap("repro.crypto.symmetric:decrypt", "symmetric",
                add("symmetric.bytes", argument))
    tracer.wrap("repro.crypto.symmetric:random_ciphertext", "symmetric",
                add("symmetric.bytes", output))
    tracer.wrap("repro.core.wire:dumps", "wire", add("wire.bytes", output))
    tracer.wrap("repro.core.wire:loads", "wire",
                add("wire.bytes", lambda args, result: len(args[0])))
    tracer.wrap("repro.service.framing:encode_frame", "framing",
                add("framing.frames", lambda args, result: 1))
    tracer.count_async("repro.service.framing:read_frame", "framing.frames")
    tracer.wrap("repro.revocation.service:RevocationService.refresh",
                "revocation.refresh",
                add("revocation.reissues",
                    lambda args, result: result == "reissued"))
