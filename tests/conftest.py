"""Shared fixtures.

Heavyweight cryptographic objects (group-signature managers with enrolled
members, full GCD frameworks) are session-scoped: Setup and Join dominate
runtime (each Join generates a fresh certificate prime), and nearly every
test only *reads* these worlds.  Tests that mutate membership state build
their own private instances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

import pytest

from repro.core.framework import GcdFramework
from repro.core.member import GcdMember
from repro.core.scheme1 import create_scheme1
from repro.core.scheme2 import create_scheme2
from repro.gsig import acjt, kty


@pytest.fixture
def rng() -> random.Random:
    """A fresh deterministic RNG per test."""
    return random.Random(0xC0FFEE)


@dataclass
class GsigWorld:
    """A group-signature deployment with three members."""

    manager: object
    credentials: Dict[str, object]
    rng: random.Random


@pytest.fixture(scope="session")
def acjt_world() -> GsigWorld:
    world_rng = random.Random(1001)
    manager = acjt.AcjtManager("tiny", world_rng)
    credentials = {}
    updates = []
    for name in ("alice", "bob", "carol"):
        credential, update = manager.join(name, world_rng)
        for existing in credentials.values():
            existing.apply_update(update)
        credentials[name] = credential
        updates.append(update)
    return GsigWorld(manager=manager, credentials=credentials, rng=world_rng)


@pytest.fixture(scope="session")
def kty_world() -> GsigWorld:
    world_rng = random.Random(2002)
    manager = kty.KtyManager("tiny", world_rng)
    credentials = {}
    for name in ("alice", "bob", "carol"):
        credential, update = manager.join(name, world_rng)
        for existing in credentials.values():
            existing.apply_update(update)
        credentials[name] = credential
    return GsigWorld(manager=manager, credentials=credentials, rng=world_rng)


@dataclass
class SchemeWorld:
    """A live GCD framework with enrolled members."""

    framework: GcdFramework
    members: Dict[str, GcdMember]
    rng: random.Random

    def lineup(self, *names: str) -> List[GcdMember]:
        return [self.members[n] for n in names]


def _build_world(factory, group_id: str, names, seed: int) -> SchemeWorld:
    world_rng = random.Random(seed)
    framework = factory(group_id, rng=world_rng)
    members = {name: framework.admit_member(name, world_rng) for name in names}
    return SchemeWorld(framework=framework, members=members, rng=world_rng)


@pytest.fixture(scope="session")
def scheme1_world() -> SchemeWorld:
    return _build_world(create_scheme1, "fbi", ("alice", "bob", "carol", "dave"), 3003)


@pytest.fixture(scope="session")
def scheme2_world() -> SchemeWorld:
    return _build_world(create_scheme2, "mi6", ("xavier", "yvonne", "zelda"), 4004)


@pytest.fixture(scope="session")
def other_scheme1_world() -> SchemeWorld:
    """A second, unrelated scheme-1 group for mixed-group scenarios."""
    return _build_world(create_scheme1, "cia", ("dan", "eve"), 5005)


@pytest.fixture(scope="session")
def service_world() -> SchemeWorld:
    """Five members for the service-layer tests (the transport acceptance
    criterion is a 5-party handshake over real sockets)."""
    return _build_world(create_scheme1, "nsa",
                        ("p0", "p1", "p2", "p3", "p4"), 6006)


@pytest.fixture
def kernel_fallback(monkeypatch):
    """Run as on a machine without libgmp: the accel kernel's loader
    finds nothing, so accelerated powers take the fixed-base tables and
    builtin ``pow``.  The real loader and its cached result come back
    after the test."""
    from repro.accel import kernel

    monkeypatch.setattr(kernel, "_load", lambda: None)
    monkeypatch.setattr(kernel, "_GMP", kernel._UNLOADED)
    assert kernel.name() == "builtin"
