"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import pytest

from repro.cluster import build_cluster
from repro.config import SystemConfig
from repro.net.schedulers import RandomScheduler
from repro.obs import TraceRecorder
from tests.reference_observers import delivered_messages


@pytest.fixture
def config41() -> SystemConfig:
    """Minimal optimal-resilience deployment: n=4, t=1."""
    return SystemConfig(n=4, t=1)


@pytest.fixture
def config72() -> SystemConfig:
    """n=7, t=2 deployment."""
    return SystemConfig(n=7, t=2)


@pytest.fixture
def atomic_cluster(config41):
    """A ready-to-use Protocol Atomic cluster with two clients."""
    return build_cluster(config41, protocol="atomic", num_clients=2,
                         scheduler=RandomScheduler(1))


@pytest.fixture
def atomic_ns_cluster(config41):
    """A ready-to-use Protocol AtomicNS cluster with two clients."""
    return build_cluster(config41, protocol="atomic_ns", num_clients=2,
                         scheduler=RandomScheduler(1))


class _DeliveryLog(TraceRecorder):
    """A recorder that keeps every message it is told was delivered
    (a kv envelope's inner messages as ``Message``s in fleet
    identities)."""

    def __init__(self):
        super().__init__()
        self.delivered = []

    def on_deliver(self, sender, recipient, deliveries, pending):
        self.delivered.extend(
            message for message, _, _ in delivered_messages(
                sender, recipient, deliveries))
        super().on_deliver(sender, recipient, deliveries, pending)


@pytest.fixture
def log_deliveries():
    """``log_deliveries(simulator)`` attaches a tracer and returns the
    list it appends each delivered message to — the delivery log tests
    read, since inboxes keep only what a wait state may still read."""
    return lambda simulator: _DeliveryLog().attach(simulator).delivered
