"""Asynchronous Byzantine message-passing simulator (the system model).

Implements Section 2.1 of the paper: parties as processes with
``upon``/``wait for`` thread semantics, secure authenticated channels,
adversary-controlled scheduling with eventual delivery, a logical global
clock, and first-class complexity measurement.
"""

from repro.net.inbox import Inbox
from repro.net.message import (
    EVENT_DELIVER,
    EVENT_INPUT,
    EVENT_OUTPUT,
    LocalEvent,
    Message,
)
from repro.net.metrics import Metrics
from repro.net.process import Process, WaitState
from repro.net.schedulers import (
    FifoScheduler,
    PartitionScheduler,
    PriorityScheduler,
    RandomScheduler,
    Scheduler,
    SlowPartiesScheduler,
    make_scheduler,
)
from repro.net.simulator import Simulator

__all__ = [
    "Inbox",
    "EVENT_DELIVER",
    "EVENT_INPUT",
    "EVENT_OUTPUT",
    "LocalEvent",
    "Message",
    "Metrics",
    "Process",
    "WaitState",
    "FifoScheduler",
    "PartitionScheduler",
    "PriorityScheduler",
    "RandomScheduler",
    "Scheduler",
    "SlowPartiesScheduler",
    "make_scheduler",
    "Simulator",
]
