"""Byzantine fault library: attack behaviours for servers and clients.

Inject these into clusters via ``build_cluster(..., server_overrides=...,
client_overrides=...)`` to exercise the resilience claims of the paper.
Every faulty server class is derived from an honest one by
:func:`derive`: :func:`fail_stop` for crashes, :func:`byzantine` for the
named behaviours a chaos plan can select.
"""

from repro.faults.byzantine_clients import (
    SKIP_TARGET,
    ByzantineClientBase,
    EquivocatingRbcWriter,
    HalfWriter,
    InconsistentDisperser,
    PoisonousGoodsonWriter,
    ReplayingNSWriter,
    SkippingWriter,
    SplitBrainMartinWriter,
)
from repro.faults.failstop import (
    FailStopMartinServer,
    FailStopNSServer,
    FailStopServer,
    fail_stop,
)
from repro.faults.byzantine_servers import (
    BYZANTINE_BEHAVIOURS,
    INFLATION,
    AvidSpammerServer,
    CrashServer,
    EquivocatingReaderServer,
    InflatorNSServer,
    InflatorServer,
    MartinInflatorServer,
    StaleReaderServer,
    byzantine,
)
from repro.faults.variants import derive

__all__ = [
    "SKIP_TARGET",
    "ByzantineClientBase",
    "EquivocatingRbcWriter",
    "HalfWriter",
    "InconsistentDisperser",
    "PoisonousGoodsonWriter",
    "ReplayingNSWriter",
    "SkippingWriter",
    "SplitBrainMartinWriter",
    "FailStopMartinServer",
    "FailStopNSServer",
    "FailStopServer",
    "fail_stop",
    "BYZANTINE_BEHAVIOURS",
    "INFLATION",
    "AvidSpammerServer",
    "CrashServer",
    "EquivocatingReaderServer",
    "InflatorNSServer",
    "InflatorServer",
    "MartinInflatorServer",
    "StaleReaderServer",
    "byzantine",
    "derive",
]
