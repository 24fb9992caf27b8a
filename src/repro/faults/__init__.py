"""Byzantine fault library: attack behaviours for servers and clients.

Inject these into clusters via ``build_cluster(..., server_overrides=...,
client_overrides=...)`` to exercise the resilience claims of the paper.
:func:`derive` is the one way a faulty server or client class is made:
:func:`fail_stop` derives crashing servers, :func:`byzantine` the named
server behaviours a chaos plan can select, and :func:`byzantine_client`
the named client attacks, each on the deployment's own honest class.
"""

from repro.faults.byzantine_clients import (
    BYZANTINE_CLIENTS,
    SKIP_TARGET,
    byzantine_client,
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
    "BYZANTINE_CLIENTS",
    "SKIP_TARGET",
    "byzantine_client",
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
