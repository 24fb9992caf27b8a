"""repro — Optimal Resilience for Erasure-Coded Byzantine Distributed Storage.

A complete Python implementation of Cachin & Tessaro's DSN 2006 paper:
multi-writer multi-reader *atomic register* simulation over ``n`` servers
of which up to ``t < n/3`` may be Byzantine (optimal), tolerating an
arbitrary number of Byzantine clients, storing values erasure-coded
(``~ |F|/k`` per server instead of ``|F|``), with *non-skipping
timestamps* built from threshold signatures.

Quick use::

    from repro import SystemConfig, build_cluster

    cluster = build_cluster(SystemConfig(n=4, t=1), protocol="atomic_ns",
                            num_clients=2)
    cluster.write(1, "reg", "w1", b"hello")
    assert cluster.read(2, "reg", "r1").result == b"hello"

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.core` — Protocols Atomic and AtomicNS (the contribution);
* :mod:`repro.avid`, :mod:`repro.broadcast` — verifiable information
  dispersal and Bracha reliable broadcast substrates;
* :mod:`repro.erasure`, :mod:`repro.crypto` — Reed-Solomon coding, hash
  commitments, Shoup threshold signatures;
* :mod:`repro.net` — the asynchronous Byzantine network simulator;
* :mod:`repro.baselines` — Martin et al., Bazzi-Ding, Goodson et al.;
* :mod:`repro.faults` — Byzantine server/client attack library;
* :mod:`repro.analysis` — linearizability checking, complexity model;
* :mod:`repro.experiments` — the evaluation harness (tables T1-T2,
  figures F1-F8).
"""

from repro.cluster import Cluster, build_cluster
from repro.config import SystemConfig
from repro.core.atomic import AtomicClient, AtomicServer
from repro.core.atomic_ns import AtomicNSClient, AtomicNSServer
from repro.core.register import OperationHandle
from repro.core.timestamps import Timestamp
from repro.net.schedulers import (
    FifoScheduler,
    PartitionScheduler,
    RandomScheduler,
    SlowPartiesScheduler,
)
from repro.net.simulator import Simulator

__version__ = "1.0.0"

__all__ = [
    "Cluster",
    "build_cluster",
    "SystemConfig",
    "AtomicClient",
    "AtomicServer",
    "AtomicNSClient",
    "AtomicNSServer",
    "OperationHandle",
    "Timestamp",
    "FifoScheduler",
    "PartitionScheduler",
    "RandomScheduler",
    "SlowPartiesScheduler",
    "Simulator",
    "__version__",
]
