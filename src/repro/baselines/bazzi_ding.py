"""Baseline: Bazzi–Ding non-skipping timestamps at ``n > 4t``.

Bazzi and Ding ("Non-skipping Timestamps for Byzantine Data Storage
Systems", reference [5] of the paper) fixed the timestamp-skipping problem
of SBQ-L *without cryptography* by paying in resilience: the writer uses
the ``(t+1)``-st largest of its ``n - t`` timestamp replies, so the chosen
value is vouched for by at least one honest server and therefore bounded
by the number of writes executed so far.

Monotonicity of the ``(t+1)``-st largest across successive writes requires
quorum overlaps of at least ``t + 1`` honest servers:

    ``(n - t) + (n - 2t) - n  =  n - 3t  >=  t + 1   <=>   n > 4t``

hence the degraded resilience bound the paper's Protocol AtomicNS removes.
Like SBQ-L, this baseline replicates the full value and offers no defense
against Byzantine *clients*, who may store arbitrary timestamps directly.

Everything except the timestamp-selection rule (and the resilience
precondition) is inherited from the Martin et al. baseline.
"""

from __future__ import annotations

from repro.common.ids import PartyId
from repro.config import SystemConfig, require_n_gt_4t
from repro.baselines.martin import MartinClient, MartinServer


class BazziDingServer(MartinServer):
    """Replica server; identical to SBQ-L apart from the ``n > 4t``
    deployment precondition."""

    def __init__(self, pid: PartyId, config: SystemConfig,
                 initial_value: bytes = b""):
        require_n_gt_4t(config, "Bazzi-Ding")
        super().__init__(pid, config, initial_value)


class BazziDingClient(MartinClient):
    """Writer using the non-skipping ``(t+1)``-st-largest timestamp rule."""

    def __init__(self, pid: PartyId, config: SystemConfig):
        require_n_gt_4t(config, "Bazzi-Ding")
        super().__init__(pid, config)

    def _choose_timestamp(self, descending_ts) -> int:
        """The ``(t+1)``-st largest reply: at most ``t`` replies are lies,
        so this value was reported by an honest server."""
        return descending_ts[self.config.t]
