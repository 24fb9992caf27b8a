"""Verifiable reliable broadcast of large values (the AVID-RBC scheme).

The paper builds on "the AVID-RBC scheme of Cachin and Tessaro [9]",
which couples verifiable information dispersal with reliable broadcast:
to r-broadcast a *large* value, disperse it — every honest server ends
with its block and an agreed commitment — then let servers exchange
blocks once so each can reconstruct the full value.  Communication is

    ``O(n |F|)``  (dispersal)  +  ``n^2 · |F|/k``  (block exchange)
    =  ``O(n |F|)``  for ``k = Θ(n)``,

versus ``O(n^2 |F|)`` for Bracha's broadcast carrying the value in every
echo and ready — an ``n``-fold saving that experiment F12 measures.
Guarantees are those of reliable broadcast (validity, agreement,
integrity), with the dispersal's verifiability on top: a Byzantine
sender either gets one well-defined value delivered everywhere or
nothing anywhere.

Protocol per instance tag:

1. the sender disperses the value (Protocol Disperse);
2. upon completing the dispersal, a server sends its block (and
   witness) to all servers in a ``vrbc-block`` message;
3. upon holding ``k`` valid blocks for its completed commitment, a
   server decodes and v-delivers the full value.

Step 3 always terminates: AVID agreement means all honest servers
eventually complete and send valid blocks, and ``k <= n - t``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.avid.disperse import AvidServer
from repro.avid.disperse import disperse as _disperse
from repro.common.ids import PartyId
from repro.common.serialization import encode
from repro.config import SystemConfig
from repro.net.message import Message
from repro.net.process import Process

MSG_BLOCK = "vrbc-block"

DeliverCallback = Callable[[str, PartyId, bytes], None]


def v_broadcast(process: Process, tag: str, value: bytes,
                config: SystemConfig) -> None:
    """Verifiably r-broadcast a (possibly large) value: disperse it."""
    _disperse(process, tag, value, config)


@dataclass
class _Instance:
    commitment: Any = None
    client: Optional[PartyId] = None
    #: valid blocks grouped by the commitment they verified against —
    #: Byzantine servers may send blocks under fabricated commitments,
    #: which must never mix with the completed one's group.
    blocks: Dict[bytes, Dict[int, bytes]] = field(default_factory=dict)
    delivered: bool = False

    def group(self) -> Dict[int, bytes]:
        if self.commitment is None:
            return {}
        return self.blocks.setdefault(encode(self.commitment), {})


class VerifiableBroadcastServer:
    """Server component of AVID-RBC.

    ``deliver(tag, sender_client, value)`` fires once per instance with
    the full reconstructed value.  Owns its AVID component; attach one
    per server process.
    """

    def __init__(self, process: Process, config: SystemConfig,
                 deliver: DeliverCallback):
        self._process = process
        self._config = config
        self._deliver = deliver
        self._instances: Dict[str, _Instance] = {}
        self.avid = AvidServer(process, config, self._on_complete)
        process.on(MSG_BLOCK, self._on_block)

    def _instance(self, tag: str) -> _Instance:
        if tag not in self._instances:
            self._instances[tag] = _Instance()
        return self._instances[tag]

    # -- protocol steps -----------------------------------------------------

    def _on_complete(self, tag: str, commitment: Any, client: PartyId,
                     block: bytes, witness: Any) -> None:
        instance = self._instance(tag)
        instance.commitment = commitment
        instance.client = client
        instance.group()[self._process.pid.index] = block
        self._process.send_to_servers(tag, MSG_BLOCK, commitment, block,
                                      witness)
        self._try_deliver(tag, instance)

    def _on_block(self, message: Message) -> None:
        if not message.sender.is_server or len(message.payload) != 3:
            return
        instance = self._instance(message.tag)
        if instance.delivered:
            return
        commitment, block, witness = message.payload
        index = message.sender.index
        if not self._config.commitment_scheme.verify(commitment, index,
                                                     block, witness):
            return
        instance.blocks.setdefault(encode(commitment),
                                   {}).setdefault(index, block)
        self._try_deliver(message.tag, instance)

    def _try_deliver(self, tag: str, instance: _Instance) -> None:
        if instance.delivered or instance.commitment is None:
            return
        group = instance.group()
        if len(group) < self._config.k:
            return
        # Every block in the group verified against the agreed, completed
        # commitment, which the dispersal's verifiability check guarantees
        # to be the encoding of exactly one value — decode cannot produce
        # anything else.
        value = self._config.coder.decode(group.items())
        instance.delivered = True
        client = instance.client
        # Release buffered blocks; keep the delivery marker.
        self._instances[tag] = _Instance(
            commitment=instance.commitment, client=client, delivered=True)
        self._deliver(tag, client, value)

    # -- introspection ----------------------------------------------------------

    def delivered(self, tag: str) -> bool:
        """Whether this server has v-delivered for ``tag``."""
        instance = self._instances.get(tag)
        return bool(instance and instance.delivered)

    def storage_bytes(self) -> int:
        """Transient buffers: the AVID state plus undelivered blocks."""
        total = self.avid.storage_bytes()
        for instance in self._instances.values():
            total += sum(len(block) for block in instance.blocks.values())
        return total
