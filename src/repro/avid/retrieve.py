"""Protocol Retrieve — reading back a dispersed value from AVID storage.

The AVID scheme of Cachin–Tessaro (reviewed in Appendix A of the paper)
pairs Disperse with a retrieval protocol: a client asks all servers for
their stored blocks and reconstructs the value from any ``k`` blocks that
match the commitment.  The register protocols embed an equivalent
mechanism in their read path (with timestamps and listeners); this module
provides the *standalone* retrieval, so the AVID substrate is usable as a
static verifiable storage layer on its own (and so the paper's AVID
building block is complete).

Guarantees, given a completed dispersal with commitment ``D``:

* an honest client retrieves the unique value ``F'`` bound to ``D``
  (blocks are validated against ``D``, so Byzantine servers cannot
  substitute data);
* retrieval terminates once ``n - t`` servers respond; by AVID's
  agreement property all honest servers eventually complete and hold
  valid blocks, so some commitment group reaches ``k``.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Optional, Tuple

from repro.common.serialization import encode
from repro.config import SystemConfig
from repro.net.message import Message
from repro.net.process import Process, WaitState

MSG_RETRIEVE = "avid-retrieve"
MSG_BLOCK = "avid-block"

#: done(tag, value_or_None)
RetrieveCallback = Callable[[str, Optional[bytes]], None]


class AvidRetrieverClient:
    """Client-side retrieval component.

    Attach to a client process; call :meth:`retrieve` per dispersal tag.
    ``done(tag, value)`` fires with the reconstructed value, or ``None``
    when ``n - t`` servers responded but no commitment group reached
    ``k`` valid blocks (nothing was dispersed under that tag, or the
    dispersal never completed anywhere).
    """

    def __init__(self, process: Process, config: SystemConfig,
                 done: RetrieveCallback):
        self._process = process
        self._config = config
        self._done = done
        self._rounds = itertools.count(1)
        # Block replies need no handler: they are buffered in the inbox
        # and consumed by the collection thread's wait condition.

    def retrieve(self, tag: str) -> None:
        """Start retrieving the value dispersed under ``tag``."""
        round_no = next(self._rounds)
        self._process.send_to_servers(tag, MSG_RETRIEVE, round_no)
        self._process.start_thread(self._collect(tag, round_no))

    def _collect(self, tag: str, round_no: int):
        config = self._config
        scheme = config.commitment_scheme
        process = self._process

        def matches(message: Message) -> bool:
            payload = message.payload
            return (message.sender.is_server and len(payload) == 4
                    and payload[0] == round_no)

        # check() is re-polled on every block arrival; report each
        # server's failed block verification to the tracer only once per
        # round.
        flagged = set()

        def check():
            """Done when some commitment group holds ``k`` valid blocks,
            or ``n - t`` servers answered either 'nothing stored' or a
            block that fails verification.

            Unverifiable replies count toward the negative verdict just
            like explicit misses: both come from servers that do not
            hold a validly dispersed block.  This keeps the guarantee
            that ``n - t`` replies suffice for a verdict (a Byzantine
            server sending garbage instead of staying silent must not
            force the client to wait for extra replies), and it can
            never flip the verdict of a retrievable value: after a
            completed dispersal every honest server's reply verifies
            against its commitment, so missing-or-invalid replies all
            come from the at most ``t < n - t`` faulty servers and
            never reach the quorum."""
            replies = process.inbox.first_per_sender(tag, MSG_BLOCK,
                                                     where=matches)
            groups: Dict[bytes, Dict[int, bytes]] = {}
            missing = 0
            invalid = 0
            for message in replies:
                _, commitment, block, witness = message.payload
                if commitment is None or not isinstance(block, bytes):
                    missing += 1
                    continue
                index = message.sender.index
                if scheme.verify(commitment, index, block, witness):
                    groups.setdefault(encode(commitment),
                                      {})[index] = block
                else:
                    invalid += 1
                    if message.sender not in flagged:
                        flagged.add(message.sender)
                        process.note_verification_failure(
                            tag, MSG_BLOCK, message.sender)
            for blocks in groups.values():
                if len(blocks) >= config.k:
                    try:
                        return ("value", config.coder.decode(
                            blocks.items()))
                    except Exception:
                        continue  # inconsistent group: keep waiting
            if missing + invalid >= config.quorum:
                return ("missing", None)
            return None

        verdict, value = yield WaitState(check, (tag, MSG_BLOCK, None))
        self._done(tag, value)


class AvidStorageServer:
    """Server-side retrieval component backed by completed dispersals.

    Wire it to the same process as an
    :class:`~repro.avid.disperse.AvidServer` and record completions via
    :meth:`store` (typically from the AVID ``complete`` callback).
    """

    def __init__(self, process: Process, config: SystemConfig):
        self._process = process
        self._config = config
        self._stored: Dict[str, Tuple[Any, bytes, Any]] = {}
        process.on(MSG_RETRIEVE, self._on_retrieve)

    def store(self, tag: str, commitment: Any, block: bytes,
              witness: Any) -> None:
        """Record a completed dispersal under its tag."""
        self._stored[tag] = (commitment, block, witness)

    def stored_tags(self):
        """Tags with a stored block, sorted."""
        return sorted(self._stored)

    def _on_retrieve(self, message: Message) -> None:
        if len(message.payload) != 1:
            return
        (round_no,) = message.payload
        if not isinstance(round_no, int):
            return  # byzantine round: never echo unverified objects back
        stored = self._stored.get(message.tag)
        if stored is None:
            # Respond anyway: retrieval quorums must not block on tags
            # this server never completed.
            self._process.send(message.sender, message.tag, MSG_BLOCK,
                               round_no, None, None, None)
            return
        commitment, block, witness = stored
        self._process.send(message.sender, message.tag, MSG_BLOCK,
                           round_no, commitment, block, witness)

    def storage_bytes(self) -> int:
        """Bytes of stored blocks (this node's share of every value)."""
        return sum(len(block) for _, block, _ in self._stored.values())
