"""Declarative taint registry: sources, sanitizers, and sinks.

The taint model mirrors the paper's safety argument: every value that
arrives from another party (erasure-coded blocks, timestamps,
cross-checksums, operation identifiers) is Byzantine-controlled until it
passes a verification step.  The registry names the three kinds of
program points the flow engine anchors on:

* **sources** — where Byzantine bytes enter: message-handler payload
  parameters (discovered from ``on(mtype, handler)`` registrations),
  ``where=`` predicate parameters, inbox queries, ``condition_quorum``
  results, and decode/unwrap helpers listed in :data:`SOURCE_CALLS`;
* **sanitizers** — verification calls that cleanse their arguments:
  commitment/Merkle/signature checks, structural validators, and
  ``isinstance``-style type guards (the latter are built into the
  engine, not listed here);
* **sinks** — where cleansed data is required: protocol state writes,
  erasure decoding, operation completion, re-broadcast to other
  parties, and dispatch into an inner process.

Registering a new sanitizer is one line in :data:`DEFAULT_SANITIZERS`
(see ``docs/LINTING.md``).  Entries are matched by the *terminal* name
of the call (``verify`` matches both ``scheme.verify`` and
``self.scheme.verify``), which keeps the registry resilient to how the
checker object is spelled at the call site.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Tuple

#: Calls whose result is Byzantine-controlled regardless of arguments —
#: wire decoding and envelope unwrapping helpers.
SOURCE_CALLS: Tuple[str, ...] = (
    "from_wire",
    "unwrap",
    "decode_envelope",
)

#: Receive-site calls whose (yielded) results are collections of
#: messages with Byzantine payloads.  ``where=`` predicates that
#: validate payload fields (see the engine's validator analysis) mark
#: the admitted messages as sanitized.
CONDITION_CALLS: Tuple[str, ...] = ("condition_quorum", "condition_message")

#: Inbox query methods (must be called on an ``inbox`` receiver).
INBOX_QUERY_CALLS: Tuple[str, ...] = ("messages", "first_per_sender")

#: Keyword by which a condition or inbox query names its operation.
#: The inbox files a message under ``payload[0]`` only when that is an
#: exact ``str``, so a declared ``oid=`` is an equality pin on
#: payload-derived data made by the index instead of the predicate.
DECLARED_OID_KEYWORD = "oid"

#: Wrapper that declares the buckets a hand-written check closure
#: reads; yielding it is yielding the closure (its first argument), and
#: the handler pack counts each declared bucket as a receive site.
WAIT_STATE_CALL = "WaitState"


@dataclass(frozen=True)
class Sanitizer:
    """One verification call the engine trusts.

    ``cleanses`` lists the positional argument indices (0-based, after
    any implicit ``self`` of the *call site* is stripped — i.e. plain
    call-argument positions) whose values are considered verified once
    the call appears in a guard.  ``None`` cleanses every argument.
    ``receiver=True`` additionally cleanses the object the method is
    called on (``entry.well_formed()`` cleanses ``entry``).
    """

    name: str
    cleanses: Tuple[int, ...] = None  # type: ignore[assignment]
    receiver: bool = False


#: The verification vocabulary of this reproduction.  Commitment
#: schemes (``scheme.verify(commitment, index, block, witness)``),
#: threshold signatures (``scheme.verify(message, signature)`` /
#: ``verify_share``), Merkle proofs, the AtomicNS timestamp-signature
#: check, and the kv envelope's structural validator.
DEFAULT_SANITIZERS: Tuple[Sanitizer, ...] = (
    Sanitizer("verify"),
    Sanitizer("verify_share"),
    Sanitizer("verify_merkle_proof"),
    Sanitizer("check_cross_checksum"),
    Sanitizer("timestamp_signature_valid"),
    # AtomicMd's read-side block check: verifies the fetched message's
    # block against the quorum-agreed cross-checksum (cleanses the
    # message argument only — the commitment is already agreed).
    Sanitizer("block_valid", cleanses=(0,)),
    Sanitizer("well_formed", cleanses=(), receiver=True),
)

#: A call whose name matches this pattern *looks like* a verification
#: helper; if it guards tainted data but is neither registered above
#: nor resolvable to a validating function, the engine emits
#: ``taint-unknown-sanitizer`` (and optimistically cleanses) so the
#: registry gap is visible instead of producing downstream noise.
SANITIZERISH_RE = re.compile(
    r"(^|_)(verify|verif|validate|valid|check|well_formed)(_|$|[a-z])")

#: Send-style sinks: the index of the first *payload* argument.
#: Everything from that position on crosses the wire to other parties,
#: so forwarding unverified Byzantine data re-broadcasts it.
#: (Recipient/tag/mtype positions are routing metadata and exempt.)
SEND_SINKS: Dict[str, int] = {
    "send": 3,
    "send_to_servers": 2,
    "r_broadcast": 2,
    "disperse": 2,
}

#: Erasure-decode sinks: feeding unverified blocks to the decoder is
#: exactly the poisonous-write vector of the paper's Section 5.
DECODE_SINKS: Tuple[str, ...] = ("decode", "decode_blocks")

#: Operation-completion sinks: values returned to the register's
#: clients must have passed the cross-checksum / commitment check.
COMPLETION_SINKS: Tuple[str, ...] = ("_finish_read", "_done", "_deliver",
                                     "_complete")

#: Dispatch sinks: injecting a reconstructed message into another
#: process's receive path.
DISPATCH_SINKS: Tuple[str, ...] = ("receive",)

#: Builtin-ish calls whose results are shape metadata, not payload
#: content — they never carry taint forward.
CLEAN_RESULT_CALLS: Tuple[str, ...] = (
    "len", "isinstance", "issubclass", "bool", "type", "callable",
    "hasattr", "range", "enumerate",
)


@dataclass(frozen=True)
class TaintRegistry:
    """The full source/sanitizer/sink configuration of one run."""

    sanitizers: Tuple[Sanitizer, ...] = DEFAULT_SANITIZERS
    source_calls: Tuple[str, ...] = SOURCE_CALLS

    def sanitizer(self, name: str) -> Sanitizer:
        """The registered sanitizer for terminal name ``name``, or
        ``None``."""
        for entry in self.sanitizers:
            if entry.name == name:
                return entry
        return None

    def is_sanitizer(self, name: str) -> bool:
        """Whether ``name`` is a registered sanitizer."""
        return self.sanitizer(name) is not None


DEFAULT_REGISTRY = TaintRegistry()
