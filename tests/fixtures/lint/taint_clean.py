"""Fixture: taint flows that are properly sanitized (never imported).

Every handler here verifies or type-checks byzantine payload data
before it reaches a sink — the taint pack must stay silent on this
whole module.
"""


class CleanServer:
    def __init__(self, coder, scheme):
        self.coder = coder
        self.scheme = scheme
        self.state = {}
        self.on("store", self._on_store)
        self.on("reply", self._on_reply)
        self.on("gather", self._on_gather)

    def _on_store(self, message):
        commitment, block, witness = message.payload
        if not self.scheme.verify(commitment, 1, block, witness):
            return
        self.state["stored"] = block            # verified: clean

    def _on_reply(self, message):
        (oid,) = message.payload
        if not isinstance(oid, str):
            return
        self.send(message.sender, message.tag, "ack", oid)  # typed: clean

    def _on_gather(self, message):
        # Sends built purely from trusted local state stay clean even
        # inside a handler.
        self.send_to_servers(message.tag, "sync", self.state.get("stored"))

    def run_round(self, tag, expected):
        replies = yield self.condition_quorum(
            tag, "vote", 3,
            where=lambda m: isinstance(m.payload[0], int))
        # The where= predicate validates payloads, so quorum results
        # are sanitized collections.
        for reply in replies:
            self.state["vote"] = reply.payload[0]

    def run_declared_round(self, tag, oid):
        replies = yield self.condition_quorum(
            tag, "vote", 3, oid=oid,
            where=lambda m: m.sender.is_server)
        # Naming the operation is the index's equality pin on
        # payload[0], so the bucket's messages are sanitized like any
        # the predicate had pinned itself.
        for reply in replies:
            self.state["vote"] = reply.payload[0]
