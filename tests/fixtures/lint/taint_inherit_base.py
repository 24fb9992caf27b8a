"""Fixture: a handler inherited across modules (never imported).

``RelayBase._on_relay`` re-sends ``message.payload[0]`` unchecked.  No
``on()`` in this module names it; ``taint_inherit_sub.RelayServer``
registers it, so the taint pack must still seed its message parameter
and report the send here.
"""


class RelayBase:
    def _on_relay(self, message):
        oid = message.payload[0]
        self.send(message.sender, message.tag, "relay", oid)    # line 13
