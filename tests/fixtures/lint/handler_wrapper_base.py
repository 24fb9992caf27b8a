"""Fixture: a base class whose helper sends and waits on message types
its callers pass in (never imported).

``handler_wrapper_sub`` passes the constants; the handler pack takes
the helper's send and receive sites from those call sites.
"""


class RoundClientBase:
    def _round(self, tag, oid, request, reply):
        self.send_to_servers(tag, request, oid)
        return (yield self.condition_quorum(tag, reply, self.quorum,
                                            oid=oid))
