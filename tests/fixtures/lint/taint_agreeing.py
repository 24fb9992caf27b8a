"""Fixture: an agreeing group is a taint source (never imported).

``yield condition_agreeing(...)`` resumes with messages from other
parties, like ``condition_quorum``: clean only when the wait names its
operation with ``oid=`` or its ``where=`` predicate validates.  Line
numbers are pinned in tests/test_lint_flow.py — append only.
"""


class AgreeingReader:
    def __init__(self):
        self.state = {}

    def read_undeclared(self, tag, key):
        group = yield self.condition_agreeing(tag, "agreed-vote",
                                              self.quorum, key)
        self.state["agreed"] = group[0].payload[0]  # line 17: unverified

    def read_declared(self, tag, oid, key):
        group = yield self.condition_agreeing(tag, "agreed-vote",
                                              self.quorum, key, oid=oid)
        self.state["agreed"] = group[0].payload[0]  # pinned by the index

    def vote(self, recipient, tag):
        self.send(recipient, tag, "agreed-vote", b"")
