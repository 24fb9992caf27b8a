"""Fixture: a payload class imported under another name (never
imported).

Line numbers are asserted in tests/test_lint_rules.py — append only.
"""

from wire_violations import UnregisteredPayload as Body


class AliasSender:
    def __init__(self, process):
        self.process = process

    def publish(self, recipient, tag):
        # line 16: wire-unregistered (``Body`` is UnregisteredPayload)
        self.process.send(recipient, tag, "publish", Body(1))
