"""Fixture: deliberate handler-completeness violations (never imported).

Line numbers are asserted in tests/test_lint_rules.py — append only.
"""

MSG_GHOST = "ghost-request"
MSG_NEVER = "never-sent"
MSG_PING = "ping"


class BadDispatch:
    def __init__(self, process):
        self.process = process
        self.process.on(MSG_NEVER, self._on_never)  # line 14: handler-orphan
        self.process.on(MSG_PING, self._on_ping)

    def poke(self, recipient, tag):
        # line 18: handler-unhandled
        self.process.send(recipient, tag, MSG_GHOST, b"?")
        self.process.send(recipient, tag, MSG_PING, b"!")

    def _on_never(self, message):
        pass

    def _on_ping(self, message):
        pass


MSG_DECLARED = "declared-reply"
MSG_DECLARED_NEVER = "declared-never-sent"


class DeclaredWait:
    def ask(self, recipient, tag, oid, check):
        # The reply's only receive site is the bucket the wait declares.
        self.process.send(recipient, tag, MSG_DECLARED, oid)
        yield WaitState(check, (tag, MSG_DECLARED, oid))
        yield WaitState(check, (tag, MSG_DECLARED_NEVER, oid))  # line 38
