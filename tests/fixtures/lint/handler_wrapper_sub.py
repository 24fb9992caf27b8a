"""Fixture: a subclass passes message constants to its base's helper,
and the matching handler and reply sit in another class (never
imported).

Line numbers are asserted in tests/test_lint_rules.py — append only.
"""

from handler_wrapper_base import RoundClientBase

MSG_ASK = "wrapped-ask"
MSG_ANSWER = "wrapped-answer"


class AskingClient(RoundClientBase):
    def ask(self, tag, oid):
        # line 16: a send of MSG_ASK and a wait on MSG_ANSWER
        replies = yield from self._round(tag, oid, MSG_ASK, MSG_ANSWER)
        return replies


class AnsweringServer:
    def __init__(self):
        self.on(MSG_ASK, self._on_ask)

    def _on_ask(self, message):
        self.send(message.sender, message.tag, MSG_ANSWER, "oid")
