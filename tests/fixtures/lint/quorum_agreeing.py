"""Fixture: quorum arithmetic at agreeing waits (never imported).

``condition_agreeing(tag, mtype, count, key)`` counts distinct senders
as ``condition_quorum`` does, so its ``count`` is a threshold.  Line
numbers are asserted in tests/test_lint_rules.py — append only.
"""


class AgreeingReader:
    def __init__(self, config, process):
        self.config = config
        self.process = process

    def agree_literal(self, tag, key):
        # line 16: quorum-literal
        return self.process.condition_agreeing(tag, "agree", 3, key)

    def agree_off_by_one(self, tag, key):
        needed = self.config.n - self.config.t - 1
        return self.process.condition_agreeing(
            tag, "agree", needed, key)  # line 21: quorum-intersection

    def agree_sound(self, tag, key):
        return self.process.condition_agreeing(
            tag, "agree", self.config.quorum, key=key)

    def feed(self, recipient, tag):
        self.process.send(recipient, tag, "agree", b"")
