"""Fixture: send and receive sites beyond ``send`` and ``on`` (never
imported).

Every message type here is both sent and received, so the handler pack
must stay silent on this module: ``simulator.enqueue(sender,
recipient, tag, mtype, ...)`` is a send site, ``condition_agreeing`` a
receive site, and methods of the same names on other receivers are
neither.
"""

MSG_QUEUED = "queued-direct"
MSG_AGREED = "agreed-reply"
MSG_JOB = "job-not-a-message"


class DirectSender:
    def __init__(self, process, simulator):
        self.process = process
        self.simulator = simulator
        self.process.on(MSG_QUEUED, self._on_queued)

    def push(self, recipient, tag, payload):
        self.simulator.enqueue(self.process.pid, recipient, tag,
                               MSG_QUEUED, payload, None)
        # not a simulator: neither a send nor a receive site
        self.jobs.enqueue(self.process.pid, recipient, tag, MSG_JOB)
        self.jobs.messages(tag, MSG_JOB)

    def _on_queued(self, message):
        pass


class AgreeingReader:
    def reply(self, recipient, tag, oid):
        self.process.send(recipient, tag, MSG_AGREED, oid)

    def read(self, tag, oid, key):
        group = yield self.process.condition_agreeing(
            tag, MSG_AGREED, self.config.quorum, key, oid=oid)
        return group
