"""Exception hierarchy for the repro library.

All library-specific errors derive from :class:`ReproError` so applications
can catch everything from this package with a single ``except`` clause.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A protocol or subsystem was configured with invalid parameters.

    Examples: an ``(n, k)`` erasure code with ``k > n``, a register protocol
    instantiated with ``n <= 3t``, or a threshold scheme with ``t >= n``.
    """


class SerializationError(ReproError):
    """A value could not be canonically serialized or deserialized."""


class DecodingError(ReproError):
    """An erasure decode was attempted with insufficient or invalid blocks."""


class CryptoError(ReproError):
    """Base class for cryptographic failures."""


class InvalidSignature(CryptoError):
    """A signature or signature share failed verification."""


class InvalidShare(CryptoError):
    """A threshold-signature share failed share verification."""


class DealingError(CryptoError):
    """Threshold key generation (dealing) failed or was misused."""


class ProtocolError(ReproError):
    """A protocol received a message that violates its specification.

    Honest parties never raise this for messages from other honest parties;
    it signals either Byzantine input that must be discarded or a bug.
    """


class SimulationError(ReproError):
    """The network simulator was driven into an invalid state."""


class LivenessError(SimulationError):
    """A run ended while an operation invoked at an honest client is pending.

    Raised by test harnesses that require every invoked operation to
    terminate (the wait-freedom property of Definition 1).

    ``stats`` carries the counters the raising loop had accumulated
    when it stalled — :func:`repro.kv.cluster.drive` sets it to the
    dictionary it would have returned — so a harness can still report
    them; ``None`` where no loop was counting.
    """

    def __init__(self, *args, stats=None):
        super().__init__(*args)
        self.stats = stats


class BackpressureError(SimulationError):
    """A key-value session refused a new operation because its queue is full.

    Raised by :class:`repro.kv.session.KvSession` when admission control
    rejects an enqueue instead of growing the operation queue without
    bound; callers should drain in-flight operations (drive the simulator)
    and resubmit.
    """


class AtomicityViolation(ReproError):
    """A recorded history admits no valid atomic (linearizable) total order."""
