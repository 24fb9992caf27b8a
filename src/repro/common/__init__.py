"""Shared primitives: party identifiers, tags, serialization, and errors."""

from repro.common.errors import (
    AtomicityViolation,
    ConfigurationError,
    CryptoError,
    DealingError,
    DecodingError,
    InvalidShare,
    InvalidSignature,
    LivenessError,
    ProtocolError,
    ReproError,
    SerializationError,
    SimulationError,
)
from repro.common.ids import (
    CLIENT,
    SERVER,
    PartyId,
    client_id,
    server_id,
    subtag,
)
from repro.common.serialization import (
    decode,
    encode,
    encoded_size,
    register_wire_type,
)

__all__ = [
    "AtomicityViolation",
    "ConfigurationError",
    "CryptoError",
    "DealingError",
    "DecodingError",
    "InvalidShare",
    "InvalidSignature",
    "LivenessError",
    "ProtocolError",
    "ReproError",
    "SerializationError",
    "SimulationError",
    "CLIENT",
    "SERVER",
    "PartyId",
    "client_id",
    "server_id",
    "subtag",
    "decode",
    "encode",
    "encoded_size",
    "register_wire_type",
]
