"""Party identifiers and protocol-instance tags.

The system model (paper, Section 2.1) has ``n`` servers ``P_1 .. P_n`` and an
unbounded set of clients ``C_1, C_2, ...``.  Every protocol instance is
identified by a unique string *tag* ``ID``; sub-protocol instances carry the
caller's tag as a prefix (e.g. ``ID|disp.oid`` for the Disperse instance of
the write with operation identifier ``oid``).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from repro.common.serialization import register_wire_type

SERVER = "server"
CLIENT = "client"

#: Separator between the components of hierarchical tags.
TAG_SEP = "|"


#: The one :class:`PartyId` per ``(kind, index)``, filled on first use.
#: Process-wide on purpose: an entry is immutable, and the same
#: whichever caller made it first.
_PARTIES: dict[tuple[str, int], PartyId] = {}


@register_wire_type
@dataclass(frozen=True, eq=False, init=False)
class PartyId:
    """Identity of a server or client process.

    ``PartyId`` values are ordered by ``(kind, index)`` — so every client
    comes before every server, ``'client' < 'server'`` — hashable, and
    render as the paper's names ``P<j>`` / ``C<i>``.

    There is exactly one instance per ``(kind, index)``: every way of
    making one (the constructor, :func:`server_id`/:func:`client_id`,
    decoding, ``dataclasses.replace``, pickling and copying) returns it.
    Equality is therefore identity and hashing is ``object``'s, both
    done in C: party ids key nearly every per-message structure in the
    simulator (inboxes, quorum sets, mux routing, metrics).  No schedule
    can depend on the hash values, which differ between processes.
    """

    kind: str
    index: int

    def __new__(cls, kind: str, index: int) -> PartyId:
        try:
            return _PARTIES[kind, index]
        except (KeyError, TypeError):  # new, invalid or unhashable
            pass
        if kind not in (SERVER, CLIENT):
            raise ValueError(f"unknown party kind: {kind!r}")
        index = operator.index(index)  # a decoded ``True`` becomes 1
        if index < 1:
            raise ValueError("party indices are 1-based")
        party = object.__new__(cls)
        # Frozen: the fields and the kind flags (which handlers branch
        # on per delivery) are written once, here.  The flags live in
        # ``__dict__``, invisible to dataclass fields, repr and the wire
        # format.
        memo = party.__dict__
        memo["kind"] = kind
        memo["index"] = index
        memo["is_server"] = kind == SERVER
        memo["is_client"] = kind == CLIENT
        _PARTIES[kind, index] = party
        return party

    def __reduce__(self):
        return PartyId, (self.kind, self.index)

    def __copy__(self) -> PartyId:
        return self

    def __deepcopy__(self, memo) -> PartyId:
        return self

    def __lt__(self, other: object) -> bool:
        if other.__class__ is not PartyId:
            return NotImplemented
        return (self.kind, self.index) < (other.kind, other.index)

    def __le__(self, other: object) -> bool:
        if other.__class__ is not PartyId:
            return NotImplemented
        return (self.kind, self.index) <= (other.kind, other.index)

    def __gt__(self, other: object) -> bool:
        if other.__class__ is not PartyId:
            return NotImplemented
        return (self.kind, self.index) > (other.kind, other.index)

    def __ge__(self, other: object) -> bool:
        if other.__class__ is not PartyId:
            return NotImplemented
        return (self.kind, self.index) >= (other.kind, other.index)

    def __str__(self) -> str:
        prefix = "P" if self.is_server else "C"
        return f"{prefix}{self.index}"

    def __repr__(self) -> str:
        return str(self)


def server_id(j: int) -> PartyId:
    """Return the identity of server ``P_j`` (1-based, as in the paper)."""
    return PartyId(SERVER, j)


def client_id(i: int) -> PartyId:
    """Return the identity of client ``C_i`` (1-based, as in the paper)."""
    return PartyId(CLIENT, i)


def subtag(tag: str, *components: str) -> str:
    """Build a sub-protocol tag with the caller's tag as prefix.

    ``subtag("reg", "disp.oid7")`` returns ``"reg|disp.oid7"``, matching the
    paper's notation ``ID|disp.oid``.
    """
    for component in components:
        if not component:
            raise ValueError("tag components must be non-empty")
    return TAG_SEP.join((tag, *components))
