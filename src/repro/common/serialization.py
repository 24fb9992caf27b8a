"""Canonical, deterministic binary serialization.

Communication complexity in the paper (Section 2.1) is defined as the *bit
length of all messages* associated with a protocol instance.  To measure it
faithfully, every message payload in the simulator is encoded with the
canonical encoding defined here, and the byte length of the encoding is what
the metrics plane records.

The encoding is self-describing and deterministic: equal values always
produce identical byte strings (dict entries are sorted by encoded key), so
it is also safe to hash encodings for content addressing.

Supported values: ``None``, ``bool``, ``int`` (arbitrary precision),
``bytes``, ``str``, ``list``, ``tuple``, ``dict``, and any dataclass
registered with :func:`register_wire_type`.
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Any

from repro.common.errors import SerializationError
from repro.common.lru import LruCache

_U32 = struct.Struct(">I")

#: Canonical encodings memoized by value.  Protocols re-encode the same
#: grouping keys ``(commitment, client)`` / ``(value, timestamp)`` on
#: every handler activation; encoding is a pure function of the value,
#: so equal inputs may share the cached bytes.  See :func:`_cache_key`
#: for why keys are not the values themselves.  Sizing never comes
#: here: :func:`encoded_size` counts bytes without building them.  The
#: cache is process-wide; 128 entries is the smallest power of two at
#: which every kvperf workload shape encodes within 5 % of what an
#: unbounded cache encodes (docs/PERFORMANCE.md §2.13).
_ENCODE_CACHE = LruCache(capacity=128)

# Key sentinels: ``True == 1`` and ``False == 0`` in Python, but they
# encode differently (``T``/``F`` vs ``i``), so bools must map to keys
# that can never collide with ints.  The dataclass marker likewise keeps
# expanded wire-type fields from colliding with look-alike raw tuples.
_TRUE_KEY = object()
_FALSE_KEY = object()
_DATACLASS_KEY = object()


def _cache_key(value: Any) -> Any:
    """A hashable key that is equal only for identically-encoding values.

    Bools become private sentinels; tuples recurse; registered wire
    types expand to (marker, class, field keys).  Everything else is
    keyed by the value itself — unhashable inputs (lists, dicts,
    bytearrays) make the key unhashable too, which callers treat as
    "do not cache".

    Wire-type instances memoize their expanded key in their instance
    dict: they are frozen (fields never change after construction) and
    long-lived — party identities and timestamps recur in nearly every
    payload — so the expansion runs once per object, not per encode.
    """
    kind = type(value)
    if kind is bytes or kind is int or kind is str or value is None:
        return value
    if kind is bool:
        return _TRUE_KEY if value else _FALSE_KEY
    if kind is tuple:
        for item in value:
            item_kind = type(item)
            if (item_kind is not bytes and item_kind is not int
                    and item_kind is not str and item is not None):
                return tuple([_cache_key(item) for item in value])
        # A tuple of primitive leaves (no bools, no nested structure) is
        # its own key — the common case for commitment digest vectors.
        return value
    name = _WIRE_NAMES_BY_TYPE.get(kind)
    if name is not None:
        try:
            memo = value.__dict__
            return memo["_encode_cache_key"]
        except (AttributeError, KeyError):
            pass
        fields = _WIRE_TYPES_BY_NAME[name][1]
        key = (_DATACLASS_KEY, kind,
               tuple([_cache_key(getattr(value, field))
                      for field in fields]))
        try:
            # Bypasses the frozen-dataclass __setattr__ guard; invisible
            # to dataclasses.fields/eq/repr, so the wire format is
            # untouched.  Slotted classes simply skip the memo.
            memo["_encode_cache_key"] = key
        except (NameError, TypeError):  # pragma: no cover
            pass
        return key
    return value

# Registered wire types: name -> (class, field names); class -> name.
_WIRE_TYPES_BY_NAME: dict[str, tuple[type, tuple[str, ...]]] = {}
_WIRE_NAMES_BY_TYPE: dict[type, str] = {}

#: Bytes of a type tag plus a ``u32`` length or count: what every
#: ``int``/``bytes``/``str``/``list``/``tuple``/``dict`` encoding starts
#: with, ahead of its content.
_PREFIX_SIZE = 1 + _U32.size
#: class -> (bytes of the ``r`` tag and qualified-name header, field
#: names): all :func:`encoded_size` needs to size a wire type.
_WIRE_LAYOUTS: dict[type, tuple[int, tuple[str, ...]]] = {}


def register_wire_type(cls: type) -> type:
    """Class decorator: make a dataclass canonically serializable.

    The class is encoded as its qualified name plus its dataclass fields in
    declaration order.  Field values must themselves be serializable.

    Re-registering the same class is an idempotent no-op (safe under
    module reloads); re-registering the same qualified name with a
    *different* class raises :class:`SerializationError` — silently
    clobbering the registry would let two incompatible layouts decode
    each other's bytes.
    """
    if not dataclasses.is_dataclass(cls):
        raise SerializationError(f"{cls!r} is not a dataclass")
    name = f"{cls.__module__}.{cls.__qualname__}"
    existing = _WIRE_TYPES_BY_NAME.get(name)
    if existing is not None and existing[0] is not cls:
        raise SerializationError(
            f"wire type name {name!r} is already registered to "
            f"{existing[0]!r}; refusing to re-register it as {cls!r}")
    fields = tuple(f.name for f in dataclasses.fields(cls))
    _WIRE_TYPES_BY_NAME[name] = (cls, fields)
    _WIRE_NAMES_BY_TYPE[cls] = name
    _WIRE_LAYOUTS[cls] = (_PREFIX_SIZE + len(name.encode("utf-8")), fields)
    return cls


def _encode_int(value: int, out: list[bytes]) -> None:
    length = (value.bit_length() + 8) // 8  # +8 keeps a sign bit
    payload = value.to_bytes(length, "big", signed=True)
    out.append(b"i")
    out.append(_U32.pack(len(payload)))
    out.append(payload)


def _encode(value: Any, out: list[bytes]) -> None:
    if value is None:
        out.append(b"N")
    elif value is True:
        out.append(b"T")
    elif value is False:
        out.append(b"F")
    elif isinstance(value, int):
        _encode_int(value, out)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        data = bytes(value)
        out.append(b"b")
        out.append(_U32.pack(len(data)))
        out.append(data)
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out.append(b"s")
        out.append(_U32.pack(len(data)))
        out.append(data)
    elif isinstance(value, (list, tuple)):
        out.append(b"l" if isinstance(value, list) else b"t")
        out.append(_U32.pack(len(value)))
        for item in value:
            _encode(item, out)
    elif isinstance(value, dict):
        entries = sorted((encode(key), key, val) for key, val in value.items())
        out.append(b"d")
        out.append(_U32.pack(len(entries)))
        for encoded_key, _, val in entries:
            out.append(encoded_key)
            _encode(val, out)
    elif type(value) in _WIRE_NAMES_BY_TYPE:
        name = _WIRE_NAMES_BY_TYPE[type(value)]
        _, fields = _WIRE_TYPES_BY_NAME[name]
        name_bytes = name.encode("utf-8")
        out.append(b"r")
        out.append(_U32.pack(len(name_bytes)))
        out.append(name_bytes)
        for field in fields:
            _encode(getattr(value, field), out)
    else:
        raise SerializationError(
            f"cannot canonically serialize {type(value).__name__}: {value!r}"
        )


def encode(value: Any) -> bytes:
    """Return the canonical encoding of ``value``.

    Successful encodings are memoized by value (equal values always
    yield identical byte strings); unhashable or unserializable inputs
    bypass the cache.
    """
    try:
        key = _cache_key(value)
        cached = _ENCODE_CACHE.get(key)
    except TypeError:  # unhashable somewhere inside: encode directly
        key = cached = None
    if cached is not None:
        return cached
    out: list[bytes] = []
    _encode(value, out)
    data = b"".join(out)
    if key is not None:
        _ENCODE_CACHE.put(key, data)
    return data


def _size(value: Any) -> int:
    """The walk behind :func:`encoded_size` (which see).

    It recurses through this private name, so that a wrapper installed
    around the public function (kvperf's timing spans) sees one call per
    value sized, not one per node.
    """
    kind = type(value)
    if kind is bytes:
        return _PREFIX_SIZE + len(value)
    if kind is str:
        if value.isascii():
            return _PREFIX_SIZE + len(value)
        return _PREFIX_SIZE + len(value.encode("utf-8"))
    if kind is int:
        return _PREFIX_SIZE + (value.bit_length() + 8) // 8
    if value is None or kind is bool:
        return 1
    if kind is tuple or kind is list:
        # Leaf items (a commitment's n digests, a message's tag and
        # ints) are sized here, like the primitive leaves of _cache_key:
        # one call per nested structure, not one per item.
        total = _PREFIX_SIZE
        for item in value:
            item_kind = type(item)
            if item_kind is bytes:
                total += _PREFIX_SIZE + len(item)
            elif item_kind is int:
                total += _PREFIX_SIZE + (item.bit_length() + 8) // 8
            elif item_kind is str and item.isascii():
                total += _PREFIX_SIZE + len(item)
            elif item is None:
                total += 1
            else:
                total += _size(item)
        return total
    layout = _WIRE_LAYOUTS.get(kind)
    if layout is None:
        return len(encode(value))
    try:
        return value.__dict__["_encoded_size"]
    except (AttributeError, KeyError):
        pass
    total, fields = layout
    for field in fields:
        total += _size(getattr(value, field))
    try:
        # Bypasses the frozen-dataclass __setattr__ guard, like the
        # memo of _cache_key; slotted classes simply skip it.
        value.__dict__["_encoded_size"] = total
    except AttributeError:
        pass
    return total


def encoded_size(value: Any) -> int:
    """Return ``len(encode(value))`` — the value's wire size in bytes —
    without building the encoding.

    Walks the same grammar as :func:`_encode` and adds up lengths.  Only
    exact builtin types and registered wire types are walked; anything
    else (dicts, whose canonical order needs the encoded keys, buffer
    types, subclasses, unserializable values) is handed to
    :func:`encode`, which stays the one definition of the format and of
    its :class:`SerializationError`.

    Wire-type instances memoize their size in their instance dict, like
    :func:`_cache_key` does and for the same reason: they are frozen,
    and identities and timestamps recur in nearly every payload.
    """
    return _size(value)


def int_size(value: int) -> int:
    """``encoded_size`` of an exact ``int``, by arithmetic alone: its
    header plus its two's-complement bytes (the int branch of the walk,
    for callers that size known ints per message)."""
    return _PREFIX_SIZE + (value.bit_length() + 8) // 8


def composite_size(kind: type, parts_size: int) -> int:
    """Encoded size of a ``kind`` — ``tuple`` or a registered wire
    type — whose items or fields encode to ``parts_size`` bytes in
    total.

    Lets callers that already know their parts' sizes (a kv envelope of
    sized entries) compose the size of the whole without walking it and
    without knowing the header layout.
    """
    if kind is tuple:
        return _PREFIX_SIZE + parts_size
    layout = _WIRE_LAYOUTS.get(kind)
    if layout is None:
        raise SerializationError(f"{kind!r} is not a registered wire type")
    return layout[0] + parts_size


class _Decoder:
    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def _take(self, count: int) -> bytes:
        end = self._pos + count
        if end > len(self._data):
            raise SerializationError("truncated encoding")
        chunk = self._data[self._pos : end]
        self._pos = end
        return chunk

    def _take_u32(self) -> int:
        return _U32.unpack(self._take(4))[0]

    def decode(self) -> Any:
        tag = self._take(1)
        if tag == b"N":
            return None
        if tag == b"T":
            return True
        if tag == b"F":
            return False
        if tag == b"i":
            return int.from_bytes(self._take(self._take_u32()), "big", signed=True)
        if tag == b"b":
            return self._take(self._take_u32())
        if tag == b"s":
            return self._take(self._take_u32()).decode("utf-8")
        if tag == b"l":
            return [self.decode() for _ in range(self._take_u32())]
        if tag == b"t":
            return tuple(self.decode() for _ in range(self._take_u32()))
        if tag == b"d":
            count = self._take_u32()
            result = {}
            for _ in range(count):
                key = self.decode()
                result[key] = self.decode()
            return result
        if tag == b"r":
            name = self._take(self._take_u32()).decode("utf-8")
            try:
                cls, fields = _WIRE_TYPES_BY_NAME[name]
            except KeyError:
                raise SerializationError(f"unknown wire type {name!r}") from None
            values = {field: self.decode() for field in fields}
            return cls(**values)
        raise SerializationError(f"unknown type tag {tag!r}")

    def finished(self) -> bool:
        return self._pos == len(self._data)


def decode(data: bytes) -> Any:
    """Decode a value previously produced by :func:`encode`."""
    decoder = _Decoder(data)
    value = decoder.decode()
    if not decoder.finished():
        raise SerializationError("trailing bytes after encoding")
    return value
