"""Canonical serialization: roundtrips, determinism, error handling."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import SerializationError
from repro.common.ids import PartyId, client_id, server_id
from repro.common.serialization import (
    composite_size,
    decode,
    encode,
    encoded_size,
    register_wire_type,
)
from repro.core.timestamps import Timestamp
from repro.kv.envelope import KvEntry


def test_roundtrip_primitives():
    for value in (None, True, False, 0, -1, 42, 2 ** 200, -(2 ** 200),
                  b"", b"bytes", "", "text", "uniçode"):
        assert decode(encode(value)) == value


def test_roundtrip_containers():
    value = [1, (2, 3), {"a": b"x", "b": [None, True]}, "s"]
    assert decode(encode(value)) == value


def test_list_and_tuple_distinct():
    assert encode([1, 2]) != encode((1, 2))
    assert decode(encode((1, 2))) == (1, 2)
    assert decode(encode([1, 2])) == [1, 2]


def test_dict_key_order_is_canonical():
    assert encode({"a": 1, "b": 2}) == encode({"b": 2, "a": 1})


def test_int_bool_distinct():
    assert encode(1) != encode(True)
    assert encode(0) != encode(False)


def test_str_bytes_distinct():
    assert encode("abc") != encode(b"abc")


def test_registered_dataclass_roundtrip():
    timestamp = Timestamp(7, "op-3")
    assert decode(encode(timestamp)) == timestamp


def test_party_id_roundtrip():
    for pid in (server_id(3), client_id(12)):
        assert decode(encode(pid)) == pid


def test_nested_wire_types():
    value = {"ts": Timestamp(1, "a"), "who": server_id(2)}
    assert decode(encode(value)) == value


def test_unserializable_raises():
    with pytest.raises(SerializationError):
        encode(object())


def test_unserializable_float_raises():
    with pytest.raises(SerializationError):
        encode(3.14)


def test_truncated_data_raises():
    data = encode([1, 2, 3])
    with pytest.raises(SerializationError):
        decode(data[:-1])


def test_trailing_bytes_raises():
    with pytest.raises(SerializationError):
        decode(encode(1) + b"x")


def test_unknown_tag_raises():
    with pytest.raises(SerializationError):
        decode(b"zjunk")


def test_register_non_dataclass_rejected():
    with pytest.raises(SerializationError):
        register_wire_type(int)


def test_unknown_wire_type_name_raises():
    @register_wire_type
    @dataclasses.dataclass(frozen=True)
    class Transient:
        x: int

    data = encode(Transient(1))
    corrupted = data.replace(b"Transient", b"Transieee")
    with pytest.raises(SerializationError):
        decode(corrupted)


@register_wire_type
@dataclasses.dataclass(frozen=True)
class Nested:
    """A wire type holding arbitrary values, other wire types included."""

    label: str
    items: tuple
    inner: object = None


# Every length-prefix boundary of the int encoding: the byte count grows
# at +-2^(8k-1), so probe both sides of each.
_INT_BOUNDARIES = [sign * (2 ** (8 * k - 1)) + delta
                   for k in range(1, 10) for sign in (1, -1)
                   for delta in (-1, 0, 1)]

party_ids = st.builds(PartyId, st.sampled_from(["server", "client"]),
                      st.integers(min_value=1, max_value=2 ** 40))
timestamps = st.builds(Timestamp, st.integers(min_value=0),
                       st.text(max_size=8))

leaves = (
    st.none() | st.booleans() | st.integers()
    | st.sampled_from(_INT_BOUNDARIES)
    | st.binary(max_size=64)
    | st.binary(max_size=64).map(bytearray)
    | st.binary(max_size=64).map(memoryview)
    | st.text(max_size=32)  # hypothesis text is full unicode, not ASCII
    | party_ids | timestamps
)


def _containers(children):
    payloads = st.lists(children, max_size=4).map(tuple)
    entries = st.builds(
        KvEntry, shard=st.integers(0, 99), tag=st.text(max_size=8),
        mtype=st.text(max_size=8), payload=payloads,
        msg_id=st.integers(0, 2 ** 33),
        depth=st.integers(0, 300),
        cause_id=st.none() | st.integers(0, 2 ** 33))
    return (st.lists(children, max_size=4) | payloads
            | st.dictionaries(st.text(max_size=8), children, max_size=4)
            # a bool next to an int: True == 1, but 1 byte against 6
            | st.tuples(st.booleans(), st.integers(0, 1), children)
            | entries
            | st.builds(Nested, st.text(max_size=8), payloads, children))


wire_values = st.recursive(leaves, _containers, max_leaves=20)


@given(wire_values)
def test_roundtrip_property(value):
    assert decode(encode(value)) == value


@given(wire_values, wire_values)
def test_determinism_and_injectivity(a, b):
    assert encode(a) == encode(a)
    if encode(a) == encode(b):
        assert a == b


def test_reregistering_same_class_is_idempotent():
    @register_wire_type
    @dataclasses.dataclass(frozen=True)
    class Stable:
        x: int

    assert register_wire_type(Stable) is Stable
    assert decode(encode(Stable(3))) == Stable(3)


def test_duplicate_name_with_different_class_rejected():
    @register_wire_type
    @dataclasses.dataclass(frozen=True)
    class Original:
        x: int

    @dataclasses.dataclass(frozen=True)
    class Impostor:
        x: int
        y: int

    Impostor.__qualname__ = Original.__qualname__
    with pytest.raises(SerializationError):
        register_wire_type(Impostor)
    # The registry still decodes the original layout.
    assert decode(encode(Original(5))) == Original(5)


# -- size-only walk -------------------------------------------------------------
#
# ``encoded_size`` never builds bytes; ``encode`` is the reference it must
# agree with on every value the grammar admits, and fail like on the rest.

@given(wire_values)
def test_encoded_size_matches_encode(value):
    assert encoded_size(value) == len(encode(value))
    # Wire types memoize their size on first walk: ask again.
    assert encoded_size(value) == len(encode(value))


@given(wire_values, st.sampled_from([3.14, object(), {1, 2}, Ellipsis]))
def test_encoded_size_fails_like_encode(value, alien):
    for unserializable in (alien, (value, alien), [value, (alien,)],
                           Nested("n", (value,), alien)):
        with pytest.raises(SerializationError) as from_encode:
            encode(unserializable)
        with pytest.raises(SerializationError) as from_size:
            encoded_size(unserializable)
        assert str(from_size.value) == str(from_encode.value)


def test_encoded_size_rejects_subclasses_of_wire_types_like_encode():
    class Sub(Timestamp):
        pass

    for function in (encode, encoded_size):
        with pytest.raises(SerializationError):
            function(Sub(1, "a"))


def test_slotted_wire_types_are_sized_without_a_memo():
    @register_wire_type
    @dataclasses.dataclass(frozen=True, slots=True)
    class Slotted:
        x: int
        y: bytes

    value = Slotted(300, b"ab")
    assert encoded_size(value) == encoded_size(value) == len(encode(value))


def test_composite_size_adds_the_header_to_the_parts():
    parts = [7, b"abc", "text", server_id(2)]
    parts_size = sum(encoded_size(part) for part in parts)
    assert composite_size(tuple, parts_size) == len(encode(tuple(parts)))
    timestamp = Timestamp(7, "op-3")
    assert composite_size(
        Timestamp, encoded_size(7) + encoded_size("op-3")
    ) == len(encode(timestamp))
    with pytest.raises(SerializationError):
        composite_size(dict, 0)
