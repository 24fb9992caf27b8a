"""Wait-state condition builders: the agreeing quorum of every register
read, and predicates that run once per message."""

import itertools
from collections import Counter

from repro.common.ids import client_id, server_id
from repro.net.message import Message
from repro.net.process import Process

_ids = itertools.count()


def _value(sender, key, extra=b"", oid="r1"):
    return Message(tag="t", mtype="value", sender=server_id(sender),
                   recipient=client_id(1), payload=(oid, key, extra),
                   msg_id=next(_ids))


def _key(message):
    return message.payload[1]


def _deliver(process, condition, *messages):
    """Buffer ``messages`` one by one, re-checking after each as the
    pump would; returns the last verdict."""
    result = None
    for message in messages:
        process.inbox.add(message)
        result = condition()
    return result


def test_agreeing_returns_the_first_group_to_reach_count():
    process = Process(client_id(1))
    agreeing = process.condition_agreeing("t", "value", 3, _key, oid="r1")
    s1a, s2b, s3b, s4a, s1b = (_value(1, "A"), _value(2, "B"),
                               _value(3, "B"), _value(4, "A"),
                               _value(1, "B"))
    assert _deliver(process, agreeing, s1a, s2b, s3b, s4a) is None
    # s1's forward of the newer version completes B, in arrival order
    assert _deliver(process, agreeing, s1b) == [s2b, s3b, s1b]


def test_agreeing_orders_groups_by_their_first_arrival():
    process = Process(client_id(1))
    messages = [_value(2, "B"), _value(1, "A"), _value(3, "B"),
                _value(4, "A")]
    for message in messages:
        process.inbox.add(message)
    # both groups have two senders when the wait is first checked: B
    # arrived first, so B is the group returned
    agreeing = process.condition_agreeing("t", "value", 2, _key, oid="r1")
    assert agreeing() == [messages[0], messages[2]]


def test_a_sender_joins_each_group_once():
    process = Process(client_id(1))
    agreeing = process.condition_agreeing("t", "value", 2, _key, oid="r1")
    first, repeat = _value(1, "A"), _value(1, "A", extra=b"other block")
    # one sender twice under one key is one member, not two
    assert _deliver(process, agreeing, first, repeat) is None
    forward, other = _value(1, "B"), _value(2, "B")
    assert _deliver(process, agreeing, forward, other) == [forward, other]
    # s1 sits in A and in B, with its first message of each
    third = _value(3, "A")
    assert _deliver(process, agreeing, third) == [first, third]


def test_agreeing_honours_where_and_oid():
    process = Process(client_id(1))
    agreeing = process.condition_agreeing(
        "t", "value", 2, _key, oid="r1",
        where=lambda m: m.payload[2] != b"forged")
    assert _deliver(process, agreeing, _value(1, "A"),
                    _value(2, "A", extra=b"forged"),
                    _value(3, "A", oid="r2")) is None
    assert _deliver(process, agreeing, _value(4, "A")) is not None


def test_where_and_key_run_once_per_message():
    """However often the wait state is re-checked — here after each of
    five arrivals — its predicate and key see each message once, so a
    predicate's verification-failure report fires once per message."""
    process = Process(client_id(1))
    where_calls, key_calls = Counter(), Counter()

    def where(message):
        where_calls[message.msg_id] += 1
        return message.payload[2] != b"bad"

    def key(message):
        key_calls[message.msg_id] += 1
        return message.payload[1]

    agreeing = process.condition_agreeing("t", "value", 3, key,
                                          where=where, oid="r1")
    quorum = process.condition_quorum("t", "value", 5, where=where,
                                      oid="r1")
    first = process.condition_quorum(
        "t", "value", 1, where=lambda m: where(m) and m.payload[1] == "C",
        oid="r1")
    messages = [_value(1, "A"), _value(2, "B", extra=b"bad"),
                _value(3, "A"), _value(4, "B"), _value(5, "A")]
    for message in messages:
        process.inbox.add(message)
        agreeing(), quorum(), first()
    ids = [message.msg_id for message in messages]
    # once for the agreeing wait, once for the quorum wait and once
    # for the one-message quorum: each builder keeps its own verdicts
    assert [where_calls[i] for i in ids] == [3] * 5
    # the key never runs on a message ``where`` rejected
    assert [key_calls[i] for i in ids] == [1, 0, 1, 1, 1]
    assert agreeing() == [messages[0], messages[2], messages[4]]
