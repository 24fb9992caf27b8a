"""Network substrate: messages, inbox, metrics, schedulers."""

import pytest
from hypothesis import given, strategies as st

from repro.common.ids import client_id, server_id
from repro.common.serialization import encode
from repro.net import message as message_module
from repro.net.inbox import Inbox
from repro.net.message import Message, content_wire_size
from repro.net.metrics import Metrics
from repro.net.schedulers import (
    FifoScheduler,
    PartitionScheduler,
    PriorityScheduler,
    RandomScheduler,
    SlowPartiesScheduler,
    make_scheduler,
)


def _msg(tag="reg", mtype="ping", sender=1, recipient=2, payload=(),
         msg_id=0, sender_kind="server"):
    sender_pid = server_id(sender) if sender_kind == "server" \
        else client_id(sender)
    return Message(tag=tag, mtype=mtype, sender=sender_pid,
                   recipient=server_id(recipient), payload=payload,
                   msg_id=msg_id)


# -- Message -----------------------------------------------------------------

def test_wire_size_counts_payload_not_addressing():
    small = _msg(payload=(1,))
    big = _msg(payload=(b"x" * 1000,))
    assert big.wire_size() > small.wire_size() + 900
    assert _msg(sender=1).wire_size() == _msg(sender=2).wire_size()


def test_unhashable_payloads_are_sized_uncached():
    content = ("reg", "ping", ([1, 2], b"x"))
    assert content_wire_size(*content) == len(encode(content))
    assert _msg(payload=content[2]).wire_size() == len(encode(content))
    # ``True == 1`` but they encode to 1 and 6 bytes: sizing the one
    # must never answer for its equal twin.
    for twin in ((1,), (True,), (1,)):
        assert content_wire_size("reg", "m", twin) == \
            len(encode(("reg", "m", twin)))


def test_type_error_inside_sizing_is_not_mistaken_for_unhashable(
        monkeypatch):
    calls = []

    def broken(content):
        calls.append(content)
        raise TypeError("bug inside sizing")

    monkeypatch.setattr(message_module, "encoded_size", broken)
    with pytest.raises(TypeError, match="bug inside sizing"):
        content_wire_size("reg", "sized-nowhere-else", (1,))
    assert len(calls) == 1  # raised once, not swallowed and re-run


def test_message_str():
    assert "P1" in str(_msg())


# -- Inbox --------------------------------------------------------------------

def test_inbox_query_by_tag_and_type():
    inbox = Inbox()
    inbox.add(_msg(tag="a", mtype="x", msg_id=1))
    inbox.add(_msg(tag="a", mtype="y", msg_id=2))
    inbox.add(_msg(tag="b", mtype="x", msg_id=3))
    assert len(inbox) == 3
    assert [m.msg_id for m in inbox.messages("a", "x")] == [1]
    assert inbox.messages("c", "x") == []


def test_inbox_where_filter():
    inbox = Inbox()
    inbox.add(_msg(payload=("w1",), msg_id=1))
    inbox.add(_msg(payload=("w2",), msg_id=2))
    found = inbox.messages("reg", "ping",
                           where=lambda m: m.payload[0] == "w2")
    assert [m.msg_id for m in found] == [2]


def test_inbox_distinct_senders():
    inbox = Inbox()
    inbox.add(_msg(sender=1, msg_id=1))
    inbox.add(_msg(sender=1, msg_id=2))  # duplicate sender
    inbox.add(_msg(sender=2, msg_id=3))
    assert inbox.count_distinct("reg", "ping") == 2
    assert inbox.senders("reg", "ping") == {server_id(1), server_id(2)}


def test_first_per_sender_takes_earliest():
    inbox = Inbox()
    inbox.add(_msg(sender=1, payload=("old",), msg_id=1))
    inbox.add(_msg(sender=1, payload=("new",), msg_id=2))
    inbox.add(_msg(sender=2, payload=("only",), msg_id=3))
    firsts = inbox.first_per_sender("reg", "ping")
    assert [m.msg_id for m in firsts] == [1, 3]


def test_first_per_sender_filter_applies_before_dedup():
    inbox = Inbox()
    inbox.add(_msg(sender=1, payload=("bad",), msg_id=1))
    inbox.add(_msg(sender=1, payload=("good",), msg_id=2))
    firsts = inbox.first_per_sender(
        "reg", "ping", where=lambda m: m.payload[0] == "good")
    assert [m.msg_id for m in firsts] == [2]


# -- Metrics -----------------------------------------------------------------

def test_metrics_aggregation_by_prefix():
    metrics = Metrics()
    metrics.record(_msg(tag="reg", payload=(b"x" * 10,)))
    metrics.record(_msg(tag="reg|disp.w1", payload=(b"x" * 100,)))
    metrics.record(_msg(tag="reg|rbc.w1", payload=(b"x" * 20,)))
    metrics.record(_msg(tag="other", payload=(b"x",)))
    assert metrics.message_complexity("reg") == 3
    assert metrics.message_complexity("reg|disp.w1") == 1
    assert metrics.message_complexity("other") == 1
    assert metrics.total_messages == 4
    # Prefix matching must not catch sibling tags that share characters.
    metrics.record(_msg(tag="regular", payload=()))
    assert metrics.message_complexity("reg") == 3


def test_metrics_bytes_and_snapshot():
    metrics = Metrics()
    before = metrics.snapshot()
    message = _msg(payload=(b"payload",))
    metrics.record(message)
    after = metrics.snapshot()
    assert after[0] - before[0] == 1
    assert after[1] - before[1] == message.wire_size()
    assert metrics.communication_complexity("reg") == message.wire_size()


def test_metrics_by_mtype():
    metrics = Metrics()
    metrics.record(_msg(mtype="echo"))
    metrics.record(_msg(mtype="echo"))
    metrics.record(_msg(mtype="ready"))
    assert metrics.messages_by_mtype("reg") == {"echo": 2, "ready": 1}


# -- Schedulers ----------------------------------------------------------------

def _pending(count):
    return [_msg(msg_id=i, sender=(i % 3) + 1) for i in range(count)]


def test_fifo_scheduler():
    scheduler = FifoScheduler()
    assert scheduler.choose(_pending(5)) == 0


def test_random_scheduler_deterministic():
    sequence_a = [RandomScheduler(7).choose(_pending(10)) for _ in range(1)]
    sequence_b = [RandomScheduler(7).choose(_pending(10)) for _ in range(1)]
    assert sequence_a == sequence_b


def test_random_scheduler_in_range():
    scheduler = RandomScheduler(3)
    for _ in range(50):
        assert 0 <= scheduler.choose(_pending(4)) < 4


def test_priority_scheduler_starves_matching():
    scheduler = PriorityScheduler(lambda m: m.sender == server_id(1),
                                  seed=0)
    pending = _pending(6)
    for _ in range(20):
        index = scheduler.choose(pending)
        assert pending[index].sender != server_id(1)


def test_priority_scheduler_falls_back():
    scheduler = PriorityScheduler(lambda m: True, seed=0)
    assert 0 <= scheduler.choose(_pending(3)) < 3


def test_slow_parties_scheduler():
    scheduler = SlowPartiesScheduler({server_id(2)}, seed=1)
    pending = [_msg(msg_id=i, sender=(i % 3) + 1, recipient=(i % 4) + 3)
               for i in range(8)]
    for _ in range(20):
        chosen = pending[scheduler.choose(pending)]
        assert server_id(2) not in (chosen.sender, chosen.recipient)


def test_slow_parties_scheduler_fallback_when_all_slow():
    scheduler = SlowPartiesScheduler({server_id(2)}, seed=1)
    pending = [_msg(msg_id=i, sender=2, recipient=2) for i in range(3)]
    assert 0 <= scheduler.choose(pending) < 3


def test_make_scheduler_factory():
    assert isinstance(make_scheduler("fifo"), FifoScheduler)
    assert isinstance(make_scheduler("random", seed=1), RandomScheduler)
    assert isinstance(
        make_scheduler("priority", deprioritize=lambda m: False),
        PriorityScheduler)
    with pytest.raises(ValueError):
        make_scheduler("priority")
    with pytest.raises(ValueError):
        make_scheduler("quantum")


def test_make_scheduler_slow_parties():
    """Regression: the factory used to have no way to build the
    adversarial scheduler classes, so experiment configs could not
    express them."""
    scheduler = make_scheduler("slow-parties", seed=1,
                               slow_parties={server_id(2)})
    assert isinstance(scheduler, SlowPartiesScheduler)
    pending = [_msg(msg_id=i, sender=(i % 3) + 1, recipient=(i % 4) + 3)
               for i in range(8)]
    chosen = pending[scheduler.choose(pending)]
    assert server_id(2) not in (chosen.sender, chosen.recipient)
    with pytest.raises(ValueError):
        make_scheduler("slow-parties")


def test_make_scheduler_partition():
    scheduler = make_scheduler("partition", seed=2,
                               group={server_id(1)}, heal_after=5)
    assert isinstance(scheduler, PartitionScheduler)
    assert not scheduler.healed
    # heal_after is mandatory: a permanent partition would violate
    # eventual delivery.
    with pytest.raises(ValueError):
        make_scheduler("partition", group={server_id(1)})
    with pytest.raises(ValueError):
        make_scheduler("partition", heal_after=5)


def test_priority_scheduler_standalone_then_tracked_stays_consistent():
    """Regression: ``note_pop`` used to decrement the pending counters
    for messages only ever *classified* by a standalone ``choose`` call,
    driving ``_pending_total`` negative and desyncing the incremental
    fast path for the rest of the run."""
    scheduler = PriorityScheduler(lambda m: m.sender == server_id(1),
                                  seed=0)
    stray = _msg(msg_id=100, sender=2)
    # Standalone use: classify without note_enqueue.
    scheduler.choose([stray])
    # A simulator-style pop of the same message must not be counted.
    scheduler.note_pop(stray)
    assert scheduler._pending_total == 0
    assert scheduler._pending_preferred == 0
    # Tracked operation afterwards still agrees with the pending bag, so
    # the incremental path stays active and in range.
    pending = _pending(4)
    for message in pending:
        scheduler.note_enqueue(message)
    assert scheduler._pending_total == len(pending)
    index = scheduler.choose(pending)
    assert 0 <= index < len(pending)
    assert pending[index].sender != server_id(1)
    popped = pending.pop(index)
    scheduler.note_pop(popped)
    assert scheduler._pending_total == len(pending)
