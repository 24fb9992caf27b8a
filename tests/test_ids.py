"""Party identifiers and hierarchical tags."""

import ast
import copy
import dataclasses
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.common.ids import (
    PartyId,
    client_id,
    server_id,
    subtag,
)
from repro.common.serialization import decode, encode

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_server_and_client_rendering():
    assert str(server_id(3)) == "P3"
    assert str(client_id(12)) == "C12"


def test_kind_predicates():
    assert server_id(1).is_server and not server_id(1).is_client
    assert client_id(1).is_client and not client_id(1).is_server


def test_ordering_servers_before_clients():
    assert client_id(1) < server_id(1)  # 'client' < 'server' lexically
    assert server_id(1) < server_id(2)
    assert client_id(2) < client_id(10)


def test_ordering_is_kind_then_index():
    parties = [server_id(10), client_id(2), server_id(2), client_id(10),
               server_id(1), client_id(1)]
    for a in parties:
        for b in parties:
            key_a, key_b = (a.kind, a.index), (b.kind, b.index)
            assert (a < b) == (key_a < key_b)
            assert (a <= b) == (key_a <= key_b)
            assert (a > b) == (key_a > key_b)
            assert (a >= b) == (key_a >= key_b)
    assert sorted(parties) == [client_id(1), client_id(2), client_id(10),
                               server_id(1), server_id(2), server_id(10)]
    with pytest.raises(TypeError):
        server_id(1) < ("server", 2)


def test_invalid_kind_rejected():
    with pytest.raises(ValueError):
        PartyId("router", 1)


def test_zero_index_rejected():
    with pytest.raises(ValueError):
        server_id(0)


def test_invalid_parties_are_never_interned():
    from repro.common.ids import _PARTIES
    known = dict(_PARTIES)
    for kind, index in (("router", 1), ("server", 0), ("client", -3),
                        (["server"], 1)):
        with pytest.raises(ValueError):
            PartyId(kind, index)
    assert _PARTIES == known


def test_one_instance_per_kind_and_index():
    party = server_id(3)
    assert PartyId("server", 3) is party
    assert PartyId(kind="server", index=3) is party
    assert decode(encode(party)) is party
    assert pickle.loads(pickle.dumps(party)) is party
    assert copy.copy(party) is party
    assert copy.deepcopy({"p": [party]})["p"][0] is party
    assert dataclasses.replace(party) is party
    assert dataclasses.replace(party, kind="client") is client_id(3)
    assert PartyId("server", True) is server_id(1)
    assert PartyId("client", True) is client_id(1)
    assert type(PartyId("client", True).index) is int
    assert client_id(3) is not party


def test_wire_bytes_are_unchanged():
    """Same registered wire type, same fields: the encoding is the one
    of the plain frozen dataclass party ids used to be."""
    assert encode(server_id(3)) == (
        b"r\x00\x00\x00\x18repro.common.ids.PartyId"
        b"s\x00\x00\x00\x06server" b"i\x00\x00\x00\x01\x03")


def test_identity_hashing_and_equality_stay_in_c():
    """The ratchet: party ids are interned, so ``object``'s identity
    equality and hash are exact; a Python-level ``__eq__``/``__hash__``
    would cost a call per dict or set lookup on every message."""
    assert PartyId.__hash__ is object.__hash__
    assert PartyId.__eq__ is object.__eq__
    assert PartyId.__ne__ is object.__ne__


def test_no_party_is_allocated_outside_the_intern_table():
    """Only ``repro.common.ids`` may call ``object.__new__`` for a
    party id: an instance made anywhere else would be equal to no
    interned one."""
    sites = []
    for root in ("src", "tests", "tools", "benchmarks", "examples"):
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            if path == REPO_ROOT / "src/repro/common/ids.py":
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "__new__"
                        and isinstance(node.func.value, ast.Name)
                        and node.func.value.id == "object"
                        and node.args
                        and "PartyId" in ast.dump(node.args[0])):
                    sites.append(f"{path}:{node.lineno}")
    assert sites == []


_SCHEDULE_DIGEST = """
import hashlib, json
from repro.kv.bench import run_kv_case
_, cluster = run_kv_case(2, protocol="atomic", ops=48)
simulator = cluster.simulator
order = "\\n".join(repr((event.time, event.party, event.kind, event.tag,
                         event.action)) for event in simulator.event_log)
print(json.dumps({
    "sim_time": simulator.time,
    "total_bytes": simulator.metrics.total_bytes,
    "order_sha256": hashlib.sha256(order.encode()).hexdigest()}))
"""


def test_schedules_do_not_depend_on_the_hash_seed():
    """Party-id hashes are ``object``'s and differ between processes
    (``str`` hashes already did); a kv run's schedule must not."""
    digests = []
    for seed in ("0", "1"):
        result = subprocess.run(
            [sys.executable, "-c", _SCHEDULE_DIGEST],
            capture_output=True, text=True, timeout=300, cwd=REPO_ROOT,
            env={**os.environ, "PYTHONHASHSEED": seed,
                 "PYTHONPATH": str(REPO_ROOT / "src")})
        assert result.returncode == 0, result.stderr
        digests.append(json.loads(result.stdout))
    assert digests[0] == digests[1]
    assert digests[0]["sim_time"] > 0


def test_hashable_and_equal():
    assert server_id(2) == server_id(2)
    assert len({server_id(2), server_id(2), client_id(2)}) == 2


def test_subtag_builds_hierarchy():
    assert subtag("reg", "disp.w1") == "reg|disp.w1"
    assert subtag("a", "b", "c") == "a|b|c"


def test_subtag_rejects_empty_component():
    with pytest.raises(ValueError):
        subtag("reg", "")
