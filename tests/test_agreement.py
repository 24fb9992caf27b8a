"""The randomized agreement stack: coin, binary agreement, common subset,
atomic broadcast."""

import pytest

from repro.agreement.acs import CommonSubset
from repro.agreement.atomic_broadcast import AtomicBroadcast
from repro.agreement.binary import BinaryAgreement
from repro.agreement.coin import CommonCoin
from repro.common.ids import server_id
from repro.config import SystemConfig
from repro.net.process import Process
from repro.net.schedulers import RandomScheduler
from repro.net.simulator import Simulator


def _network(host_cls, n=4, t=1, seed=0, crashed=0, backend="ideal"):
    config = SystemConfig(n=n, t=t, seed=seed,
                          threshold_backend=backend)
    simulator = Simulator(scheduler=RandomScheduler(seed))
    hosts = []
    for j in range(1, n + 1):
        if j <= crashed:
            from repro.faults.byzantine_servers import CrashServer
            hosts.append(simulator.add_process(
                CrashServer(server_id(j), config)))
        else:
            hosts.append(simulator.add_process(
                host_cls(server_id(j), config)))
    return simulator, hosts, config


# -- common coin ----------------------------------------------------------------

class CoinHost(Process):
    def __init__(self, pid, config):
        super().__init__(pid)
        self.coins = {}
        self.coin = CommonCoin(self, config, self._ready)

    def _ready(self, name, bit):
        assert name not in self.coins
        self.coins[name] = bit


def _honest(hosts, cls):
    return [host for host in hosts if isinstance(host, cls)]


def test_coin_same_value_everywhere():
    simulator, hosts, _ = _network(CoinHost)
    for host in hosts:
        host.coin.flip(("round", 1))
    simulator.run()
    values = {host.coins[("round", 1)] for host in hosts}
    assert len(values) == 1
    assert values.pop() in (0, 1)


def test_coin_independent_names():
    simulator, hosts, _ = _network(CoinHost, seed=3)
    for name in (("a", 1), ("a", 2), ("b", 1)):
        for host in hosts:
            host.coin.flip(name)
    simulator.run()
    for name in (("a", 1), ("a", 2), ("b", 1)):
        assert len({host.coins[name] for host in hosts}) == 1


def test_coin_joins_lagging_servers():
    """A single flipper suffices: shares prompt others to contribute."""
    simulator, hosts, _ = _network(CoinHost, seed=5)
    hosts[0].coin.flip(("solo", 1))
    simulator.run()
    assert all(("solo", 1) in host.coins for host in hosts)


def test_coin_with_t_crashed():
    simulator, hosts, _ = _network(CoinHost, crashed=1, seed=7)
    for host in _honest(hosts, CoinHost):
        host.coin.flip(("r", 1))
    simulator.run()
    values = {host.coins[("r", 1)]
              for host in _honest(hosts, CoinHost)}
    assert len(values) == 1


def test_coin_with_shoup_backend():
    simulator, hosts, _ = _network(CoinHost, seed=1, backend="shoup")
    for host in hosts:
        host.coin.flip(("r", 9))
    simulator.run()
    assert len({host.coins[("r", 9)] for host in hosts}) == 1


# -- binary agreement --------------------------------------------------------------

class AbaHost(Process):
    def __init__(self, pid, config):
        super().__init__(pid)
        self.decisions = {}
        self.aba = BinaryAgreement(self, config, self._decided)

    def _decided(self, instance_id, value):
        assert instance_id not in self.decisions
        self.decisions[instance_id] = value


def _run_aba(inputs, seed, crashed=0, n=4, t=1):
    simulator, hosts, _ = _network(AbaHost, n=n, t=t, seed=seed,
                                   crashed=crashed)
    honest = _honest(hosts, AbaHost)
    for host, bit in zip(honest, inputs):
        host.aba.provide_input("x", bit)
    simulator.run(max_steps=400_000)
    decisions = {host.decisions.get("x") for host in honest}
    assert len(decisions) == 1 and None not in decisions
    return decisions.pop()


@pytest.mark.parametrize("seed", range(5))
def test_aba_unanimous_validity(seed):
    """All-same inputs must decide that value (validity)."""
    assert _run_aba([1, 1, 1, 1], seed) == 1
    assert _run_aba([0, 0, 0, 0], seed) == 0


@pytest.mark.parametrize("seed", range(8))
def test_aba_mixed_inputs_agree(seed):
    assert _run_aba([0, 1, 1, 0], seed) in (0, 1)


@pytest.mark.parametrize("seed", range(4))
def test_aba_with_crashed_server(seed):
    assert _run_aba([1, 1, 1], seed, crashed=1) == 1


def test_aba_larger_group():
    assert _run_aba([1] * 7, seed=2, n=7, t=2) == 1


def test_aba_decision_query():
    simulator, hosts, _ = _network(AbaHost, seed=0)
    assert "x" not in hosts[0].decisions
    for host in hosts:
        host.aba.provide_input("x", 1)
    simulator.run(max_steps=400_000)
    assert hosts[0].decisions["x"] == 1


def test_aba_multiple_instances():
    simulator, hosts, _ = _network(AbaHost, seed=4)
    for host in hosts:
        host.aba.provide_input("a", 1)
        host.aba.provide_input("b", 0)
    simulator.run(max_steps=400_000)
    for host in hosts:
        assert host.decisions["a"] == 1
        assert host.decisions["b"] == 0


# -- common subset --------------------------------------------------------------------

class AcsHost(Process):
    def __init__(self, pid, config):
        super().__init__(pid)
        self.outputs = {}
        self.acs = CommonSubset(self, config, self._done)

    def _done(self, session, accepted):
        assert session not in self.outputs
        self.outputs[session] = accepted


@pytest.mark.parametrize("seed", range(5))
def test_acs_agreement(seed):
    simulator, hosts, _ = _network(AcsHost, seed=seed)
    for j, host in enumerate(hosts, start=1):
        host.acs.propose("s", f"from-{j}")
    simulator.run(max_steps=600_000)
    outputs = [host.outputs["s"] for host in hosts]
    assert all(output == outputs[0] for output in outputs)
    assert len(outputs[0]) >= 3  # n - t proposals make the cut
    for index, proposal in outputs[0].items():
        assert proposal == f"from-{index}"


def test_acs_with_crashed_server():
    simulator, hosts, _ = _network(AcsHost, crashed=1, seed=2)
    honest = _honest(hosts, AcsHost)
    for host in honest:
        host.acs.propose("s", str(host.pid))
    simulator.run(max_steps=600_000)
    outputs = [host.outputs["s"] for host in honest]
    assert all(output == outputs[0] for output in outputs)
    assert len(outputs[0]) >= 2  # n - 2t honest proposals at least


# -- atomic broadcast -------------------------------------------------------------------

class AbcHost(Process):
    def __init__(self, pid, config):
        super().__init__(pid)
        self.log = []
        self.abc = AtomicBroadcast(self, config, self._deliver)

    def _deliver(self, sequence, request):
        assert sequence == len(self.log) + 1
        self.log.append(request)


@pytest.mark.parametrize("seed", range(4))
def test_abc_total_order(seed):
    simulator, hosts, _ = _network(AbcHost, seed=seed)
    # Different servers receive different requests.
    hosts[0].abc.submit(("op", 1))
    hosts[1].abc.submit(("op", 2))
    hosts[2].abc.submit(("op", 3))
    simulator.run(max_steps=800_000)
    logs = [tuple(host.log) for host in hosts]
    assert all(log == logs[0] for log in logs)
    assert set(logs[0]) >= {("op", 1)} or len(logs[0]) >= 1


def test_abc_submit_to_all_is_delivered_once():
    simulator, hosts, _ = _network(AbcHost, seed=1)
    for host in hosts:
        host.abc.submit(("op", "shared"))
    simulator.run(max_steps=800_000)
    for host in hosts:
        assert host.log.count(("op", "shared")) == 1


def test_abc_multiple_rounds():
    simulator, hosts, _ = _network(AbcHost, seed=3)
    for host in hosts:
        host.abc.submit(("round1", "x"))
    simulator.run(max_steps=800_000)
    first_len = len(hosts[0].log)
    assert first_len >= 1
    for host in hosts:
        host.abc.submit(("round2", "y"))
    simulator.run(max_steps=800_000)
    logs = [tuple(host.log) for host in hosts]
    assert all(log == logs[0] for log in logs)
    assert ("round2", "y") in logs[0]
    assert logs[0].index(("round2", "y")) >= first_len - 1
