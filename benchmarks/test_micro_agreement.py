"""Agreement-stack microbenchmarks (real timing): what one consensus
instance costs the simulator — context for F13's message counts."""

from repro.agreement.acs import CommonSubset
from repro.agreement.binary import BinaryAgreement
from repro.common.ids import server_id
from repro.config import SystemConfig
from repro.net.process import Process
from repro.net.schedulers import RandomScheduler
from repro.net.simulator import Simulator


class AbaHost(Process):
    def __init__(self, pid, config):
        super().__init__(pid)
        self.decisions = {}
        self.aba = BinaryAgreement(self, config,
                                   self.decisions.__setitem__)


class AcsHost(Process):
    def __init__(self, pid, config):
        super().__init__(pid)
        self.outputs = {}
        self.acs = CommonSubset(self, config, self.outputs.__setitem__)


def test_bench_one_aba_instance(benchmark):
    counter = [0]

    def run_instance():
        counter[0] += 1
        seed = counter[0]
        config = SystemConfig(n=4, t=1, seed=seed)
        simulator = Simulator(scheduler=RandomScheduler(seed))
        hosts = [simulator.add_process(AbaHost(server_id(j), config))
                 for j in range(1, 5)]
        for host, bit in zip(hosts, (1, 0, 1, 0)):
            host.aba.provide_input("x", bit)
        simulator.run(max_steps=600_000)
        return hosts[0].decisions["x"]

    value = benchmark(run_instance)
    assert value in (0, 1)


def test_bench_one_acs_session(benchmark):
    counter = [0]

    def run_session():
        counter[0] += 1
        seed = counter[0]
        config = SystemConfig(n=4, t=1, seed=seed)
        simulator = Simulator(scheduler=RandomScheduler(seed))
        hosts = [simulator.add_process(AcsHost(server_id(j), config))
                 for j in range(1, 5)]
        for j, host in enumerate(hosts, start=1):
            host.acs.propose("s", f"p{j}")
        simulator.run(max_steps=800_000)
        return hosts[0].outputs["s"]

    accepted = benchmark(run_session)
    assert len(accepted) >= 3
