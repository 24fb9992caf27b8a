"""Regression: re-entrant thread pumping (a resumed thread starting a new
thread that pumps) must not corrupt the parked-thread list."""

from repro.common.ids import server_id
from repro.net.process import Process
from repro.net.simulator import Simulator


class Nester(Process):
    """Thread A waits for a message; when resumed it starts thread B,
    whose start pumps while A's resume is still on the stack — with
    thread C also parked and satisfiable at that moment."""

    def __init__(self, pid):
        super().__init__(pid)
        self.order = []
        self.ready = False

    def start(self):
        self.start_thread(self._thread_a())
        self.start_thread(self._thread_c())

    def _thread_a(self):
        yield self.condition_quorum("t", "go", 1)
        self.order.append("A")
        self.ready = True  # makes C satisfiable
        self.start_thread(self._thread_b())  # nested start -> nested pump
        self.order.append("A-end")

    def _thread_b(self):
        yield (lambda: True)
        self.order.append("B")

    def _thread_c(self):
        yield (lambda: self.ready)
        self.order.append("C")


def test_nested_start_thread_during_pump():
    simulator = Simulator()
    nester = simulator.add_process(Nester(server_id(1)))
    poker = simulator.add_process(Process(server_id(2)))
    nester.start()
    assert len(nester._threads) == 2
    poker.send(server_id(1), "t", "go")
    simulator.run()
    assert set(nester.order) == {"A", "A-end", "B", "C"}
    assert len(nester._threads) == 0
