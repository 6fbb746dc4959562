"""Differential tests of the flat network state against per-link objects.

``MeshNetwork`` and ``TLCController`` keep their links' busy-until
cycles in plain lists and walk a message's route inline.  They replaced
a model with one link object per directed link, whose ``send`` the mesh
called once per hop and the controller once per message.  That model
is kept here as the oracle — its link, its per-hop mesh walk with
lazily created links, and its per-pair controller links — in the way
``test_prewarm.py`` keeps the per-block install.

Hypothesis message sequences must give the oracle's arrival cycles
after every message, and its meter, energy and gauge accounting at the
end; and every design must simulate identically with
the oracle patched in.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.storage import result_to_dict
from repro.core.config import TLC_BASE, TLC_OPT_350, build_design
from repro.core.controller import TLCController
from repro.interconnect.mesh import MeshNetwork
from repro.interconnect.message import flits_for_bits
from repro.obs.manifest import RunObserver
from repro.obs.registry import MetricsRegistry
from repro.sim.system import run_system


class OracleLink:
    """One unidirectional link as a busy-until FIFO, occupied one cycle
    per flit; ``send`` returns ``(start, first_arrival, last_arrival)``."""

    def __init__(self, width_bits, flight_cycles, meter):
        self.width_bits = width_bits
        self.flight_cycles = flight_cycles
        self.meter = meter
        self.busy_until = 0
        self.bits_sent = 0
        self.transfers = 0

    def send(self, time, message_bits, contend=True):
        flits = flits_for_bits(message_bits, self.width_bits)
        if contend:
            start = max(time, self.busy_until)
            self.busy_until = start + flits
        else:
            start = time
        self.bits_sent += message_bits
        self.transfers += 1
        self.meter.busy(flits)
        return (start, start + self.flight_cycles,
                start + flits - 1 + self.flight_cycles)


class OracleMesh(MeshNetwork):
    """The mesh as one OracleLink per ``(kind, column, index, direction)``
    key, created when a route first uses it and sent once per hop."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._links = {}
        self._link_routes = {}

    def _link(self, key):
        link = self._links.get(key)
        if link is None:
            link = OracleLink(self.flit_bits, self.hop_latency, self.meter)
            self._links[key] = link
        return link

    def _route_keys(self, column, position, outbound):
        links = []
        centre_right = self.columns // 2
        direction = 1 if outbound else -1
        if column >= centre_right:
            for j in range(centre_right, column):
                links.append(("h", j, 0, direction))
        else:
            for j in range(centre_right - 2, column - 1, -1):
                links.append(("h", j, 0, -direction))
        for r in range(position):
            links.append(("v", column, r, direction))
        if not outbound:
            links.reverse()
        return links

    def send(self, column, position, time, message_bits, outbound,
             contend=True):
        key = (column, position, outbound)
        links = self._link_routes.get(key)
        if links is None:
            links = [self._link(k)
                     for k in self._route_keys(column, position, outbound)]
            self._link_routes[key] = links
        flits = flits_for_bits(message_bits, self.flit_bits)
        head = time
        for link in links:
            head = link.send(head, message_bits, contend)[1]
        self.bit_hops += message_bits * len(links)
        self.switch_traversals += len(links)
        return head, head + flits - 1

    def transfer_between(self, column, upper_position, time, message_bits,
                         upward):
        key = ("v", column, upper_position - 1, 1 if upward else -1)
        _start, first, last = self._link(key).send(time, message_bits)
        self.bit_hops += message_bits
        self.switch_traversals += 1
        return first, last

    def register_metrics(self, scope):
        scope.register("util", self.meter)
        scope.gauge("bit_hops", lambda: self.bit_hops)
        scope.gauge("switch_traversals", lambda: self.switch_traversals)
        scope.gauge("links_touched", lambda: len(self._links))
        scope.gauge("links_total", lambda: self.meter.resources)


class OracleController(TLCController):
    """The controller with one OracleLink per pair and direction."""

    def __init__(self, config, *args, **kwargs):
        super().__init__(config, *args, **kwargs)
        self.request_links = [OracleLink(config.request_link_bits, 1,
                                         self.meter)
                              for _ in range(config.pairs)]
        self.response_links = [OracleLink(config.response_link_bits, 1,
                                          self.meter)
                               for _ in range(config.pairs)]

    def send_request(self, pair, time, bits, contend=True):
        _start, first, last = self.request_links[pair].send(
            time + self._request_delays[pair], bits, contend)
        self._energy_j += bits * self._energy_per_bit[pair]
        return first, last

    def send_response(self, pair, time, bits, contend=True):
        _start, first, _last = self.response_links[pair].send(
            time, bits, contend)
        self._energy_j += bits * self._energy_per_bit[pair]
        return first + self._response_delays[pair]

    def register_metrics(self, scope):
        scope.register("util", self.meter)
        for pair, links in enumerate(zip(self.request_links,
                                         self.response_links)):
            for link, label in zip(links, ("req", "resp")):
                link_scope = scope.scope(f"pair{pair:02d}.{label}")
                link_scope.gauge("bits_sent", lambda link=link: link.bits_sent)
                link_scope.gauge("transfers", lambda link=link: link.transfers)

    def reset_counters(self):
        self.meter.reset()
        self._energy_j = 0.0
        for link in self.request_links + self.response_links:
            link.bits_sent = 0
            link.transfers = 0


def accounting(network):
    """Everything a run reads back from a network besides arrivals."""
    registry = MetricsRegistry()
    network.register_metrics(registry.scope("net"))
    return registry.snapshot(), network.energy_j()


#: The paper's message sizes (request, block, request + block) plus odd
#: sizes that leave a partial last flit.
SIZES = st.sampled_from([64, 512, 576]) | st.integers(1, 700)

#: (time step, promotion hop?, column, position, bits, outbound, contend,
#: reset counters after it?) — reduced modulo the mesh geometry.
mesh_messages = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 7), st.integers(0, 15),
              st.integers(0, 15), SIZES, st.booleans(), st.booleans(),
              st.integers(0, 15)),
    min_size=1, max_size=80)

#: (time step, request?, pair, bits, contend, reset counters after it?).
controller_messages = st.lists(
    st.tuples(st.integers(0, 12), st.booleans(), st.integers(0, 15), SIZES,
              st.booleans(), st.integers(0, 15)),
    min_size=1, max_size=80)


@pytest.mark.parametrize("columns, rows, hop_latency", [
    (16, 16, 1),  # DNUCA
    (8, 4, 2),    # SNUCA2
])
@settings(max_examples=60, deadline=None)
@given(messages=mesh_messages)
def test_mesh_matches_per_hop_oracle(columns, rows, hop_latency, messages):
    mesh = MeshNetwork(columns, rows, flit_bits=128, hop_latency=hop_latency)
    oracle = OracleMesh(columns, rows, flit_bits=128, hop_latency=hop_latency)
    time = 0
    for (step, kind, column, position, bits, outbound, contend,
         reset) in messages:
        time += step
        column %= columns
        if kind == 0:  # a DNUCA promotion hop
            upper = 1 + position % (rows - 1)
            got = mesh.transfer_between(column, upper, time, bits, outbound)
            want = oracle.transfer_between(column, upper, time, bits,
                                           outbound)
        else:
            position %= rows
            got = mesh.send(column, position, time, bits, outbound, contend)
            want = oracle.send(column, position, time, bits, outbound,
                               contend)
        assert got == want
        if reset == 0:
            mesh.reset_counters()
            oracle.reset_counters()
    assert accounting(mesh) == accounting(oracle)


@pytest.mark.parametrize("config", [TLC_BASE, TLC_OPT_350],
                         ids=lambda config: config.name)
@settings(max_examples=60, deadline=None)
@given(messages=controller_messages)
def test_controller_matches_per_link_oracle(config, messages):
    controller = TLCController(config)
    oracle = OracleController(config)
    time = 0
    for step, request, pair, bits, contend, reset in messages:
        time += step
        pair %= config.pairs
        if request:
            got = controller.send_request(pair, time, bits, contend)
            want = oracle.send_request(pair, time, bits, contend)
        else:
            got = controller.send_response(pair, time, bits, contend)
            want = oracle.send_response(pair, time, bits, contend)
        assert got == want
        if reset == 0:
            controller.reset_counters()
            oracle.reset_counters()
    assert accounting(controller) == accounting(oracle)


def observed_run(design, workload):
    observer = RunObserver()
    result = run_system(design, workload, n_refs=2_000, seed=7,
                        observer=observer)
    return result_to_dict(result), observer.manifest.metrics


@pytest.mark.parametrize("workload", ["mcf", "swim"])
@pytest.mark.parametrize("design", ["TLC", "TLCopt1000", "TLCopt500",
                                    "TLCopt350", "SNUCA2", "DNUCA"])
def test_designs_simulate_identically_with_the_oracle(design, workload,
                                                      monkeypatch):
    plain = observed_run(design, workload)
    monkeypatch.setattr("repro.core.tlc.TLCController", OracleController)
    monkeypatch.setattr("repro.core.tlc_opt.TLCController", OracleController)
    monkeypatch.setattr("repro.nuca.snuca.MeshNetwork", OracleMesh)
    monkeypatch.setattr("repro.nuca.dnuca.MeshNetwork", OracleMesh)
    assert isinstance(build_design(design).network,
                      (OracleController, OracleMesh))
    assert observed_run(design, workload) == plain
