"""Every network entry point rejects an index off the network.

The mesh and the TLC controller keep their link state in plain lists,
where a negative index would silently use the last link.  Each entry
point range-checks its bank, hop or pair and raises ``IndexError``
before it accounts any traffic.
"""

import pytest

from repro.core.config import TLC_BASE
from repro.core.controller import TLCController
from repro.interconnect.mesh import MeshNetwork
from repro.interconnect.message import REQUEST_BITS
from repro.obs.registry import MetricsRegistry

COLUMNS, ROWS, PAIRS = 8, 4, TLC_BASE.pairs


def build(kind):
    if kind == "mesh":
        return MeshNetwork(COLUMNS, ROWS, flit_bits=128, hop_latency=2)
    return TLCController(TLC_BASE)


def accounting(network):
    registry = MetricsRegistry()
    network.register_metrics(registry.scope("net"))
    return registry.snapshot(), network.energy_j()


def mesh_cases():
    for column, position in ((-1, 0), (COLUMNS, 0), (0, -1), (0, ROWS)):
        yield pytest.param(
            "mesh", lambda mesh, c=column, p=position: mesh.send(
                c, p, 0, REQUEST_BITS, outbound=True),
            id=f"send-column{column}-position{position}")
    for column, upper in ((-1, 1), (COLUMNS, 1), (0, -1), (0, ROWS)):
        yield pytest.param(
            "mesh", lambda mesh, c=column, u=upper: mesh.transfer_between(
                c, u - 1, u, 0, REQUEST_BITS),
            id=f"transfer_between-column{column}-upper{upper}")


def controller_cases():
    for pair in (-1, PAIRS):
        for contend in (True, False):
            yield pytest.param(
                "controller", lambda tlc, p=pair, k=contend: tlc.send_request(
                    p, 0, REQUEST_BITS, k),
                id=f"send_request-pair{pair}-contend{contend}")
            yield pytest.param(
                "controller", lambda tlc, p=pair, k=contend: tlc.send_response(
                    p, 0, REQUEST_BITS, k),
                id=f"send_response-pair{pair}-contend{contend}")


@pytest.mark.parametrize("kind, call", [*mesh_cases(), *controller_cases()])
def test_out_of_range_index_raises(kind, call):
    network = build(kind)
    with pytest.raises(IndexError):
        call(network)
    assert accounting(network) == accounting(build(kind))
