"""Property-based tests for mesh routing invariants."""

from hypothesis import given, settings, strategies as st

from repro.interconnect.mesh import MeshNetwork
from repro.interconnect.message import REQUEST_BITS

coords = st.tuples(st.integers(0, 15), st.integers(0, 15))


def link_coordinates(mesh, link):
    """``(kind, column, row)`` of a link id: the ``2 * (columns - 1)``
    horizontal edge links come first (``column`` is the gap's left
    column), then each column's vertical links, two per row gap."""
    horizontal = 2 * (mesh.columns - 1)
    if link < horizontal:
        return "h", link // 2, 0
    column, row = divmod((link - horizontal) // 2, mesh.rows - 1)
    return "v", column, row


@settings(max_examples=100, deadline=None)
@given(coords)
def test_route_length_equals_hop_count(coord):
    """The routed path has exactly hops_to(column, position) links."""
    mesh = MeshNetwork(columns=16, rows=16, flit_bits=128)
    column, position = coord
    route = mesh.route(column, position, outbound=True)
    assert len(route) == mesh.hops_to(column, position)


@settings(max_examples=100, deadline=None)
@given(coords)
def test_route_is_connected(coord):
    """Links form a connected chain: horizontal prefix along the edge,
    then a vertical run up the destination column."""
    mesh = MeshNetwork(columns=16, rows=16, flit_bits=128)
    column, position = coord
    links = [link_coordinates(mesh, link)
             for link in mesh.route(column, position, outbound=True)]
    vertical = [key for key in links if key[0] == "v"]
    horizontal = [key for key in links if key[0] == "h"]
    # All vertical links belong to the destination column, rows 0..p-1.
    assert all(key[1] == column for key in vertical)
    assert sorted(key[2] for key in vertical) == list(range(position))
    # Horizontal links precede vertical ones on the outbound route.
    if horizontal and vertical:
        first_vertical = links.index(vertical[0])
        assert all(links.index(h) < first_vertical for h in horizontal)


@settings(max_examples=60, deadline=None)
@given(coords, coords)
def test_uncontended_latency_triangle(a, b):
    """Farther banks are never faster (monotone in hop count)."""
    mesh = MeshNetwork(columns=16, rows=16, flit_bits=128)
    la = mesh.uncontended_latency(*a, bank_cycles=3)
    lb = mesh.uncontended_latency(*b, bank_cycles=3)
    if mesh.hops_to(*a) <= mesh.hops_to(*b):
        assert la <= lb


@settings(max_examples=60, deadline=None)
@given(coords, st.integers(0, 3))
def test_round_trip_uses_disjoint_directed_links(coord, _seed):
    """Outbound and inbound legs never share a directed link, so a
    response cannot queue behind its own request."""
    mesh = MeshNetwork(columns=16, rows=16, flit_bits=128)
    column, position = coord
    out = mesh.route(column, position, outbound=True)
    back = mesh.route(column, position, outbound=False)
    assert not set(out) & set(back)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15),
                          st.integers(0, 100)), min_size=1, max_size=25))
def test_timing_never_precedes_send(messages):
    """No transfer arrives before it was sent plus its minimum flight."""
    mesh = MeshNetwork(columns=16, rows=16, flit_bits=128)
    messages = sorted(messages, key=lambda m: m[2])
    for column, position, time in messages:
        first, last = mesh.send(column, position, time, REQUEST_BITS,
                                outbound=True)
        hops = len(mesh.route(column, position, outbound=True))
        assert first >= time + hops * mesh.hop_latency
        assert last >= first
