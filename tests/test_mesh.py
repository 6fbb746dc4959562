"""Tests for the 2-D switched mesh (NUCA channel network)."""

import pytest

from repro.interconnect.mesh import MeshNetwork
from repro.interconnect.message import BLOCK_BITS, REQUEST_BITS


def dnuca_mesh():
    return MeshNetwork(columns=16, rows=16, flit_bits=128, hop_latency=1)


def snuca_mesh():
    return MeshNetwork(columns=8, rows=4, flit_bits=128, hop_latency=2)


def idle_arrival(column, position, bits):
    """First-flit arrival of an outbound message sent at cycle 0 into an
    idle DNUCA mesh; an arrival past it is queueing."""
    return dnuca_mesh().send(column, position, 0, bits, outbound=True)[0]


class TestGeometry:
    def test_horizontal_distance_symmetry(self):
        mesh = dnuca_mesh()
        assert mesh.horizontal_distance(7) == 0
        assert mesh.horizontal_distance(8) == 0
        assert mesh.horizontal_distance(0) == 7
        assert mesh.horizontal_distance(15) == 7

    def test_hops_to_corner(self):
        mesh = dnuca_mesh()
        assert mesh.hops_to(0, 15) == 22
        assert mesh.hops_to(8, 0) == 0

    def test_invalid_coordinates(self):
        mesh = dnuca_mesh()
        with pytest.raises(IndexError):
            mesh.horizontal_distance(16)
        with pytest.raises(IndexError):
            mesh.hops_to(0, 16)

    def test_odd_columns_rejected(self):
        with pytest.raises(ValueError):
            MeshNetwork(columns=15, rows=4, flit_bits=128)


class TestPaperLatencyRanges:
    def test_dnuca_range_3_to_47(self):
        """Table 2: DNUCA uncontended latency spans 3-47 cycles."""
        mesh = dnuca_mesh()
        latencies = [mesh.uncontended_latency(c, p, bank_cycles=3)
                     for c in range(16) for p in range(16)]
        assert min(latencies) == 3
        assert max(latencies) == 47

    def test_snuca_range(self):
        """SNUCA2 spans 8-32 network+bank cycles (paper: 9-32 with its
        one-cycle controller overhead on the minimum)."""
        mesh = snuca_mesh()
        latencies = [mesh.uncontended_latency(c, p, bank_cycles=8)
                     for c in range(8) for p in range(4)]
        assert min(latencies) == 8
        assert max(latencies) == 32


class TestRouting:
    def test_zero_hop_message(self):
        mesh = dnuca_mesh()
        first, _ = mesh.send(8, 0, time=10, message_bits=REQUEST_BITS,
                             outbound=True)
        assert len(mesh.route(8, 0, outbound=True)) == 0
        assert first == 10

    def test_head_latency_accumulates_per_hop(self):
        mesh = dnuca_mesh()
        first, _ = mesh.send(8, 3, time=0, message_bits=REQUEST_BITS,
                             outbound=True)
        assert len(mesh.route(8, 3, outbound=True)) == 3
        assert first == 3  # 1 cycle per hop

    def test_hop_latency_parameter(self):
        mesh = snuca_mesh()
        first, _ = mesh.send(4, 1, time=0, message_bits=REQUEST_BITS,
                             outbound=True)
        assert len(mesh.route(4, 1, outbound=True)) == 1
        assert first == 2

    def test_left_and_right_routes_disjoint(self):
        mesh = dnuca_mesh()
        left = mesh.route(0, 0, outbound=True)
        right = mesh.route(15, 0, outbound=True)
        assert not set(left) & set(right)

    def test_inbound_uses_reverse_direction_links(self):
        mesh = dnuca_mesh()
        out = mesh.route(12, 2, outbound=True)
        back = mesh.route(12, 2, outbound=False)
        assert len(out) == len(back)
        assert not set(out) & set(back)

    def test_wormhole_tail_follows_head(self):
        mesh = dnuca_mesh()
        first, last = mesh.send(8, 2, 0, BLOCK_BITS, outbound=True)  # 4 flits
        assert last == first + 3


class TestContention:
    def test_overlapping_paths_queue(self):
        mesh = dnuca_mesh()
        mesh.send(15, 0, 0, BLOCK_BITS, outbound=True)
        second, _ = mesh.send(15, 0, 0, REQUEST_BITS, outbound=True)
        assert second - idle_arrival(15, 0, REQUEST_BITS) > 0

    def test_disjoint_paths_do_not_interact(self):
        mesh = dnuca_mesh()
        mesh.send(0, 15, 0, BLOCK_BITS, outbound=True)
        other, _ = mesh.send(15, 15, 0, BLOCK_BITS, outbound=True)
        assert other - idle_arrival(15, 15, BLOCK_BITS) == 0

    def test_non_contending_transfer(self):
        mesh = dnuca_mesh()
        mesh.send(15, 0, 0, BLOCK_BITS, outbound=True, contend=False)
        demand, _ = mesh.send(15, 0, 0, REQUEST_BITS, outbound=True)
        assert demand - idle_arrival(15, 0, REQUEST_BITS) == 0

    def test_transfer_between_adjacent_banks(self):
        """A one-hop swap sends one block each way over the link joining
        the two banks: two transfers, which do not wait for each other."""
        mesh = dnuca_mesh()
        last = mesh.transfer_between(5, 7, 8, time=0, message_bits=BLOCK_BITS)
        assert mesh.switch_traversals == 2  # one hop, each way
        assert last == 1 + 3  # first flit after one hop, then 4 flits

    def test_transfer_between_validates_position(self):
        mesh = dnuca_mesh()
        with pytest.raises(IndexError):
            mesh.transfer_between(5, 0, 0, 0, BLOCK_BITS)


class TestAccounting:
    def test_bit_hops_accumulate(self):
        mesh = dnuca_mesh()
        mesh.send(15, 5, 0, BLOCK_BITS, outbound=True)
        hops = len(mesh.route(15, 5, outbound=True))
        assert mesh.bit_hops == BLOCK_BITS * hops
        assert mesh.switch_traversals == hops

    def test_utilization_counts_all_links(self):
        mesh = dnuca_mesh()
        mesh.send(15, 0, 0, BLOCK_BITS, outbound=True)  # 7 hops, 4 flits
        expected_busy = len(mesh.route(15, 0, outbound=True)) * 4
        assert mesh.meter.busy_cycles == expected_busy
        assert mesh.utilization(1000) == pytest.approx(
            expected_busy / (1000 * mesh.meter.resources))

    def test_link_count(self):
        mesh = dnuca_mesh()
        # 2*(16-1) horizontal + 2*16*15 vertical directed links.
        assert mesh.meter.resources == 30 + 480
