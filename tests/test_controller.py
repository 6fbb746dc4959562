"""Tests for the central TLC controller."""

import pytest

from repro.core.config import SNUCA2, TLC_BASE, TLC_OPT_1000, TLC_OPT_350
from repro.core.controller import FLIGHT_CYCLES, TLCController
from repro.interconnect.message import BLOCK_BITS, REQUEST_BITS, flits_for_bits
from repro.obs.registry import MetricsRegistry


class TestConstruction:
    def test_one_link_pair_per_bank_pair(self):
        controller = TLCController(TLC_BASE)
        registry = MetricsRegistry()
        controller.register_metrics(registry.scope("link"))
        names = registry.names()
        assert sum(name.endswith(".req.bits_sent") for name in names) == 16
        assert sum(name.endswith(".resp.bits_sent") for name in names) == 16
        assert controller.meter.resources == 32

    def test_link_widths_follow_config(self):
        assert TLC_OPT_350.request_link_bits == 22
        assert TLC_OPT_350.response_link_bits == 44 - 22
        controller = TLCController(TLC_OPT_350)
        first, last = controller.send_request(0, 0, REQUEST_BITS)
        assert last - first == flits_for_bits(REQUEST_BITS, 22) - 1
        controller.send_response(0, 0, BLOCK_BITS)
        assert controller.meter.busy_cycles == (
            flits_for_bits(REQUEST_BITS, 22) + flits_for_bits(BLOCK_BITS, 22))

    def test_rejects_nuca_config(self):
        with pytest.raises(ValueError):
            TLCController(SNUCA2)

    def test_line_lengths_from_floorplan(self):
        controller = TLCController(TLC_BASE)
        assert len(controller._line_lengths) == 16
        assert min(controller._line_lengths) >= 0.008
        assert max(controller._line_lengths) <= 0.0131


class TestWireDelays:
    def test_round_trip_split_sums(self):
        controller = TLCController(TLC_BASE)
        for pair in range(16):
            rt = TLC_BASE.controller_rt_delays[pair]
            assert (controller.request_delay(pair)
                    + controller.response_delay(pair)) == rt

    def test_uncontended_latency_table2(self):
        controller = TLCController(TLC_BASE)
        latencies = {controller.uncontended_latency(p) for p in range(16)}
        assert min(latencies) == 10
        assert max(latencies) == 16

    def test_opt_uncontended(self):
        controller = TLCController(TLC_OPT_1000)
        latencies = {controller.uncontended_latency(p) for p in range(8)}
        assert latencies == {12, 13}


class TestTransfers:
    def test_request_timing_includes_wire_delay(self):
        controller = TLCController(TLC_BASE)
        far_pair = max(range(16),
                       key=lambda p: TLC_BASE.controller_rt_delays[p])
        near_pair = min(range(16),
                        key=lambda p: TLC_BASE.controller_rt_delays[p])
        far, _ = controller.send_request(far_pair, 100, REQUEST_BITS)
        near, _ = controller.send_request(near_pair, 100, REQUEST_BITS)
        assert far >= near

    def test_response_arrival_adds_internal_wire(self):
        controller = TLCController(TLC_BASE)
        pair = max(range(16), key=lambda p: TLC_BASE.controller_rt_delays[p])
        arrival = controller.send_response(pair, 100, BLOCK_BITS)
        # The idle link lands the critical word one flight after sending.
        first_arrival = 100 + FLIGHT_CYCLES
        assert arrival == first_arrival + controller.response_delay(pair)

    def test_energy_scales_with_bits(self):
        controller = TLCController(TLC_BASE)
        controller.send_request(0, 0, REQUEST_BITS)
        e_small = controller.energy_j()
        controller.send_request(0, 100, BLOCK_BITS)
        e_big = controller.energy_j() - e_small
        assert e_big == pytest.approx(e_small * BLOCK_BITS / REQUEST_BITS)

    def test_longer_lines_cost_no_more_per_bit(self):
        """TL energy is set by impedance, not length — the paper's
        length-independent launch power."""
        controller = TLCController(TLC_BASE)
        controller.send_request(0, 0, REQUEST_BITS)
        e_near = controller.energy_j()
        controller.send_request(7, 0, REQUEST_BITS)
        e_far = controller.energy_j() - e_near
        # Longer lines use wider geometry (lower R), similar Z0: energy
        # within ~20 % of each other.
        assert e_far == pytest.approx(e_near, rel=0.2)

    def test_utilization_accumulates(self):
        controller = TLCController(TLC_BASE)
        controller.send_request(0, 0, REQUEST_BITS)
        controller.send_response(0, 10, BLOCK_BITS)
        assert controller.utilization(100) == pytest.approx(
            (1 + 8) / (100 * 32))
