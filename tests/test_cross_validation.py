"""Cross-validation: independent models must agree with each other.

These tests tie separately implemented components together:

* the scalar busy-until :class:`~repro.interconnect.link.Link` against
  an explicit event-driven FIFO server built on a ``heapq`` event
  queue;
* the analytic stack-distance miss predictor against the actual misses
  the cache designs produce;
* the physical-layer flight time against the cycle counts the timing
  models assume.
"""

import heapq

import pytest
from hypothesis import given, settings, strategies as st

from repro.interconnect.link import Link
from repro.sim.system import run_system
from repro.tline import TABLE1_LINES, extract
from repro.workloads.stats import predict_miss_ratio
from repro.workloads.synthetic import TraceSpec, generate_trace


class EventDrivenFifoLink:
    """A reference link model: a FIFO server draining an event queue.

    Each send is an arrival event keyed by (time, arrival order); the
    server pops them in that order and serves each message's flits
    back to back once the link is free.
    """

    def __init__(self, width_bits: int, flight_cycles: int) -> None:
        self.width_bits = width_bits
        self.flight_cycles = flight_cycles
        self.events = []
        self.arrivals = 0

    def send(self, time: int, message_bits: int) -> None:
        flits = -(-message_bits // self.width_bits)
        heapq.heappush(self.events, (time, self.arrivals, flits))
        self.arrivals += 1

    def run(self):
        free_at = 0
        results = []
        while self.events:
            time, _arrival, flits = heapq.heappop(self.events)
            start = max(time, free_at)
            free_at = start + flits
            results.append((start, start + self.flight_cycles,
                            start + flits - 1 + self.flight_cycles))
        return results


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 500), st.integers(1, 512)),
                min_size=1, max_size=40))
def test_link_matches_event_driven_reference(messages):
    """The O(1) busy-until link and the event-driven FIFO queue must
    produce identical transfer timings for arrival-ordered traffic."""
    messages = sorted(messages)
    fast = Link(width_bits=64, flight_cycles=2)
    reference = EventDrivenFifoLink(width_bits=64, flight_cycles=2)
    fast_results = []
    for time, bits in messages:
        t = fast.send(time, bits)
        fast_results.append((t.start, t.first_arrival, t.last_arrival))
        reference.send(time, bits)
    assert fast_results == reference.run()


class TestMissPredictionAgainstDesigns:
    @pytest.fixture(scope="class")
    def workload(self):
        spec = TraceSpec(mean_gap=25.0, hot_blocks=4_000,
                         stream_fraction=0.25, cold_fraction=0.05)
        return spec, generate_trace(spec, 8_000, seed=13)

    def test_fully_associative_bound_holds(self, workload):
        """Starting cold (like the predictor assumes), set-associative
        designs can only miss *more* than the fully-associative LRU
        stack-distance prediction (small statistical tolerance)."""
        _spec, trace = workload
        predicted = predict_miss_ratio(trace, 16 * 2**20)
        for design in ("TLC", "SNUCA2"):
            measured = run_system(design, "custom", trace=trace,
                                  warmup_fraction=0.0).miss_ratio
            assert measured >= predicted - 0.02, (design, measured, predicted)

    def test_prediction_tracks_measurement(self, workload):
        """And the bound is tight for low-conflict workloads."""
        _spec, trace = workload
        predicted = predict_miss_ratio(trace, 16 * 2**20)
        measured = run_system("TLC", "custom", trace=trace,
                              warmup_fraction=0.0).miss_ratio
        assert measured == pytest.approx(predicted, abs=0.05)


class TestPhysicalTimingConsistency:
    def test_flight_time_supports_one_cycle_links(self):
        """The timing models hard-code 1-cycle transmission lines; the
        extracted physics must actually deliver sub-cycle flight."""
        for geometry in TABLE1_LINES:
            line = extract(geometry)
            assert line.flight_time < 100e-12

    def test_uncontended_latency_decomposition(self):
        """TLC's Table 2 latency = flight + bank + flight + controller
        wire; verify against the design's own accounting."""
        from repro.core.tlc import TransmissionLineCache
        tlc = TransmissionLineCache()
        for pair in range(16):
            expected = (1 + tlc.config.bank_access_cycles + 1
                        + tlc.config.controller_rt_delays[pair])
            assert tlc.network.uncontended_latency(pair) == expected
