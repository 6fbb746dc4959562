"""The central TLC cache controller.

The controller owns the transmission-line link bundles (one request and
one response link per bank pair), the per-pair internal wire delays, and
the physical characterization of each pair's lines.  Pairs further from
the controller's centre connect through longer internal conventional
wires (up to 3 extra round-trip cycles in the base design — the spread
behind Table 2's 10-16 cycle range) and through longer transmission
lines (0.9 / 1.1 / 1.3 cm classes from Table 1), which sets the
per-bit signalling energy used in the Table 9 power accounting.

The controller is also where full-tag comparison happens in the TLCopt
designs; it is timing-neutral here (the compare fits in the
already-counted controller wire cycles).

Each pair's request and response link is a FIFO resource occupied one
cycle per flit.  A single processor issues requests in nondecreasing
time order, so one busy-until cycle per link gives exact FIFO
contention without event scheduling::

    start          = max(send_time, busy_until)      (queueing)
    first_arrival  = start + FLIGHT_CYCLES           (critical word)
    last_arrival   = start + flits - 1 + FLIGHT_CYCLES
    busy_until     = start + flits                   (serialization)

The controller owns its traffic accounting: the shared utilization
meter, the per-link counters and the signalling energy of every
transfer.  The designs see arrival cycles only.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.config import DesignConfig
from repro.interconnect.message import flits_for_bits
from repro.sim.stats import UtilizationMeter
from repro.tech import Technology, TECH_45NM
from repro.tline.extraction import extract
from repro.tline.geometry import tl_geometry_for_length, TABLE1_LINES
from repro.tline.power import transmission_line_energy_per_bit

#: Wave flight plus receiver capture: one 10 GHz cycle for every
#: Table 1 line (see :func:`repro.tline.signaling.evaluate_link`).
FLIGHT_CYCLES = 1

#: Link directions, the first index of the per-link state.
_REQUEST, _RESPONSE = 0, 1


class TLCController:
    """Link bundles, wire delays, and energy accounting for a TLC design."""

    def __init__(self, config: DesignConfig, tech: Technology = TECH_45NM) -> None:
        if config.kind not in ("tlc", "tlcopt"):
            raise ValueError(f"{config.name} is not a TLC-family design")
        self.config = config
        self.tech = tech
        pairs = config.pairs
        #: one meter across every link; Fig. 7 reports the average.
        self.meter = UtilizationMeter(resources=2 * pairs)
        # Per-link state, indexed [direction][pair]: the busy-until
        # cycle, and the traffic behind the link.pairNN.* gauges.
        self._widths = (config.request_link_bits, config.response_link_bits)
        self._busy = ([0] * pairs, [0] * pairs)
        self._bits_sent = ([0] * pairs, [0] * pairs)
        self._transfers = ([0] * pairs, [0] * pairs)
        #: optional repro.sanitizer.Sanitizer receiving one on_transfer
        #: per message for message-conservation accounting.
        self.sanitizer = None
        self._energy_per_bit: List[float] = []
        self._energy_j = 0.0
        self._line_lengths = self._pair_line_lengths()
        for pair in range(pairs):
            length = self._line_lengths[pair]
            geometry = tl_geometry_for_length(length)
            line = extract(geometry, tech)
            self._energy_per_bit.append(
                transmission_line_energy_per_bit(line.z0, tech)
            )
        # Latency tables: the wire-delay split and uncontended latency
        # are pure functions of the pair index and the config, asked for
        # on every access — compute them once instead of per request.
        rt_delays = config.controller_rt_delays
        self._request_delays = [rt_delays[pair] // 2 for pair in range(pairs)]
        self._response_delays = [rt_delays[pair] - rt_delays[pair] // 2
                                 for pair in range(pairs)]
        self._uncontended = [2 + config.bank_access_cycles + rt_delays[pair]
                             for pair in range(pairs)]

    def _pair_line_lengths(self) -> List[float]:
        """Per-pair routed line lengths, from the computed floorplan.

        Falls back to interpolating across Table 1's span when the
        configuration cannot be floorplanned (e.g. exotic bank counts in
        ablation studies).
        """
        try:
            from repro.area.layout import build_floorplan

            return list(build_floorplan(self.config, tech=self.tech)
                        .pair_line_lengths_m)
        except ValueError:
            min_len = TABLE1_LINES[0].length
            max_len = TABLE1_LINES[-1].length
            per_side = max(1, self.config.pairs // 2)
            return [
                min_len + (pair % per_side) / max(1, per_side - 1)
                * (max_len - min_len)
                for pair in range(self.config.pairs)
            ]

    # -- wire-delay split --------------------------------------------------
    def request_delay(self, pair: int) -> int:
        """Controller-internal wire cycles on the request path."""
        return self._request_delays[pair]

    def response_delay(self, pair: int) -> int:
        """Controller-internal wire cycles on the response path."""
        return self._response_delays[pair]

    def uncontended_latency(self, pair: int) -> int:
        """Read-hit latency with idle links and bank (Table 2, column 7)."""
        return self._uncontended[pair]

    # -- transfers ----------------------------------------------------------
    def send_request(self, pair: int, time: int, bits: int,
                     contend: bool = True) -> Tuple[int, int]:
        """Controller -> bank.  Returns the cycles the first and last
        flits reach the bank.

        ``contend=False`` is for fill/writeback traffic scheduled at a
        future completion time (e.g. a refill arriving from memory): the
        message still consumes bandwidth for utilization and energy
        accounting, but does not reserve the link against *earlier*
        demand requests — the busy-until model would otherwise charge
        requests that arrive first for traffic that arrives later.
        """
        start, flits = self._send(_REQUEST, pair,
                                  time + self._request_delays[pair], bits,
                                  contend)
        return start + FLIGHT_CYCLES, start + flits - 1 + FLIGHT_CYCLES

    def send_response(self, pair: int, time: int, bits: int,
                      contend: bool = True) -> int:
        """Bank -> controller.  Returns the arrival cycle at the logic.

        The arrival time adds the controller-internal wire delay after the
        critical word lands at the controller edge.
        """
        start, _ = self._send(_RESPONSE, pair, time, bits, contend)
        return start + FLIGHT_CYCLES + self._response_delays[pair]

    def _send(self, direction: int, pair: int, time: int, bits: int,
              contend: bool) -> Tuple[int, int]:
        """Put a message on one pair link at cycle ``time``, account its
        traffic and energy; returns its start cycle and flit count."""
        if pair < 0:  # the per-pair lists raise past the last pair
            raise IndexError(f"pair {pair} out of range")
        flits = flits_for_bits(bits, self._widths[direction])
        start = time
        if contend:
            busy = self._busy[direction]
            if busy[pair] > start:
                start = busy[pair]
            busy[pair] = start + flits
        self._bits_sent[direction][pair] += bits
        self._transfers[direction][pair] += 1
        self.meter.busy(flits)
        if self.sanitizer is not None:
            self.sanitizer.on_transfer("link", time)
        self._energy_j += bits * self._energy_per_bit[pair]
        return start, flits

    def utilization(self, elapsed_cycles: int) -> float:
        return self.meter.utilization(elapsed_cycles)

    def energy_j(self) -> float:
        """Signalling energy of every transfer since the last reset, joules."""
        return self._energy_j

    # -- observability -----------------------------------------------------
    def register_metrics(self, scope) -> None:
        """Mount the shared meter and per-pair link gauges on a registry
        scope (the designs use ``link``), yielding names like
        ``link.util`` and ``link.pair02.req.bits_sent``."""
        scope.register("util", self.meter)
        for pair in range(self.config.pairs):
            for direction, label in ((_REQUEST, "req"), (_RESPONSE, "resp")):
                link = scope.scope(f"pair{pair:02d}.{label}")
                link.gauge("bits_sent", lambda d=direction, p=pair:
                           self._bits_sent[d][p])
                link.gauge("transfers", lambda d=direction, p=pair:
                           self._transfers[d][p])

    def attach_sanitizer(self, sanitizer) -> None:
        """Route every pair link's messages into ``sanitizer`` for
        message-conservation accounting.  A link delivers a message when
        it sends it, so the check fires only when the ``drop_transfer``
        fault removes one."""
        self.sanitizer = sanitizer

    def reset_counters(self) -> None:
        """Zero traffic accounting and energy in place, preserving link
        busy state (the warmup-boundary reset)."""
        self.meter.reset()
        self._energy_j = 0.0
        for counts in self._bits_sent + self._transfers:
            counts[:] = [0] * len(counts)
