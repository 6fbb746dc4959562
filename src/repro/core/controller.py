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

State is kept per *link class*: the set of pairs one message fans out
to.  A base TLC message uses one pair, so its classes are its pairs.  A
TLCopt message goes to every stripe bank of a group, one slice per
pair, and sibling groups ``2c`` and ``2c + 1`` stripe over the same
pairs (see :func:`link_classes`).  Every contended message to a class
leaves in one cycle with one size, and ``max`` commutes with adding a
constant, so ``busy_until - request_delay`` is equal on every pair of
a class at all times: the class needs one busy-until per direction,
kept for its *reference pair*, the one with the longest round-trip
wire delay.  Request and response delays both grow with the round trip,
so the reference pair's request lands last, and its response arrives
last whether the stripes leave their banks in lockstep or (dirty
writebacks) all in one cycle.

The controller owns its traffic accounting: the shared utilization
meter, the per-class counters behind every pair's gauges and the
signalling energy of every transfer.  The designs see arrival cycles
only.
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

#: Link directions, the first index of the per-class state.
_REQUEST, _RESPONSE = 0, 1


def link_classes(config: DesignConfig) -> Tuple[Tuple[int, ...], ...]:
    """The pair sets one message fans out to, each in stripe order.

    A TLCopt design stripes group ``g``'s blocks over banks
    ``g + j * groups`` (stripe ``j``), that is over pairs
    ``g // 2 + j * groups // 2``; with an even group count (which
    :class:`~repro.core.config.DesignConfig` requires) class ``c`` serves
    groups ``2c`` and ``2c + 1``.  A base TLC message uses one pair, so
    class ``c`` is pair ``c``.
    """
    stripes = config.banks_per_block if config.kind == "tlcopt" else 1
    count = config.banks // stripes // 2
    return tuple(tuple(link + stripe * count for stripe in range(stripes))
                 for link in range(count))


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
        #: the pairs of each link class, in stripe order.
        self.classes = link_classes(config)
        classes = len(self.classes)
        self._stripes = len(self.classes[0])
        # Per-class state, indexed [direction][class]: the reference
        # pair's busy-until cycle, and the traffic every pair of the
        # class carries, behind the link.pairNN.* gauges.
        self._widths = (config.request_link_bits, config.response_link_bits)
        self._busy = ([0] * classes, [0] * classes)
        self._bits_sent = ([0] * classes, [0] * classes)
        self._transfers = ([0] * classes, [0] * classes)
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
        #: each class's per-bit energies, in stripe order.
        self._class_energy = tuple(
            tuple(self._energy_per_bit[pair] for pair in members)
            for members in self.classes)
        # Latency tables: the wire-delay split and uncontended latency
        # are pure functions of the pair index and the config, asked for
        # on every access — compute them once instead of per request.
        # The class delays are its reference pair's.
        rt_delays = config.controller_rt_delays
        self._uncontended = [2 + config.bank_access_cycles + rt_delays[pair]
                             for pair in range(pairs)]
        reference = [max(rt_delays[pair] for pair in members)
                     for members in self.classes]
        self._request_delays = [delay // 2 for delay in reference]
        self._response_delays = [delay - delay // 2 for delay in reference]

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
        return self.config.controller_rt_delays[pair] // 2

    def response_delay(self, pair: int) -> int:
        """Controller-internal wire cycles on the response path."""
        delay = self.config.controller_rt_delays[pair]
        return delay - delay // 2

    def uncontended_latency(self, pair: int) -> int:
        """Read-hit latency with idle links and bank (Table 2, column 7)."""
        return self._uncontended[pair]

    # -- transfers ----------------------------------------------------------
    # A send is the hottest call of a TLC-family run, so each direction
    # does its own queueing and accounting instead of sharing a helper:
    # put the message on every pair of class ``link``, the reference
    # pair from cycle ``time``; count its bits and transfers once for
    # the class and its flits once per pair; add its energy once per
    # pair, in stripe order (one class-level multiply would round
    # differently).

    def send_request(self, link: int, time: int, bits: int,
                     contend: bool = True) -> Tuple[int, int]:
        """Controller -> banks on every pair of class ``link``.  Returns
        the cycles the first and last flits reach the reference pair's
        bank, the last of the class to receive them.

        ``contend=False`` is for fill/writeback traffic scheduled at a
        future completion time (e.g. a refill arriving from memory): the
        message still consumes bandwidth for utilization and energy
        accounting, but does not reserve the link against *earlier*
        demand requests — the busy-until model would otherwise charge
        requests that arrive first for traffic that arrives later.
        """
        if link < 0:  # the per-class lists raise past the last class
            raise IndexError(f"link class {link} out of range")
        flits = flits_for_bits(bits, self._widths[_REQUEST])
        start = time + self._request_delays[link]
        if contend:
            busy = self._busy[_REQUEST]
            if busy[link] > start:
                start = busy[link]
            busy[link] = start + flits
        self._bits_sent[_REQUEST][link] += bits
        self._transfers[_REQUEST][link] += 1
        self.meter.busy(flits * self._stripes)
        energy = self._energy_j
        for per_bit in self._class_energy[link]:
            energy += bits * per_bit
        self._energy_j = energy
        return start + FLIGHT_CYCLES, start + flits - 1 + FLIGHT_CYCLES

    def send_response(self, link: int, time: int, bits: int,
                      contend: bool = True) -> int:
        """Banks -> controller on every pair of class ``link``, the
        reference pair's bank sending at ``time``.  Returns the cycle
        the last slice reaches the logic.

        The arrival time adds the controller-internal wire delay after the
        critical word lands at the controller edge.
        """
        if link < 0:
            raise IndexError(f"link class {link} out of range")
        flits = flits_for_bits(bits, self._widths[_RESPONSE])
        start = time
        if contend:
            busy = self._busy[_RESPONSE]
            if busy[link] > start:
                start = busy[link]
            busy[link] = start + flits
        self._bits_sent[_RESPONSE][link] += bits
        self._transfers[_RESPONSE][link] += 1
        self.meter.busy(flits * self._stripes)
        energy = self._energy_j
        for per_bit in self._class_energy[link]:
            energy += bits * per_bit
        self._energy_j = energy
        return start + FLIGHT_CYCLES + self._response_delays[link]

    def utilization(self, elapsed_cycles: int) -> float:
        return self.meter.utilization(elapsed_cycles)

    def energy_j(self) -> float:
        """Signalling energy of every transfer since the last reset, joules."""
        return self._energy_j

    # -- observability -----------------------------------------------------
    def register_metrics(self, scope) -> None:
        """Mount the shared meter and per-pair link gauges on a registry
        scope (the designs use ``link``), yielding names like
        ``link.util`` and ``link.pair02.req.bits_sent``; every pair of a
        class reads the class's counters."""
        scope.register("util", self.meter)
        classes = {pair: link for link, members in enumerate(self.classes)
                   for pair in members}
        for pair in range(self.config.pairs):
            for direction, label in ((_REQUEST, "req"), (_RESPONSE, "resp")):
                link = scope.scope(f"pair{pair:02d}.{label}")
                link.gauge("bits_sent", lambda d=direction, c=classes[pair]:
                           self._bits_sent[d][c])
                link.gauge("transfers", lambda d=direction, c=classes[pair]:
                           self._transfers[d][c])

    def reset_counters(self) -> None:
        """Zero traffic accounting and energy in place, preserving link
        busy state (the warmup-boundary reset)."""
        self.meter.reset()
        self._energy_j = 0.0
        for counts in self._bits_sent + self._transfers:
            counts[:] = [0] * len(counts)
