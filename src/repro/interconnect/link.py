"""A point-to-point unidirectional link modelled as a FIFO resource.

TLC's transmission-line links (and the individual channel segments of
the NUCA mesh) are occupied for one cycle per flit.  Because a single
processor issues requests in nondecreasing time order, a busy-until
scalar gives exact FIFO contention behaviour without event scheduling.

Timing convention::

    start          = max(send_time, busy_until)      (queueing)
    first_arrival  = start + flight_cycles           (critical word)
    last_arrival   = start + flits - 1 + flight_cycles
    busy_until     = start + flits                   (serialization)

``flight_cycles`` covers wave propagation plus receiver capture — one
cycle for every Table 1 transmission line (see
:func:`repro.tline.signaling.evaluate_link`).
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional

from repro.interconnect.message import flits_for_bits
from repro.sim.stats import UtilizationMeter


class Transfer(NamedTuple):
    """Timing of one message transfer over a link.

    A NamedTuple rather than a dataclass: one is constructed per
    simulated message, and tuple construction is several times cheaper
    than frozen-dataclass field assignment.
    """

    start: int
    first_arrival: int
    last_arrival: int
    queued_cycles: int
    flits: int


class Link:
    """One unidirectional link of a given width (bits) and flight time."""

    def __init__(self, width_bits: int, flight_cycles: int = 1,
                 meter: Optional[UtilizationMeter] = None) -> None:
        if width_bits <= 0:
            raise ValueError("width must be positive")
        if flight_cycles < 0:
            raise ValueError("flight cycles must be non-negative")
        self.width_bits = width_bits
        self.flight_cycles = flight_cycles
        self.meter = meter
        self.busy_until = 0
        self.bits_sent = 0
        self.transfers = 0
        #: optional repro.sanitizer.Sanitizer receiving one on_transfer
        #: per send for message-conservation accounting; the send is
        #: also the delivery, so only a ``drop_transfer`` fault unbalances
        #: it.  Mesh-internal links stay detached — the mesh accounts at
        #: message level.
        self.sanitizer = None
        # Messages come in a handful of fixed sizes (request, ack, block,
        # request+block), so the flit count per size is computed once.
        self._flits_cache: Dict[int, int] = {}

    def send(self, time: int, message_bits: int, contend: bool = True) -> Transfer:
        """Send a message; returns its timing including queueing delay.

        ``contend=False`` is used for fill/writeback traffic scheduled at
        a future completion time (e.g. a refill arriving from memory):
        the transfer still consumes bandwidth for utilization and energy
        accounting, but does not reserve the link against *earlier*
        demand requests — the scalar busy-until model would otherwise
        charge requests that arrive first for traffic that arrives later.
        """
        flits = self._flits_cache.get(message_bits)
        if flits is None:
            flits = flits_for_bits(message_bits, self.width_bits)
            self._flits_cache[message_bits] = flits
        if contend:
            start = max(time, self.busy_until)
            self.busy_until = start + flits
        else:
            start = time
        self.bits_sent += message_bits
        self.transfers += 1
        if self.meter is not None:
            self.meter.busy(flits)
        if self.sanitizer is not None:
            self.sanitizer.on_transfer("link", time)
        return Transfer(
            start=start,
            first_arrival=start + self.flight_cycles,
            last_arrival=start + flits - 1 + self.flight_cycles,
            queued_cycles=start - time,
            flits=flits,
        )

    def register_metrics(self, scope) -> None:
        """Mount this link's traffic gauges on a registry scope
        (e.g. ``link.pair02.req``); see :mod:`repro.obs.registry`."""
        scope.gauge("bits_sent", lambda: self.bits_sent)
        scope.gauge("transfers", lambda: self.transfers)

    def reset_counters(self) -> None:
        """Zero traffic accounting, preserving busy (timing) state —
        the warmup-boundary reset."""
        self.bits_sent = 0
        self.transfers = 0

    def reset(self) -> None:
        self.busy_until = 0
        self.bits_sent = 0
        self.transfers = 0
