"""The 2-D switched mesh used by the NUCA designs (paper Figure 1).

Banks form ``columns`` x ``rows`` grid; the cache controller sits at the
middle of the bottom edge.  A message to bank (column c, position p)
crosses ``hd`` horizontal edge links (hd = 0 for the two centre columns)
and ``p`` vertical links up the column, paying ``hop_latency`` cycles of
switch-plus-wire delay per hop — giving DNUCA's 3..47-cycle uncontended
range for a 16 x 16 grid with 3-cycle banks, and SNUCA2's 9..32-ish range
for an 8 x 4 grid of slower, larger banks.

Wormhole switching: the head flit advances one hop per ``hop_latency``
cycles and each traversed link stays busy for the message's full flit
count, so contention appears wherever message paths overlap — the
paper's "contention in the routing network to and from the banks".

The mesh owns its traffic accounting and prices it: every bit-hop costs
one hop of conventional repeated wire plus one switch traversal
(Table 9's NUCA network energy).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

from repro.interconnect.link import Link
from repro.interconnect.message import flits_for_bits
from repro.sim.stats import UtilizationMeter
from repro.tech import Technology, TECH_45NM
from repro.tline.power import conventional_energy_per_bit

LinkKey = Tuple[str, int, int, int]  # (kind, column, index, direction)


class MeshPath(NamedTuple):
    """A routed path plus the timing of a transfer along it.

    A NamedTuple for the same reason as
    :class:`~repro.interconnect.link.Transfer`: one is built per mesh
    message, on the innermost simulation path.
    """

    links: Tuple[LinkKey, ...]
    start: int
    first_arrival: int
    last_arrival: int
    queued_cycles: int

    @property
    def hops(self) -> int:
        return len(self.links)


class MeshNetwork:
    """A controller-rooted mesh over ``columns`` x ``rows`` banks."""

    def __init__(self, columns: int, rows: int, flit_bits: int,
                 hop_latency: int = 1, hop_length_m: float = 0.66e-3,
                 tech: Technology = TECH_45NM) -> None:
        if columns < 2 or columns % 2:
            raise ValueError("columns must be an even number >= 2")
        if rows < 1:
            raise ValueError("rows must be positive")
        self.columns = columns
        self.rows = rows
        self.flit_bits = flit_bits
        self.hop_latency = hop_latency
        # Joules per bit per hop: one hop of wire plus one switch.
        self._energy_per_bit_hop = (
            conventional_energy_per_bit(hop_length_m, tech)
            + tech.switch_energy_per_bit)
        # Directed links: horizontal edge links + vertical column links.
        self.meter = UtilizationMeter(resources=self._count_links())
        self._links: Dict[LinkKey, Link] = {}
        # Routing is a pure function of the endpoint, and every message
        # size maps to a fixed flit count; both are asked for on every
        # simulated transfer, so both are computed once and memoized.
        self._route_cache: Dict[Tuple[int, int, bool],
                                Tuple[Tuple[LinkKey, ...], List[Link]]] = {}
        self._flits_cache: Dict[int, int] = {}
        self.bit_hops = 0
        self.switch_traversals = 0
        #: optional repro.sanitizer.Sanitizer; accounted per *message*
        #: (not per hop) so multi-link routes count as one transfer.  The
        #: send is also the delivery, so only a ``drop_transfer`` fault
        #: unbalances it.
        self.sanitizer = None

    def _count_links(self) -> int:
        horizontal = 2 * (self.columns - 1)
        vertical = 2 * self.columns * (self.rows - 1)
        return horizontal + vertical

    def _link(self, key: LinkKey) -> Link:
        link = self._links.get(key)
        if link is None:
            link = Link(self.flit_bits, flight_cycles=self.hop_latency,
                        meter=self.meter)
            self._links[key] = link
        return link

    # -- routing ---------------------------------------------------------
    def horizontal_distance(self, column: int) -> int:
        """Edge hops from the centred controller to ``column``."""
        if not 0 <= column < self.columns:
            raise IndexError(f"column {column} out of range")
        centre_right = self.columns // 2
        if column >= centre_right:
            return column - centre_right
        return (centre_right - 1) - column

    def hops_to(self, column: int, position: int) -> int:
        """One-way hop count from the controller to bank (column, position)."""
        if not 0 <= position < self.rows:
            raise IndexError(f"position {position} out of range")
        return self.horizontal_distance(column) + position

    def uncontended_latency(self, column: int, position: int,
                            bank_cycles: int) -> int:
        """Round-trip network plus bank access latency, no contention."""
        return 2 * self.hops_to(column, position) * self.hop_latency + bank_cycles

    def _route(self, column: int, position: int, outbound: bool) -> Tuple[LinkKey, ...]:
        """Links from controller to (column, position); reversed if inbound."""
        links: List[LinkKey] = []
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
        return tuple(links)

    # -- transfers -------------------------------------------------------
    def send(self, column: int, position: int, time: int, message_bits: int,
             outbound: bool, contend: bool = True) -> MeshPath:
        """Route a message controller<->bank and account for contention.

        ``contend=False`` (fill/writeback traffic scheduled in the
        future) consumes bandwidth for accounting but does not reserve
        links against earlier demand traffic — see ``Link.send``.
        """
        route = self._route_cache.get((column, position, outbound))
        if route is None:
            keys = self._route(column, position, outbound)
            route = (keys, [self._link(key) for key in keys])
            self._route_cache[(column, position, outbound)] = route
        links, link_objects = route
        flits = self._flits_cache.get(message_bits)
        if flits is None:
            flits = flits_for_bits(message_bits, self.flit_bits)
            self._flits_cache[message_bits] = flits
        head = time
        start = time
        first = True
        for link in link_objects:
            transfer = link.send(head, message_bits, contend)
            if first:
                start = transfer.start
                first = False
            head = transfer.first_arrival
        self.bit_hops += message_bits * len(links)
        self.switch_traversals += len(links)
        if self.sanitizer is not None:
            self.sanitizer.on_transfer("mesh", time)
        return MeshPath(
            links=links,
            start=start,
            first_arrival=head,
            last_arrival=head + flits - 1,
            queued_cycles=start - time,
        )

    def transfer_between(self, column: int, upper_position: int, time: int,
                         message_bits: int, upward: bool) -> MeshPath:
        """One-hop bank-to-adjacent-bank transfer (DNUCA promotion swaps).

        Moves a message between (column, upper_position-1) and
        (column, upper_position) over the single vertical link joining
        them; ``upward`` selects the direction away from the controller.
        """
        if not 1 <= upper_position < self.rows:
            raise IndexError("upper_position must be in [1, rows)")
        key: LinkKey = ("v", column, upper_position - 1, 1 if upward else -1)
        transfer = self._link(key).send(time, message_bits)
        self.bit_hops += message_bits
        self.switch_traversals += 1
        if self.sanitizer is not None:
            self.sanitizer.on_transfer("mesh", time)
        return MeshPath(
            links=(key,),
            start=transfer.start,
            first_arrival=transfer.first_arrival,
            last_arrival=transfer.last_arrival,
            queued_cycles=transfer.queued_cycles,
        )

    def utilization(self, elapsed_cycles: int) -> float:
        return self.meter.utilization(elapsed_cycles)

    def energy_j(self) -> float:
        """Wire-plus-switch energy of the traffic since the last reset, joules."""
        return self.bit_hops * self._energy_per_bit_hop

    def attach_sanitizer(self, sanitizer) -> None:
        """Account every message in ``sanitizer`` (message conservation)."""
        self.sanitizer = sanitizer

    def register_metrics(self, scope) -> None:
        """Mount the mesh's meters/gauges on a registry scope (``mesh``).

        Links are created lazily as traffic first touches them, so the
        per-link population is summarized by aggregate gauges rather
        than registered individually.
        """
        scope.register("util", self.meter)
        scope.gauge("bit_hops", lambda: self.bit_hops)
        scope.gauge("switch_traversals", lambda: self.switch_traversals)
        scope.gauge("links_touched", lambda: len(self._links))
        scope.gauge("links_total", self._count_links)

    def reset_counters(self) -> None:
        """Zero traffic accounting (and so energy) in place, preserving
        link busy state (the warmup-boundary reset)."""
        self.meter.reset()
        self.bit_hops = 0
        self.switch_traversals = 0
        for link in self._links.values():
            link.reset_counters()
