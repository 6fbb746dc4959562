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
A single processor issues messages in nondecreasing time order, so one
busy-until cycle per link gives exact FIFO contention without event
scheduling.

Network state is flat: every directed link has an id, its busy-until
cycle lives in one list, and each route is a memoized tuple of link
ids.  Ids run over the ``2 * (columns - 1)`` horizontal edge links,
two per gap between adjacent columns, then over each column's
``2 * (rows - 1)`` vertical links, two per gap between adjacent rows;
of each two, the first points away from the controller.  So a
column's vertical links are contiguous ids, in row order.

Two of DNUCA's parallel actions are one call each, in closed form:

* :meth:`MeshNetwork.send_closest_two` sends one request to each of
  the two banks nearest the controller at the same cycle.  On every
  horizontal link the two share, the second starts exactly ``flits``
  cycles after the first, so one walk leaves each shared link busy
  until the first's start plus ``2 * flits``; the second then takes
  its one vertical hop.
* :meth:`MeshNetwork.transfer_between` moves a promotion's blocks:
  one message each way over every vertical link between two
  positions of a column, all leaving at one cycle on distinct links,
  a walk over one contiguous id range.

The mesh owns its traffic accounting and prices it: every bit-hop costs
one hop of conventional repeated wire plus one switch traversal
(Table 9's NUCA network energy).
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from repro.interconnect.message import flits_for_bits
from repro.sim.stats import UtilizationMeter
from repro.tech import Technology, TECH_45NM
from repro.tline.power import conventional_energy_per_bit

#: A routed path: link ids in travel order.
Route = Tuple[int, ...]


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
        self._horizontal_links = 2 * (columns - 1)
        links = self._horizontal_links + 2 * columns * (rows - 1)
        #: busy-until cycle of every directed link, by link id.
        self._busy = [0] * links
        self.meter = UtilizationMeter(resources=links)
        # Routing is a pure function of the endpoint and is asked for on
        # every simulated message, so each route is computed once.
        self._routes: Dict[Tuple[int, int, bool], Route] = {}
        # Flits per message size, asked for on every message.
        self._flits: Dict[int, int] = {}
        #: ids of the links some route or promotion hop has used.
        self._touched: Set[int] = set()
        self.bit_hops = 0
        self.switch_traversals = 0

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

    def _vertical_link(self, column: int, row: int, away: bool) -> int:
        """Id of the link joining positions ``row`` and ``row + 1``."""
        return (self._horizontal_links + 2 * (column * (self.rows - 1) + row)
                + (0 if away else 1))

    def route(self, column: int, position: int, outbound: bool) -> Route:
        """Link ids from the controller to bank (column, position), or
        back when not ``outbound``.

        Memoized: the first call for a bank and direction range-checks
        the bank and counts the route's links as touched.
        """
        key = (column, position, outbound)
        route = self._routes.get(key)
        if route is not None:
            return route
        self.hops_to(column, position)  # raises IndexError off the mesh
        centre_right = self.columns // 2
        if column >= centre_right:
            gaps = range(centre_right, column)
        else:
            gaps = range(centre_right - 2, column - 1, -1)
        offset = 0 if outbound else 1
        links = [2 * gap + offset for gap in gaps]
        links += [self._vertical_link(column, row, outbound)
                  for row in range(position)]
        if not outbound:
            links.reverse()
        route = self._routes[key] = tuple(links)
        self._touched.update(route)
        return route

    # -- transfers -------------------------------------------------------
    def _flit_count(self, message_bits: int) -> int:
        """Flits of a ``message_bits`` message (memoized; raises for <= 0)."""
        flits = self._flits[message_bits] = flits_for_bits(message_bits,
                                                           self.flit_bits)
        return flits

    def send(self, column: int, position: int, time: int, message_bits: int,
             outbound: bool, contend: bool = True) -> Tuple[int, int]:
        """Route a message controller<->bank; returns the cycles its
        first and last flits arrive.

        The head flit advances one hop per ``hop_latency`` cycles, each
        link it enters no earlier than the link's busy-until cycle, and
        leaves the link busy for the message's flit count.
        ``contend=False`` is for fill/writeback traffic scheduled at a
        future completion time (e.g. a refill arriving from memory): the
        message still consumes bandwidth for utilization and energy
        accounting, but reserves no link against *earlier* demand
        messages — the busy-until model would otherwise charge messages
        that arrive first for traffic that arrives later.
        """
        route = self._routes.get((column, position, outbound))
        if route is None:
            route = self.route(column, position, outbound)
        flits = self._flits.get(message_bits) or self._flit_count(message_bits)
        hops = len(route)
        head = time
        if contend:
            busy = self._busy
            hop_latency = self.hop_latency
            for link in route:
                start = busy[link]
                if start < head:
                    start = head
                busy[link] = start + flits
                head = start + hop_latency
        else:
            head += hops * self.hop_latency
        self.meter.busy_cycles += flits * hops
        self.bit_hops += message_bits * hops
        self.switch_traversals += hops
        return head, head + flits - 1

    def send_closest_two(self, column: int, time: int,
                         message_bits: int) -> Tuple[int, int]:
        """Send one contending message from the controller to each of
        positions 0 and 1 of ``column``, both at ``time``, position 0's
        first; returns the cycles their first flits arrive.

        The same as two :meth:`send` calls, in one walk.  The two routes
        share the horizontal links, and on each of them the second
        message starts exactly ``flits`` cycles after the first: the
        first leaves the link busy until its start plus ``flits``, and
        the second, ``flits`` cycles behind at the previous link (or
        level with it at the first), never reaches the link later.  So
        each shared link ends busy until the first's start plus
        ``2 * flits``, and the second message reaches its vertical link
        ``flits`` cycles after the first reaches position 0 (at ``time``
        when no link is shared).
        """
        # Position 1's route is position 0's plus one vertical link, so
        # registering it marks both routes' links as touched.
        route = self._routes.get((column, 1, True))
        if route is None:
            route = self.route(column, 1, True)
        flits = self._flits.get(message_bits) or self._flit_count(message_bits)
        busy = self._busy
        hop_latency = self.hop_latency
        shared = len(route) - 1
        head = time
        for link in route[:shared]:
            start = busy[link]
            if start < head:
                start = head
            busy[link] = start + 2 * flits
            head = start + hop_latency
        near = head
        if shared:
            head += flits
        link = route[shared]
        start = busy[link]
        if start < head:
            start = head
        busy[link] = start + flits
        hops = 2 * shared + 1
        self.meter.busy_cycles += flits * hops
        self.bit_hops += message_bits * hops
        self.switch_traversals += hops
        return near, start + hop_latency

    def transfer_between(self, column: int, lower_position: int,
                         upper_position: int, time: int,
                         message_bits: int) -> int:
        """Swap traffic between two banks of a column (DNUCA promotions).

        Sends one contending ``message_bits`` message each way over every
        vertical link between positions ``lower_position`` and
        ``upper_position``, all at ``time``: the hop-by-hop block moves
        of one promotion, which use distinct links, so none waits for
        another.  Returns the cycle the last flit of the last message
        to land arrives.
        """
        if not (0 <= column < self.columns
                and 0 <= lower_position < upper_position < self.rows):
            raise IndexError(
                f"no vertical links between positions {lower_position} and "
                f"{upper_position} of column {column}")
        flits = self._flits.get(message_bits) or self._flit_count(message_bits)
        first = self._vertical_link(column, lower_position, True)
        end = first + 2 * (upper_position - lower_position)
        busy = self._busy
        latest = time
        for link in range(first, end):
            start = busy[link]
            if start < time:
                start = time
            elif start > latest:
                latest = start
            busy[link] = start + flits
        self._touched.update(range(first, end))
        hops = end - first
        self.meter.busy_cycles += flits * hops
        self.bit_hops += message_bits * hops
        self.switch_traversals += hops
        return latest + self.hop_latency + flits - 1

    def utilization(self, elapsed_cycles: int) -> float:
        return self.meter.utilization(elapsed_cycles)

    def energy_j(self) -> float:
        """Wire-plus-switch energy of the traffic since the last reset, joules."""
        return self.bit_hops * self._energy_per_bit_hop

    def register_metrics(self, scope) -> None:
        """Mount the mesh's meters/gauges on a registry scope (``mesh``).

        ``links_touched`` counts the links that some route or promotion
        hop has used, ``links_total`` every directed link of the mesh.
        """
        scope.register("util", self.meter)
        scope.gauge("bit_hops", lambda: self.bit_hops)
        scope.gauge("switch_traversals", lambda: self.switch_traversals)
        scope.gauge("links_touched", lambda: len(self._touched))
        scope.gauge("links_total", lambda: len(self._busy))

    def reset_counters(self) -> None:
        """Zero traffic accounting (and so energy) in place, preserving
        link busy state (the warmup-boundary reset)."""
        self.meter.reset()
        self.bit_hops = 0
        self.switch_traversals = 0
