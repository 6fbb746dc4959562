"""Differential tests of the flat network state against per-link objects.

``MeshNetwork`` and ``TLCController`` keep their links' busy-until
cycles in plain lists and walk a message's route inline.  They replaced
a model with one link object per directed link, whose ``send`` the mesh
called once per hop and the controller once per pair.  That model is
kept here as the oracle — its link, its per-hop mesh walk with lazily
created links, and its per-pair controller links — in the way
``test_prewarm.py`` keeps the per-block install.

The controller keeps one busy-until per link class (the pairs a message
fans out to), and ``OptimizedTLC`` one bank busy-until per stripe
group.  The oracle keeps the per-stripe walk they replaced: a class
send puts the message on each of its pairs' links in turn, and
``StripeWalkTLC`` sends, accesses a bank and responds once per stripe
bank, with a busy-until per physical bank.

DNUCA's closest-two probe and promotion are one mesh call each, and its
partial tags find a far block.  The oracle keeps the walks they
replaced: the mesh sends the probe as two messages and a promotion hop
by hop, one transfer each way per hop, and ``ProbeWalkDNUCA`` probes
every bank of a set to find the block and updates the partial tags one
slot at a time.

Hypothesis message and access sequences must give the oracle's arrival
cycles and outcomes (and, on the mesh, its links' busy-until cycles)
after every step, and its meter, energy and gauge accounting at the
end; and every design must simulate identically with
the oracle patched in.
"""

import dataclasses
from typing import Optional, Tuple
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.storage import result_to_dict
from repro.cache.partial_tags import _EMPTY, partial_tag
from repro.core.config import (DNUCA, TLC_BASE, TLC_OPT_350, TLC_OPT_500,
                               TLC_OPT_1000, build_design)
from repro.core.base import L2Outcome
from repro.core.controller import TLCController
from repro.core.tlc_opt import (ACK_BITS, OPT_REQUEST_BITS,
                                RESPONSE_OVERHEAD_BITS, OptimizedTLC)
from repro.interconnect.mesh import MeshNetwork
from repro.interconnect.message import BLOCK_BITS, REQUEST_BITS, flits_for_bits
from repro.nuca.dnuca import CLOSEST_BANKS, DynamicNUCA
from repro.obs.manifest import RunObserver
from repro.obs.registry import MetricsRegistry
from repro.sim.system import run_system


class OracleLink:
    """One unidirectional link as a busy-until FIFO, occupied one cycle
    per flit; ``send`` returns ``(start, first_arrival, last_arrival)``."""

    def __init__(self, width_bits, flight_cycles, meter):
        self.width_bits = width_bits
        self.flight_cycles = flight_cycles
        self.meter = meter
        self.busy_until = 0
        self.bits_sent = 0
        self.transfers = 0

    def send(self, time, message_bits, contend=True):
        flits = flits_for_bits(message_bits, self.width_bits)
        if contend:
            start = max(time, self.busy_until)
            self.busy_until = start + flits
        else:
            start = time
        self.bits_sent += message_bits
        self.transfers += 1
        self.meter.busy(flits)
        return (start, start + self.flight_cycles,
                start + flits - 1 + self.flight_cycles)


class OracleMesh(MeshNetwork):
    """The mesh as one OracleLink per ``(kind, column, index, direction)``
    key, created when a route first uses it and sent once per hop."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._links = {}
        self._link_routes = {}

    def _link(self, key):
        link = self._links.get(key)
        if link is None:
            link = OracleLink(self.flit_bits, self.hop_latency, self.meter)
            self._links[key] = link
        return link

    def _route_keys(self, column, position, outbound):
        links = []
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
        return links

    def send(self, column, position, time, message_bits, outbound,
             contend=True):
        key = (column, position, outbound)
        links = self._link_routes.get(key)
        if links is None:
            links = [self._link(k)
                     for k in self._route_keys(column, position, outbound)]
            self._link_routes[key] = links
        flits = flits_for_bits(message_bits, self.flit_bits)
        head = time
        for link in links:
            head = link.send(head, message_bits, contend)[1]
        self.bit_hops += message_bits * len(links)
        self.switch_traversals += len(links)
        return head, head + flits - 1

    def send_closest_two(self, column, time, message_bits):
        """The closest-two probe as two sends, position 0's first."""
        return (self.send(column, 0, time, message_bits, True)[0],
                self.send(column, 1, time, message_bits, True)[0])

    def transfer_hop(self, column, upper_position, time, message_bits,
                     upward):
        """One transfer over the link joining positions upper_position - 1
        and upper_position; returns its first and last arrivals."""
        key = ("v", column, upper_position - 1, 1 if upward else -1)
        _start, first, last = self._link(key).send(time, message_bits)
        self.bit_hops += message_bits
        self.switch_traversals += 1
        return first, last

    def transfer_between(self, column, lower_position, upper_position, time,
                         message_bits):
        """A promotion's transfers one hop and one direction at a time."""
        latest = time
        for hop in range(lower_position + 1, upper_position + 1):
            for upward in (False, True):
                latest = max(latest, self.transfer_hop(
                    column, hop, time, message_bits, upward)[1])
        return latest

    def register_metrics(self, scope):
        scope.register("util", self.meter)
        scope.gauge("bit_hops", lambda: self.bit_hops)
        scope.gauge("switch_traversals", lambda: self.switch_traversals)
        scope.gauge("links_touched", lambda: len(self._links))
        scope.gauge("links_total", lambda: self.meter.resources)


class OracleController(TLCController):
    """The controller with one OracleLink per pair and direction.

    A class send walks the class's pairs stripe by stripe.  A request
    enters each pair's link after that pair's wire delay; a response
    leaves each stripe bank as many cycles before the reference pair's
    (``time``) as its request landed earlier.  Both return the last
    stripe's arrival.
    """

    def __init__(self, config, *args, **kwargs):
        super().__init__(config, *args, **kwargs)
        self.request_links = [OracleLink(config.request_link_bits, 1,
                                         self.meter)
                              for _ in range(config.pairs)]
        self.response_links = [OracleLink(config.response_link_bits, 1,
                                          self.meter)
                               for _ in range(config.pairs)]

    def send_pair_request(self, pair, time, bits, contend=True):
        _start, first, last = self.request_links[pair].send(
            time + self.request_delay(pair), bits, contend)
        self._energy_j += bits * self._energy_per_bit[pair]
        return first, last

    def send_pair_response(self, pair, time, bits, contend=True):
        _start, first, _last = self.response_links[pair].send(
            time, bits, contend)
        self._energy_j += bits * self._energy_per_bit[pair]
        return first + self.response_delay(pair)

    def send_request(self, link, time, bits, contend=True):
        return max(self.send_pair_request(pair, time, bits, contend)
                   for pair in self.classes[link])

    def send_response(self, link, time, bits, contend=True):
        pairs = self.classes[link]
        latest = max(self.request_delay(pair) for pair in pairs)
        return max(self.send_pair_response(
            pair, time - latest + self.request_delay(pair), bits, contend)
            for pair in pairs)

    def register_metrics(self, scope):
        scope.register("util", self.meter)
        for pair, links in enumerate(zip(self.request_links,
                                         self.response_links)):
            for link, label in zip(links, ("req", "resp")):
                link_scope = scope.scope(f"pair{pair:02d}.{label}")
                link_scope.gauge("bits_sent", lambda link=link: link.bits_sent)
                link_scope.gauge("transfers", lambda link=link: link.transfers)

    def reset_counters(self):
        self.meter.reset()
        self._energy_j = 0.0
        for link in self.request_links + self.response_links:
            link.bits_sent = 0
            link.transfers = 0


class StripeWalkTLC(OptimizedTLC):
    """A TLCopt design as a walk over its stripes: one request send, one
    bank access and one response send per stripe bank, on an
    OracleController's per-pair links, with a busy-until per physical
    bank and the partial tags read one way at a time."""

    def __init__(self, config, *args, **kwargs):
        with mock.patch("repro.core.tlc_opt.TLCController", OracleController):
            super().__init__(config, *args, **kwargs)
        self._bank_busy_until = [0] * config.banks

    def _fan_out(self, group, time, request_bits, contend=True):
        """Send a request to every stripe bank; returns (bank, done) pairs."""
        results = []
        for bank in self.banks_for_group(group):
            _, request_at = self.network.send_pair_request(
                bank // 2, time, request_bits, contend)
            done = self._bank_access(bank, request_at, contend)
            results.append((bank, done))
        return results

    def _gather(self, bank_dones, response_bits, contend=True):
        """Collect responses from every stripe bank; returns last arrival."""
        last = 0
        for bank, done in bank_dones:
            arrival = self.network.send_pair_response(
                bank // 2, done, response_bits, contend)
            last = max(last, arrival)
        return last

    def _read(self, group, group_idx, set_index, tag, time):
        expected = (2 + self.config.bank_access_cycles
                    + self._group_rt_delays[group_idx])
        matches = [way for way in range(group.ways)
                   if group.tag_at(set_index, way) is not None
                   and partial_tag(group.tag_at(set_index, way))
                   == partial_tag(tag)]
        hit = group.lookup(set_index, tag).hit
        bank_dones = self._fan_out(group_idx, time, OPT_REQUEST_BITS)
        response_bits = self._data_slice_bits + RESPONSE_OVERHEAD_BITS
        if len(matches) == 0:
            miss_at = self._gather(bank_dones, ACK_BITS)
            return self._miss(group, group_idx, set_index, tag, miss_at,
                              lookup_latency=miss_at - time,
                              predictable=(miss_at - time == expected))
        if len(matches) == 1:
            arrival = self._gather(bank_dones, response_bits)
            latency = arrival - time
            if hit:
                return L2Outcome(arrival, True, latency, latency == expected)
            self.stats.add("false_hits")
            return self._miss(group, group_idx, set_index, tag, arrival,
                              lookup_latency=latency,
                              predictable=latency == expected)
        self.stats.add("multi_partial_matches")
        report_at = self._gather(bank_dones, ACK_BITS * len(matches))
        if not hit:
            return self._miss(group, group_idx, set_index, tag, report_at,
                              lookup_latency=report_at - time,
                              predictable=False)
        second = self._fan_out(group_idx, report_at, OPT_REQUEST_BITS)
        arrival = self._gather(second, response_bits)
        return L2Outcome(arrival, True, arrival - time, predictable=False)

    def _write(self, group, group_idx, set_index, tag, time):
        write_bits = OPT_REQUEST_BITS + self._data_slice_bits
        bank_dones = self._fan_out(group_idx, time, write_bits)
        accepted = max(done for _, done in bank_dones)
        hit = group.lookup(set_index, tag, write=True).hit
        if not hit:
            self._insert(group, group_idx, set_index, tag, accepted,
                         dirty=True)
        return L2Outcome(accepted, hit, 0, predictable=True, write=True)

    def _refill(self, group, group_idx, set_index, tag, time, dirty):
        write_bits = OPT_REQUEST_BITS + self._data_slice_bits
        bank_dones = self._fan_out(group_idx, time, write_bits,
                                   contend=False)
        accepted = max(done for _, done in bank_dones)
        self._insert(group, group_idx, set_index, tag, accepted, dirty=dirty)

    def _insert(self, group, group_idx, set_index, tag, time, dirty):
        result = group.insert(set_index, tag, dirty=dirty)
        if result.evicted_tag is not None and result.evicted_dirty:
            # Every stripe's victim slice leaves at ``time``.
            arrival = self._gather(
                [(bank, time) for bank in self.banks_for_group(group_idx)],
                self._data_slice_bits + RESPONSE_OVERHEAD_BITS,
                contend=False)
            self.memory.write(arrival)
            self.stats.add("writebacks")


class ProbeWalkDNUCA(DynamicNUCA):
    """DNUCA as serial walks on an OracleMesh: the closest-two probe as
    two sends, a probe of every bank of the set to find the block, and a
    promotion hop by hop, one transfer each way per hop, with the
    partial tags updated one slot at a time."""

    def __init__(self, config=DNUCA, *args, **kwargs):
        with mock.patch("repro.nuca.dnuca.MeshNetwork", OracleMesh):
            super().__init__(config, *args, **kwargs)

    def _find(self, column: int, set_index: int,
              tag: int) -> Optional[Tuple[int, int]]:
        """(position, way) currently holding ``tag``, or None."""
        for position in range(self.positions):
            way = self.banks[column][position].probe(set_index, tag)
            if way is not None:
                return position, way
        return None

    def _lookup(self, column, set_index, tag, time, write):
        holder = self._find(column, set_index, tag)
        pta = self.partial_tags[column]
        all_matches = pta.matches(set_index, tag)
        first_bank = column * self.positions

        probe_done = {}
        for position in CLOSEST_BANKS:
            request_at, _ = self.network.send(column, position, time,
                                              REQUEST_BITS, True)
            probe_done[position] = self._bank_access(first_bank + position,
                                                     request_at)
        banks_accessed = len(CLOSEST_BANKS)

        if holder is not None and holder[0] in CLOSEST_BANKS:
            position = holder[0]
            outcome = self._hit(column, position, holder[1], set_index, tag,
                                time, probe_done[position], write,
                                close_hit=True)
            self.stats.add("close_hits")
            return outcome, banks_accessed

        ack_times = [
            self.network.send(column, p, probe_done[p], REQUEST_BITS,
                              False)[0]
            for p in CLOSEST_BANKS
        ]
        if self.config.use_partial_tags:
            search_candidates = [p for p in all_matches
                                 if p not in CLOSEST_BANKS]
        else:
            all_matches = list(range(self.positions))
            search_candidates = [p for p in range(self.positions)
                                 if p not in CLOSEST_BANKS]

        if not search_candidates:
            if not all_matches:
                miss_at = time + self.config.partial_tag_latency
                self.stats.add("fast_misses")
                predictable = True
            else:
                miss_at = max(ack_times)
                predictable = False
            return (self._miss(column, set_index, tag, time, miss_at,
                               predictable, write), banks_accessed)

        close_partial_match = any(p in CLOSEST_BANKS for p in all_matches)
        search_start = time + self.config.partial_tag_latency
        if close_partial_match:
            search_start = max([search_start] + ack_times)

        if self.config.search_mode == "incremental":
            return self._incremental_search(column, set_index, tag, time,
                                            search_start, search_candidates,
                                            banks_accessed, holder, write)

        banks_accessed += len(search_candidates)
        search_done = {}
        for position in search_candidates:
            request_at, _ = self.network.send(column, position, search_start,
                                              REQUEST_BITS, True)
            search_done[position] = self._bank_access(first_bank + position,
                                                      request_at)

        if holder is not None and holder[0] in search_done:
            position = holder[0]
            outcome = self._hit(column, position, holder[1], set_index, tag,
                                time, search_done[position], write,
                                close_hit=False)
            return outcome, banks_accessed

        search_acks = [
            self.network.send(column, p, done, REQUEST_BITS, False)[0]
            for p, done in search_done.items()
        ]
        miss_at = max(search_acks)
        return (self._miss(column, set_index, tag, time, miss_at,
                           predictable=False, write=write), banks_accessed)

    def _promote(self, column, position, way, set_index, time):
        target = max(0, position - self.config.promotion_distance)
        upper = self.banks[column][position]
        lower = self.banks[column][target]
        moving_tag, moving_dirty = upper.entry_at(set_index, way)
        displaced = lower.replace_way(set_index, way, moving_tag, moving_dirty)
        upper.replace_way(set_index, way, displaced[0], displaced[1])
        pta = self.partial_tags[column]
        if moving_tag is not None:
            pta.update(target, set_index, way, moving_tag)
        if displaced[0] is not None:
            pta.update(position, set_index, way, displaced[0])
        else:
            # The array has no per-slot clear: write the empty byte.
            pta._slots[pta._slot(position, set_index, way)] = _EMPTY
        for hop in range(target + 1, position + 1):
            self.network.transfer_hop(column, hop, time, BLOCK_BITS,
                                      upward=False)
            self.network.transfer_hop(column, hop, time, BLOCK_BITS,
                                      upward=True)
        first_bank = column * self.positions
        self._bank_access(first_bank + position, time)
        self._bank_access(first_bank + target, time)
        self.stats.add("promotions")


def busy_by_link(oracle):
    """An OracleMesh's busy-until cycles, keyed by the mesh's link ids."""
    centre_right = oracle.columns // 2
    busy = {}
    for (kind, index, row, direction), link in oracle._links.items():
        if kind == "h":  # index is the gap; right-hand gaps point away
            outbound = (direction == 1) == (index >= centre_right)
            busy[2 * index + (0 if outbound else 1)] = link.busy_until
        else:  # index is the column
            busy[oracle._vertical_link(index, row, direction == 1)] = (
                link.busy_until)
    return busy


def accounting(network):
    """Everything a run reads back from a network besides arrivals."""
    registry = MetricsRegistry()
    network.register_metrics(registry.scope("net"))
    return registry.snapshot(), network.energy_j()


#: The paper's message sizes (request, block, request + block) plus odd
#: sizes that leave a partial last flit.
SIZES = st.sampled_from([64, 512, 576]) | st.integers(1, 700)

#: (time step, kind, column, position, bits, outbound, contend, reset
#: counters after it?, promotion span) — reduced modulo the mesh
#: geometry.  Kind 0 is a promotion's transfers between position and
#: the position span below it, kind 1 a closest-two probe, any other
#: kind one message.
mesh_messages = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 7), st.integers(0, 15),
              st.integers(0, 15), SIZES, st.booleans(), st.booleans(),
              st.integers(0, 15), st.integers(1, 4)),
    min_size=1, max_size=80)

#: (time step, request?, pair, bits, contend, reset counters after it?).
controller_messages = st.lists(
    st.tuples(st.integers(0, 12), st.booleans(), st.integers(0, 15), SIZES,
              st.booleans(), st.integers(0, 15)),
    min_size=1, max_size=80)


@pytest.mark.parametrize("columns, rows, hop_latency", [
    (16, 16, 1),  # DNUCA
    (8, 4, 2),    # SNUCA2
    (4, 3, 2),
    (2, 2, 1),    # no horizontal links at all
])
@settings(max_examples=60, deadline=None)
@given(messages=mesh_messages)
def test_mesh_matches_per_hop_oracle(columns, rows, hop_latency, messages):
    mesh = MeshNetwork(columns, rows, flit_bits=128, hop_latency=hop_latency)
    oracle = OracleMesh(columns, rows, flit_bits=128, hop_latency=hop_latency)
    time = 0
    for (step, kind, column, position, bits, outbound, contend,
         reset, span) in messages:
        time += step
        column %= columns
        if kind == 0:  # a DNUCA promotion
            upper = 1 + position % (rows - 1)
            lower = max(0, upper - span)
            got = mesh.transfer_between(column, lower, upper, time, bits)
            want = oracle.transfer_between(column, lower, upper, time, bits)
        elif kind == 1:  # a DNUCA closest-two probe
            got = mesh.send_closest_two(column, time, bits)
            want = oracle.send_closest_two(column, time, bits)
        else:
            position %= rows
            got = mesh.send(column, position, time, bits, outbound, contend)
            want = oracle.send(column, position, time, bits, outbound,
                               contend)
        assert got == want
        busy = busy_by_link(oracle)
        assert {link: mesh._busy[link] for link in busy} == busy
        if reset == 0:
            mesh.reset_counters()
            oracle.reset_counters()
    assert mesh._busy == [busy.get(link, 0) for link in range(len(mesh._busy))]
    assert accounting(mesh) == accounting(oracle)


@pytest.mark.parametrize("config", [TLC_BASE, TLC_OPT_350],
                         ids=lambda config: config.name)
@settings(max_examples=60, deadline=None)
@given(messages=controller_messages)
def test_controller_matches_per_link_oracle(config, messages):
    controller = TLCController(config)
    oracle = OracleController(config)
    time = 0
    for step, request, link, bits, contend, reset in messages:
        time += step
        link %= len(controller.classes)
        if request:
            got = controller.send_request(link, time, bits, contend)
            want = oracle.send_request(link, time, bits, contend)
        else:
            got = controller.send_response(link, time, bits, contend)
            want = oracle.send_response(link, time, bits, contend)
        assert got == want
        if reset == 0:
            controller.reset_counters()
            oracle.reset_counters()
    assert accounting(controller) == accounting(oracle)


#: Tags whose low six bits collide in pairs and triples, so a set of
#: four ways sees clean misses, false hits and multiple partial matches.
ALIASED_TAGS = (1, 2, 65, 66, 129, 130, 193)

#: (time step, group, set, tag, write?, reset stats after it?).
tlcopt_accesses = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 7), st.integers(0, 2),
              st.sampled_from(ALIASED_TAGS), st.booleans(),
              st.integers(0, 30)),
    min_size=1, max_size=120)


def design_accounting(design):
    return design.metrics.snapshot(), design.network_energy_j()


@pytest.mark.parametrize("config", [
    TLC_OPT_1000, TLC_OPT_500, TLC_OPT_350,
    # Every paper TLCopt design has request delay 0 on every pair; only
    # unequal delays within a class exercise the stripes' offsets.
    dataclasses.replace(TLC_OPT_500, name="TLCopt500-skewed",
                        controller_rt_delays=(3, 0, 6, 1, 0, 5, 2, 7)),
], ids=lambda config: config.name)
@settings(max_examples=60, deadline=None)
@given(accesses=tlcopt_accesses)
def test_tlcopt_matches_the_stripe_walk(config, accesses):
    closed = OptimizedTLC(config)
    walk = StripeWalkTLC(config)
    time = 0
    for step, group, set_index, tag, write, reset in accesses:
        time += step
        addr = closed.addr_map.rebuild(tag, set_index,
                                       group % closed.num_groups)
        assert (closed.access(addr, time, write)
                == walk.access(addr, time, write))
        if reset == 0:
            closed.reset_stats()
            walk.reset_stats()
    assert design_accounting(closed) == design_accounting(walk)


def test_the_stripe_walk_sees_every_corner_case():
    """The access strategy reaches multi-match second fan-outs, false
    hits and dirty writebacks (refills happen on every read miss)."""
    design = StripeWalkTLC(TLC_OPT_500)
    time = 0
    for round_ in range(3):
        for tag in ALIASED_TAGS:
            time += 7
            addr = design.addr_map.rebuild(tag, 0, 0)
            design.access(addr, time, write=(tag + round_) % 3 == 0)
    assert design.stats["multi_partial_matches"] > 0
    assert design.stats["false_hits"] > 0
    assert design.stats["writebacks"] > 0


#: Three partial-tag classes (low six bits 1, 2 and 3), eight tags deep:
#: a set's sixteen banks hold aliased blocks, searches meet partial-tag
#: false positives, and a class absent from a set misses fast.
DNUCA_TAGS = tuple(64 * k + low for low in (1, 2, 3) for k in range(8))

#: Column 0 is seven horizontal hops out; column 8 has none, so its
#: closest-two probe shares no link.
DNUCA_COLUMNS = (0, 8)

#: (pre-warm blocks as (column, set, tag), then accesses as (time step,
#: column, set, tag, write?, reset stats after it?)).  Pre-warm fills a
#: set nearest-first, so accesses find blocks at every position.
dnuca_runs = st.tuples(
    st.lists(st.tuples(st.sampled_from(DNUCA_COLUMNS), st.integers(0, 1),
                       st.sampled_from(DNUCA_TAGS)), max_size=40),
    st.lists(st.tuples(st.integers(0, 30), st.sampled_from(DNUCA_COLUMNS),
                       st.integers(0, 1), st.sampled_from(DNUCA_TAGS),
                       st.booleans(), st.integers(0, 40)),
             min_size=1, max_size=120))


@pytest.mark.parametrize("config", [
    DNUCA,
    dataclasses.replace(DNUCA, name="DNUCA-no-partial-tags",
                        use_partial_tags=False),
    dataclasses.replace(DNUCA, name="DNUCA-promote-3", promotion_distance=3),
    dataclasses.replace(DNUCA, name="DNUCA-head", insertion_position="head"),
    dataclasses.replace(DNUCA, name="DNUCA-incremental",
                        search_mode="incremental"),
    dataclasses.replace(DNUCA, name="DNUCA-2way", associativity=2),
], ids=lambda config: config.name)
@settings(max_examples=60, deadline=None)
@given(run=dnuca_runs)
def test_dnuca_matches_the_probe_walk(config, run):
    installed, accesses = run
    one_pass = DynamicNUCA(config)
    walk = ProbeWalkDNUCA(config)
    for design in (one_pass, walk):
        design.bulk_install([design.addr_map.rebuild(tag, set_index, column)
                             for column, set_index, tag in installed])
    time = 0
    for step, column, set_index, tag, write, reset in accesses:
        time += step
        addr = one_pass.addr_map.rebuild(tag, set_index, column)
        assert (one_pass.access(addr, time, write)
                == walk.access(addr, time, write))
        if reset == 0:
            one_pass.reset_stats()
            walk.reset_stats()
    assert design_accounting(one_pass) == design_accounting(walk)


def dnuca_cases(design, column, set_index, tag, write, time):
    """Access ``design`` (a ProbeWalkDNUCA); name the cases it took."""
    holder = design._find(column, set_index, tag)
    matches = [p for p in design.partial_tags[column].matches(set_index, tag)
               if p not in CLOSEST_BANKS]
    before = design.stats.as_dict()
    outcome = design.access(design.addr_map.rebuild(tag, set_index, column),
                            time, write)
    cases = {"write hit" if outcome.hit else "write miss"} if write else set()
    if holder is not None:
        cases.add(f"close hit at {holder[0]}" if holder[0] < 2
                  else "far hit")
    elif design.stats["fast_misses"] > before.get("fast_misses", 0):
        cases.add("fast miss")
    elif matches:
        cases.add("fruitless search")
    for counter in ("promotions", "writebacks"):
        if design.stats[counter] > before.get(counter, 0):
            cases.add(counter)
    return cases


def test_the_probe_walk_sees_every_corner_case():
    """The DNUCA strategy's alphabet reaches close hits at positions 0
    and 1, far hits, promotions, fast misses, fruitless partial-tag
    searches, write hits and misses, and dirty tail writebacks."""
    design = ProbeWalkDNUCA()
    design.bulk_install([design.addr_map.rebuild(tag, 0, 0)
                         for tag in DNUCA_TAGS[::2]])
    seen = set()
    time = 0
    for round_ in range(3):
        for index, tag in enumerate(DNUCA_TAGS):
            time += 7
            seen |= dnuca_cases(design, 0, round_ % 2, tag,
                                (index + round_) % 4 == 0, time)
    assert seen >= {"close hit at 0", "close hit at 1", "far hit",
                    "promotions", "fast miss", "fruitless search",
                    "write hit", "write miss", "writebacks"}, seen


def observed_run(design, workload):
    observer = RunObserver()
    result = run_system(design, workload, n_refs=2_000, seed=7,
                        observer=observer)
    return result_to_dict(result), observer.manifest.metrics


@pytest.mark.parametrize("workload", ["mcf", "swim"])
@pytest.mark.parametrize("design", ["TLC", "TLCopt1000", "TLCopt500",
                                    "TLCopt350", "SNUCA2", "DNUCA"])
def test_designs_simulate_identically_with_the_oracle(design, workload,
                                                      monkeypatch):
    plain = observed_run(design, workload)
    monkeypatch.setattr("repro.core.tlc.TLCController", OracleController)
    monkeypatch.setattr("repro.core.tlc_opt.TLCController", OracleController)
    monkeypatch.setattr("repro.core.tlc_opt.OptimizedTLC", StripeWalkTLC)
    monkeypatch.setattr("repro.nuca.snuca.MeshNetwork", OracleMesh)
    monkeypatch.setattr("repro.nuca.dnuca.MeshNetwork", OracleMesh)
    monkeypatch.setattr("repro.nuca.dnuca.DynamicNUCA", ProbeWalkDNUCA)
    built = build_design(design)
    assert isinstance(built.network, (OracleController, OracleMesh))
    assert (isinstance(built, StripeWalkTLC)
            or not isinstance(built, OptimizedTLC))
    assert (isinstance(built, ProbeWalkDNUCA)
            or not isinstance(built, DynamicNUCA))
    assert observed_run(design, workload) == plain
