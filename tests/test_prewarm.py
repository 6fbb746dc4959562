"""Differential tests of bulk pre-warming against one install per block.

``prewarm_l2`` hands a design its whole resident list in one
``bulk_install`` call.  That call must leave exactly the state that
installing the blocks one by one leaves — and that the historical
install sequence, written here with the banks' public single-block API,
leaves: every bank's tags, dirty bits, replacement state and touched
sets, and DNUCA's partial tags.  A short replay then checks that the
three builds also simulate identically.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.config import DESIGNS
from repro.nuca.dnuca import DynamicNUCA
from repro.sim.system import System, prewarm_l2
from repro.workloads.trace import Reference

POLICIES = ("lru", "lip", "frequency", "random")

#: (bank, set, tag) coordinates: few banks and sets, so sets overflow
#: (DNUCA's 16 positions included) and blocks repeat; tags 64 apart
#: alias in DNUCA's six-bit partial tags.
blocks = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                            st.integers(0, 140)), max_size=160)

#: One set over-filled twice over, with repeats and aliased tags.
OVERFULL = [(0, 0, tag) for tag in range(40)] + [(0, 0, 3), (0, 0, 67),
                                                 (0, 0, 39), (0, 0, 131)]


def tag_banks(l2):
    """Every CacheBank of a design, in a fixed order."""
    if isinstance(l2, DynamicNUCA):
        return [bank for bankset in l2.banks for bank in bankset]
    return getattr(l2, "groups", None) or l2.banks


def state(l2):
    """Everything bulk and per-block installs must agree on."""
    banks = []
    for bank in tag_banks(l2):
        fields = {name: value for name, value in vars(bank).items()
                  if name not in ("policy", "sanitizer")}
        policy = {name: ({key: rng.getstate() for key, rng in value.items()}
                         if name == "_rngs" else value)
                  for name, value in vars(bank.policy).items()}
        banks.append((fields, policy, bank.touched_sets, list(bank.iter_sets())))
    partial = [vars(pta) for pta in getattr(l2, "partial_tags", ())]
    return banks, partial


def install_historically(l2, addr):
    """One block, through the banks' public single-block API."""
    if isinstance(l2, DynamicNUCA):
        column, set_index, tag = l2.addr_map.decompose(addr)
        if l2._find(column, set_index, tag) is not None:
            return
        pta = l2.partial_tags[column]
        for position, bank in enumerate(l2.banks[column]):
            for way in range(bank.ways):
                if bank.tag_at(set_index, way) is None:
                    bank.replace_way(set_index, way, tag)
                    pta.update(position, set_index, way, tag)
                    return
        tail = l2.positions - 1
        l2.banks[column][tail].replace_way(set_index, 0, tag)
        pta.update(tail, set_index, 0, tag)
        return
    bank_index, set_index, tag = l2.addr_map.decompose(addr)
    bank = tag_banks(l2)[bank_index]
    if bank.probe(set_index, tag) is None:
        bank.insert(set_index, tag)
        bank.lookup(set_index, tag)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("design", sorted(DESIGNS))
@settings(max_examples=12, deadline=None)
@given(coordinates=blocks, seed=st.integers(0, 2**16))
@example(coordinates=OVERFULL, seed=1)
def test_bulk_prewarm_matches_per_block_install(design, policy, coordinates,
                                                seed):
    systems = [System(design, replacement=policy) for _ in range(3)]
    l2 = systems[0].l2
    resident = [l2.addr_map.rebuild(tag, set_index, bank)
                for bank, set_index, tag in coordinates]
    ordered = (resident if l2.install_order == "popular_last"
               else resident[::-1])

    assert prewarm_l2(l2, resident) == len(resident)
    for addr in ordered:
        systems[1].l2.install(addr)
        install_historically(systems[2].l2, addr)

    reference = state(l2)
    for other in systems[1:]:
        assert state(other.l2) == reference

    rng = random.Random(seed)
    pool = resident + [l2.addr_map.rebuild(rng.randrange(200), 1, 1)
                       for _ in range(20)]
    trace = [Reference(rng.randrange(1, 30), rng.choice(pool),
                       rng.random() < 0.3, rng.random() < 0.2)
             for _ in range(120)]
    results = [system.run(trace, benchmark="diff", warmup_refs=20)
               for system in systems]
    assert results[1] == results[0]
    assert results[2] == results[0]
