"""Differential tests of bulk pre-warming against one install per block.

``prewarm_l2`` hands a design its whole resident population in one
``bulk_install`` call.  That call must leave exactly the state that
installing the blocks one by one leaves — and that the historical
install sequence, written here with the banks' public single-block API,
leaves: every bank's tags, dirty bits, replacement state and touched
sets, and DNUCA's partial tags.  States carry their element types, so
a numpy scalar cannot pass for the Python ``int`` the loop stores.

An array of distinct blocks into a fresh LRU design takes the closed
form (``CacheBank.fill_fresh``); everything else takes the per-block
loop, which is the oracle here.  A short replay then checks that the
three builds also simulate identically.
"""

import contextlib
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cache.bank import CacheBank
from repro.core.config import DESIGNS, build_design
from repro.nuca.dnuca import DynamicNUCA
from repro.sim.system import System, prewarm_l2
from repro.workloads.synthetic import TraceSpec, resident_block_addresses
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


def typed(value):
    """``value`` with its type, or a list with its elements' types.

    ``np.int64(4) == 4`` holds, so equal states must also agree on the
    types the loop stores: Python ``int`` tags and clocks.
    """
    if isinstance(value, list):
        return value, sorted(kind.__name__ for kind in set(map(type, value)))
    return value, type(value).__name__


def state(l2):
    """Everything bulk and per-block installs must agree on, types included."""
    banks = []
    for bank in tag_banks(l2):
        fields = {name: typed(value) for name, value in vars(bank).items()
                  if name not in ("policy", "sanitizer")}
        policy = {name: typed({key: rng.getstate()
                               for key, rng in value.items()}
                              if name == "_rngs" else value)
                  for name, value in vars(bank.policy).items()}
        banks.append((fields, policy, bank.touched_sets, list(bank.iter_sets())))
    partial = [{name: typed(value) for name, value in vars(pta).items()}
               for pta in getattr(l2, "partial_tags", ())]
    return banks, partial


def install_historically(l2, addr):
    """One block, through the banks' public single-block API."""
    if isinstance(l2, DynamicNUCA):
        column, set_index, tag = l2.addr_map.decompose(addr)
        if any(bank.probe(set_index, tag) is not None
               for bank in l2.banks[column]):
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


@contextlib.contextmanager
def closed_form_banks():
    """Collect every bank the closed form fills inside the block."""
    filled = []
    fill_fresh = CacheBank.fill_fresh

    def spy(bank, *args, **kwargs):
        filled.append(bank)
        return fill_fresh(bank, *args, **kwargs)

    with mock.patch.object(CacheBank, "fill_fresh", spy):
        yield filled


def per_block_states(design, ordered, prepare=lambda l2: None, **overrides):
    """The states one ``install()`` and one historical install per block leave."""
    states = []
    for install in (lambda l2, addr: l2.install(addr), install_historically):
        l2 = build_design(design, **overrides)
        prepare(l2)
        for addr in ordered:
            install(l2, addr)
        states.append(state(l2))
    return states


def assert_bulk_matches_loop(design, resident, closed_form,
                             prepare=lambda l2: None, **overrides):
    """``prewarm_l2`` of the array ``resident`` against both loops."""
    l2 = build_design(design, **overrides)
    prepare(l2)
    with closed_form_banks() as filled:
        assert prewarm_l2(l2, resident) == len(resident)
    assert bool(filled) == closed_form
    ordered = (resident if l2.install_order == "popular_last"
               else resident[::-1]).tolist()
    reference = state(l2)
    for other in per_block_states(design, ordered, prepare, **overrides):
        assert other == reference


#: Distinct (bank, set, tag) coordinates, dense enough that sets
#: overflow (DNUCA's 16 positions included) and tags 64 apart alias in
#: DNUCA's six-bit partial tags.  Every design has at least two banks
#: (TLCopt350 has two groups), so the coordinates stay distinct blocks.
distinct_blocks = st.lists(st.tuples(st.integers(0, 1), st.integers(0, 2),
                                     st.integers(0, 140)),
                           min_size=1, max_size=200, unique=True)


def addresses(design, coordinates):
    addr_map = build_design(design).addr_map
    return np.array([addr_map.rebuild(tag, set_index, bank)
                     for bank, set_index, tag in coordinates], dtype=np.int64)


@pytest.mark.parametrize("design", sorted(DESIGNS))
@settings(max_examples=15, deadline=None)
@given(coordinates=distinct_blocks)
@example(coordinates=[(0, 0, tag) for tag in range(45)]
         + [(1, 2, 64 * tag + 5) for tag in range(20)])
def test_closed_form_matches_per_block_install(design, coordinates):
    assert_bulk_matches_loop(design, addresses(design, coordinates),
                             closed_form=True)


small_specs = st.builds(
    TraceSpec, mean_gap=st.just(10.0),
    stream_fraction=st.sampled_from((0.0, 0.4)),
    hot_blocks=st.integers(1, 400),
    stream_blocks=st.integers(4, 3000),
    stream_interleave=st.integers(1, 4),
    scatter=st.booleans())


@pytest.mark.parametrize("design", sorted(DESIGNS))
@settings(max_examples=8, deadline=None)
@given(spec=small_specs)
def test_closed_form_matches_on_resident_sets(design, spec):
    assert_bulk_matches_loop(design, resident_block_addresses(spec),
                             closed_form=True)


def touch_first_target(l2, resident):
    """A lookup miss on the bank the first resident block maps to."""
    column, set_index, tag = l2.addr_map.decompose(int(resident[0]))
    if isinstance(l2, DynamicNUCA):
        l2.banks[column][5].lookup(set_index, tag)
    else:
        tag_banks(l2)[column].lookup(set_index, tag)


LOOP_CASES = {
    "touched bank": (lambda resident: resident, touch_first_target, {}),
    "non-empty design": (lambda resident: resident[1:],
                         lambda l2, resident: l2.install(int(resident[0])),
                         {}),
    "repeated block": (lambda resident: np.append(resident, resident[3] + 1),
                       None, {}),
    "lip": (lambda resident: resident, None, {"replacement": "lip"}),
    "frequency": (lambda resident: resident, None,
                  {"replacement": "frequency"}),
    "random": (lambda resident: resident, None, {"replacement": "random"}),
    "address beyond int64": (
        lambda resident: np.append(resident.astype(np.uint64),
                                   np.uint64(2**63 + 64 * 7)),
        None, {}),
}


@pytest.mark.parametrize("case", sorted(LOOP_CASES))
@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_other_cases_take_the_loop_and_match(design, case):
    """Everything the closed form does not cover runs the loop, exactly."""
    coordinates = ([(0, 0, tag) for tag in range(40)]
                   + [(1, 1, 64 * tag + 9) for tag in range(20)])
    full = addresses(design, coordinates)
    select, prepare, overrides = LOOP_CASES[case]
    resident = select(full)
    setup = ((lambda l2: prepare(l2, full)) if prepare is not None
             else (lambda l2: None))
    assert_bulk_matches_loop(design, resident, closed_form=False,
                             prepare=setup, **overrides)
