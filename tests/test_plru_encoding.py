"""The one integer-tree PLRU encoding against the three encodings it replaced.

:class:`TreePLRU` and :class:`IntelLikePolicy` keep every set as one
integer-encoded tree (bit ``k`` = heap node ``k``) at any power-of-two
way count: a touch is a mask update, a victim pick is a lookup in a
table over the top three tree levels plus one step per deeper level.
This file keeps the encodings that came before as oracles — TreePLRU's
list of bits, intel-like's integer state with a full ``2**(ways-1)``
victim table (16 ways and fewer) and intel-like's wide-set ``(ways,
bits)`` state (beyond 16 ways) — and requires the same victims, the same
RNG draws and the same tree after every operation.
"""

from __future__ import annotations

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import replacement
from repro.sim.machine import PRESETS, Machine
from repro.sim.replacement import (
    IntelLikePolicy,
    TreePLRU,
    _plru_tables,
    _plru_victim,
    tree_tables,
)

WAYS = (2, 4, 8, 16, 32, 64)


# -- the oracles: the previous encodings ----------------------------------------


@functools.lru_cache(maxsize=None)
def old_lut(ways):
    """``(and_masks, or_masks, victim_table)`` over all ``2**(ways-1)`` states."""
    nodes = ways - 1
    full = (1 << nodes) - 1
    and_masks, or_masks = [], []
    for way in range(ways):
        clear = 0
        setv = 0
        node = 0
        lo, hi = 0, ways
        while hi - lo > 1:
            mid = (lo + hi) // 2
            bit = 1 << node
            clear |= bit
            if way < mid:
                setv |= bit
                node = 2 * node + 1
                hi = mid
            else:
                node = 2 * node + 2
                lo = mid
        and_masks.append(full & ~clear)
        or_masks.append(setv)
    victim_table = [full_walk(state, ways) for state in range(1 << nodes)]
    return and_masks, or_masks, victim_table


def full_walk(state, ways):
    """The victim walk from the root over an integer-encoded tree."""
    node = 0
    lo, hi = 0, ways
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (state >> node) & 1:
            node = 2 * node + 2
            lo = mid
        else:
            node = 2 * node + 1
            hi = mid
    return lo


class OldTreePLRU:
    """TreePLRU as a list of bits, walked per call."""

    def new_set(self, ways):
        return [0] * (ways - 1)

    def on_access(self, bits, way):
        node = 0
        lo, hi = 0, len(bits) + 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if way < mid:
                bits[node] = 1
                node = 2 * node + 1
                hi = mid
            else:
                bits[node] = 0
                node = 2 * node + 2
                lo = mid

    on_insert = on_access

    def victim(self, bits):
        node = 0
        lo, hi = 0, len(bits) + 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if bits[node] == 1:
                node = 2 * node + 2
                lo = mid
            else:
                node = 2 * node + 1
                hi = mid
        return lo

    def evict_insert(self, bits):
        way = self.victim(bits)
        self.on_access(bits, way)
        return way

    @staticmethod
    def tree(bits):
        return list(bits)


class OldIntelLike:
    """IntelLikePolicy with the integer state and full victim table for
    sets of up to ``lut_max_ways`` ways, and the ``(ways, bits)`` state
    with inline walks beyond."""

    lut_max_ways = 16

    def __init__(self, random_prob=0.25, seed=0):
        self.random_prob = random_prob
        self._rng = random.Random(seed)
        self._rand = self._rng.random

    def new_set(self, ways):
        if ways > self.lut_max_ways:
            return (ways, [0] * (ways - 1))
        and_masks, or_masks, victim_table = old_lut(ways)
        return [0, and_masks, or_masks, victim_table, ways]

    def on_access(self, state, way):
        if type(state) is list:
            state[0] = (state[0] & state[1][way]) | state[2][way]
            return
        OldTreePLRU().on_access(state[1], way)

    on_insert = on_access

    def victim(self, state):
        if type(state) is list:
            if self._rand() < self.random_prob:
                return int(self._rand() * state[4])
            return state[3][state[0]]
        ways, bits = state
        if self._rand() < self.random_prob:
            return int(self._rand() * ways)
        return OldTreePLRU().victim(bits)

    def evict_insert(self, state):
        way = self.victim(state)
        self.on_access(state, way)
        return way

    @staticmethod
    def tree(state):
        if type(state) is list:
            return decode(state, len(state[1]))
        return list(state[1])


class OldIntelLikeWide(OldIntelLike):
    """The wide-set ``(ways, bits)`` encoding at every way count."""

    lut_max_ways = 0


def decode(state, ways):
    """The tree bits of an integer-encoded set, root first."""
    return [(state[0] >> node) & 1 for node in range(ways - 1)]


# -- drive old and new in lockstep ----------------------------------------------


def rng_state(policy):
    rng = getattr(policy, "_rng", None)
    return rng.getstate() if rng is not None else None


def run_pair(new, old, ways, program):
    a, b = new.new_set(ways), old.new_set(ways)
    rng_before = random.getstate()
    for op, pick in program:
        way = pick % ways
        if op == "insert":
            got, want = new.on_insert(a, way), old.on_insert(b, way)
        elif op == "access":
            got, want = new.on_access(a, way), old.on_access(b, way)
        elif op == "victim":
            got, want = new.victim(a), old.victim(b)
        else:
            got, want = new.evict_insert(a), old.evict_insert(b)
        assert got == want, (op, way)
        assert decode(a, ways) == old.tree(b), (op, way)
        assert rng_state(new) == rng_state(old), (op, way)
    # Neither encoding touches the module-level RNG.
    assert random.getstate() == rng_before


PAIRS = {
    "tree-plru": (lambda seed: TreePLRU(), lambda seed: OldTreePLRU()),
    "intel-like": (lambda seed: IntelLikePolicy(seed=seed), lambda seed: OldIntelLike(seed=seed)),
    "intel-like-wide": (
        lambda seed: IntelLikePolicy(seed=seed),
        lambda seed: OldIntelLikeWide(seed=seed),
    ),
}

programs = st.lists(
    st.tuples(
        st.sampled_from(("insert", "access", "access", "victim", "evict_insert")),
        st.integers(min_value=0, max_value=63),
    ),
    min_size=1,
    max_size=200,
)


@given(
    pair=st.sampled_from(sorted(PAIRS)),
    ways=st.sampled_from(WAYS),
    seed=st.sampled_from((0, 1, 1234, 4242)),
    program=programs,
)
@settings(max_examples=300, deadline=None)
def test_new_encoding_matches_old(pair, ways, seed, program):
    make_new, make_old = PAIRS[pair]
    run_pair(make_new(seed), make_old(seed), ways, program)


@pytest.mark.parametrize("pair", sorted(PAIRS))
@pytest.mark.parametrize("ways", WAYS)
def test_long_churn_matches_old(pair, ways):
    """Long enough to reach deep trees at 64 ways."""
    make_new, make_old = PAIRS[pair]
    rng = random.Random(ways)
    ops = ("insert", "access", "access", "victim", "evict_insert")
    program = [(rng.choice(ops), rng.randrange(ways)) for _ in range(2000)]
    run_pair(make_new(7), make_old(7), ways, program)


def test_tree_plru_has_no_rng():
    assert not hasattr(TreePLRU(), "_rng")


# -- the composed victim ------------------------------------------------------------


@pytest.mark.parametrize("ways", (1, 2, 4, 8, 16))
def test_composed_victim_equals_full_walk_on_every_state(ways):
    top = _plru_tables(ways)[2]
    for state in range(1 << (ways - 1)):
        assert _plru_victim(state, top, ways) == full_walk(state, ways), state


@pytest.mark.parametrize("ways", (32, 64))
def test_composed_victim_equals_full_walk_on_sampled_states(ways):
    top = _plru_tables(ways)[2]
    rng = random.Random(ways)
    for _ in range(5000):
        state = rng.getrandbits(ways - 1)
        assert _plru_victim(state, top, ways) == full_walk(state, ways), state


# -- table sizes ---------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_machines_build_no_table_over_128_entries(name):
    machine = Machine(PRESETS[name]())
    for level in machine.hierarchy.levels:
        if tree_tables(level.policy, level._ways) is not None:
            assert all(len(table) <= 128 for table in level._policy_state[0][1:4])
    for tables in replacement._PLRU_TABLES.values():
        assert all(len(table) <= 128 for table in tables)
