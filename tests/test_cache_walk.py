"""The generated hierarchy walk against the generic walk it replaced.

``CacheHierarchy`` runs every access past the L1 fast path through code
generated per hierarchy (DESIGN.md §15).  This file keeps the generic
per-level walk the generated code was derived from — probe with
:meth:`CacheLevel.access`, fill outermost first with
:meth:`CacheLevel.install`, propagate each eviction, then dirty the
innermost copy on a write — as its oracle, and drives twin hierarchies
through the same random programs: one through the generated walk, one
through the oracle.  After every operation the twins must agree on the
access result, every column, the index (in insertion order), the policy
states, the statistics and the policies' RNG states.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import cache
from repro.sim.cache import CacheHierarchy, CacheLevel, CacheLevelSpec, HierarchyAccessResult
from repro.sim.machine import (
    Machine,
    machine_a,
    machine_a_cxl,
    machine_b_fast,
    machine_b_slow,
    machine_dram,
)
from repro.sim.replacement import _POLICIES, ReplacementPolicy, make_policy

ALL_POLICIES = sorted(_POLICIES)


# -- the oracle: the generic walk ---------------------------------------------


def oracle_access(h, line, is_write):
    """The generic walk: inner miss, fills, evictions, writebacks."""
    latency = 0
    hit_at = None
    for i, lvl in enumerate(h.levels):
        latency += lvl.spec.hit_latency
        if lvl.access(line, is_write):
            hit_at = i
            break
    writebacks = []
    if hit_at is None:
        # Miss everywhere: fill every level, outermost first so that
        # inclusion holds even if an inner install evicts.
        for idx in range(len(h.levels) - 1, -1, -1):
            evicted = h.levels[idx].install(line, dirty=False)
            if evicted is not None:
                writebacks.extend(oracle_handle_eviction(h, idx, evicted))
        if is_write:
            oracle_mark_dirty_innermost(h, line)
        return HierarchyAccessResult("memory", latency, writebacks, memory_access=True)
    # Fill the levels above the hit (inclusive fills).
    for idx in range(hit_at - 1, -1, -1):
        evicted = h.levels[idx].install(line, dirty=False)
        if evicted is not None:
            writebacks.extend(oracle_handle_eviction(h, idx, evicted))
    if is_write:
        oracle_mark_dirty_innermost(h, line)
    return HierarchyAccessResult(h.levels[hit_at].spec.name, latency, writebacks)


def oracle_mark_dirty_innermost(h, line):
    for lvl in h.levels:
        if lvl.contains(line):
            lvl.access(line, is_write=True)
            # Undo the double-counted hit: the access above is
            # bookkeeping, not a program access.
            lvl.stats.hits -= 1
            return
    raise AssertionError(f"line {line:#x} vanished during fill")


def oracle_handle_eviction(h, idx, evicted):
    """Propagate an eviction from ``h.levels[idx]``; returns the dirty
    lines that reach memory."""
    if idx == len(h.levels) - 1:
        # Last-level eviction: back-invalidate the inner levels
        # (inclusion) and collect their dirtiness.
        dirty = evicted.dirty
        for inner in h.levels[:idx]:
            __, inner_dirty = inner.invalidate(evicted.line)
            dirty = dirty or inner_dirty
        return [evicted.line] if dirty else []
    # Inner eviction: the line is still resident below (inclusion); push
    # the dirt one level out.
    below = h.levels[idx + 1]
    if not below.contains(evicted.line):
        # An outer eviction already dropped it: memory-bound writeback.
        return [evicted.line] if evicted.dirty else []
    if evicted.dirty:
        below.install(evicted.line, dirty=True)
    return []


# -- twin hierarchies -----------------------------------------------------------


def recording(policy):
    """``policy`` rebuilt as a subclass that logs every policy call.

    The log is part of the compared state, so the twins must make the
    same calls in the same order — including the repeated touches that
    leave a built-in policy's state unchanged.  A subclass is also not
    ``TreePLRU`` or ``IntelLikePolicy`` itself, so the walk takes the
    bound-method route for it.
    """
    base = type(policy)

    class Recording(base):
        idempotent_on_access = False

        def on_access(self, state, way):
            self.log.append(("access", way))
            base.on_access(self, state, way)

        def on_insert(self, state, way):
            self.log.append(("insert", way))
            base.on_insert(self, state, way)

        def victim(self, state):
            way = base.victim(self, state)
            self.log.append(("victim", way))
            return way

        # victim + on_insert, so both show up in the log.
        evict_insert = ReplacementPolicy.evict_insert

    clone = Recording.__new__(Recording)
    clone.__dict__.update(policy.__dict__)
    clone.log = []
    return clone


def _synthetic(shape, policy, hashed, record):
    def level(name, size, ways, latency, level_hashed=False):
        pol = make_policy(policy, seed=11 + latency)
        if record:
            pol = recording(pol)
        spec = CacheLevelSpec(
            name=name, size_bytes=size, ways=ways, hit_latency=latency, hashed_index=level_hashed
        )
        return CacheLevel(spec, 64, pol)

    if shape == "1-level":
        levels = [level("L1", 1024, 4, 4, hashed)]
    elif shape == "2-level":
        levels = [level("L1", 512, 2, 4), level("L2", 2048, 4, 12, hashed)]
    elif shape == "3-level":
        levels = [
            level("L1", 512, 2, 4),
            level("L2", 1024, 4, 10),
            level("LLC", 4096, 8, 30, hashed),
        ]
    else:  # "wide": a 32-way last level (two tree levels below the top table)
        levels = [level("L1", 512, 2, 4), level("L2", 4096, 32, 14, hashed)]
    return CacheHierarchy(levels, 64)


def _line_pool(h, size):
    """Lines that collide in every level's sets, plus some that do not.

    The colliding lines share one set at every level (one set number
    under modulo indexing, one hashed set otherwise), so a handful of
    them overflows even a large last level; their neighbours share
    another modulo set and spread across the hashed ones.
    """
    stride = max((lvl.num_sets for lvl in h.levels if not lvl.hashed_index), default=1)
    hashed = [lvl for lvl in h.levels if lvl.hashed_index]
    colliding = []
    k = 1
    while len(colliding) < size:
        line = k * stride
        k += 1
        if all(lvl.set_index(line) == lvl.set_index(stride) for lvl in hashed):
            colliding.append(line)
    return colliding + [line + 1 for line in colliding[: size // 2]] + [3]


def _policy_key(state):
    """A set's policy state, minus the shared tables of the tree-PLRU
    state (``[tree, and_masks, or_masks, top, ways]``) — tree-plru and
    intel-like alike, at every way count."""
    if type(state) is list and len(state) == 5 and type(state[1]) is list:
        return state[0]
    return state


def _state(h):
    out = []
    for lvl in h.levels:
        policy = lvl.policy
        rng = getattr(policy, "_rng", None)
        out.append(
            (
                list(lvl._tags),
                bytes(lvl._dirty),
                list(lvl._index.items()),
                list(lvl._set_fill),
                [_policy_key(state) for state in lvl._policy_state],
                dataclasses.asdict(lvl.stats),
                rng.getstate() if rng is not None else None,
                list(getattr(policy, "log", ())),
            )
        )
    return out


def _result(res):
    return (res.hit_level, res.latency, list(res.writebacks), res.memory_access)


OPS = ("read", "read", "write", "write", "clean", "demote", "invalidate", "fill_write_miss")

programs = st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(min_value=0, max_value=10**6), st.booleans()),
    min_size=1,
    max_size=120,
)


def run_twins(a, b, pool, program):
    """Drive ``a`` (generated walk) and ``b`` (oracle walk) in lockstep."""
    assert _state(a) == _state(b)
    for op, pick, direct in program:
        line = pool[pick % len(pool)]
        if op == "fill_write_miss" and a.contains(line):
            op = "write"  # the fused walk requires a line resident nowhere
        if op in ("read", "write"):
            is_write = op == "write"
            # ``direct`` enters the generated walk without the L1 fast
            # path, so its L1-hit branch is exercised too.
            walk = a._access_line_slow if direct else a.access_line
            got = _result(walk(line, is_write))
            want = _result(oracle_access(b, line, is_write))
        elif op == "fill_write_miss":
            wb = []
            a.fill_write_miss(line, wb)
            got = wb
            want = oracle_access(b, line, True).writebacks
        elif op == "clean":
            got, want = a.clean_line(line), b.clean_line(line)
        elif op == "demote":
            wa, wb = [], []
            got = (a.demote_line(line, wa), wa)
            want = (b.demote_line(line, wb), wb)
        else:
            got, want = a.invalidate_line(line), b.invalidate_line(line)
        assert got == want, (op, line)
        assert (a.contains(line), a.is_dirty(line)) == (b.contains(line), b.is_dirty(line))
        assert _state(a) == _state(b), (op, line)


# -- the differential -----------------------------------------------------------


@pytest.mark.parametrize("record", [False, True], ids=["plain", "recorded"])
@pytest.mark.parametrize("shape", ["1-level", "2-level", "3-level", "wide"])
@pytest.mark.parametrize("hashed", [False, True], ids=["modulo", "hashed"])
@pytest.mark.parametrize("policy", ALL_POLICIES)
@given(program=programs)
@settings(max_examples=12, deadline=None)
def test_generated_walk_matches_generic_walk(policy, hashed, shape, record, program):
    a = _synthetic(shape, policy, hashed, record)
    b = _synthetic(shape, policy, hashed, record)
    run_twins(a, b, _line_pool(a, 2 * a.levels[-1].spec.ways), program)


PRESETS = {
    "machine_a": machine_a,
    "machine_dram": machine_dram,
    "machine_a_cxl": machine_a_cxl,
    "machine_b_fast": machine_b_fast,
    "machine_b_slow": machine_b_slow,
}


@pytest.mark.parametrize("preset", sorted(PRESETS))
@given(program=programs)
@settings(max_examples=8, deadline=None)
def test_generated_walk_matches_generic_walk_on_presets(preset, program):
    spec = PRESETS[preset]()
    a = Machine(spec).hierarchy
    b = Machine(spec).hierarchy
    run_twins(a, b, _line_pool(a, 3 * a.levels[-1].spec.ways // 2), program)


@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_long_churn_on_three_levels(policy):
    # A long seeded program over a tight pool, past what the hypothesis
    # examples reach: many last-level evictions with dirty inner copies.
    a = _synthetic("3-level", policy, True, False)
    b = _synthetic("3-level", policy, True, False)
    rng = random.Random(4242)
    program = [(rng.choice(OPS), rng.randrange(10**6), rng.random() < 0.3) for _ in range(3000)]
    run_twins(a, b, _line_pool(a, 24), program)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Machine(machine_a()).hierarchy,
        lambda: _synthetic("wide", "tree-plru", True, False),
        lambda: _synthetic("wide", "intel-like", True, False),
    ],
    ids=["machine_a", "wide-tree-plru", "wide-intel-like"],
)
def test_long_churn_on_deep_trees(build):
    # 16- and 32-way last levels: the generated walk's victim pick takes
    # one or two steps below the top table.  Enough conflict misses over
    # a pool of 1.5x the last level's ways to reach many tree states.
    a, b = build(), build()
    rng = random.Random(1234)
    program = [(rng.choice(OPS), rng.randrange(10**6), rng.random() < 0.3) for _ in range(3000)]
    run_twins(a, b, _line_pool(a, 3 * a.levels[-1].spec.ways // 2), program)


# -- the compile memo -------------------------------------------------------------


def test_one_compile_per_distinct_shape():
    spec = machine_b_fast()
    first = Machine(spec).hierarchy
    compiled = len(cache._WALK_CODE)
    second = Machine(spec).hierarchy
    assert len(cache._WALK_CODE) == compiled
    assert second._access_line_slow.__code__ is first._access_line_slow.__code__
    # ... but each hierarchy walks its own columns.
    line = 12345
    first.access_line(line, True)
    assert first.contains(line) and not second.contains(line)
