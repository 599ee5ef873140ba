"""Cache replacement policies.

The paper's Problem #1 hinges on the fact that modern caches do *not*
evict in strict LRU order: "Intel CPUs rely on a pseudo-LRU and 'random'
evictions to reduce the cost of maintaining LRU.  Similarly, ARM CPUs
implement a mix of LRU, FIFO, and random evictions" (Section 4.1).

Each policy manages per-set metadata of its own shape; the cache gives it
way indices on insert/access and asks for a victim way on conflict.  All
randomised policies draw from a seeded :class:`random.Random` owned by the
policy so that simulations are reproducible.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Any, List

from repro.errors import ConfigurationError

__all__ = [
    "ReplacementPolicy",
    "TrueLRU",
    "FIFO",
    "RandomReplacement",
    "TreePLRU",
    "IntelLikePolicy",
    "ArmLikePolicy",
    "make_policy",
]


class ReplacementPolicy(ABC):
    """Per-set victim selection strategy.

    The cache calls :meth:`new_set` once per set, then feeds accesses and
    insertions through :meth:`on_access` / :meth:`on_insert` and asks
    :meth:`victim` for the way index to evict when the set is full.
    """

    name: str = "abstract"

    #: Contract: calling :meth:`on_access` repeatedly with the same way
    #: (and no interleaved insert/victim) leaves the metadata in the same
    #: state as calling it once, and draws no randomness.  All built-in
    #: policies satisfy this (recency updates are absorbing; RNG is only
    #: consumed by :meth:`victim`), which lets the simulator's fast paths
    #: collapse the reference interpreter's repeated same-way touches
    #: into one.  A subclass that counts accesses or randomises recency
    #: must set this to False; the fast paths then replay every touch.
    idempotent_on_access: bool = True

    @abstractmethod
    def new_set(self, ways: int) -> Any:
        """Create the metadata object for one ``ways``-wide set."""

    @abstractmethod
    def on_insert(self, state: Any, way: int) -> None:
        """A line was installed into ``way``."""

    @abstractmethod
    def on_access(self, state: Any, way: int) -> None:
        """The line in ``way`` was hit by a load or store."""

    @abstractmethod
    def victim(self, state: Any) -> int:
        """The way index to evict from a full set."""

    def evict_insert(self, state: Any) -> int:
        """Pick a victim and register the replacement insert, fused.

        Exactly equivalent to ``victim(state)`` followed by
        ``on_insert(state, way)`` — including randomness draw order — in
        one call.  The simulator's fused miss walk uses this to halve the
        per-eviction policy call count; built-in policies override it
        with fully inlined implementations.
        """
        way = self.victim(state)
        self.on_insert(state, way)
        return way

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"


class TrueLRU(ReplacementPolicy):
    """Strict least-recently-used: the textbook baseline.

    Under true LRU, an application that writes arrays one after the other
    sees them evicted in the order they were written — the ideal the
    paper's Figure 2 contrasts real hardware against.
    """

    name = "lru"

    def new_set(self, ways: int) -> List[int]:
        # Recency stack: index 0 = LRU, last = MRU.
        return list(range(ways))

    def on_insert(self, state: List[int], way: int) -> None:
        self.on_access(state, way)

    def on_access(self, state: List[int], way: int) -> None:
        state.remove(way)
        state.append(way)

    def victim(self, state: List[int]) -> int:
        return state[0]

    def evict_insert(self, state: List[int]) -> int:
        way = state.pop(0)  # victim = LRU; insert makes it MRU
        state.append(way)
        return way


class FIFO(ReplacementPolicy):
    """First-in first-out: eviction order ignores hits entirely."""

    name = "fifo"

    def new_set(self, ways: int) -> List[int]:
        return list(range(ways))

    def on_insert(self, state: List[int], way: int) -> None:
        state.remove(way)
        state.append(way)

    def on_access(self, state: List[int], way: int) -> None:
        # Hits do not change FIFO order.
        pass

    def victim(self, state: List[int]) -> int:
        return state[0]

    def evict_insert(self, state: List[int]) -> int:
        way = state.pop(0)  # victim = oldest; insert re-queues it last
        state.append(way)
        return way


class RandomReplacement(ReplacementPolicy):
    """Uniformly random victim selection."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def new_set(self, ways: int) -> int:
        return ways

    def on_insert(self, state: int, way: int) -> None:
        pass

    def on_access(self, state: int, way: int) -> None:
        pass

    def victim(self, state: int) -> int:
        return self._rng.randrange(state)

    def evict_insert(self, state: int) -> int:
        return self._rng.randrange(state)  # on_insert is a no-op


#: Memoised tree-PLRU tables keyed by way count.  A set's tree is one
#: integer (bit ``k`` = heap node ``k``; node ``k``'s children are
#: ``2k+1`` and ``2k+2``; a set bit means "the right subtree is older").
#: A *touch* writes fixed bits along a path determined only by the
#: touched way — never by the current state — so it collapses to
#: ``state & and_masks[way] | or_masks[way]``.  The victim walk is
#: state-dependent: ``top`` tabulates it over the top three levels (the
#: whole tree up to 8 ways, so at most 128 entries) and
#: :func:`_plru_victim` descends any deeper level one bit at a time.
_PLRU_TABLES: dict = {}


def _plru_tables(ways: int):
    """``(and_masks, or_masks, top)`` for a ``ways``-way tree."""
    tables = _PLRU_TABLES.get(ways)
    if tables is not None:
        return tables
    full = (1 << (ways - 1)) - 1
    and_masks: List[int] = []
    or_masks: List[int] = []
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
    top_ways = min(ways, 8)
    top: List[int] = []
    for state in range(1 << (top_ways - 1)):
        node = 0
        lo, hi = 0, top_ways
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if (state >> node) & 1:
                node = 2 * node + 2
                lo = mid
            else:
                node = 2 * node + 1
                hi = mid
        top.append(lo)
    tables = _PLRU_TABLES[ways] = (and_masks, or_masks, top)
    return tables


def _plru_levels(ways: int) -> List[int]:
    """First heap node of each tree level below the top three.

    After ``w = top[s & 127]`` the walk stands at node ``base + w`` of
    the level starting at ``base``; one step ``w = 2*w + ((s >> (base +
    w)) & 1)`` per level reaches the victim way.
    """
    return [(1 << depth) - 1 for depth in range(3, ways.bit_length() - 1)]


def _plru_victim(s: int, top: List[int], ways: int) -> int:
    """The tree's victim way for state ``s`` (``_plru_levels``, looped)."""
    w = top[s & 127]
    base = 7
    while base < ways - 1:
        w = 2 * w + ((s >> (base + w)) & 1)
        base = 2 * base + 1
    return w


def tree_tables(policy: "ReplacementPolicy", ways: int):
    """``(and_masks, or_masks, top)`` when ``policy`` is exactly
    :class:`TreePLRU` or :class:`IntelLikePolicy`, else None.

    The simulator's generated cache walk and fused loops inline the
    tree touch and victim pick for these two; a subclass (which may
    override any call) or another policy keeps its bound methods.
    """
    if type(policy) is TreePLRU or type(policy) is IntelLikePolicy:
        return _plru_tables(ways)
    return None


class TreePLRU(ReplacementPolicy):
    """Tree pseudo-LRU: the classic 1-bit-per-node approximation.

    For a ``w``-way set (``w`` a power of two) a binary tree of ``w - 1``
    bits points away from recently used ways.  Pseudo-LRU approximates LRU
    well but diverges under exactly the interleaved access patterns the
    paper cares about, producing out-of-order evictions.

    A set's state is ``[tree, and_masks, or_masks, top, ways]``: the
    integer-encoded tree plus its way count's shared tables.
    """

    name = "tree-plru"

    def new_set(self, ways: int) -> List[Any]:
        if ways & (ways - 1):
            raise ConfigurationError(f"TreePLRU requires power-of-two ways, got {ways}")
        and_masks, or_masks, top = _plru_tables(ways)
        return [0, and_masks, or_masks, top, ways]

    def on_access(self, state: List[Any], way: int) -> None:
        # This is the hottest policy call in the simulator: every hit
        # and every fill.
        state[0] = (state[0] & state[1][way]) | state[2][way]

    on_insert = on_access

    def victim(self, state: List[Any]) -> int:
        return _plru_victim(state[0], state[3], state[4])

    def evict_insert(self, state: List[Any]) -> int:
        s = state[0]
        way = _plru_victim(s, state[3], state[4])
        state[0] = (s & state[1][way]) | state[2][way]
        return way


class IntelLikePolicy(TreePLRU):
    """Tree-PLRU with a random-victim component, as on Intel cores.

    With probability ``random_prob`` the victim is chosen uniformly at
    random instead of by the PLRU tree, modelling the adaptive/random
    behaviour documented for Ivy Bridge and later (paper ref. [45]).
    """

    name = "intel-like"

    def __init__(self, random_prob: float = 0.25, seed: int = 0) -> None:
        if not 0.0 <= random_prob <= 1.0:
            raise ConfigurationError(f"random_prob must be in [0, 1], got {random_prob}")
        self.random_prob = random_prob
        self._rng = random.Random(seed)
        # Bound RNG draw: victim runs once per conflict miss in the
        # simulator's fused loops, so shave the attribute chains.  The
        # uniform way pick is ``int(random() * ways)`` — one C-level draw
        # instead of randrange's Python-level rejection loop; for the
        # power-of-two way counts the tree supports the float has bits to
        # spare, so the pick stays uniform.
        self._rand = self._rng.random

    def victim(self, state: List[Any]) -> int:
        if self._rand() < self.random_prob:
            return int(self._rand() * state[4])
        return _plru_victim(state[0], state[3], state[4])

    def evict_insert(self, state: List[Any]) -> int:
        s = state[0]
        if self._rand() < self.random_prob:
            way = int(self._rand() * state[4])
        else:
            way = _plru_victim(s, state[3], state[4])
        state[0] = (s & state[1][way]) | state[2][way]
        return way


class ArmLikePolicy(ReplacementPolicy):
    """A mix of LRU, FIFO and random eviction, as on ARM cores.

    Per eviction one of the three sub-policies is drawn according to the
    configured weights (paper ref. [3] documents such mixed behaviour for
    ARM cache controllers).
    """

    name = "arm-like"

    def __init__(
        self,
        lru_weight: float = 0.5,
        fifo_weight: float = 0.25,
        random_weight: float = 0.25,
        seed: int = 0,
    ) -> None:
        total = lru_weight + fifo_weight + random_weight
        if total <= 0 or min(lru_weight, fifo_weight, random_weight) < 0:
            raise ConfigurationError("ArmLikePolicy weights must be non-negative and sum > 0")
        self._weights = (lru_weight / total, fifo_weight / total, random_weight / total)
        self._lru = TrueLRU()
        self._fifo = FIFO()
        self._rng = random.Random(seed)
        # Bound delegates + precomputed thresholds for the per-miss
        # victim call; identical draw order through self._rng.
        self._rand = self._rng.random
        self._randrange = self._rng.randrange
        self._lru_cut = self._weights[0]
        self._fifo_cut = self._weights[0] + self._weights[1]

    def new_set(self, ways: int) -> Any:
        return (ways, self._lru.new_set(ways), self._fifo.new_set(ways))

    def on_insert(self, state: Any, way: int) -> None:
        lru_state = state[1]
        lru_state.remove(way)
        lru_state.append(way)
        fifo_state = state[2]
        fifo_state.remove(way)
        fifo_state.append(way)

    def on_access(self, state: Any, way: int) -> None:
        # LRU recency moves on a hit; FIFO order does not.
        lru_state = state[1]
        lru_state.remove(way)
        lru_state.append(way)

    def victim(self, state: Any) -> int:
        draw = self._rand()
        if draw < self._lru_cut:
            return state[1][0]
        if draw < self._fifo_cut:
            return state[2][0]
        return self._randrange(state[0])

    def evict_insert(self, state: Any) -> int:
        draw = self._rand()
        if draw < self._lru_cut:
            way = state[1][0]
        elif draw < self._fifo_cut:
            way = state[2][0]
        else:
            way = self._randrange(state[0])
        # on_insert inlined: LRU and FIFO orders both move the way last.
        lru_state = state[1]
        lru_state.remove(way)
        lru_state.append(way)
        fifo_state = state[2]
        fifo_state.remove(way)
        fifo_state.append(way)
        return way


_POLICIES = {
    "lru": TrueLRU,
    "fifo": FIFO,
    "random": RandomReplacement,
    "tree-plru": TreePLRU,
    "intel-like": IntelLikePolicy,
    "arm-like": ArmLikePolicy,
}


def make_policy(name: str, seed: int = 0) -> ReplacementPolicy:
    """Instantiate a policy by name (seeded where applicable).

    >>> make_policy("lru").name
    'lru'
    """
    try:
        cls = _POLICIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown replacement policy {name!r}; choose from {sorted(_POLICIES)}"
        ) from None
    if cls in (RandomReplacement, IntelLikePolicy, ArmLikePolicy):
        return cls(seed=seed)  # type: ignore[call-arg]
    return cls()
