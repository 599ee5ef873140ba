"""Set-associative write-back caches and the inclusive cache hierarchy.

The hierarchy is the centrepiece of Problem #1 (Section 4.1): even when an
application writes sequentially, pseudo-random replacement scrambles the
order in which dirty lines reach memory, and a device with a write
granularity larger than the CPU line suffers write amplification.

Model choices (documented in DESIGN.md):

* Caches are **inclusive**: a line present in L1 is present in every level
  below it.  Evicting a line from the last level back-invalidates the
  upper levels, collecting dirtiness on the way (the victim's most recent
  data must reach memory).
* Dirtiness lives at the *innermost* level holding the line; when an inner
  level evicts a dirty line, the dirt moves one level out.
* The hierarchy is shared by all simulated cores.  Private L1s would only
  change constants; the eviction-order scrambling the paper measures comes
  from the shared last level, which this models directly.

Storage layout (DESIGN.md §15): each level keeps its tags and dirty bits
as flat structure-of-arrays — one tags array and one dirty byte array of
``num_sets * ways`` slots, plus a ``line -> slot`` index — instead of
per-way objects.  The flat slot number (``set * ways + way``) is the only
handle the hot paths pass around, and bulk operations (the end-of-run
drain, state snapshots) read the arrays columnwise, with numpy when it is
available.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import CodeType
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.sim.replacement import IntelLikePolicy, ReplacementPolicy, _plru_levels, tree_tables

try:  # pragma: no cover - exercised implicitly everywhere numpy exists
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is in the standard image
    _np = None  # type: ignore[assignment]

__all__ = ["CacheLevelSpec", "CacheStats", "CacheLevel", "Eviction", "CacheHierarchy"]

#: Tag value of an empty slot (line numbers are non-negative).
EMPTY = -1


@dataclass(frozen=True)
class CacheLevelSpec:
    """Geometry and latency of one cache level."""

    name: str
    size_bytes: int
    ways: int
    #: Load-to-use latency of a hit at this level, in cycles.
    hit_latency: int
    #: Use hashed (slice-style) set indexing at this level.
    hashed_index: bool = False

    def validate(self, line_size: int) -> None:
        if self.size_bytes <= 0 or self.ways <= 0 or self.hit_latency < 0:
            raise ConfigurationError(f"{self.name}: sizes, ways and latency must be positive")
        if self.size_bytes % (self.ways * line_size) != 0:
            raise ConfigurationError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"ways*line_size = {self.ways * line_size}"
            )


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache level."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    invalidations: int = 0
    cleans: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per access; NaN when the level was never accessed (see
        the derived-ratio convention in :mod:`repro.sim.stats`)."""
        if self.accesses == 0:
            return float("nan")
        return self.hits / self.accesses


@dataclass(frozen=True)
class Eviction:
    """A line pushed out of a cache level."""

    line: int
    dirty: bool


class CacheLevel:
    """One set-associative, write-back, write-allocate cache level.

    ``hashed_index`` spreads lines across sets with a multiplicative hash
    instead of simple modulo, modelling the slice/set hashing of modern
    last-level caches.  Hashing matters for Problem #1: it decouples the
    sets of the (consecutive) lines that make up one device-granularity
    block, so their evictions are *not* naturally co-scheduled — which is
    part of why hardware eviction order looks random to the device.

    State is structure-of-arrays: ``_tags[slot]`` holds the resident line
    (:data:`EMPTY` for a free way), ``_dirty[slot]`` its dirty bit, and
    ``_index`` maps a line to its flat slot.  ``slot = set * ways + way``.
    """

    def __init__(
        self,
        spec: CacheLevelSpec,
        line_size: int,
        policy: ReplacementPolicy,
    ) -> None:
        spec.validate(line_size)
        self.spec = spec
        self.line_size = line_size
        self.policy = policy
        # Read from the spec — a separate constructor argument used to
        # shadow ``spec.hashed_index``, silently dropping LLC hashing for
        # direct constructions that forgot to pass it twice.
        self.hashed_index = spec.hashed_index
        self.num_sets = spec.size_bytes // (spec.ways * line_size)
        self._ways = spec.ways
        slots = self.num_sets * spec.ways
        self._tags: List[int] = [EMPTY] * slots
        self._dirty = bytearray(slots)
        #: Occupied ways per set; lets installs skip the empty-way scan
        #: once a set is full (the steady state of every miss stream).
        self._set_fill: List[int] = [0] * self.num_sets
        self._policy_state = [policy.new_set(spec.ways) for _ in range(self.num_sets)]
        # line -> flat slot; the fast path for lookups.
        self._index: Dict[int, int] = {}
        # line -> hashed set index, memoised (bounded by touched lines).
        self._set_cache: Dict[int, int] = {}
        #: Whether repeated ``on_access`` calls may be collapsed to one
        #: (see ReplacementPolicy.idempotent_on_access).
        self._idempotent_policy = bool(getattr(policy, "idempotent_on_access", False))
        self.stats = CacheStats()

    # -- queries ---------------------------------------------------------

    def set_index(self, line: int) -> int:
        """The set a line maps to (modulo, or hashed when configured)."""
        if self.hashed_index:
            cached = self._set_cache.get(line)
            if cached is None:
                # Fibonacci hashing: cheap, deterministic, well spread.
                cached = ((line * 0x9E3779B97F4A7C15) >> 17) % self.num_sets
                self._set_cache[line] = cached
            return cached
        return line % self.num_sets

    def contains(self, line: int) -> bool:
        return line in self._index

    def is_dirty(self, line: int) -> bool:
        slot = self._index.get(line)
        if slot is None:
            return False
        return bool(self._dirty[slot])

    def resident_lines(self) -> Iterator[int]:
        """All lines currently cached at this level."""
        return iter(self._index)

    def walk_lines(self) -> Iterator[int]:
        """Resident lines in physical (set, way) order.

        This is the order a ``wbinvd``-style walk pushes dirty lines out
        in — *not* address order.  With hashed set indexing consecutive
        addresses land in unrelated sets, so a flush stream is as
        scrambled as ordinary evictions; draining in sorted address order
        would fabricate merging the hardware cannot do.
        """
        for tag in self._tags:
            if tag != EMPTY:
                yield tag

    def tags_array(self):
        """The tags column as a numpy array (copy); list without numpy.

        Slot order is physical (set, way) order; :data:`EMPTY` marks a
        free way.  Bulk readers (state snapshots, the fault harness's
        dirty-set capture, tests) use this instead of walking slots.
        """
        if _np is None:  # pragma: no cover - numpy is in the standard image
            return list(self._tags)
        return _np.array(self._tags, dtype=_np.int64)

    def dirty_array(self):
        """The dirty column as a numpy uint8 view (zero-copy) or bytes."""
        if _np is None:  # pragma: no cover - numpy is in the standard image
            return bytes(self._dirty)
        return _np.frombuffer(self._dirty, dtype=_np.uint8)

    @property
    def capacity_lines(self) -> int:
        return self.num_sets * self.spec.ways

    def occupancy(self) -> int:
        return len(self._index)

    # -- mutations -------------------------------------------------------

    def access(self, line: int, is_write: bool) -> bool:
        """Look up ``line``; on a hit, update recency and dirtiness.

        Returns True on hit.  Misses are *not* filled here — the hierarchy
        decides fill order; see :meth:`install`.
        """
        slot = self._index.get(line)
        if slot is None:
            self.stats.misses += 1
            return False
        self.stats.hits += 1
        ways = self._ways
        set_i = slot // ways
        self.policy.on_access(self._policy_state[set_i], slot - set_i * ways)
        if is_write:
            self._dirty[slot] = 1
        return True

    def install(self, line: int, dirty: bool = False) -> Optional[Eviction]:
        """Bring ``line`` in, evicting a victim if its set is full.

        Returns the eviction (if any).  Installing an already-present line
        just refreshes recency and ORs in the dirty bit.
        """
        ways = self._ways
        slot = self._index.get(line)
        if slot is not None:
            set_i = slot // ways
            self.policy.on_access(self._policy_state[set_i], slot - set_i * ways)
            if dirty:
                self._dirty[slot] = 1
            return None
        set_i = self.set_index(line)
        tags = self._tags
        base = set_i * ways
        evicted: Optional[Eviction] = None
        way_i = -1
        if self._set_fill[set_i] < ways:
            for i in range(ways):
                if tags[base + i] == EMPTY:
                    way_i = i
                    break
            self._set_fill[set_i] += 1
        if way_i < 0:
            way_i = self.policy.victim(self._policy_state[set_i])
            vslot = base + way_i
            victim_line = tags[vslot]
            if victim_line == EMPTY:
                # The empty-way scan above ran first, so a full set is an
                # invariant here: every way the policy may rank holds a
                # resident line.  Tested in tests/test_cache_invariants.py.
                raise SimulationError(f"{self.spec.name}: policy chose an empty way as victim")
            victim_dirty = self._dirty[vslot]
            evicted = Eviction(victim_line, bool(victim_dirty))
            del self._index[victim_line]
            self.stats.evictions += 1
            if victim_dirty:
                self.stats.dirty_evictions += 1
        slot = base + way_i
        tags[slot] = line
        self._dirty[slot] = 1 if dirty else 0
        self._index[line] = slot
        self.policy.on_insert(self._policy_state[set_i], way_i)
        return evicted

    def clean(self, line: int) -> bool:
        """Clear the dirty bit, keeping the line resident.

        Returns True if the line was present and dirty (i.e. a writeback
        is owed to the next level).  This is the cache-state effect of a
        *clean* pre-store (``clwb``): data stays cached.
        """
        slot = self._index.get(line)
        if slot is None:
            return False
        was_dirty = bool(self._dirty[slot])
        self._dirty[slot] = 0
        if was_dirty:
            self.stats.cleans += 1
        return was_dirty

    def invalidate(self, line: int) -> Tuple[bool, bool]:
        """Drop ``line``; returns ``(was_present, was_dirty)``."""
        slot = self._index.pop(line, None)
        if slot is None:
            return (False, False)
        was_dirty = bool(self._dirty[slot])
        self._tags[slot] = EMPTY
        self._dirty[slot] = 0
        self._set_fill[slot // self._ways] -= 1
        self.stats.invalidations += 1
        return (True, was_dirty)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CacheLevel {self.spec.name}: {self.spec.size_bytes}B, "
            f"{self.num_sets}x{self.spec.ways} ways, line={self.line_size}B>"
        )


#: Compiled hierarchy walks, keyed by generated source text.  The source
#: bakes in only geometry and policy literals, so every hierarchy of one
#: shape shares one code object and pays a compile once per process.
_WALK_CODE: Dict[str, CodeType] = {}


def _build_walk(levels: Sequence[CacheLevel]) -> Tuple[Callable, Callable, Callable]:
    """Generate the hierarchy's miss walks (DESIGN.md §15).

    Emits, for one hierarchy, three specialised functions over its flat
    columns:

    * ``walk(line, is_write) -> HierarchyAccessResult`` — the whole
      access: probe each level in turn (a miss counter per missed level,
      then the hit level's hit counter, recency touch and, on a write,
      dirty bit), fill the levels above the hit outermost first, mark
      the innermost copy dirty on a write (a second L1 touch plus the
      dirty bit), and return the hit level's name, the summed hit
      latencies and the writebacks the fills pushed out.
    * ``fill_all(line, wb) -> int`` — the miss-everywhere fill alone,
      returning the L1 slot; the fused store kernel batches the miss
      counters and the dirty mark itself.
    * ``write_miss(line, wb)`` — ``walk(line, True)`` for a line
      resident nowhere, writebacks appended to ``wb``.

    Each fill installs into the first empty way, else the policy's fused
    ``evict_insert`` victim, and propagates the eviction inline: an inner
    victim pushes its dirt one level out (inclusion keeps it resident
    below), the last-level victim back-invalidates the inner columns,
    and dirt that reaches memory is appended to the writeback list.

    Every per-level constant — way count, set count, hash choice, hit
    latency, policy flavour — is a source literal and every column a
    plain name binding (the ``collections.namedtuple`` technique).
    Levels running :class:`TreePLRU` or :class:`IntelLikePolicy` (exact
    types, at any way count) get the recency touch emitted as the mask
    update ``on_access`` performs and the victim pick as the top-table
    lookup plus one unrolled step per deeper tree level, after the
    random pick on an intel-like level — identical RNG draws, identical
    state transitions — while any other policy keeps its bound method
    calls in the same order, so seeded runs draw the same randomness
    either way.  Only the namespace is per hierarchy: the source is
    compiled once per distinct text (``_WALK_CODE``) and ``exec``-ed
    into a fresh namespace here.
    """
    last = len(levels) - 1
    ns: dict = {"SimulationError": SimulationError, "R": HierarchyAccessResult}
    tree = []
    for i, lvl in enumerate(levels):
        ns[f"t{i}"] = lvl._tags
        ns[f"d{i}"] = lvl._dirty
        ns[f"x{i}"] = lvl._index
        ns[f"p{i}"] = lvl._policy_state
        ns[f"fl{i}"] = lvl._set_fill
        ns[f"st{i}"] = lvl.stats
        policy = lvl.policy
        tables = tree_tables(policy, lvl._ways)
        tree.append(tables is not None)
        if tables is not None:
            ns[f"a{i}"], ns[f"o{i}"], ns[f"v{i}"] = tables
            if type(policy) is IntelLikePolicy:
                ns[f"r{i}"] = policy._rand
        else:
            ns[f"oi{i}"] = policy.on_insert
            ns[f"ei{i}"] = policy.evict_insert
            ns[f"oa{i}"] = policy.on_access
    src: List[str] = []
    emit = src.append

    def touch(i: int, slot: str, E: str) -> None:
        """Recency touch (``on_access``) of ``slot`` at level ``i``."""
        ways = levels[i]._ways
        emit(E + f"ts = {slot} // {ways}")
        if tree[i]:
            emit(E + f"tw = {slot} - ts * {ways}")
            emit(E + f"s = p{i}[ts]")
            emit(E + f"s[0] = (s[0] & a{i}[tw]) | o{i}[tw]")
        else:
            emit(E + f"oa{i}(p{i}[ts], {slot} - ts * {ways})")

    def fill(i: int, E: str) -> None:
        """Install ``line`` at level ``i``; leaves its slot in ``slot``."""
        lvl = levels[i]
        ways = lvl._ways
        emit(E + f"# -- fill {lvl.spec.name} --")
        if lvl.hashed_index:
            emit(E + f"set_i = ((line * 0x9E3779B97F4A7C15) >> 17) % {lvl.num_sets}")
        else:
            emit(E + f"set_i = line % {lvl.num_sets}")
        emit(E + f"base = set_i * {ways}")
        emit(E + f"if fl{i}[set_i] < {ways}:")
        emit(E + "    slot = base")
        emit(E + f"    while t{i}[slot] != {EMPTY}:")
        emit(E + "        slot += 1")
        emit(E + f"    t{i}[slot] = line")
        emit(E + f"    d{i}[slot] = 0")
        emit(E + f"    x{i}[line] = slot")
        emit(E + f"    fl{i}[set_i] += 1")
        if tree[i]:
            emit(E + "    w = slot - base")
            emit(E + f"    s = p{i}[set_i]")
            emit(E + f"    s[0] = (s[0] & a{i}[w]) | o{i}[w]")
        else:
            emit(E + f"    oi{i}(p{i}[set_i], slot - base)")
        emit(E + "else:")
        E += "    "
        if tree[i]:
            emit(E + f"s = p{i}[set_i]")
            emit(E + "si = s[0]")
            pick = E
            if type(lvl.policy) is IntelLikePolicy:
                emit(E + f"if r{i}() < {lvl.policy.random_prob!r}:")
                emit(E + f"    w = int(r{i}() * {ways})")
                emit(E + "else:")
                pick += "    "
            deeper = _plru_levels(ways)
            emit(pick + (f"w = v{i}[si & 127]" if deeper else f"w = v{i}[si]"))
            for base in deeper:
                emit(pick + f"w = 2 * w + ((si >> ({base} + w)) & 1)")
            emit(E + f"s[0] = (si & a{i}[w]) | o{i}[w]")
        else:
            emit(E + f"w = ei{i}(p{i}[set_i])")
        emit(E + "slot = base + w")
        emit(E + f"victim = t{i}[slot]")
        emit(E + f"if victim == {EMPTY}:")
        # The set is full here (set_fill == ways), so every way the
        # policy may rank holds a resident line; a miss means the policy
        # state desynced from the tag column.
        emit(E + f"    raise SimulationError({lvl.spec.name!r} + ': policy chose an empty way as victim')")
        emit(E + f"vd = d{i}[slot]")
        emit(E + f"del x{i}[victim]")
        emit(E + f"st{i}.evictions += 1")
        emit(E + "if vd:")
        emit(E + f"    st{i}.dirty_evictions += 1")
        emit(E + f"t{i}[slot] = line")
        emit(E + f"d{i}[slot] = 0")
        emit(E + f"x{i}[line] = slot")
        if i == last:
            # Last-level victim: back-invalidate the inner levels,
            # innermost first, collecting their dirt.
            emit(E + "owed = vd != 0")
            for j in range(last):
                emit(E + f"islot = x{j}.pop(victim, None)")
                emit(E + "if islot is not None:")
                emit(E + f"    if d{j}[islot]:")
                emit(E + "        owed = True")
                emit(E + f"        d{j}[islot] = 0")
                emit(E + f"    t{j}[islot] = {EMPTY}")
                emit(E + f"    fl{j}[islot // {levels[j]._ways}] -= 1")
                emit(E + f"    st{j}.invalidations += 1")
            emit(E + "if owed:")
            emit(E + "    wb.append(victim)")
        else:
            # Inner victim: push its dirt one level out, or straight to
            # memory when an outer eviction already dropped it there.
            b = i + 1
            emit(E + f"bslot = x{b}.get(victim)")
            emit(E + "if bslot is None:")
            emit(E + "    if vd:")
            emit(E + "        wb.append(victim)")
            emit(E + "elif vd:")
            touch(b, "bslot", E + "    ")
            emit(E + f"    d{b}[bslot] = 1")

    def mark(E: str) -> None:
        """Dirty the innermost copy: a second L1 touch plus the dirty bit.

        A tree touch is idempotent (``o & a == 0``), so repeating the
        touch the probe or fill just made is skipped there.
        """
        if not tree[0]:
            touch(0, "slot", E)
        emit(E + "d0[slot] = 1")

    emit("def fill_all(line, wb):")
    for i in range(last, -1, -1):
        fill(i, "    ")
    emit("    return slot")

    emit("def write_miss(line, wb):")
    for i in range(last + 1):
        emit(f"    st{i}.misses += 1")
    emit("    slot = fill_all(line, wb)")
    mark("    ")

    emit("def walk(line, is_write):")
    latency = 0
    for h, lvl in enumerate(levels):
        latency += lvl.spec.hit_latency
        emit(f"    slot = x{h}.get(line)")
        emit("    if slot is not None:")
        emit(f"        st{h}.hits += 1")
        touch(h, "slot", "        ")
        emit("        if is_write:")
        emit(f"            d{h}[slot] = 1")
        emit("        wb = []")
        for i in range(h - 1, -1, -1):
            fill(i, "        ")
        emit("        if is_write:")
        mark("            ")
        emit(f"        return R({lvl.spec.name!r}, {latency}, wb, False)")
        emit(f"    st{h}.misses += 1")
    emit("    wb = []")
    for i in range(last, -1, -1):
        fill(i, "    ")
    emit("    if is_write:")
    mark("        ")
    emit(f"    return R('memory', {latency}, wb, True)")

    text = "\n".join(src)
    code = _WALK_CODE.get(text)
    if code is None:
        code = _WALK_CODE[text] = compile(text, "<cache-walk>", "exec")
    exec(code, ns)
    return ns["walk"], ns["fill_all"], ns["write_miss"]


@dataclass
class HierarchyAccessResult:
    """Outcome of one hierarchy access."""

    #: Name of the level that hit, or ``"memory"``.
    hit_level: str
    #: Load-to-use latency in cycles, excluding device queueing.
    latency: int
    #: Dirty lines pushed out to memory by fills along the way.
    writebacks: List[int] = field(default_factory=list)
    #: True when the request had to go to the memory device.
    memory_access: bool = False


class CacheHierarchy:
    """An inclusive multi-level cache hierarchy.

    ``levels`` are ordered innermost (L1) to outermost (LLC).  The memory
    device itself lives outside this class: the hierarchy reports which
    dirty lines fall out of the last level and the CPU forwards them to
    the device (where write-combining and amplification happen).
    """

    def __init__(self, levels: Sequence[CacheLevel], line_size: int) -> None:
        if not levels:
            raise ConfigurationError("hierarchy requires at least one cache level")
        sizes = [lvl.spec.size_bytes for lvl in levels]
        if sizes != sorted(sizes):
            raise ConfigurationError(
                "inclusive hierarchy requires monotonically growing level sizes; "
                f"got {sizes}"
            )
        for lvl in levels:
            if lvl.line_size != line_size:
                raise ConfigurationError("all levels must share the machine line size")
        self.levels = list(levels)
        self.line_size = line_size
        # Allocation-free fast path: innermost-level hits are by far the
        # most common outcome, need no fills or writebacks, and have a
        # constant latency — so they share one preallocated result.  The
        # shared result is read-only by convention (its writebacks
        # container is an empty tuple, so accidental mutation raises) and
        # only valid until the next access, which every caller satisfies.
        l1 = self.levels[0]
        self._l1_index = l1._index
        self._l1_hit = HierarchyAccessResult(l1.spec.name, l1.spec.hit_latency, (), False)  # type: ignore[arg-type]
        # The generated walks (DESIGN.md §15), specialised to this
        # hierarchy's geometry and policies.  All referenced containers
        # are mutated in place and never reassigned, so the generated
        # code stays valid for the hierarchy's life.
        #
        # ``_access_line_slow(line, is_write)`` is every access past the
        # L1 fast path below: probe, fills, evictions, writebacks.
        # ``fill_write_miss(line, writebacks)`` is the write-allocate
        # walk for a line resident *nowhere* — ``_access_line_slow(line,
        # True)`` without the result, dirty lines that reach memory
        # appended to the caller's scratch list; callers must have
        # established that no level holds ``line``.  ``_fill_all(line,
        # wb) -> l1_slot`` is its fill alone, for the fused store kernel
        # that batches the miss counters and dirty mark itself.
        self._level_stats = [lvl.stats for lvl in self.levels]
        self._indexes = tuple(lvl._index for lvl in self.levels)
        self._index_dirty = tuple((lvl._index, lvl._dirty) for lvl in self.levels)
        self._access_line_slow, self._fill_all, self.fill_write_miss = _build_walk(self.levels)

    @property
    def last_level(self) -> CacheLevel:
        return self.levels[-1]

    def line_of(self, addr: int) -> int:
        return addr // self.line_size

    # -- the main access path ---------------------------------------------

    def access_line(self, line: int, is_write: bool) -> HierarchyAccessResult:
        """Access one line, filling and evicting as needed.

        Latency is the hit latency of the level that hit (memory latency
        is added by the CPU, which owns the device clock).
        """
        slot = self._l1_index.get(line)
        if slot is not None:
            # Innermost hit: bump stats/recency/dirtiness in place and
            # return the shared result — no list or result allocation.
            # Equivalent to the generated walk's L1-hit branch, which
            # touches the policy twice with the same way on a write;
            # idempotent policies collapse that to one touch.
            l1 = self.levels[0]
            ways = l1._ways
            set_i = slot // ways
            way_i = slot - set_i * ways
            l1.stats.hits += 1
            l1.policy.on_access(l1._policy_state[set_i], way_i)
            if is_write:
                l1._dirty[slot] = 1
                if not l1._idempotent_policy:
                    l1.policy.on_access(l1._policy_state[set_i], way_i)
            return self._l1_hit
        return self._access_line_slow(line, is_write)

    def _handle_eviction(self, idx: int, evicted: Eviction) -> List[int]:
        """Propagate an eviction from ``levels[idx]``; returns dirty
        lines that reach memory."""
        if idx == len(self.levels) - 1:
            # LLC eviction: back-invalidate inner levels (inclusion) and
            # collect their dirtiness.
            dirty = evicted.dirty
            for inner in self.levels[:idx]:
                __, inner_dirty = inner.invalidate(evicted.line)
                dirty = dirty or inner_dirty
            return [evicted.line] if dirty else []
        # Inner eviction: the line is still resident below (inclusion);
        # push the dirt one level out.
        below = self.levels[idx + 1]
        if not below.contains(evicted.line):
            # Inclusion was broken by a racing outer eviction during a
            # multi-level fill; treat as memory-bound writeback.
            return [evicted.line] if evicted.dirty else []
        if evicted.dirty:
            below.install(evicted.line, dirty=True)
        return []

    # -- pre-store support -------------------------------------------------

    def clean_line(self, line: int) -> bool:
        """Clean a line at every level; True if a writeback is owed.

        This is ``clwb``: modifications propagate to memory, the cached
        copies stay valid (Section 2: "cleaning the data propagates the
        modifications to memory but does not invalidate the cache").
        """
        owed = False
        for lvl in self.levels:
            owed = lvl.clean(line) or owed
        return owed

    def demote_line(self, line: int, writebacks: Optional[List[int]] = None) -> bool:
        """Demote a line from the innermost level towards the last level.

        Moves dirtiness (and recency priority) down: the line is dropped
        from inner levels and installed dirty in the last level, mirroring
        ``cldemote``.  Returns True if the line was present anywhere.

        Re-installing into the last level can evict a victim; the
        eviction is propagated (back-invalidations included) like any
        fill's, and dirty lines that reach memory are appended to
        ``writebacks`` when a list is given.  Dropping the eviction
        here — as this method used to — left the victim resident in the
        inner levels' indexes while gone from the LLC: exactly the stale
        state the install-path victim invariant exists to catch.
        """
        present = False
        dirty = False
        for lvl in self.levels[:-1]:
            was_present, was_dirty = lvl.invalidate(line)
            present = present or was_present
            dirty = dirty or was_dirty
        last = self.last_level
        if last.contains(line):
            present = True
            if dirty:
                last.access(line, is_write=True)
                last.stats.hits -= 1
        elif present:
            evicted = last.install(line, dirty=dirty)
            if evicted is not None:
                owed = self._handle_eviction(len(self.levels) - 1, evicted)
                if writebacks is not None:
                    writebacks.extend(owed)
        return present

    def invalidate_line(self, line: int) -> bool:
        """Drop a line everywhere; True if any copy was dirty."""
        dirty = False
        for lvl in self.levels:
            __, was_dirty = lvl.invalidate(line)
            dirty = dirty or was_dirty
        return dirty

    def contains(self, line: int) -> bool:
        for index in self._indexes:
            if line in index:
                return True
        return False

    def is_dirty(self, line: int) -> bool:
        for index, dirty in self._index_dirty:
            slot = index.get(line)
            if slot is not None and dirty[slot]:
                return True
        return False

    def drain_dirty_lines(self) -> List[int]:
        """Flush: clean every level, returning dirty lines owed to memory.

        Used at end of run so devices see all outstanding writebacks (like
        powering down a machine with ``wbinvd``).  Lines come out in the
        last level's physical walk order — see
        :meth:`CacheLevel.walk_lines` for why sorted order would cheat.

        The walk is columnwise over the flat dirty arrays: with numpy the
        dirty slots of a level are found in one ``nonzero`` over the
        byte column (ascending slot order *is* physical walk order),
        which is what keeps the end-of-run drain cheap on LLC-sized
        levels.
        """
        owed: List[int] = []
        seen = set()
        for lvl in reversed(self.levels):
            stats = lvl.stats
            tags = lvl._tags
            if _np is not None:
                dirty_slots = _np.nonzero(
                    _np.frombuffer(lvl._dirty, dtype=_np.uint8)
                )[0].tolist()
            else:  # pragma: no cover - numpy is in the standard image
                dirty_slots = [i for i, d in enumerate(lvl._dirty) if d]
            for slot in dirty_slots:
                line = tags[slot]
                lvl._dirty[slot] = 0
                stats.cleans += 1
                if line not in seen:
                    seen.add(line)
                    owed.append(line)
        # Dirty lines only present in inner levels (not in the walk above
        # because inclusion was momentarily broken) are covered by the
        # columnwise walk too; this second pass mirrors the historical
        # per-level sweep for levels whose insertion order differs.
        for lvl in self.levels[:-1]:
            for line in list(lvl.resident_lines()):
                if lvl.clean(line) and line not in seen:
                    seen.add(line)
                    owed.append(line)
        return owed
