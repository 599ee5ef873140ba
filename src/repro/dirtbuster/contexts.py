"""Step 2a: sequentiality contexts.

Section 6.2.2: "DirtBuster keeps track of multiple 'sequentiality
contexts'.  A 'sequentiality context' is a record of a memory region
(range of virtual address) and the location of the last write within that
region.  When a write is performed, DirtBuster checks if it is adjacent
to the last write performed in any 'context'.  If a context is found, its
metadata is updated, otherwise a new context is created."

The naive same-or-next-line check fails for code that writes temporaries
between sequential writes or interleaves streams to several objects;
per-context last-write tracking handles both, and per-(core, function)
scoping keeps threads from polluting each other's streams.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import AnalysisError

__all__ = ["SequentialContext", "ContextTracker", "SequentialitySummary", "SizeBucket"]

#: Contexts with at least this many writes count as genuinely sequential;
#: shorter runs are indistinguishable from accidental adjacency.
MIN_SEQUENTIAL_RUN = 4


@dataclass
class SequentialContext:
    """One tracked region of (so far) sequential writes."""

    start: int
    end: int  # one past the last written byte
    writes: int = 1

    @property
    def size(self) -> int:
        return self.end - self.start

    def adjacent(self, addr: int, slack: int) -> bool:
        """Is a write at ``addr`` a continuation of this context?

        Adjacency is *forward only*, with ``slack`` bytes of tolerance to
        absorb alignment padding and small skipped holes (struct tails).
        Rewriting at or before the context's end is not sequential
        progress — it is a rewrite, and treating it as adjacency would
        make Listing 3's hot line look like a sequential stream.

        :class:`ContextTracker` evaluates this predicate through its
        end-address index rather than by calling it per context.
        """
        return self.end <= addr <= self.end + slack

    def extend(self, addr: int, size: int) -> None:
        self.end = max(self.end, addr + size)
        self.writes += 1


@dataclass
class SizeBucket:
    """Aggregated contexts of similar size (one 'Size:' report line)."""

    #: Representative size in bytes (median context size of the bucket).
    size: int
    #: Number of contexts in this bucket.
    contexts: int
    #: Total sequential writes these contexts absorbed.
    writes: int
    #: Share of the function's sequential writes (0..1).
    share: float
    #: The member contexts (used to merge per-context distance stats).
    members: List[SequentialContext] = field(default_factory=list)


@dataclass
class SequentialitySummary:
    """Per-function sequentiality report (step 2 output)."""

    function: str
    total_writes: int
    sequential_writes: int
    contexts: List[SequentialContext]

    @property
    def pct_sequential(self) -> float:
        """Fraction of the function's writes in sequential contexts."""
        if self.total_writes == 0:
            return 0.0
        return self.sequential_writes / self.total_writes

    def size_buckets(self, max_buckets: int = 4) -> List[SizeBucket]:
        """Group sequential contexts by power-of-two size class.

        Returns at most ``max_buckets`` buckets, largest write share
        first — the per-size breakdown of the paper's report ("80% of the
        sequential writes are to regions of size 1KB...").
        """
        sequential = [c for c in self.contexts if c.writes >= MIN_SEQUENTIAL_RUN]
        if not sequential:
            return []
        classes: Dict[int, List[SequentialContext]] = {}
        for ctx in sequential:
            classes.setdefault(max(ctx.size, 1).bit_length(), []).append(ctx)
        total = sum(c.writes for c in sequential)
        buckets = []
        for group in classes.values():
            sizes = sorted(c.size for c in group)
            writes = sum(c.writes for c in group)
            buckets.append(
                SizeBucket(
                    size=sizes[len(sizes) // 2],
                    contexts=len(group),
                    writes=writes,
                    share=writes / total if total else 0.0,
                    members=group,
                )
            )
        buckets.sort(key=lambda b: b.writes, reverse=True)
        return buckets[:max_buckets]


class ContextTracker:
    """Tracks sequentiality contexts for every (core, function) stream.

    As in the paper, the number of contexts is unbounded: "In practice,
    we found that the write-intensive functions perform sequential writes
    on only a few objects."

    Each stream indexes its contexts by end address, so a write only
    looks at the ``slack + 1`` ends it could continue — one dict lookup
    at ``slack=0`` — however many contexts the stream holds.  The result
    is exactly that of scanning the contexts most recently extended
    first and taking the first :meth:`SequentialContext.adjacent` one.
    """

    def __init__(self, slack: int = 64) -> None:
        if slack < 0:
            raise AnalysisError(f"slack must be non-negative, got {slack}")
        self.slack = slack
        #: (core, function) -> (by_end, recency).  ``recency`` maps a
        #: context's last-touch stamp to the context; deleting and
        #: re-inserting on every extension keeps its insertion order equal
        #: to least-to-most recently extended.  ``by_end`` maps an end
        #: address to the stamps of the contexts ending there, oldest
        #: first, so the last stamp is the tie-break winner.
        self._streams: Dict[
            Tuple[int, str], Tuple[Dict[int, List[int]], Dict[int, SequentialContext]]
        ] = {}
        #: function -> write count.
        self._write_counts: Dict[str, int] = {}
        self._clock = itertools.count()

    def observe_write(self, core_id: int, function: str, addr: int, size: int) -> SequentialContext:
        """Feed one write; returns the context it joined (maybe new)."""
        self._write_counts[function] = self._write_counts.get(function, 0) + 1
        stream = self._streams.get((core_id, function))
        if stream is None:
            stream = self._streams[(core_id, function)] = ({}, {})
        by_end, recency = stream
        # The adjacent contexts are those ending in [addr - slack, addr];
        # the most recently extended of them wins.
        best: Optional[List[int]] = None
        for end in range(addr - self.slack, addr + 1):
            stamps = by_end.get(end)
            if stamps is not None and (best is None or stamps[-1] > best[-1]):
                best = stamps
        if best is None:
            ctx = SequentialContext(start=addr, end=addr + size)
        else:
            ctx = recency.pop(best.pop())
            if not best:
                del by_end[ctx.end]
            ctx.extend(addr, size)
        stamp = next(self._clock)
        recency[stamp] = ctx
        stamps = by_end.get(ctx.end)
        if stamps is None:
            by_end[ctx.end] = [stamp]
        else:
            stamps.append(stamp)
        return ctx

    def summary(self, function: str) -> SequentialitySummary:
        """The sequentiality report for one function (all cores merged)."""
        contexts: List[SequentialContext] = []
        for (_, fn), (_, recency) in self._streams.items():
            if fn == function:
                contexts.extend(recency.values())
        total = self._write_counts.get(function, 0)
        sequential = sum(c.writes for c in contexts if c.writes >= MIN_SEQUENTIAL_RUN)
        return SequentialitySummary(
            function=function,
            total_writes=total,
            sequential_writes=sequential,
            contexts=contexts,
        )

    def functions(self) -> List[str]:
        return sorted(self._write_counts)
