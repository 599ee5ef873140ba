"""Unit tests for DirtBuster's analyses: contexts, fences, distances."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.dirtbuster.contexts import (
    MIN_SEQUENTIAL_RUN,
    ContextTracker,
    SequentialContext,
    SequentialitySummary,
)
from repro.dirtbuster.distances import DistanceTracker
from repro.dirtbuster.fences import FenceTracker


class TestContexts:
    def test_sequential_writes_form_one_context(self):
        tracker = ContextTracker(slack=0)
        for i in range(16):
            tracker.observe_write(0, "f", 1000 + 64 * i, 64)
        summary = tracker.summary("f")
        assert summary.total_writes == 16
        assert summary.pct_sequential == 1.0
        assert len(summary.contexts) == 1
        assert summary.contexts[0].size == 16 * 64

    def test_interleaved_streams_get_separate_contexts(self):
        """The paper's motivation: interleaved writes to two objects."""
        tracker = ContextTracker(slack=0)
        for i in range(8):
            tracker.observe_write(0, "f", 1000 + 64 * i, 64)
            tracker.observe_write(0, "f", 900000 + 64 * i, 64)
        summary = tracker.summary("f")
        assert summary.pct_sequential == 1.0
        assert len(summary.contexts) == 2

    def test_temporaries_between_sequential_writes(self):
        """A stack temporary written between stream writes must not break
        the stream's context."""
        tracker = ContextTracker(slack=0)
        for i in range(8):
            tracker.observe_write(0, "f", 1000 + 64 * i, 64)
            tracker.observe_write(0, "f", 500000, 8)  # the temporary
        summary = tracker.summary("f")
        streams = [c for c in summary.contexts if c.writes >= MIN_SEQUENTIAL_RUN]
        assert len(streams) == 1 and streams[0].size == 8 * 64

    def test_random_writes_are_not_sequential(self):
        import random
        rng = random.Random(4)
        tracker = ContextTracker(slack=0)
        for _ in range(200):
            tracker.observe_write(0, "f", rng.randrange(1 << 20) * 8, 8)
        assert tracker.summary("f").pct_sequential < 0.2

    def test_rewriting_same_address_is_not_sequential(self):
        """Listing 3's hot line must not look like a stream."""
        tracker = ContextTracker(slack=0)
        for _ in range(50):
            tracker.observe_write(0, "f", 4096, 64)
        assert tracker.summary("f").pct_sequential == 0.0

    def test_threads_do_not_pollute_each_other(self):
        tracker = ContextTracker(slack=0)
        for i in range(8):
            tracker.observe_write(0, "f", 1000 + 64 * i, 64)
            tracker.observe_write(1, "f", 5000 + 64 * i, 64)
        assert len(tracker.summary("f").contexts) == 2

    def test_size_buckets(self):
        tracker = ContextTracker(slack=0)
        # Four 1KB streams and one 16KB stream.
        for s in range(4):
            base = 100000 * (s + 1)
            for i in range(16):
                tracker.observe_write(0, "f", base + 64 * i, 64)
        for i in range(256):
            tracker.observe_write(0, "f", 900000 + 64 * i, 64)
        buckets = tracker.summary("f").size_buckets()
        assert len(buckets) == 2
        assert buckets[0].size == pytest.approx(16 * 1024, rel=0.1)
        assert buckets[0].share == pytest.approx(256 / 320)

    def test_tie_on_one_end_goes_to_most_recently_extended(self):
        tracker = ContextTracker(slack=0)
        older = tracker.observe_write(0, "f", 100, 8)  # [100, 108)
        newer = tracker.observe_write(0, "f", 92, 16)  # [92, 108)
        assert newer is not older
        # Both end at 108: the most recently extended one continues ...
        assert tracker.observe_write(0, "f", 108, 8) is newer
        assert newer.end == 116 and older.end == 108
        # ... and moves to its new end, leaving the other one at 108.
        assert tracker.observe_write(0, "f", 108, 8) is older
        assert [(c.start, c.end) for c in tracker.summary("f").contexts] == [
            (92, 116),
            (100, 116),
        ]

    def test_slack_tie_across_ends_goes_to_most_recently_extended(self):
        tracker = ContextTracker(slack=8)
        older = tracker.observe_write(0, "f", 0, 100)  # [0, 100)
        newer = tracker.observe_write(0, "f", 96, 8)  # a rewrite: new [96, 104)
        assert newer is not older
        # 104 continues both (100 + 8 >= 104); the newer context wins.
        assert tracker.observe_write(0, "f", 104, 8) is newer
        # 106 now only continues the older one (the newer ends at 112).
        assert tracker.observe_write(0, "f", 106, 8) is older
        assert [(c.start, c.end) for c in tracker.summary("f").contexts] == [
            (96, 112),
            (0, 114),
        ]


class _NaiveTracker:
    """Reference: scan every context, most recently extended first."""

    def __init__(self, slack):
        self.slack = slack
        self.streams = {}
        self.write_counts = {}

    def observe_write(self, core_id, function, addr, size):
        self.write_counts[function] = self.write_counts.get(function, 0) + 1
        contexts = self.streams.setdefault((core_id, function), [])
        for i in range(len(contexts) - 1, -1, -1):
            ctx = contexts[i]
            if ctx.adjacent(addr, self.slack):
                ctx.extend(addr, size)
                contexts.append(contexts.pop(i))
                return ctx
        ctx = SequentialContext(start=addr, end=addr + size)
        contexts.append(ctx)
        return ctx

    def summary(self, function):
        contexts = []
        for (_, fn), stream in self.streams.items():
            if fn == function:
                contexts.extend(stream)
        return SequentialitySummary(
            function=function,
            total_writes=self.write_counts.get(function, 0),
            sequential_writes=sum(c.writes for c in contexts if c.writes >= MIN_SEQUENTIAL_RUN),
            contexts=contexts,
        )


_STREAM = st.tuples(st.integers(0, 1), st.sampled_from(["f", "g"]))
#: Writes into a small window (rewrites and contexts sharing an end).
_SCATTER = st.tuples(
    st.just("scatter"), _STREAM, st.integers(0, 48).map(lambda x: 8 * x),
    st.sampled_from([8, 16, 24, 64]),
)
#: A sequential run, optionally with holes no larger than the slack.
_RUN = st.tuples(
    st.just("run"), _STREAM, st.integers(0, 64).map(lambda x: 64 * x),
    st.tuples(st.sampled_from([8, 64]), st.integers(1, 12), st.sampled_from([0, 4, 8, 40, 64])),
)
#: A stack temporary rewritten between stream writes.
_TEMP = st.tuples(st.just("temp"), _STREAM, st.just(1 << 20), st.just(8))
#: Two or three contexts sharing one end address, then a write there.
_TIE = st.tuples(
    st.just("tie"), _STREAM, st.integers(1, 64).map(lambda x: 64 * x), st.integers(2, 3)
)


def _expand(ops):
    for kind, (core, fn), addr, arg in ops:
        if kind == "run":
            size, length, gap = arg
            for _ in range(length):
                yield core, fn, addr, size
                addr += size + gap
        elif kind == "tie":
            for j in range(1, arg + 1):
                yield core, fn, addr - 8 * j, 8 * j
            yield core, fn, addr, 8
        else:
            yield core, fn, addr, arg


def _ctx_rows(contexts, ordinal):
    return [(ordinal[id(c)], c.start, c.end, c.writes) for c in contexts]


def _bucket_rows(summary, ordinal):
    return [
        (b.size, b.contexts, b.writes, b.share, _ctx_rows(b.members, ordinal))
        for b in summary.size_buckets()
    ]


@settings(max_examples=150, deadline=None)
@given(
    ops=st.lists(st.one_of(_SCATTER, _RUN, _TEMP, _TIE), max_size=40),
    slack=st.sampled_from([0, 8, 64]),
)
def test_context_index_matches_naive_mru_scan(ops, slack):
    """The end-address index picks exactly the context a full MRU scan
    with :meth:`SequentialContext.adjacent` picks, for every write."""
    fast, naive = ContextTracker(slack=slack), _NaiveTracker(slack)
    # Contexts are compared by creation order (identity position).
    fast_ids, naive_ids = {}, {}
    for core, fn, addr, size in _expand(ops):
        got = fast.observe_write(core, fn, addr, size)
        want = naive.observe_write(core, fn, addr, size)
        fast_ids.setdefault(id(got), len(fast_ids))
        naive_ids.setdefault(id(want), len(naive_ids))
        assert fast_ids[id(got)] == naive_ids[id(want)]
        assert (got.start, got.end, got.writes) == (want.start, want.end, want.writes)
    for fn in ("f", "g"):
        got, want = fast.summary(fn), naive.summary(fn)
        assert _ctx_rows(got.contexts, fast_ids) == _ctx_rows(want.contexts, naive_ids)
        assert (got.total_writes, got.sequential_writes) == (
            want.total_writes,
            want.sequential_writes,
        )
        assert _bucket_rows(got, fast_ids) == _bucket_rows(want, naive_ids)


class TestFences:
    def test_min_distance(self):
        tracker = FenceTracker()
        tracker.observe_write(0, "f", 100)
        tracker.observe_write(0, "f", 190)
        tracker.observe_fence(0, 200)
        prox = tracker.proximity("f")
        assert prox.min_distance == 10
        assert prox.mean_distance == pytest.approx(55.0)
        assert prox.fence_coverage == 1.0

    def test_fences_are_per_core(self):
        tracker = FenceTracker()
        tracker.observe_write(0, "f", 100)
        tracker.observe_fence(1, 101)  # another thread's fence: irrelevant
        prox = tracker.proximity("f")
        assert prox.writes_before_fence == 0
        assert math.isinf(prox.min_distance)

    def test_writes_after_last_fence_uncovered(self):
        tracker = FenceTracker()
        tracker.observe_write(0, "f", 100)
        tracker.observe_fence(0, 150)
        tracker.observe_write(0, "f", 200)
        prox = tracker.proximity("f")
        assert prox.writes == 2
        assert prox.writes_before_fence == 1
        assert prox.writes_without_fence == 1

    def test_unknown_function_is_empty(self):
        prox = FenceTracker().proximity("ghost")
        assert prox.writes == 0 and prox.fence_coverage == 0.0


class TestDistances:
    def test_rewrite_distance(self):
        tracker = DistanceTracker(line_size=64, slack=0)
        tracker.observe_write(0, "f", 0, 64, instr_index=10)
        tracker.observe_write(0, "f", 0, 64, instr_index=110)
        stats = tracker.stats("f")
        assert stats.rewrite_samples == 1
        assert stats.mean_rewrite_distance == 100

    def test_streak_exception(self):
        """Sequential sweeps are not rewrites (Section 6.2.3)."""
        tracker = DistanceTracker(line_size=64, slack=0)
        for rep in range(2):
            for i in range(8):
                tracker.observe_write(0, "f", 64 * i, 64, instr_index=100 * rep + i)
        stats = tracker.stats("f")
        # Only the stream restarts sample (line 0), not every line.
        assert stats.rewrite_samples == 1

    def test_reread_distance_first_read_only(self):
        tracker = DistanceTracker(line_size=64, slack=0)
        tracker.observe_write(0, "f", 0, 64, instr_index=10)
        tracker.observe_read(0, 0, 8, instr_index=12)
        tracker.observe_read(0, 0, 8, instr_index=5000)  # ignored
        stats = tracker.stats("f")
        assert stats.reread_samples == 1
        assert stats.mean_reread_distance == 2

    def test_never_reread_is_infinite(self):
        tracker = DistanceTracker(line_size=64, slack=0)
        tracker.observe_write(0, "f", 0, 64, instr_index=10)
        stats = tracker.stats("f")
        assert math.isinf(stats.mean_reread_distance)
        assert math.isinf(stats.mean_rewrite_distance)

    def test_rewrite_attributed_to_previous_writer(self):
        tracker = DistanceTracker(line_size=64, slack=0)
        tracker.observe_write(0, "first", 0, 64, instr_index=10)
        tracker.observe_write(0, "second", 0, 64, instr_index=60)
        assert tracker.stats("first").rewrite_samples == 1
        assert tracker.stats("second").rewrite_samples == 0

    def test_context_attribution(self):
        tracker = DistanceTracker(line_size=64, slack=0)
        ctx = object()
        tracker.observe_write(0, "f", 0, 64, instr_index=10, context=ctx)
        tracker.observe_read(0, 0, 8, instr_index=30)
        merged = tracker.merged_context_stats([ctx])
        assert merged.reread_samples == 1
        assert merged.mean_reread_distance == 20
