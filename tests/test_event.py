"""Unit tests for the event model (repro.sim.event)."""

import pytest

from repro.core.prestore import PrestoreOp
from repro.errors import SimulationError, WorkloadError
from repro.sim.event import CodeSite, Event, EventKind, Mailbox, UNKNOWN_SITE
from repro.workloads.memapi import Allocator, ThreadCtx


class TestEventValidation:
    def test_read_requires_positive_size(self):
        with pytest.raises(SimulationError):
            Event(EventKind.READ, addr=0, size=0)

    def test_write_requires_non_negative_addr(self):
        with pytest.raises(SimulationError):
            Event(EventKind.WRITE, addr=-8, size=8)

    def test_compute_requires_positive_count(self):
        with pytest.raises(SimulationError):
            Event(EventKind.COMPUTE, size=0)

    def test_prestore_requires_op(self):
        with pytest.raises(SimulationError):
            Event(EventKind.PRESTORE, addr=0, size=64)

    def test_only_writes_can_be_nontemporal(self):
        with pytest.raises(SimulationError):
            Event(EventKind.READ, addr=0, size=8, nontemporal=True)

    def test_post_requires_mailbox(self):
        with pytest.raises(SimulationError):
            Event(EventKind.POST, sync_key="k")

    def test_valid_events_construct(self):
        Event(EventKind.READ, addr=64, size=8)
        Event(EventKind.WRITE, addr=64, size=8, nontemporal=True)
        Event(EventKind.PRESTORE, addr=0, size=64, op=PrestoreOp.CLEAN)
        Event(EventKind.FENCE)
        Event(EventKind.WAIT, mailbox=Mailbox(), sync_key=1)


class TestEventProperties:
    def test_fence_semantics(self):
        assert Event(EventKind.FENCE).has_fence_semantics
        assert Event(EventKind.ATOMIC, addr=0, size=8).has_fence_semantics
        assert not Event(EventKind.READ, addr=0, size=8).has_fence_semantics

    def test_load_fence_has_no_store_fence_semantics(self):
        assert not Event(EventKind.FENCE, fence_scope="load").has_fence_semantics

    def test_is_store(self):
        assert Event(EventKind.WRITE, addr=0, size=8).is_store
        assert Event(EventKind.ATOMIC, addr=0, size=8).is_store
        assert not Event(EventKind.READ, addr=0, size=8).is_store

    def test_lines_single(self):
        ev = Event(EventKind.READ, addr=70, size=8)
        assert list(ev.lines(64)) == [1]

    def test_lines_straddles_boundary(self):
        ev = Event(EventKind.WRITE, addr=60, size=8)
        assert list(ev.lines(64)) == [0, 1]

    def test_lines_multi(self):
        ev = Event(EventKind.WRITE, addr=0, size=256)
        assert list(ev.lines(64)) == [0, 1, 2, 3]

    def test_compute_touches_no_lines(self):
        assert list(Event(EventKind.COMPUTE, size=10).lines(64)) == []


class TestStridedStreams:
    """``width``: each access of a stream starts ``chunk`` bytes after the
    previous one and covers ``width`` bytes (0: the whole chunk)."""

    def test_rejects_width_above_chunk(self):
        with pytest.raises(SimulationError):
            Event.stream(EventKind.READ, addr=0, size=256, chunk=64, width=65)

    def test_rejects_negative_width(self):
        with pytest.raises(SimulationError):
            Event.stream(EventKind.READ, addr=0, size=256, chunk=64, width=-1)

    def test_rejects_width_on_non_stream_read(self):
        with pytest.raises(SimulationError):
            Event(EventKind.READ, addr=0, size=8, width=8)

    @pytest.mark.parametrize(
        "count,stride,width", [(1, 64, 8), (7, 64, 8), (5, 192, 24), (4, 8, 8)]
    )
    def test_access_count_is_ceil_size_over_chunk(self, count, stride, width):
        size = (count - 1) * stride + width
        ev = Event.stream(EventKind.READ, addr=64, size=size, chunk=stride, width=width)
        assert ev.access_count == -(-size // stride) == count

    @pytest.mark.parametrize(
        "count,stride,width", [(2, 64, 8), (9, 64, 1), (5, 100, 40), (3, 192, 64)]
    )
    def test_accesses_match_read_strided_reference(self, count, stride, width):
        t = ThreadCtx(tid=0, allocator=Allocator(64), line_size=64, seed=1)
        base = 1 << 20
        with t.function("scan", file="scan.c", line=3):
            t.emit_streams = True
            (stream,) = t.read_strided(base, count, stride, width)
            t.emit_streams = False
            reference = list(t.read_strided(base, count, stride, width))
        assert stream.kind is EventKind.STREAM_READ
        assert (stream.chunk, stream.width) == (stride, width)
        assert list(stream.accesses()) == reference

    def test_width_takes_part_in_equality(self):
        a = Event.stream(EventKind.READ, addr=0, size=200, chunk=64, width=8)
        b = Event.stream(EventKind.READ, addr=0, size=200, chunk=64, width=16)
        assert a != b
        assert a == Event.stream(EventKind.READ, addr=0, size=200, chunk=64, width=8)

    @pytest.mark.parametrize("count,stride,size", [(-1, 64, 8), (3, 64, 0), (3, 4, 8)])
    def test_read_strided_rejects_bad_arguments(self, count, stride, size):
        for streams in (False, True):
            t = ThreadCtx(tid=0, allocator=Allocator(64), line_size=64, seed=1)
            t.emit_streams = streams
            with pytest.raises(WorkloadError):
                list(t.read_strided(1 << 20, count, stride, size))


class TestCodeSite:
    def test_unique_synthetic_ips(self):
        a = CodeSite(function="f")
        b = CodeSite(function="f")
        assert a.ip != b.ip

    def test_str_contains_location(self):
        site = CodeSite(function="psinv", file="mg.f90", line=614)
        assert "psinv" in str(site) and "mg.f90:614" in str(site)

    def test_unknown_site_exists(self):
        assert UNKNOWN_SITE.function == "<unlabelled>"


class TestMailbox:
    def test_post_and_get(self):
        box = Mailbox()
        assert box.get("k") is None
        box.post("k", 100.0)
        assert box.get("k") == 100.0
        assert "k" in box

    def test_earliest_post_wins(self):
        box = Mailbox()
        box.post("k", 100.0)
        box.post("k", 50.0)
        box.post("k", 200.0)
        assert box.get("k") == 50.0
