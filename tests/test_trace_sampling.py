"""Unit tests for tracing and the perf-style sampler."""

import json

import pytest

from repro.dirtbuster.export import dumps_record, loads_record
from repro.dirtbuster.sampling import SampleProfile
from repro.dirtbuster.trace import AccessRecord, FullTracer, SamplingTracer
from repro.errors import AnalysisError, TraceError
from repro.sim.event import CodeSite, Event, EventKind


def _write(function="f", addr=0, size=8):
    return Event(EventKind.WRITE, addr=addr, size=size, site=CodeSite(function=function))


def _read(function="f", addr=0, size=8):
    return Event(EventKind.READ, addr=addr, size=size, site=CodeSite(function=function))


class TestSamplingTracer:
    def test_rejects_bad_period(self):
        with pytest.raises(TraceError):
            SamplingTracer(period=0)

    def test_samples_proportional_to_cycles(self):
        tracer = SamplingTracer(period=10)
        # 100 cycles of writes and 900 cycles of compute.
        for i in range(100):
            tracer.record(0, _write(), i, cycles=1.0)
        tracer.record(0, Event(EventKind.COMPUTE, size=1800), 100, cycles=900.0)
        profile = SampleProfile.from_tracer(tracer)
        assert profile.total_samples == pytest.approx(100, abs=2)
        assert profile.application_store_fraction == pytest.approx(0.10, abs=0.02)

    def test_expensive_event_can_take_multiple_samples(self):
        tracer = SamplingTracer(period=10)
        tracer.record(0, _write(), 0, cycles=55.0)
        assert len(tracer.samples) == 5

    def test_burst_records_equal_separately_built_records(self):
        tracer = SamplingTracer(period=10)
        ev = Event(
            EventKind.WRITE,
            addr=4096,
            size=64,
            site=CodeSite(function="memcpy"),
            callchain=(CodeSite(function="put"),),
        )
        tracer.record(1, ev, 42, cycles=4 * 10.0)
        expected = AccessRecord(
            instr_index=42,
            core_id=1,
            kind=EventKind.WRITE,
            addr=4096,
            size=64,
            site=ev.site,
            callchain=ev.callchain,
        )
        assert tracer.samples == [expected] * 4
        assert len(tracer) == 4

    def test_zero_cycle_events_unsampled(self):
        tracer = SamplingTracer(period=10)
        for i in range(100):
            tracer.record(0, _write(), i, cycles=0.0)
        assert len(tracer) == 0


class TestAccessRecord:
    def _record(self):
        return AccessRecord(
            instr_index=7,
            core_id=2,
            kind=EventKind.ATOMIC,
            addr=128,
            size=8,
            site=CodeSite(function="lock", file="lock.c", line=12, ip=0x40),
            callchain=(CodeSite(function="put", file="kv.c", line=3, ip=0x10),),
        )

    def test_properties(self):
        rec = self._record()
        assert rec.is_store and not rec.is_load and rec.has_fence_semantics
        assert rec.function == "lock"

    def test_export_round_trip_and_format(self):
        rec = self._record()
        line = dumps_record(rec)
        assert loads_record(line) == rec
        assert json.loads(line) == {
            "v": 1,
            "i": 7,
            "c": 2,
            "k": EventKind.ATOMIC.value,
            "a": 128,
            "s": 8,
            "site": {"fn": "lock", "file": "lock.c", "line": 12, "ip": 0x40},
            "chain": [{"fn": "put", "file": "kv.c", "line": 3, "ip": 0x10}],
        }

    def test_immutable_and_hashable(self):
        rec = self._record()
        with pytest.raises(AttributeError):
            rec.addr = 0
        assert {rec, self._record()} == {rec}


class TestFullTracer:
    def test_records_selected_functions_only(self):
        tracer = FullTracer(functions={"hot"})
        tracer.record(0, _write("hot"), 0)
        tracer.record(0, _write("cold"), 1)
        assert len(tracer.records) == 1
        assert tracer.records[0].function == "hot"

    def test_callchain_selection(self):
        tracer = FullTracer(functions={"caller"})
        ev = Event(
            EventKind.WRITE,
            addr=0,
            size=8,
            site=CodeSite(function="memcpy"),
            callchain=(CodeSite(function="caller"),),
        )
        tracer.record(0, ev, 0)
        assert len(tracer.records) == 1

    def test_fences_always_recorded(self):
        tracer = FullTracer(functions={"hot"})
        tracer.record(0, Event(EventKind.FENCE, site=CodeSite(function="pthread_lock")), 0)
        tracer.record(0, Event(EventKind.ATOMIC, addr=0, size=8, site=CodeSite(function="x")), 1)
        assert len(tracer.records) == 2

    def test_compute_never_recorded(self):
        tracer = FullTracer()
        tracer.record(0, Event(EventKind.COMPUTE, size=5), 0)
        assert len(tracer.records) == 0

    def test_per_core_grouping(self):
        tracer = FullTracer()
        tracer.record(0, _write(), 0)
        tracer.record(1, _write(), 1)
        tracer.record(0, _read(), 2)
        groups = tracer.per_core()
        assert len(groups[0]) == 2 and len(groups[1]) == 1


class TestSampleProfile:
    def test_empty_profile_rejected(self):
        with pytest.raises(AnalysisError):
            SampleProfile([], other_samples=0)

    def test_function_ranking_by_stores(self):
        tracer = SamplingTracer(period=1)
        for _ in range(10):
            tracer.record(0, _write("writer"), 0, cycles=1.0)
        for _ in range(100):
            tracer.record(0, _read("reader"), 0, cycles=1.0)
        tracer.record(0, _write("minor"), 0, cycles=1.0)
        profile = SampleProfile.from_tracer(tracer)
        chosen = profile.write_intensive_functions(share_of_stores=0.5)
        assert [p.function for p in chosen] == ["writer"]

    def test_atomics_count_as_store_time_but_not_ranking(self):
        tracer = SamplingTracer(period=1)
        atomic = Event(EventKind.ATOMIC, addr=0, size=8, site=CodeSite(function="lock"))
        for _ in range(50):
            tracer.record(0, atomic, 0, cycles=1.0)
        for _ in range(10):
            tracer.record(0, _write("writer"), 0, cycles=1.0)
        profile = SampleProfile.from_tracer(tracer)
        # Application-level: atomics are store time.
        assert profile.application_store_fraction == pytest.approx(1.0)
        # Function ranking: the lock's atomics do not outrank the writer.
        chosen = profile.write_intensive_functions(share_of_stores=0.5)
        assert [p.function for p in chosen] == ["writer"]

    def test_hand_built_mix_of_reads_writes_and_atomics(self):
        def rec(kind, fn, chain=()):
            return AccessRecord(
                0, 0, kind, 0, 8, CodeSite(function=fn),
                tuple(CodeSite(function=c) for c in chain),
            )

        samples = (
            [rec(EventKind.WRITE, "put", ("main",))] * 3
            + [rec(EventKind.READ, "put", ("main",))] * 2
            + [rec(EventKind.ATOMIC, "lock", ("put", "main"))] * 4
            + [rec(EventKind.READ, "get")] * 5
            + [rec(EventKind.WRITE, "put", ("other",))]
        )
        profile = SampleProfile(samples, other_samples=5)
        assert profile.total_samples == 20
        assert profile.total_stores == 8
        counts = {
            p.function: (p.loads, p.stores, p.atomics, dict(p.callchains))
            for p in profile.functions()
        }
        assert counts == {
            "put": (2, 4, 0, {("main",): 5, ("other",): 1}),
            "lock": (0, 0, 4, {("put", "main"): 4}),
            "get": (5, 0, 0, {(): 5}),
        }

    def test_callchain_grouping(self):
        tracer = SamplingTracer(period=1)
        ev = Event(
            EventKind.WRITE,
            addr=0,
            size=8,
            site=CodeSite(function="memcpy"),
            callchain=(CodeSite(function="put"),),
        )
        for _ in range(5):
            tracer.record(0, ev, 0, cycles=1.0)
        profile = SampleProfile.from_tracer(tracer)
        chains = profile.function("memcpy").top_callchains()
        assert chains[0][0] == ("put",)
