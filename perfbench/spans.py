"""Per-layer host self time for the traced run.

Spans are opened around calls into each layer's public functions, from
the benchmark's side: :func:`install` replaces those functions (on their
classes, and in every ``repro`` module namespace that imported them) with
timing wrappers, so the program's own sources stay untouched.

Each span is charged to a layer metric named as the benchmark reports it
(``sim.cpu.event_s``).  A span's self time is its duration minus the
time its directly enclosed spans took.  Every span's duration is charged to exactly one parent (the
enclosing span, or the root), so the self times plus the root's own
remainder add up to the root's duration.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Optional

_clock = time.perf_counter


class SelfTimer:
    """Span stack plus the per-layer self-time and count tallies."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        #: One slot per open span: the time its direct children took.
        #: Slot 0 belongs to the root (the timed region itself).
        self.child = [0.0]

    def wrap(
        self,
        layer: str,
        fn: Callable,
        count: Optional[str] = None,
        amount: Optional[Callable[[object], int]] = None,
    ) -> Callable:
        """``fn`` inside a span charged to ``layer``.

        ``count`` names a tally bumped per call, by ``amount(result)``
        when given, else by one.
        """
        child, self_s, counts = self.child, self.self_s, self.counts

        @functools.wraps(fn)
        def span(*args, **kwargs):
            child.append(0.0)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                self_s[layer] += elapsed - child.pop()
                child[-1] += elapsed
            if count is not None:
                counts[count] += 1 if amount is None else amount(result)
            return result

        return span

    def root_remainder(self, wall_s: float) -> float:
        """The root's self time: ``wall_s`` minus its direct children."""
        return wall_s - self.child[0]


def _replace(owner: object, name: str, replacement: Callable) -> None:
    """Rebind ``owner.name`` and every ``repro`` module alias of it."""
    original = getattr(owner, name)
    setattr(owner, name, replacement)
    if isinstance(owner, type):
        return
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "repro" or mod_name.startswith("repro."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(timer: SelfTimer) -> None:
    """Wrap every layer boundary the traced run reports on."""
    from repro.dirtbuster import instrument, recommend, trace
    from repro.faults import harness, injector, recovery
    from repro.runner import cache, cells, pool
    from repro.sim import cpu, machine, memory
    from repro.sim.event import STREAM_KINDS, EventKind
    from repro.traffic import arrivals, interleave

    def span(owner, name, layer, count=None, amount=None):
        _replace(owner, name, timer.wrap(layer, getattr(owner, name), count, amount))

    child, self_s, counts = timer.child, timer.self_s, timer.counts

    # -- workloads: thread-body generators, timed per next() ---------------
    class TimedBody:
        __slots__ = ("_next",)

        def __init__(self, body) -> None:
            self._next = iter(body).__next__

        def __iter__(self):
            return self

        def __next__(self):
            child.append(0.0)
            start = _clock()
            try:
                event = self._next()
            finally:
                elapsed = _clock() - start
                self_s["workloads.gen_s"] += elapsed - child.pop()
                child[-1] += elapsed
            counts["workloads.events"] += 1
            if event.kind in STREAM_KINDS:
                counts["workloads.stream_events"] += 1
            return event

    machine_run = timer.wrap("sim.machine.sched_s", machine.Machine.run)

    def run(self, bodies):
        return machine_run(self, [TimedBody(b) for b in bodies])

    machine.Machine.run = run
    span(machine.Machine, "__init__", "sim.machine.build_s")
    span(machine.Machine, "finish", "sim.machine.finish_s")
    span(machine.Machine, "abort", "sim.machine.finish_s")

    # -- sim.cpu: per-event handlers vs the fused stream kernels ------------
    accesses = (EventKind.READ, EventKind.WRITE)
    core_execute = timer.wrap("sim.cpu.event_s", cpu.Core.execute)

    def execute(self, event):
        if event.kind in accesses:
            counts["sim.cpu.event_accesses"] += 1
        core_execute(self, event)

    core_stream = timer.wrap("sim.cpu.stream_s", cpu.Core.execute_stream)

    def execute_stream(self, event, *limits):
        size, chunk = event.size, event.chunk
        # Accesses the stream hands to execute() (the unfused generic
        # stream path) are per-event accesses, not fused ones.
        before = counts["sim.cpu.event_accesses"]
        leftover = core_stream(self, event, *limits)
        executed = size - (leftover.size if leftover is not None else 0)
        unfused = counts["sim.cpu.event_accesses"] - before
        counts["sim.cpu.stream_accesses"] += -(-executed // chunk) - unfused
        return leftover

    cpu.Core.execute = execute
    cpu.Core.execute_stream = execute_stream

    # -- sim.memory: out-of-line device calls -------------------------------
    for device in (memory.MemoryDevice, injector.FaultDevice):
        for name in ("read", "write_back", "flush"):
            if name in vars(device):
                span(device, name, "sim.memory.s")

    # -- dirtbuster: tracer records, instrumentation, recommendations -------
    for tracer in (trace.SamplingTracer, trace.FullTracer):
        span(tracer, "record", "dirtbuster.record_s", count="dirtbuster.records")
    span(instrument.Instrumenter, "feed", "dirtbuster.feed_s")
    for name in ("recommend_all", "writes_sequentially", "writes_before_fence"):
        span(recommend.Recommender, name, "dirtbuster.recommend_s")

    # -- traffic: arrival processes and the multi-client interleaver --------
    span(arrivals.ArrivalSpec, "times", "traffic.build_s")
    span(
        interleave,
        "compile_schedule",
        "traffic.build_s",
        count="traffic.ops",
        amount=lambda schedule: sum(len(client) for client in schedule),
    )

    # -- faults: harness and recovery checks ---------------------------------
    span(
        harness,
        "run_with_faults",
        "faults.s",
        count="faults.crashes",
        amount=lambda report: int(report.crashed),
    )
    span(harness, "capture_image", "faults.s")
    span(recovery, "check_durability", "faults.s")

    # -- runner: dispatch, per-cell wrapper, result-cache stores ------------
    span(pool, "execute_cells", "runner.dispatch_s")
    span(cells, "run_cell", "runner.cell_s", count="runner.cells")
    span(cache.ResultCache, "store", "runner.cache_store_s", count="runner.cache_stores")
