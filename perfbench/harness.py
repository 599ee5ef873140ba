"""One repetition of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so module-level memos
in the program (sweep caches, ``lru_cache``d fingerprints) never carry
over from one repetition to the next.  Modes:

``setup``
    Stop at the first simulated event (the first ``Core.execute`` or
    ``Core.execute_stream`` call) and report its ``time.monotonic()``.
``run``
    Run the slice with tracing off; report host wall time, peak RSS,
    the exact simulated counters and the reference-identity probe.
``trace``
    Run the slice with per-layer spans on; report self times as well.

The report is one JSON document written to ``--report``.

    python3 perfbench/harness.py run --workload seq-write --seed 1234 --report out.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from typing import Dict, List, Optional

from slices import SLICES, Slice


class Capture:
    """Every simulated RunResult, plus the smallest re-runnable Workload.run."""

    def __init__(self) -> None:
        self.results: List[object] = []
        #: (l1_accesses, workload, spec, patches, seed, result) of the
        #: smallest plain ``Workload.run`` call seen so far.
        self.smallest: Optional[tuple] = None

    def install(self) -> None:
        from repro.sim.machine import Machine
        from repro.workloads.base import Workload

        results = self.results
        for name in ("finish", "abort"):
            original = getattr(Machine, name)

            def snapshot(machine, _original=original):
                result = _original(machine)
                results.append(result)
                return result

            setattr(Machine, name, snapshot)

        workload_run = Workload.run

        def run(workload, spec, patches=None, tracer=None, seed=1234, **kwargs):
            out = workload_run(workload, spec, patches, tracer, seed, **kwargs)
            plain = all(kwargs.get(k) in (None, False) for k in ("sanitize", "obs"))
            if plain and kwargs.get("streams") is not False:
                size = l1_accesses(out.run)
                if size and (self.smallest is None or size < self.smallest[0]):
                    self.smallest = (size, workload, spec, patches, seed, out.run)
            return out

        Workload.run = run

    def probe(self) -> Dict[str, object]:
        """Re-run the smallest run on the reference vocabulary; compare bytes."""
        if self.smallest is None:
            return {"ok": False, "detail": "no plain Workload.run call to probe"}
        size, workload, spec, patches, seed, batched = self.smallest
        reference = workload.run(spec, patches, seed=seed, streams=False).run
        ok = reference.to_json() == batched.to_json()
        return {"ok": ok, "workload": workload.name, "machine": spec.name, "l1_accesses": size}


def l1_accesses(result) -> int:
    """First-level cache hits + misses of one RunResult."""
    level = next(iter(result.cache_hits), None)
    if level is None:
        return 0
    return result.cache_hits[level] + result.cache_misses[level]


def counters(results: List[object]) -> Dict[str, float]:
    """Exact simulated counters summed over every RunResult, in run order."""
    out: Dict[str, float] = {"sim.runs": len(results)}

    def add(name: str, value: float) -> None:
        out[name] = out.get(name, 0) + value

    for r in results:
        add("sim.accesses", l1_accesses(r))
        for level in r.cache_hits:
            add(f"sim.cache.{level}.hits", r.cache_hits[level])
            add(f"sim.cache.{level}.misses", r.cache_misses[level])
            add(f"sim.cache.{level}.dirty_evictions", r.cache_dirty_evictions[level])
        add("sim.memory.reads", r.device_reads)
        add("sim.memory.writebacks", r.device_writebacks)
        add("sim.memory.bytes_received", r.device_bytes_received)
        add("sim.memory.media_bytes", r.device_media_bytes_written)
        add("sim.cycles", r.cycles)
        add("sim.instructions", r.instructions)
        for core in r.cores:
            add("sim.store_buffer.fence_stall_cycles", core.fence_stall_cycles)
            add("sim.store_buffer.backpressure_stall_cycles", core.backpressure_stall_cycles)
            add("sim.store_buffer.overflow_stall_cycles", core.store_buffer_stall_cycles)
    return out


def results_digest(results: List[object]) -> str:
    digest = hashlib.sha256()
    for text in sorted(r.to_json() for r in results):
        digest.update(text.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def restrict_table2(apps) -> None:
    """Limit table2's DirtBuster pass to ``apps`` (names from its case list)."""
    from repro.experiments import table2_classification as table2

    every = table2._small_workloads
    wanted = set(apps)
    table2._small_workloads = lambda: [c for c in every() if c[0].name in wanted]


def stop_at_first_event(report: str) -> None:
    """Record the monotonic time of the first simulated event, then exit."""
    from repro.sim.cpu import Core

    def first(*_args, **_kwargs):
        stamp = time.monotonic()
        with open(report, "w") as fh:
            json.dump({"first_event": stamp}, fh)
        os._exit(0)

    Core.execute = first
    Core.execute_stream = first


def run_slice(mode: str, spec: Slice, seed: int, report: str, work_dir: str) -> None:
    from repro.experiments import get
    from repro.runner import runner_session

    if spec.table2_apps is not None:
        restrict_table2(spec.table2_apps)
    capture = Capture()
    capture.install()
    timer = None
    if mode == "setup":
        stop_at_first_event(report)
    elif mode == "trace":
        import spans

        timer = spans.SelfTimer()
        spans.install(timer)

    experiments = []
    cache_dir = os.path.join(work_dir, "cache") if spec.cached else None
    with runner_session(workers=1, cache_dir=cache_dir):
        started = time.perf_counter()
        for eid in spec.experiments:
            exp = get(eid)
            run, check = exp.run, exp.check
            if timer is not None:
                run = timer.wrap("experiments.post_s", run)
                check = timer.wrap("experiments.check_s", check)
            entry: Dict[str, object] = {"id": eid, "failures": [], "error": None}
            t = time.perf_counter()
            try:
                entry["failures"] = check(run(fast=True, seed=seed))
            except Exception as exc:  # one experiment's crash is a reported failure
                entry["error"] = f"{type(exc).__name__}: {exc}"
            entry["seconds"] = time.perf_counter() - t
            experiments.append(entry)
        wall_s = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    doc: Dict[str, object] = {
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "experiments": experiments,
        "counters": counters(capture.results),
        "results_digest": results_digest(capture.results),
    }
    if timer is None:
        doc["probe"] = capture.probe()
    else:
        doc["self_s"] = dict(timer.self_s)
        doc["counts"] = dict(timer.counts)
        doc["unattributed_s"] = timer.root_remainder(wall_s)
    with open(report, "w") as fh:
        json.dump(doc, fh)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run", "trace"))
    parser.add_argument("--workload", choices=sorted(SLICES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args(argv)
    run_slice(args.mode, SLICES[args.workload], args.seed, args.report, args.work_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
