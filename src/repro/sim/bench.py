"""Simulator benchmark suite: events/sec per machine preset, both paths.

Measures the event interpreter's throughput on sequential access
microbenchmarks — cold (install/fill dominated) and warm
(interpretation dominated) — under the **reference** vocabulary (one
READ/WRITE event per access) and the **batched** stream vocabulary the
machine expands inline (DESIGN.md §11).  Every measured pair is also an
equivalence check: the two paths must produce bit-identical
``RunResult`` JSON, and the process exits non-zero if they ever differ.

Run as::

    python -m repro.sim.bench                 # full suite -> BENCH_sim.json
    python -m repro.sim.bench --quick         # CI smoke sizes
    python -m repro.sim.bench --profile       # cProfile + span breakdown

The headline number is the warm sequential-write benchmark on
machine-A: a cache-resident buffer written over and over, where the
reference path's per-event generator round trips and allocations are
pure interpreter overhead.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import pstats
import random
import sys
import time
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.sim.event import Event
from repro.sim.machine import (
    MachineSpec,
    machine_a,
    machine_a_cxl,
    machine_b_fast,
    machine_b_slow,
    machine_dram,
)
from repro.sim.stats import RunResult
from repro.workloads.memapi import Program, ThreadCtx

__all__ = ["PRESETS", "BENCHMARKS", "run_bench", "main"]

#: Preset name -> zero-argument MachineSpec factory.
PRESETS: Dict[str, Callable[[], MachineSpec]] = {
    "machine-A": machine_a,
    "machine-A-dram": machine_dram,
    "machine-A-cxl": machine_a_cxl,
    "machine-B-fast": machine_b_fast,
    "machine-B-slow": machine_b_slow,
}

#: Headline pair reported up front (and checked by CI).
HEADLINE = ("machine-A", "seq_write_warm")


# -- benchmark bodies -------------------------------------------------------


def _seq_write_warm(t: ThreadCtx, buf_bytes: int, passes: int) -> Iterator[Event]:
    """Repeated stores over a cache-resident buffer (the headline).

    After the first pass every line is L1-resident, so the reference
    path's time is almost entirely interpreter overhead — exactly what
    the batched vocabulary removes.
    """
    buf = t.alloc(buf_bytes, label="bench_warm")
    with t.function("bench_seq_write", file="bench.py", line=1):
        for _ in range(passes):
            yield from t.write_block(buf.base, buf_bytes)


def _seq_write_cold(t: ThreadCtx, buf_bytes: int, passes: int) -> Iterator[Event]:
    """One pass of stores over a buffer far larger than the caches."""
    buf = t.alloc(buf_bytes, label="bench_cold")
    with t.function("bench_seq_write_cold", file="bench.py", line=2):
        yield from t.write_block(buf.base, buf_bytes)


def _seq_read_warm(t: ThreadCtx, buf_bytes: int, passes: int) -> Iterator[Event]:
    """Repeated loads over a cache-resident buffer."""
    buf = t.alloc(buf_bytes, label="bench_read")
    with t.function("bench_seq_read", file="bench.py", line=3):
        for _ in range(passes):
            yield from t.read_block(buf.base, buf_bytes)


def _strided_read_warm(t: ThreadCtx, buf_bytes: int, passes: int) -> Iterator[Event]:
    """Repeated 8-byte loads, one per line, over a cache-resident buffer.

    Listing 2's read loop: the batched vocabulary emits one strided
    STREAM_READ per pass (``chunk=64``, ``width=8``).
    """
    buf = t.alloc(buf_bytes, label="bench_strided")
    with t.function("bench_strided_read", file="bench.py", line=7):
        for _ in range(passes):
            yield from t.read_strided(buf.base, buf_bytes // 64, 64, 8)


#: Page size used to scramble the cold benchmarks: one stream event per
#: page keeps the event sequence identical in both vocabularies while the
#: page order defeats the set-sequential locality the ``seq_*`` cold
#: benchmarks enjoy — this is what exercises the fused miss path's hashed
#: LLC indexing and combiner thrash.
_PAGE = 4096


def _shuffled_pages(buf_bytes: int, seed: int) -> list:
    offsets = list(range(0, buf_bytes, _PAGE))
    random.Random(seed).shuffle(offsets)
    return offsets


def _rand_write_cold(t: ThreadCtx, buf_bytes: int, passes: int) -> Iterator[Event]:
    """Page-shuffled stores over a buffer far larger than the caches."""
    buf = t.alloc(buf_bytes, label="bench_rand_w")
    pages = _shuffled_pages(buf_bytes, seed=0xC01D)
    with t.function("bench_rand_write_cold", file="bench.py", line=4):
        for _ in range(passes):
            for off in pages:
                yield from t.write_block(buf.base + off, min(_PAGE, buf_bytes - off))


def _rand_read_cold(t: ThreadCtx, buf_bytes: int, passes: int) -> Iterator[Event]:
    """Page-shuffled loads over a buffer far larger than the caches."""
    buf = t.alloc(buf_bytes, label="bench_rand_r")
    pages = _shuffled_pages(buf_bytes, seed=0xC01D)
    with t.function("bench_rand_read_cold", file="bench.py", line=5):
        for _ in range(passes):
            for off in pages:
                yield from t.read_block(buf.base + off, min(_PAGE, buf_bytes - off))


def _mixed_cold(t: ThreadCtx, buf_bytes: int, passes: int) -> Iterator[Event]:
    """Alternating page-shuffled stores and loads (both fused loops)."""
    buf = t.alloc(buf_bytes, label="bench_mixed")
    pages = _shuffled_pages(buf_bytes, seed=0x313D)
    with t.function("bench_mixed_cold", file="bench.py", line=6):
        for _ in range(passes):
            for i, off in enumerate(pages):
                size = min(_PAGE, buf_bytes - off)
                if i & 1:
                    yield from t.read_block(buf.base + off, size)
                else:
                    yield from t.write_block(buf.base + off, size)


#: name -> (body, full (buf_bytes, passes), quick (buf_bytes, passes)).
BENCHMARKS: Dict[str, Tuple[Callable[..., Iterator[Event]], Tuple[int, int], Tuple[int, int]]] = {
    "seq_write_warm": (_seq_write_warm, (16 * 1024, 400), (16 * 1024, 60)),
    "seq_write_cold": (_seq_write_cold, (2 * 1024 * 1024, 1), (256 * 1024, 1)),
    "seq_read_warm": (_seq_read_warm, (16 * 1024, 400), (16 * 1024, 60)),
    "strided_read_warm": (_strided_read_warm, (16 * 1024, 400), (16 * 1024, 60)),
    "rand_write_cold": (_rand_write_cold, (1024 * 1024, 1), (128 * 1024, 1)),
    "rand_read_cold": (_rand_read_cold, (1024 * 1024, 1), (128 * 1024, 1)),
    "mixed_cold": (_mixed_cold, (1024 * 1024, 1), (128 * 1024, 1)),
}


# -- measurement ------------------------------------------------------------


def _run_once(
    spec: MachineSpec, body: Callable[..., Iterator[Event]], sizes: Tuple[int, int], streams: bool
) -> Tuple[RunResult, float]:
    buf_bytes, passes = sizes
    program = Program(spec, streams=streams)
    program.spawn(body, buf_bytes, passes)
    start = time.perf_counter()
    result = program.run()
    return result, time.perf_counter() - start


def _measure(
    preset: Callable[[], MachineSpec],
    body: Callable[..., Iterator[Event]],
    sizes: Tuple[int, int],
    repeats: int,
) -> dict:
    """Time both vocabularies (best of ``repeats``) and check equivalence."""
    entry: dict = {}
    jsons = {}
    for label, streams in (("reference", False), ("fast", True)):
        best: Optional[float] = None
        result: Optional[RunResult] = None
        for _ in range(repeats):
            result, wall = _run_once(preset(), body, sizes, streams)
            if best is None or wall < best:
                best = wall
        assert result is not None and best is not None
        jsons[label] = result.to_json()
        entry[label] = {
            "seconds": best,
            "instructions": result.instructions,
            # NaN, not inf, on an unmeasurable (zero-time) run: a ratio
            # with a zero denominator carries no data (DESIGN.md §9), and
            # inf would silently win every "faster than" comparison
            # downstream.
            "events_per_sec": result.instructions / best if best > 0 else float("nan"),
        }
    ref_eps = entry["reference"]["events_per_sec"]
    entry["speedup"] = (
        entry["fast"]["events_per_sec"] / ref_eps if ref_eps > 0 else float("nan")
    )
    entry["identical"] = jsons["reference"] == jsons["fast"]
    return entry


def run_bench(
    quick: bool = False, repeats: int = 1, presets: Optional[Tuple[str, ...]] = None
) -> dict:
    """Run the matrix; returns the BENCH_sim.json document.

    ``presets`` restricts the machine presets measured (CI's
    ``bench-check`` job runs only the two fastest); None runs them all.
    The headline stays machine-A's warm sequential write when that
    preset is included, otherwise the first selected preset's.
    """
    selected = dict(PRESETS)
    if presets is not None:
        unknown = sorted(set(presets) - set(PRESETS))
        if unknown:
            raise ValueError(f"unknown presets {unknown}; choose from {sorted(PRESETS)}")
        selected = {name: PRESETS[name] for name in PRESETS if name in presets}
    doc: dict = {
        "schema": "repro.bench_sim/v1",
        "quick": quick,
        "repeats": repeats,
        "presets": {},
    }
    ok = True
    for pname, preset in selected.items():
        doc["presets"][pname] = {}
        for bname, (body, full_sizes, quick_sizes) in BENCHMARKS.items():
            sizes = quick_sizes if quick else full_sizes
            entry = _measure(preset, body, sizes, repeats)
            doc["presets"][pname][bname] = entry
            ok = ok and entry["identical"]
            print(
                f"{pname:16s} {bname:17s} "
                f"ref {entry['reference']['events_per_sec']:>12,.0f} ev/s   "
                f"fast {entry['fast']['events_per_sec']:>12,.0f} ev/s   "
                f"x{entry['speedup']:.2f}  "
                f"{'identical' if entry['identical'] else 'RESULTS DIFFER'}"
            )
    hp, hb = HEADLINE
    if hp not in doc["presets"]:
        hp = next(iter(doc["presets"]))
    doc["headline"] = {
        "preset": hp,
        "benchmark": hb,
        "speedup": doc["presets"][hp][hb]["speedup"],
    }
    doc["all_identical"] = ok
    return doc


# -- profiling --------------------------------------------------------------


def _profile_headline(quick: bool) -> None:
    """cProfile breakdown of the headline benchmark, both paths."""
    hp, hb = HEADLINE
    body, full_sizes, quick_sizes = BENCHMARKS[hb]
    sizes = quick_sizes if quick else full_sizes
    for label, streams in (("reference", False), ("fast", True)):
        prof = cProfile.Profile()
        prof.enable()
        _run_once(PRESETS[hp](), body, sizes, streams)
        prof.disable()
        out = io.StringIO()
        pstats.Stats(prof, stream=out).sort_stats("cumulative").print_stats(14)
        print(f"\n=== cProfile: {hp} {hb} [{label}] ===")
        print(out.getvalue())
    # Span breakdown of the reference path: wrap the simulator's hot
    # methods the same way ObsCollector(profile=True) does.
    from repro.obs.log import SpanProfiler

    program = Program(PRESETS[hp](), streams=False)
    program.spawn(body, *sizes)
    profiler = SpanProfiler()
    machine = program.machine
    profiler.wrap(machine, "step", "sim.dispatch")
    profiler.wrap(machine.hierarchy, "access_line", "sim.cache_lookup")
    profiler.wrap(machine.device, "write_back", "sim.device_writeback")
    profiler.wrap(machine.device, "read", "sim.device_read")
    with profiler.span("sim.run"):
        program.run()
    profiler.unwrap_all()
    print(f"=== SpanProfiler: {hp} {hb} [reference] ===")
    print(profiler.report())


# -- CLI --------------------------------------------------------------------


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sim.bench",
        description="Benchmark the event interpreter (reference vs. batched stream path).",
    )
    parser.add_argument("--quick", action="store_true", help="CI smoke sizes")
    parser.add_argument("--repeats", type=int, default=1, help="best-of-N timing (default 1)")
    parser.add_argument("--out", default="BENCH_sim.json", help="output JSON path")
    parser.add_argument(
        "--preset",
        action="append",
        choices=sorted(PRESETS),
        default=None,
        help="measure only this preset (repeatable; default: all presets)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print a cProfile/SpanProfiler breakdown of the headline benchmark and exit",
    )
    args = parser.parse_args(argv)
    if args.profile:
        _profile_headline(args.quick)
        return 0
    doc = run_bench(
        quick=args.quick,
        repeats=args.repeats,
        presets=None if args.preset is None else tuple(args.preset),
    )
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    head = doc["headline"]
    print(
        f"\nheadline: {head['preset']} {head['benchmark']} "
        f"x{head['speedup']:.2f} -> {args.out}"
    )
    if not doc["all_identical"]:
        print("ERROR: fast path diverged from the reference results", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
