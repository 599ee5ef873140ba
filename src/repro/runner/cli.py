"""``python -m repro.runner``: bench, sweeps, cache maintenance, monitoring.

Examples::

    python -m repro.runner bench --workers 4 --out BENCH_runner.json
    python -m repro.runner bench --cells 64 --workers-sweep 1,2,4,8
    python -m repro.runner bench --watch --monitor-jsonl build/sweep.jsonl
    python -m repro.runner sweep --cells 64 --workers 2 --cache-dir build/sweep-cache
    python -m repro.runner sweep --cells 64 --stop-after 20   # exits 75: resume me
    python -m repro.runner cache --dir build/runner-cache
    python -m repro.runner cache --dir build/runner-cache --gc
    python -m repro.runner cache --dir build/runner-cache --clear

``bench`` times the comparison phases and writes ``BENCH_runner.json``
(``--cells``/``--workers-sweep`` grow the grid and record a scaling
curve).  ``sweep`` executes a demo grid *resumably*: every finished
cell lands in the ``--cache-dir`` result cache as it completes, a re-run
serves those cells as cache hits and executes only the rest, and
``--stop-after N`` stops early on purpose after N uncached cells (exit
code 75, the sysexits EX_TEMPFAIL convention: partial progress, run me
again) — the deterministic stand-in for a killed sweep in the CI smoke
job.

``--watch`` attaches a :class:`~repro.runner.monitor.SweepMonitor` and
live-refreshes a fleet dashboard (worker utilisation, cache hit-rate,
cells/s, ETA, per-kind simulator event rates); ``--monitor-jsonl``
appends the same event stream plus a final metrics summary to a JSONL
progress file for headless runs.  Parallel experiment sweeps live on
the experiments CLI (``prestores-experiments fig9 --workers 4 ...``);
this entry point owns the runner's own artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from repro.obs.log import basic_config
from repro.runner.bench import bench_cells, run_bench
from repro.runner.cache import ResultCache
from repro.runner.grid import run_grid
from repro.runner.monitor import SweepEvent, SweepMonitor

#: sysexits.h EX_TEMPFAIL: the sweep stopped with work remaining —
#: rerun the same command to resume from the result cache.
EXIT_RESUMABLE = 75


class _WatchRenderer:
    """Event-bus tee: feed the monitor, repaint the TTY dashboard.

    On a real terminal the dashboard repaints in place (cursor-home +
    clear, throttled to ``min_interval`` host seconds); on a pipe it
    prints one dashboard per sweep end so logs stay readable.
    """

    def __init__(self, monitor: SweepMonitor, min_interval: float = 0.1) -> None:
        self.monitor = monitor
        self.min_interval = min_interval
        self._last_paint = 0.0
        self._tty = sys.stdout.isatty()

    def __call__(self, event: SweepEvent) -> None:
        self.monitor.emit(event)
        now = time.monotonic()
        if event.kind == "sweep_end":
            if self._tty:
                print("\x1b[H\x1b[J", end="")
            print(self.monitor.render_dashboard())
            return
        if self._tty and now - self._last_paint >= self.min_interval:
            self._last_paint = now
            print("\x1b[H\x1b[J", end="")
            print(self.monitor.render_dashboard())


def _parse_workers_sweep(text: str) -> List[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(f"worker counts must be >= 1: {text!r}")
    return values


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runner",
        description="Process-pool experiment runner: benchmark, sweeps, cache tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="time serial vs parallel, cold vs warm cache")
    bench.add_argument("--workers", type=int, default=4)
    bench.add_argument(
        "--cells",
        type=int,
        default=None,
        metavar="N",
        help="grow the grid to N cells (seed axis); default keeps the 8-cell sweep",
    )
    bench.add_argument(
        "--workers-sweep",
        type=_parse_workers_sweep,
        default=None,
        metavar="W1,W2,...",
        help="also record a cold+warm scaling curve at these worker counts",
    )
    bench.add_argument("--chunk-size", type=int, default=None, help="cells per dispatch chunk")
    bench.add_argument("--cache-dir", default="build/runner-cache")
    bench.add_argument("--out", default="BENCH_runner.json")
    bench.add_argument("--full", action="store_true", help="bigger grids (slower)")
    bench.add_argument("--verbose", action="store_true", help="log per-cell progress")
    bench.add_argument(
        "--no-sim",
        action="store_true",
        help="skip the event-interpreter throughput summary (repro.sim.bench)",
    )
    bench.add_argument(
        "--no-serving",
        action="store_true",
        help="skip the serving throughput cell (repro.traffic)",
    )
    bench.add_argument(
        "--watch",
        action="store_true",
        help="live sweep dashboard: utilisation, hit-rate, cells/s, ETA, event rates",
    )
    bench.add_argument(
        "--monitor-jsonl",
        metavar="PATH",
        default=None,
        help="append the SweepMonitor event stream + summary lines here (JSONL)",
    )
    bench.add_argument(
        "--outcomes",
        metavar="PATH",
        default=None,
        help="write the per-cell CellOutcome list for every bench phase here (JSON)",
    )

    sweep = sub.add_parser("sweep", help="run a demo grid resumably (cache + skip)")
    sweep.add_argument("--cells", type=int, default=64, metavar="N", help="grid size")
    sweep.add_argument("--workers", type=int, default=2)
    sweep.add_argument("--chunk-size", type=int, default=None, help="cells per dispatch chunk")
    sweep.add_argument("--retries", type=int, default=1)
    sweep.add_argument("--full", action="store_true", help="bigger grids (slower)")
    sweep.add_argument(
        "--cache-dir",
        default="build/sweep-cache",
        help="ResultCache directory (a re-run resumes from it)",
    )
    sweep.add_argument(
        "--stop-after",
        type=int,
        default=None,
        metavar="N",
        help="execute at most N uncached cells, then exit 75 if work remains",
    )
    sweep.add_argument("--verbose", action="store_true", help="log per-cell progress")
    sweep.add_argument("--watch", action="store_true", help="live sweep dashboard")
    sweep.add_argument(
        "--monitor-jsonl",
        metavar="PATH",
        default=None,
        help="append the SweepMonitor event stream + summary lines here (JSONL)",
    )

    cache = sub.add_parser("cache", help="inspect, GC, or clear a result cache")
    cache.add_argument("--dir", required=True)
    cache.add_argument("--clear", action="store_true")
    cache.add_argument(
        "--gc",
        action="store_true",
        help="adopt untracked payloads, delete misplaced ones, drop orphaned entries, compact",
    )

    args = parser.parse_args(argv)

    if args.command == "bench":
        if args.verbose:
            basic_config()
        monitor: Optional[SweepMonitor] = None
        events = None
        if args.watch or args.monitor_jsonl:
            monitor = SweepMonitor(progress_path=args.monitor_jsonl)
            events = _WatchRenderer(monitor) if args.watch else monitor
        try:
            doc = run_bench(
                workers=args.workers,
                cache_dir=args.cache_dir,
                out=args.out,
                full=args.full,
                cells_count=args.cells,
                workers_sweep=args.workers_sweep,
                chunk_size=args.chunk_size,
                sim=not args.no_sim,
                serving=not args.no_serving,
                events=events,
                outcomes_out=args.outcomes,
            )
        finally:
            if monitor is not None:
                monitor.close()
        print(json.dumps(doc, indent=2))
        ok = doc["deterministic"] and doc["warm_all_cached"]
        print(f"wrote {args.out}" + ("" if ok else " (FAILED invariants)"))
        if args.outcomes:
            print(f"wrote {args.outcomes}")
        if args.monitor_jsonl:
            print(f"wrote {args.monitor_jsonl}")
        return 0 if ok else 1

    if args.command == "sweep":
        if args.verbose:
            basic_config()
        cells = bench_cells(full=args.full, count=args.cells)
        store = ResultCache(args.cache_dir)
        monitor = None
        events = None
        if args.watch or args.monitor_jsonl:
            monitor = SweepMonitor(progress_path=args.monitor_jsonl, cache=store)
            events = _WatchRenderer(monitor) if args.watch else monitor
        try:
            outcomes = run_grid(
                cells,
                limit=args.stop_after,
                events=events,
                workers=args.workers,
                chunk_size=args.chunk_size,
                retries=args.retries,
                cache=store,
            )
        finally:
            if monitor is not None:
                monitor.close()
        cached = sum(1 for o in outcomes if o.cached)
        failed = sum(1 for o in outcomes if o.status in ("failed", "timeout"))
        summary = {
            "cells": len(cells),
            "cached": cached,
            "executed": len(outcomes) - cached,
            "failed": failed,
            "remaining": len(cells) - len(outcomes),
            "cache_dir": args.cache_dir,
        }
        print(json.dumps(summary, indent=2))
        if args.monitor_jsonl:
            print(f"wrote {args.monitor_jsonl}")
        if summary["remaining"]:
            print(f"{summary['remaining']} cells pending; rerun to resume (exit 75)")
            return EXIT_RESUMABLE
        return 1 if failed else 0

    store = ResultCache(args.dir)
    if args.clear:
        print(f"removed {store.clear()} entries from {args.dir}")
    elif args.gc:
        counts = store.gc()
        stats = store.stats()
        print(json.dumps({"gc": counts, "entries": stats["entries"], "bytes": stats["bytes"]}))
    else:
        stats = store.stats()
        print(f"{args.dir}: {stats['entries']} entries, {stats['bytes']:,} bytes")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
