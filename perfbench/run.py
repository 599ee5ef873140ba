"""Benchmark of the paper's experiment suite, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload seq-write --seed 1234 --seconds 10 --trace 0

Each workload is a fixed slice of the registered paper experiments
(``slices.py``), run serially in fast mode by a fresh interpreter
(``harness.py``).  With ``--trace 0`` it prints the end-to-end metrics,
measured with tracing off; with ``--trace 1`` it prints the per-layer
metrics of a traced repetition, next to an untraced one for the tracing
overhead and the traced-vs-untraced identity self-test.

Outputs are checked in every run: each experiment's paper shape check
(a failing one counts as a failed operation), a byte comparison of the
workload's smallest simulated run against the per-access reference
vocabulary, and a digest of every simulated RunResult, which must repeat
across repetitions and with tracing on or off.  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

from slices import SLICES

HERE = os.path.dirname(os.path.abspath(__file__))

#: Fresh interpreters timed to their first simulated event, per run.
SETUP_REPEATS = 5
#: Every child has ended by this many seconds after the run started.
RUN_BUDGET_S = 170.0

#: Cache levels reported per layer (machine B has no LLC: reported as 0).
CACHE_LEVELS = ("L1", "L2", "LLC")

#: (name, unit) of every per-layer metric, in print order.
PER_LAYER = (
    [
        ("workloads.gen_s", "s"),
        ("workloads.events", "count"),
        ("workloads.stream_events", "count"),
        ("sim.machine.build_s", "s"),
        ("sim.machine.sched_s", "s"),
        ("sim.machine.finish_s", "s"),
        ("sim.cpu.event_s", "s"),
        ("sim.cpu.event_accesses", "count"),
        ("sim.cpu.stream_s", "s"),
        ("sim.cpu.stream_accesses", "count"),
        ("sim.cpu.fused_share", "ratio"),
        ("sim.cpu.event_ns_per_access", "ns"),
        ("sim.cpu.stream_ns_per_access", "ns"),
        ("sim.accesses", "count"),
    ]
    + [
        (f"sim.cache.{level}.{what}", "count")
        for level in CACHE_LEVELS
        for what in ("hits", "misses", "dirty_evictions")
    ]
    + [
        ("sim.memory.s", "s"),
        ("sim.memory.reads", "count"),
        ("sim.memory.writebacks", "count"),
        ("sim.memory.bytes_received", "B"),
        ("sim.memory.media_bytes", "B"),
        ("sim.memory.wa", "ratio"),
        ("sim.cycles", "cycles"),
        ("sim.instructions", "count"),
        ("sim.store_buffer.fence_stall_cycles", "cycles"),
        ("sim.store_buffer.backpressure_stall_cycles", "cycles"),
        ("sim.store_buffer.overflow_stall_cycles", "cycles"),
        ("dirtbuster.record_s", "s"),
        ("dirtbuster.records", "count"),
        ("dirtbuster.feed_s", "s"),
        ("dirtbuster.recommend_s", "s"),
        ("traffic.build_s", "s"),
        ("traffic.ops", "count"),
        ("faults.s", "s"),
        ("faults.crashes", "count"),
        ("runner.dispatch_s", "s"),
        ("runner.cell_s", "s"),
        ("runner.cells", "count"),
        ("runner.cache_store_s", "s"),
        ("runner.cache_stores", "count"),
        ("experiments.post_s", "s"),
        ("experiments.check_s", "s"),
        ("experiments.failed", "count"),
        ("trace.wall_s", "s"),
        ("trace.unattributed_s", "s"),
        ("trace_overhead", "ratio"),
    ]
)


class ChildError(RuntimeError):
    pass


def child(
    mode: str, workload: str, seed: int, work_root: str, deadline: float
) -> Dict[str, object]:
    """Run ``harness.py`` once in a fresh interpreter; return its report.

    A ``setup`` report also carries ``setup_s``: from just before the
    interpreter was started to its first simulated event.
    """
    work_dir = tempfile.mkdtemp(prefix=f"{mode}-", dir=work_root)
    report = os.path.join(work_dir, "report.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    env.pop("REPRO_SIM_REFERENCE", None)
    cmd = [
        sys.executable,
        os.path.join(HERE, "harness.py"),
        mode,
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--report",
        report,
        "--work-dir",
        work_dir,
    ]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildError(f"{mode} child for {workload} timed out") from None
    if proc.returncode != 0 or not os.path.exists(report):
        tail = err.decode(errors="replace").strip().splitlines()[-5:]
        raise ChildError(f"{mode} child exited {proc.returncode}: " + " | ".join(tail))
    with open(report) as fh:
        doc = json.load(fh)
    shutil.rmtree(work_dir, ignore_errors=True)
    if mode == "setup":
        doc["setup_s"] = doc["first_event"] - started
    return doc


def failed_experiments(doc: Dict[str, object]) -> int:
    return sum(1 for e in doc["experiments"] if e["error"] or e["failures"])


def failures(doc: Dict[str, object]) -> List[str]:
    """One line per failed experiment of a repetition."""
    out = []
    for exp in doc["experiments"]:
        if exp["error"]:
            out.append(f"{exp['id']}: raised {exp['error']}")
        for failure in exp["failures"]:
            out.append(f"{exp['id']}: shape check failed: {failure}")
    return out


def end_to_end(args, work_root: str, deadline: float):
    setups = [
        child("setup", args.workload, args.seed, work_root, deadline)["setup_s"]
        for _ in range(SETUP_REPEATS)
    ]
    # Repeat whole slices until --seconds of experiments are measured,
    # while another repetition still fits the time budget.
    reps: List[Dict[str, object]] = []
    while not reps or (
        sum(r["wall_s"] for r in reps) < args.seconds
        and deadline - time.monotonic() > 2 * reps[-1]["wall_s"]
    ):
        reps.append(child("run", args.workload, args.seed, work_root, deadline))

    checks = []
    digests = {r["results_digest"] for r in reps}
    checks.append(("results_digest repeats across repetitions", len(digests) == 1))
    for i, r in enumerate(reps):
        probe = r["probe"]
        print(f"rep {i}: reference-identity probe on {probe.get('workload')}: "
              f"{'identical' if probe['ok'] else 'DIFFERS'}")
        checks.append((f"rep {i} reference-identity probe", probe["ok"]))
        checks.append((f"rep {i} no experiment raised",
                       not any(e["error"] for e in r["experiments"])))

    attempted = sum(len(r["experiments"]) for r in reps)
    failed = sum(failed_experiments(r) for r in reps)
    for line in sorted({f for r in reps for f in failures(r)}):
        print(line)
    walls = [r["wall_s"] for r in reps]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "sim_accesses_per_s": (
            statistics.median(r["counters"]["sim.accesses"] / r["wall_s"] for r in reps),
            "accesses/s",
        ),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
    }
    print(f"results_digest {digests.pop() if len(digests) == 1 else sorted(digests)}")
    print(f"fail_frac {failed}/{attempted} (experiments whose shape check failed or raised)")
    print(f"setup_s samples {sorted(setups)}; wall_s samples {walls}")
    return checks, attempted, failed, metrics


def per_layer(args, work_root: str, deadline: float):
    plain = child("run", args.workload, args.seed, work_root, deadline)
    traced = child("trace", args.workload, args.seed, work_root, deadline)
    self_s, counts = traced["self_s"], traced["counts"]
    wall = traced["wall_s"]
    unattributed = traced["unattributed_s"]

    checks = [
        (
            "self times + unattributed == traced wall_s",
            abs(sum(self_s.values()) + unattributed - wall) <= 1e-6 * max(wall, 1.0),
        ),
        ("no negative self time", min(list(self_s.values()) + [unattributed]) > -1e-3),
        ("simulated counters identical traced vs untraced",
         traced["counters"] == plain["counters"]),
        ("results_digest identical traced vs untraced",
         traced["results_digest"] == plain["results_digest"]),
        ("reference-identity probe", plain["probe"]["ok"]),
        ("no experiment raised", not any(e["error"] for e in traced["experiments"])),
    ]
    sim = traced["counters"]
    event_n = counts.get("sim.cpu.event_accesses", 0)
    stream_n = counts.get("sim.cpu.stream_accesses", 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    values: Dict[str, float] = {**sim, **counts, **self_s}
    values.update(
        {
            "sim.cpu.fused_share": ratio(stream_n, event_n + stream_n),
            "sim.cpu.event_ns_per_access": 1e9 * ratio(values.get("sim.cpu.event_s", 0), event_n),
            "sim.cpu.stream_ns_per_access": (
                1e9 * ratio(values.get("sim.cpu.stream_s", 0), stream_n)
            ),
            "sim.memory.wa": ratio(
                sim.get("sim.memory.media_bytes", 0), sim.get("sim.memory.bytes_received", 0)
            ),
            "experiments.failed": failed_experiments(traced),
            "trace.wall_s": wall,
            "trace.unattributed_s": unattributed,
            "trace_overhead": wall / plain["wall_s"],
        }
    )
    # Layers a workload never entered report 0 (no LLC on machine B, no
    # tracer outside dirtbuster, ...).
    metrics = {name: (values.get(name, 0), unit) for name, unit in PER_LAYER}
    print(f"results_digest {traced['results_digest']}")
    for name, ok in checks:
        print(f"self-test: {name}: {'ok' if ok else 'FAILED'}")
    attempted = len(traced["experiments"])
    failed = values["experiments.failed"]
    for line in failures(traced):
        print(line)
    return checks, attempted, failed, metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SLICES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    # The build step: byte-compile the sources once, so no timed
    # interpreter pays for compilation.
    if not compileall.compile_dir("src", quiet=1):
        print("perfbench: byte-compiling src failed", file=sys.stderr)
        return 2

    work_root = os.path.abspath(".perfbench-work")
    os.makedirs(work_root, exist_ok=True)
    work_root = tempfile.mkdtemp(dir=work_root)
    try:
        run = per_layer if args.trace else end_to_end
        checks, attempted, failed, metrics = run(args, work_root, deadline)
    except ChildError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_root))
        except OSError:
            pass  # another benchmark process still uses it
    for name, ok in checks:
        if not ok:
            print(f"check failed: {name}")
    print(f"{args.workload}: " + ", ".join(f"{k} {v:.6g} {u}" for k, (v, u) in metrics.items()))
    print(
        json.dumps(
            {
                "correct": all(ok for _, ok in checks),
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
