"""Grid expansion and resumable execution against a warm result cache."""

import functools
import json
import os

from repro.core.prestore import PrestoreMode
from repro.runner import Grid, ResultCache, cache_key, run_grid, runner_session
from repro.sim.machine import machine_a, machine_b_fast
from repro.workloads.microbench import Listing1

MODES = (PrestoreMode.NONE, PrestoreMode.CLEAN)


def _spy_factory():
    _spy_factory.calls += 1
    return Listing1(element_size=512, num_elements=32, iterations=40)


_spy_factory.calls = 0

_tiny = functools.partial(Listing1, element_size=512, num_elements=32, iterations=40)
_other = functools.partial(Listing1, element_size=512, num_elements=48, iterations=40)


def _always_raises():
    raise RuntimeError("kaboom")


def _grid(seeds=(1, 2)):
    return Grid(factories=(_tiny,), machines=(machine_a(),), modes=MODES, seeds=seeds)


class TestExpansion:
    def test_len_is_the_axis_product(self):
        grid = Grid(
            factories=(_tiny, _other),
            machines=(machine_a(), machine_b_fast()),
            modes=MODES,
            seeds=(1, 2, 3),
        )
        assert len(grid) == 2 * 2 * 2 * 3
        assert len(grid.cells()) == len(grid)

    def test_row_major_order_seeds_fastest(self):
        grid = Grid(factories=(_tiny, _other), machines=(machine_a(),), modes=MODES, seeds=(1, 2))
        cells = grid.cells()
        # Seeds vary fastest, then modes, then factories.
        assert [c.seed for c in cells[:2]] == [1, 2]
        assert cells[0].mode == cells[1].mode == PrestoreMode.NONE
        assert cells[2].mode == PrestoreMode.CLEAN
        assert cells[0].make_workload is _tiny and cells[4].make_workload is _other

    def test_expansion_is_stable(self):
        assert [cache_key(c) for c in _grid().cells()] == [cache_key(c) for c in _grid().cells()]

    def test_grid_iterates_cells(self):
        assert [c.seed for c in _grid(seeds=(5,))] == [5, 5]

    def test_axes_are_frozen_tuples(self):
        grid = Grid(factories=[_tiny], machines=[machine_a()], modes=list(MODES), seeds=range(2))
        assert grid.seeds == (0, 1)
        assert isinstance(grid.factories, tuple)


class TestResume:
    def test_fresh_and_resumed_runs_are_bit_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        grid = _grid()
        fresh = run_grid(grid, workers=1, cache=cache)
        assert all(o.status == "ok" for o in fresh)
        resumed = run_grid(grid, workers=1, cache=cache)
        assert [o.result_json for o in resumed] == [o.result_json for o in fresh]
        assert all(o.worker == "cache" and o.cached for o in resumed)
        assert all(o.attempts == 0 for o in resumed)

    def test_limit_stops_early_and_resume_finishes(self, tmp_path):
        cache = ResultCache(tmp_path)
        grid = _grid(seeds=(1, 2, 3))  # 6 cells
        partial = run_grid(grid, limit=2, workers=1, cache=cache)
        assert len(partial) == 2
        assert len(cache) == 2
        # The limit counts only uncached cells: the 2 stored ones come
        # back as hits alongside 2 newly executed ones.
        more = run_grid(grid, limit=2, workers=1, cache=cache)
        assert [o.cached for o in more] == [True, True, False, False]
        final = run_grid(grid, workers=1, cache=cache)
        assert len(final) == len(grid)
        assert sum(1 for o in final if o.cached) == 4
        # Merged outcomes come back in grid order, byte-identical to a
        # never-interrupted run.
        reference = run_grid(grid, workers=1)
        assert [o.result_json for o in final] == [o.result_json for o in reference]

    def test_limit_reaches_the_ambient_session_cache(self, tmp_path):
        grid = _grid(seeds=(3,))
        with runner_session(cache_dir=tmp_path):
            run_grid(grid, limit=1)
            resumed = run_grid(grid, limit=0)
        assert [o.cached for o in resumed] == [True]

    def test_stopped_serial_sweep_resumed_pooled_matches_uninterrupted(self, tmp_path):
        cache = ResultCache(tmp_path)
        grid = _grid(seeds=(1, 2, 3))
        partial = run_grid(grid, limit=3, workers=1, cache=cache)
        assert len(partial) == 3
        resumed = run_grid(grid, workers=2, chunk_size=1, cache=cache)
        assert sum(1 for o in resumed if o.cached) == 3
        # The rest really ran in pool workers, not in this process.
        assert f"pid{os.getpid()}" not in {o.worker for o in resumed if not o.cached}
        reference = run_grid(grid, workers=1)
        assert [o.result_json for o in resumed] == [o.result_json for o in reference]

    def test_resume_skips_the_workload_factory_entirely(self, tmp_path):
        cache = ResultCache(tmp_path)
        grid = Grid(factories=(_spy_factory,), machines=(machine_a(),), modes=MODES, seeds=(9,))
        _spy_factory.calls = 0
        run_grid(grid, workers=1, cache=cache)
        calls_after_fresh = _spy_factory.calls
        assert calls_after_fresh == len(grid)
        run_grid(grid, workers=1, cache=cache)
        assert _spy_factory.calls == calls_after_fresh  # nothing re-ran

    def test_torn_manifest_tail_is_tolerated(self, tmp_path):
        grid = _grid()
        fresh = run_grid(grid, workers=1, cache=ResultCache(tmp_path))
        with open(tmp_path / "manifest.jsonl", "a") as fh:
            fh.write('{"op": "add", "key": "torn-by')  # kill -9 mid-append
        resumed = run_grid(grid, workers=1, cache=ResultCache(tmp_path))
        assert all(o.worker == "cache" for o in resumed)
        assert [o.result_json for o in resumed] == [o.result_json for o in fresh]

    def test_failed_cells_are_not_stored_and_rerun(self, tmp_path):
        cache = ResultCache(tmp_path)
        boom = functools.partial(_always_raises)
        grid = Grid(factories=(boom,), machines=(machine_a(),), modes=MODES, seeds=(1,))
        first = run_grid(grid, workers=1, cache=cache)
        assert all(o.status == "failed" for o in first)
        assert len(cache) == 0
        # Failures never resume: the cells run (and fail) again, and a
        # limit still counts them as pending.
        again = run_grid(grid, limit=1, workers=1, cache=cache)
        assert len(again) == 1
        assert again[0].status == "failed" and again[0].worker != "cache"

    def test_events_still_reach_the_user_bus(self, tmp_path):
        from repro.runner.monitor import SweepMonitor

        monitor = SweepMonitor()
        grid = _grid(seeds=(8,))
        run_grid(grid, workers=1, cache=ResultCache(tmp_path), events=monitor)
        assert monitor.counts["ok"] == len(grid)
        assert monitor.inflight == 0


class TestSweepCli:
    def test_stop_after_exits_75_and_rerun_resumes_from_cache(self, tmp_path, capsys):
        from repro.runner.cli import EXIT_RESUMABLE, main

        argv = ["sweep", "--cells", "4", "--workers", "1", "--cache-dir", str(tmp_path)]
        assert main(argv + ["--stop-after", "1"]) == EXIT_RESUMABLE
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        summary = json.loads(out[: out.index("}") + 1])
        # The one finished cell is served from the cache, never re-run.
        assert (summary["cached"], summary["executed"], summary["remaining"]) == (1, 3, 0)
