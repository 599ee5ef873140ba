"""The benchmark-trajectory store and regression gate."""

import json

from repro.obs.regress import (
    GATES,
    HISTORY_SCHEMA,
    append_history,
    check_history,
    flatten_metrics,
    load_history,
    main,
)

RUNNER_DOC = {
    "bench": "repro.runner",
    "code_fingerprint": "fp-aaa",
    "deterministic": True,
    "warm_all_cached": True,
    "parallel_speedup": 2.0,
    "serial_cold_s": 1.5,
    "sim": {"seq_write_warm": {"speedup": 5.0, "identical": True}},
    "workers": 4,
    "notes": "strings are skipped",
}


def _seed(history, doc=None, fingerprint=None, t=1.0):
    doc = dict(RUNNER_DOC if doc is None else doc)
    if fingerprint is not None:
        doc["code_fingerprint"] = fingerprint
    return append_history(doc, bench="runner", history=history, timestamp=t)


class TestFlatten:
    def test_dotted_numeric_leaves(self):
        flat = flatten_metrics(RUNNER_DOC)
        assert flat["sim.seq_write_warm.speedup"] == 5.0
        assert flat["parallel_speedup"] == 2.0
        assert "notes" not in flat
        assert "bench" not in flat  # strings skipped
        assert "code_fingerprint" not in flat

    def test_booleans_become_zero_one(self):
        flat = flatten_metrics(RUNNER_DOC)
        assert flat["deterministic"] == 1.0
        assert flat["sim.seq_write_warm.identical"] == 1.0

    def test_non_finite_leaves_dropped(self):
        flat = flatten_metrics({"a": float("nan"), "b": float("inf"), "c": 1.0})
        assert flat == {"c": 1.0}


class TestHistoryStore:
    def test_append_and_load(self, tmp_path):
        history = tmp_path / "hist.jsonl"
        entry = _seed(history)
        assert entry["schema"] == HISTORY_SCHEMA
        assert entry["fingerprint"] == "fp-aaa"
        (loaded,) = load_history(history)
        assert loaded == json.loads(json.dumps(entry))

    def test_fingerprint_falls_back_to_live_tree(self, tmp_path):
        doc = {k: v for k, v in RUNNER_DOC.items() if k != "code_fingerprint"}
        entry = append_history(doc, bench="runner", history=tmp_path / "h.jsonl", timestamp=1.0)
        assert entry["fingerprint"]  # the runner's cache fingerprint

    def test_garbage_lines_skipped(self, tmp_path):
        history = tmp_path / "hist.jsonl"
        _seed(history)
        with history.open("a") as fh:
            fh.write("not json\n")
            fh.write('{"schema": "something/else"}\n')
        assert len(load_history(history)) == 1

    def test_missing_history_is_empty(self, tmp_path):
        assert load_history(tmp_path / "absent.jsonl") == []


class TestGates:
    def test_gate_table_shape(self):
        # First match wins: correctness booleans exact, ratios tolerant.
        directions = [direction for _, direction, _ in GATES]
        assert directions[0] == "exact"
        assert "higher" in directions and "lower" in directions

    def test_single_entry_is_all_new(self, tmp_path):
        history = tmp_path / "hist.jsonl"
        _seed(history)
        report = check_history(history)
        assert report.ok
        assert {t.verdict for t in report.trends} == {"new"}
        assert report.compared == []

    def test_steady_state_passes(self, tmp_path):
        history = tmp_path / "hist.jsonl"
        _seed(history, t=1.0)
        _seed(history, fingerprint="fp-bbb", t=2.0)
        report = check_history(history)
        assert report.ok
        assert report.compared == [("runner", "fp-bbb", "fp-aaa")]

    def test_boolean_flip_regresses_exactly(self, tmp_path):
        history = tmp_path / "hist.jsonl"
        _seed(history, t=1.0)
        bad = dict(RUNNER_DOC, deterministic=False)
        _seed(history, doc=bad, fingerprint="fp-bbb", t=2.0)
        report = check_history(history)
        assert not report.ok
        assert [t.metric for t in report.regressions] == ["deterministic"]

    def test_speedup_within_tolerance_passes(self, tmp_path):
        history = tmp_path / "hist.jsonl"
        _seed(history, t=1.0)
        noisy = dict(RUNNER_DOC, parallel_speedup=2.0 * 0.80)  # -20% < 25%
        _seed(history, doc=noisy, fingerprint="fp-bbb", t=2.0)
        assert check_history(history).ok

    def test_speedup_beyond_tolerance_regresses(self, tmp_path):
        history = tmp_path / "hist.jsonl"
        _seed(history, t=1.0)
        slow = dict(RUNNER_DOC, parallel_speedup=2.0 * 0.5)  # -50% > 25%
        _seed(history, doc=slow, fingerprint="fp-bbb", t=2.0)
        report = check_history(history)
        assert [t.metric for t in report.regressions] == ["parallel_speedup"]

    def test_wall_clock_gates_upward_only(self, tmp_path):
        history = tmp_path / "hist.jsonl"
        _seed(history, t=1.0)
        # 2x slower wall clock: beyond the 50% allowance, regresses.
        slow = dict(RUNNER_DOC, serial_cold_s=3.5)
        _seed(history, doc=slow, fingerprint="fp-bbb", t=2.0)
        assert [t.metric for t in check_history(history).regressions] == ["serial_cold_s"]
        # Getting *faster* by any amount is an improvement, never fatal.
        fast = dict(RUNNER_DOC, serial_cold_s=0.1)
        _seed(history, doc=fast, fingerprint="fp-ccc", t=3.0)
        assert check_history(history).ok

    def test_added_benchmark_cell_is_new_not_regressed(self, tmp_path):
        # A cell added to repro.sim.bench.BENCHMARKS (e.g.
        # strided_read_warm) has no predecessor point: its gated
        # speedup/identical metrics report "new" and never fail the gate.
        history = tmp_path / "hist.jsonl"
        _seed(history, t=1.0)
        grown = dict(RUNNER_DOC)
        grown["sim"] = dict(
            RUNNER_DOC["sim"], strided_read_warm={"speedup": 8.0, "identical": True}
        )
        _seed(history, doc=grown, fingerprint="fp-bbb", t=2.0)
        report = check_history(history)
        assert report.ok
        added = {t.metric: t.verdict for t in report.trends if "strided" in t.metric}
        assert added == {
            "sim.strided_read_warm.speedup": "new",
            "sim.strided_read_warm.identical": "new",
        }

    def test_ungated_metrics_never_regress(self, tmp_path):
        history = tmp_path / "hist.jsonl"
        _seed(history, t=1.0)
        shifted = dict(RUNNER_DOC, workers=1)
        _seed(history, doc=shifted, fingerprint="fp-bbb", t=2.0)
        report = check_history(history)
        assert report.ok
        (trend,) = [t for t in report.trends if t.metric == "workers"]
        assert trend.direction is None and trend.verdict == "ok"

    def test_gated_metric_going_nan_regresses_explicitly(self, tmp_path):
        # Regression: a NaN speedup used to vanish from the flattened
        # entry and with it from the comparison — the gate passed while
        # the benchmark was reporting garbage.
        history = tmp_path / "hist.jsonl"
        _seed(history, t=1.0)
        broken = dict(RUNNER_DOC, parallel_speedup=float("nan"))
        _seed(history, doc=broken, fingerprint="fp-bbb", t=2.0)
        report = check_history(history)
        assert not report.ok
        (trend,) = report.regressions
        assert trend.metric == "parallel_speedup"
        assert trend.vanished
        assert trend.latest == 2.0  # last numeric value, not NaN
        assert "went non-finite" in trend.describe()

    def test_ungated_metric_going_nan_is_not_fatal(self, tmp_path):
        history = tmp_path / "hist.jsonl"
        _seed(history, t=1.0)
        shifted = dict(RUNNER_DOC, workers=float("nan"))
        _seed(history, doc=shifted, fingerprint="fp-bbb", t=2.0)
        report = check_history(history)
        assert report.ok
        assert not any(t.metric == "workers" and t.vanished for t in report.trends)

    def test_nan_points_in_history_render_and_gate_safely(self, tmp_path):
        # Hand-written or legacy histories can carry NaN points; the
        # comparator must neither crash nor report "ok" for them.
        history = tmp_path / "hist.jsonl"
        _seed(history, t=1.0)
        entry = json.loads(json.dumps(_seed(history, fingerprint="fp-bbb", t=2.0)))
        entry["metrics"]["parallel_speedup"] = float("nan")
        entry["fingerprint"] = "fp-ccc"
        with history.open("a") as fh:
            fh.write(json.dumps(entry) + "\n")
        report = check_history(history)
        (trend,) = [t for t in report.trends if t.metric == "parallel_speedup"]
        assert trend.verdict == "regressed"
        assert "?" in trend.sparkline()
        trend.describe()  # must not raise


class TestReport:
    def test_render_names_both_fingerprints(self, tmp_path):
        history = tmp_path / "hist.jsonl"
        _seed(history, t=1.0)
        bad = dict(RUNNER_DOC, deterministic=False)
        _seed(history, doc=bad, fingerprint="fp-bbb", t=2.0)
        text = check_history(history).render()
        assert "fp-bbb (latest)" in text and "fp-aaa (previous)" in text
        assert "[REGRESSED] runner:deterministic" in text
        assert "1 regression(s)" in text

    def test_sparkline_tracks_the_series(self, tmp_path):
        history = tmp_path / "hist.jsonl"
        for i, speedup in enumerate((1.0, 2.0, 3.0)):
            _seed(history, doc=dict(RUNNER_DOC, parallel_speedup=speedup),
                  fingerprint=f"fp-{i}", t=float(i))
        (trend,) = [
            t for t in check_history(history).trends if t.metric == "parallel_speedup"
        ]
        spark = trend.sparkline()
        assert len(spark) == 3
        assert spark[0] == " " and spark[-1] == "@"  # min -> max of the ramp


class TestCli:
    def test_append_then_check_exit_codes(self, tmp_path, capsys):
        history = tmp_path / "hist.jsonl"
        doc_path = tmp_path / "BENCH_runner.json"
        doc_path.write_text(json.dumps(RUNNER_DOC))
        assert main(["append", "--bench", "runner", str(doc_path),
                     "--history", str(history)]) == 0
        assert main(["check", "--history", str(history)]) == 0
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(dict(RUNNER_DOC, deterministic=False,
                                            code_fingerprint="fp-bad")))
        assert main(["append", "--bench", "runner", str(bad_path),
                     "--history", str(history)]) == 0
        assert main(["check", "--history", str(history)]) == 1
        captured = capsys.readouterr()
        assert "REGRESSION: runner:deterministic" in captured.err
        assert "fp-bad (latest)" in captured.out
