PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint sanitize obs-demo bench bench-sim bench-check sweep-smoke serve-smoke faults crashcheck dirtbuster-smoke

test:
	$(PYTHON) -m pytest -x -q

# Single lint entry point: the repo's own workload lint plus ruff/mypy
# when installed (they are optional; missing tools are reported and
# skipped so the target works in the bare test container).
lint:
	$(PYTHON) -m repro.sanitize --self

sanitize:
	$(PYTHON) -m repro.sanitize examples/quickstart.py

# Runner benchmark: serial vs parallel (cold pool / warm pool), cold vs
# warm cache, on a 64-cell grid, plus a 2/4/8-worker scaling curve —
# with a byte-identity check between the serial and every pooled run.
# Writes BENCH_runner.json (uploaded as a CI artifact by the bench-smoke
# job) plus the SweepMonitor JSONL progress stream, and appends the run
# to the BENCH_history.jsonl trajectory (DESIGN.md §14).
bench:
	mkdir -p build
	$(PYTHON) -m repro.runner bench --workers 4 --cells 64 --workers-sweep 2,4,8 \
		--cache-dir build/runner-cache --out BENCH_runner.json \
		--monitor-jsonl build/sweep-monitor.jsonl
	$(PYTHON) -m repro.obs.regress append --bench runner BENCH_runner.json

# Simulator benchmark: events/sec for the reference (per-access event)
# vs. batched stream interpreter on every machine preset — warm/cold
# sequential plus the page-shuffled rand_write_cold / rand_read_cold /
# mixed_cold matrix (DESIGN.md §15) — with a bit-identity check between
# the two paths.  Writes BENCH_sim.json and appends the run to the
# BENCH_history.jsonl trajectory, where bench-check gates it.
bench-sim:
	$(PYTHON) -m repro.sim.bench --out BENCH_sim.json
	$(PYTHON) -m repro.obs.regress append --bench sim BENCH_sim.json

# Benchmark regression gate: run both harnesses at CI-smoke scale (the
# runner's reduced sweep; the simulator's two fastest presets), append
# the results to BENCH_history.jsonl, and compare the newest entries
# against their predecessors under the noise thresholds in
# repro.obs.regress — non-zero exit (and a trend report naming the
# regressed metric and both code fingerprints) on regression.
bench-check:
	mkdir -p build
	$(PYTHON) -m repro.runner bench --workers 4 --cells 64 --workers-sweep 2,4,8 \
		--cache-dir build/runner-cache --out BENCH_runner.json \
		--monitor-jsonl build/sweep-monitor.jsonl --no-sim
	$(PYTHON) -m repro.sim.bench --quick \
		--preset machine-A --preset machine-A-dram --out BENCH_sim.json
	$(PYTHON) -m repro.obs.regress append --bench runner BENCH_runner.json
	$(PYTHON) -m repro.obs.regress append --bench sim BENCH_sim.json
	$(PYTHON) -m repro.obs.regress check

# Sweep-scale smoke: run a 64-cell grid chunked at workers=2, stop it
# on purpose after 24 cells (exit 75 = resumable), then re-run against
# the warm result cache and finish — the kill-and-resume path CI
# exercises.  The resumed run must serve exactly the 24 finished cells
# from the cache and execute the other 40, so no cell runs twice.
# Artifacts: the cache manifest plus the SweepMonitor JSONL stream.
sweep-smoke:
	mkdir -p build
	rm -rf build/sweep-cache build/sweep-smoke.jsonl
	$(PYTHON) -m repro.runner sweep --cells 64 --workers 2 --chunk-size 4 \
		--cache-dir build/sweep-cache --stop-after 24 \
		--monitor-jsonl build/sweep-smoke.jsonl; \
		status=$$?; \
		if [ $$status -ne 75 ]; then \
			echo "expected resumable exit 75, got $$status"; exit 1; fi
	$(PYTHON) -m repro.runner sweep --cells 64 --workers 2 --chunk-size 4 \
		--cache-dir build/sweep-cache \
		--monitor-jsonl build/sweep-smoke.jsonl > build/sweep-resume.txt; \
		status=$$?; cat build/sweep-resume.txt; \
		if [ $$status -ne 0 ]; then exit $$status; fi
	grep -q '"cached": 24,' build/sweep-resume.txt
	grep -q '"executed": 40,' build/sweep-resume.txt
	grep -q '"remaining": 0,' build/sweep-resume.txt

# Serving smoke: a small open-loop serving run with a crash at 60% of
# the arrival horizon, asserting the latency percentiles (p50/p99/p999),
# SLO, and durability fields are present and that the batched-stream
# RunResult JSON is byte-identical to the reference vocabulary's
# (CI's serve-smoke job).
serve-smoke:
	$(PYTHON) -m repro.traffic smoke --ops 800 --keys 512 --value-size 512

# DirtBuster smoke: analyse X9 on Machine B-fast end to end (~2 s),
# check its Table 2 row (write-intensive, sequential, writes before
# fence) and the demote pre-store choice for fill_msg(), then check
# that an unknown workload is a usage error (exit 2), not a traceback
# (CI's dirtbuster-smoke job).
dirtbuster-smoke:
	mkdir -p build
	$(PYTHON) -m repro.dirtbuster.cli x9 --machine b-fast > build/dirtbuster-x9.txt; \
		status=$$?; cat build/dirtbuster-x9.txt; \
		if [ $$status -ne 0 ]; then exit $$status; fi
	grep -Eq '^x9 +yes +yes +yes$$' build/dirtbuster-x9.txt
	awk '/^fill_msg\(\)$$/ {f = 1} f && /^Pre-store choice:/ {print; exit}' \
		build/dirtbuster-x9.txt | grep -qx 'Pre-store choice: demote'
	$(PYTHON) -m repro.dirtbuster.cli nosuch 2> /dev/null; \
		status=$$?; \
		if [ $$status -ne 2 ]; then \
			echo "expected usage-error exit 2 for an unknown workload, got $$status"; exit 1; fi

# Crash-consistency self-check: seeded crash/fault matrix on machine A
# and B-slow, asserting protocol durability, baseline vulnerability,
# determinism, and the empty-plan bit-identity (CI's faults job).
faults:
	$(PYTHON) -m repro.faults matrix

# Static crash-consistency verification self-check: protocol
# classification expectations plus the static<->dynamic differential
# matrix on machine A and B-slow, ADR and media-only, pre-store
# protocols off and on (CI's crashcheck job).
crashcheck:
	$(PYTHON) -m repro.crashcheck self

# Telemetry smoke: run one workload with obs attached, produce a
# Perfetto trace artifact under build/, validate it, then run the
# end-to-end pipeline self-check.  CI uploads build/obs/ as an artifact.
obs-demo:
	mkdir -p build/obs
	$(PYTHON) -m repro.obs run --workload listing1 --seed 7 \
		--trace build/obs/listing1.trace.json --json build/obs/listing1.result.json
	$(PYTHON) -c "import json; d = json.load(open('build/obs/listing1.trace.json')); \
		assert d['traceEvents'], 'empty trace'; \
		print('trace OK:', len(d['traceEvents']), 'events')"
	$(PYTHON) -m repro.obs --self-check
