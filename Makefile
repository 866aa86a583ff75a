# Developer/CI entry points.  PYTHONPATH=src because the package is
# run from the source tree (no install step in the container).

PY := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) python

.PHONY: test smoke bench-e2e bench-compare bench-update drill scenarios profile rss-guard lint

test:  ## full tier-1 suite (what the roadmap's verify line runs)
	$(PY) -m pytest -x -q

smoke:  ## fast tier: skips tests marked slow (multi-rack sweeps, wide pools)
	$(PY) -m pytest -x -q -m "not slow"

drill:  ## failure drills (with their historical output) + fig16 at reduced scale + full chaos catalog, invariants enforced
	$(PY) examples/switch_failure_drill.py
	$(PY) -m repro fig16 --scale 0.1 --seed 1
	$(PY) -m repro run-scenario all

scenarios:  ## chaos-scenario catalog only (see `repro-netclone scenarios` for the list)
	$(PY) -m repro run-scenario all

bench-e2e:  ## the end-to-end packet-path benchmark's own tests (benchmarks/e2e, under a minute)
	$(PY) -m pytest -q benchmarks/e2e

bench-compare:  ## re-measure the BENCH_core/BENCH_metrics micro-benchmarks; fail on a >30% regression; print delta vs BENCH_history.jsonl
	$(PY) tools/bench_baseline.py

bench-update:  ## rewrite the checked-in BENCH_*.json baselines (+ append to BENCH_history.jsonl)
	$(PY) tools/bench_baseline.py --update

profile:  ## cProfile the bench workloads; top-20 cumulative per target
	$(PY) tools/profile_hotpath.py

rss-guard:  ## sketch-mode fig18 sweep + 100M-request MMPP point under a peak-RSS ceiling
	$(PY) tools/rss_guard.py

lint:  ## detlint determinism/resource rules over src/repro, examples and tools; fails on any finding
	$(PY) tools/detlint.py --findings-json detlint-findings.json
