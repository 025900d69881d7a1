# Tier-1 gate: everything builds, every test suite passes.
.PHONY: all check test bench bench-profiler bench-profiler-smoke \
	bench-tuner bench-tuner-smoke fault-smoke obs-smoke exec-smoke \
	serve-smoke relation-smoke bench-crossval bench-crossval-smoke \
	bench-e2e bench-e2e-smoke clean

all:
	dune build @all

test:
	dune runtest

# Tier-2 gate: a tuning run under 30% injected measurement faults must
# complete with a finite best latency and a best schedule that lowers
# (the CLI exits non-zero otherwise).
fault-smoke:
	dune exec bin/alt_cli.exe -- tune-op --op c2d --channels 4 \
	  --out-channels 8 --spatial 6 --budget 24 --seed 1 \
	  --fault-rate 0.3 --fault-seed 1 --retries 2

# fast-engine micro-benchmark: times Profiler.run under both engines,
# re-checks the fast==scalar differential oracle, writes
# BENCH_profiler.json (ALT_BENCH_SCALE=smoke|quick|full)
bench-profiler:
	dune exec bench/bench_profiler.exe

bench-profiler-smoke:
	ALT_BENCH_SCALE=smoke dune exec bench/bench_profiler.exe

# search-side micro-benchmark: times GBDT fitting (per-node re-sort vs
# the presorted per-fit workspace) at 32 and 256 samples, asserts both
# fitters agree on tie-free data, writes BENCH_tuner.json
# (ALT_BENCH_SCALE=smoke|quick|full)
bench-tuner:
	dune exec bench/bench_tuner.exe

bench-tuner-smoke:
	ALT_BENCH_SCALE=smoke dune exec bench/bench_tuner.exe

# Observability gate: a traced+metered tuning run must emit a trace the
# validator accepts (seq/timestamps/span nesting) and a well-formed
# metrics snapshot (DESIGN.md §11); obs-validate exits non-zero otherwise.
obs-smoke:
	dune exec bin/alt_cli.exe -- tune-op --op c2d --channels 4 \
	  --out-channels 8 --spatial 6 --budget 24 --seed 1 --jobs 2 \
	  --trace _build/obs_smoke.trace.jsonl \
	  --metrics _build/obs_smoke.metrics.json
	dune exec bin/alt_cli.exe -- obs-validate \
	  --trace _build/obs_smoke.trace.jsonl \
	  --metrics _build/obs_smoke.metrics.json

# Serve gate: a pipe-mode daemon must admit 3 concurrent sessions, shed
# the overflow with structured rejections, survive an injected crash
# (exit 42) and, restarted on the same journal, recover the interrupted
# sessions to byte-identical results (DESIGN.md §13).
serve-smoke:
	dune build bin/alt_cli.exe
	sh scripts/serve_smoke.sh

# Exec-backend gate: a tuning run measured by compiled kernels on the
# wall clock must complete with a finite best latency and a lowerable
# best schedule (the CLI exits non-zero otherwise).  Wall-clock numbers
# are never asserted against absolute milliseconds here — box speed
# varies; correctness and rank behaviour are covered by test/test_exec.ml
# and bench-crossval, whose gates are ratio floors.
exec-smoke:
	dune exec bin/alt_cli.exe -- tune-op --op gmm --channels 8 \
	  --out-channels 8 --spatial 8 --budget 16 --seed 1 \
	  --backend exec --exec-warmup 1 --exec-repeats 3

# Relation-algebra gate: the QCheck2 round-trip/differential suite that
# checks the layout maps against the test-only relation oracle
# (test/oracle, DESIGN.md §16) at a reduced chain count.
# ALT_RELATION_COUNT scales every property (default 500 under
# `dune runtest`, 60 here).
relation-smoke:
	ALT_RELATION_COUNT=60 dune exec test/test_relation.exe

# cross-device validation: measures the layout zoo with both the
# simulator and the exec backend, writes BENCH_crossval.json, and fails
# if the miss-bound streaming workload's Spearman rho drops below the
# pinned floor (ALT_BENCH_SCALE=smoke|quick|full)
bench-crossval:
	dune exec bench/bench_crossval.exe

bench-crossval-smoke:
	ALT_BENCH_SCALE=smoke dune exec bench/bench_crossval.exe

# end-to-end scheduler benchmark: tunes the zoo twice at equal global
# budget (static split vs gradient scheduler + cost-model transfer),
# writes BENCH_e2e.json with per-model latency-vs-trials curves, and
# fails if gradient loses the zoo total to static
# (ALT_BENCH_SCALE=smoke|quick|full)
bench-e2e:
	dune exec bench/bench_e2e.exe

bench-e2e-smoke:
	ALT_BENCH_SCALE=smoke dune exec bench/bench_e2e.exe

check: all test relation-smoke bench-profiler-smoke bench-tuner-smoke \
	fault-smoke obs-smoke exec-smoke serve-smoke bench-crossval-smoke \
	bench-e2e-smoke

# quick-scale regeneration of the paper's tables and figures
bench:
	dune exec bench/main.exe

clean:
	dune clean
