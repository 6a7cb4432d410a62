# Convenience targets; everything is plain dune underneath.

.PHONY: all build test chaos soak bench bench-full bench-json bench-conflict \
        bench-simplex bench-warmstart bench-serve docs check-docs \
        check-failwith check-float-sort check-cold-lp check-lp-oracle \
        check-clock check-obs-labels check-dead-exports \
        check-snapshot-version check-rel-engines serve-smoke bench-gate \
        check examples clean

all: build

build:
	dune build @all

test:
	dune runtest

# Chaos pass (see docs/ROBUSTNESS.md): first the chaos test suite
# (deterministic schedules, degradation fallbacks, Bland's rule on
# Beale's example), then one benchmark cell under a canned QP_FAULTS
# schedule aggressive enough to trip every degradation path — the cell
# must still complete, annotating each fallback with a "!" line — then
# the serving smoke test with request-level faults armed: the broker
# must answer every request (typed ERR replies, no drops) and every
# clean reply must still match the one-shot oracle — and finally the
# kill/restart soak: every pricing family is kill -9'd and restarted
# from its snapshot, which must restore in milliseconds, price
# bit-identically, shed under overload and drain on SIGTERM (see
# scripts/soak.sh).
chaos:
	dune exec test/main.exe -- test fault
	QP_FAULTS="simplex.pivot:stall:p=0.02:seed=7, conflict.query:fail:p=0.2:seed=3" \
	dune exec bin/qpricing.exe -- run skewed --scale tiny --support 100 --seed 9
	QP_FAULTS="serve.request:fail:p=0.3:seed=11" \
	dune exec bin/qpricing.exe -- serve skewed --scale tiny --support 100 --smoke 20
	bash scripts/soak.sh

# Just the kill/restart chaos soak (the last step of `make chaos`).
soak:
	bash scripts/soak.sh

# Build API documentation (odoc, when installed; a no-op alias otherwise).
docs:
	dune build @doc

# Every exported value in the lib/ interfaces must carry a doc comment.
check-docs:
	ocaml scripts/check_mli_docs.ml lib/lp lib/util lib/market lib/relational lib/obs lib/core lib/experiments lib/fault lib/online lib/serve lib/workloads

# No stringly failures (failwith / Failure catches) in the solver and
# algorithm layers — see docs/ROBUSTNESS.md.
check-failwith:
	ocaml scripts/check_no_failwith.ml lib/lp lib/core

# No polymorphic compare in array or list sorts anywhere in lib/: its NaN
# ordering is unspecified, which once skewed the float percentile and
# valuation sorts. Use Float.compare / Int.compare instead.
check-float-sort:
	ocaml scripts/check_float_sort.ml lib

# No cold Lp.solve calls inside the sweep modules: sweeps must go
# through Lp.Batch / Simplex.resolve so the warm-start path is used.
check-cold-lp:
	ocaml scripts/check_cold_lp_sweeps.ml lib/core

# The reference oracles — the dense-tableau LP (test/lp_oracle) and the
# row-at-a-time delta join (test/rel_oracle) — are for tests, benches
# and scripts only: no dune file under lib/ or bin/ may name
# qp_lp_oracle or qp_rel_oracle.
check-lp-oracle:
	@if grep -rnE --include=dune 'qp_(lp|rel)_oracle' lib bin; then \
	  echo "oracle lint: qp_lp_oracle and qp_rel_oracle are test/bench-only"; exit 1; \
	else echo "oracle lint: lib/ and bin/ link neither qp_lp_oracle nor qp_rel_oracle"; fi

# One clock: every timer reads Qp_util.Timing (Qp_obs, below qp_util,
# reads the same monotonic clock itself). No other file under lib/,
# bin/ or bench/ may read gettimeofday or Monotonic_clock.
check-clock:
	@if grep -rnE 'gettimeofday|Monotonic_clock' lib bin bench \
	    | grep -vE '^(lib/util/timing\.ml|lib/obs/qp_obs\.ml):'; then \
	  echo "clock lint: time through Qp_util.Timing"; exit 1; \
	else echo "clock lint: only Timing and Qp_obs read the clock"; fi

# Every Qp_obs label must be a lowercase dotted name under a prefix
# registered in scripts/check_obs_labels.ml (and documented in
# docs/OBSERVABILITY.md) — keeps the trace/metrics taxonomy closed.
check-obs-labels:
	ocaml scripts/check_obs_labels.ml lib bench

# Every val a lib/ interface exports must be used outside its own
# module (another lib/ module, bin/, bench/, scripts/, test/, examples/
# or perfbench/); an export nothing reads is dropped, not kept.
check-dead-exports:
	ocaml scripts/check_dead_exports.ml

# The broker snapshot marshals OCaml values; changing any
# payload-reachable type layout without bumping format_version in
# lib/serve/snapshot.ml would make old snapshots undefined behavior to
# read. This lint fingerprints those type declarations and fails when
# the layout drifts without a version bump (see the script header).
check-snapshot-version:
	ocaml scripts/check_snapshot_version.ml

# Build every workload's conflict hypergraph at Tiny scale on the
# columnar engine and on the row-at-a-time reference (qp_rel_oracle),
# and fail on any (query, delta) pair where their conflict sets
# disagree.
check-rel-engines:
	dune exec scripts/check_rel_engines.exe

# Stand a broker on a temp socket, pull 20 quotes through it, and
# require each to be bit-identical to the in-process pricing — the
# serving layer's end-to-end identity gate (see docs/SERVING.md).
serve-smoke:
	dune exec bin/qpricing.exe -- serve skewed --scale tiny --support 100 --smoke 20

# Re-run the gated benchmarks (quick profile) and compare the pinned
# metrics — simplex crossover, warm-start pivot savings, serve
# throughput and identity — against the committed bench/baselines/.
# Exit 1 on a regression past the thresholds in scripts/bench_diff.ml;
# QP_BENCH_GATE=off skips the whole gate (benchmarks included).
bench-gate:
ifeq ($(QP_BENCH_GATE),off)
	@echo "bench gate: skipped (QP_BENCH_GATE=off) — benchmarks not run"
else
	dune exec bench/main.exe -- simplex warmstart serve conflict
	dune exec scripts/bench_diff.exe
endif

# The full pre-merge gate: build, tests, doc coverage, failure lints,
# serving smoke, perf-regression gate.
check: build test check-docs check-failwith check-float-sort check-cold-lp check-lp-oracle check-clock check-obs-labels check-dead-exports check-snapshot-version check-rel-engines serve-smoke bench-gate

# Regenerate every table and figure of the paper (Quick profile).
bench:
	dune exec bench/main.exe

# Closer-to-paper settings: 5 runs per cell, finer LP grids. Slow.
bench-full:
	QP_BENCH_PROFILE=full dune exec bench/main.exe

# Time the parallel layer (jobs=1 vs jobs=N, BENCH_parallel.json), the
# simplex (dense oracle vs revised, BENCH_simplex.json), the
# warm-started sweeps (cold vs warm, BENCH_warmstart.json) and the
# serving layer under load (BENCH_serve.json).
bench-json:
	dune exec bench/main.exe -- parallel simplex warmstart serve

# Time conflict-set construction (jobs=1 vs jobs=N), verify bit-identity
# of the hypergraphs, and write BENCH_conflict.json.
bench-conflict:
	dune exec bench/main.exe -- conflict

# Time the dense tableau oracle vs the revised simplex across growing LP sizes
# and write BENCH_simplex.json (records the crossover size).
bench-simplex:
	dune exec bench/main.exe -- simplex

# Replay the skewed workload through a standing broker at 1/2/4/8
# clients, check served quotes against the one-shot oracle bit-for-bit,
# and write BENCH_serve.json (latency percentiles + quotes/sec).
bench-serve:
	dune exec bench/main.exe -- serve

examples:
	dune exec examples/quickstart.exe
	dune exec examples/data_market.exe
	dune exec examples/valuation_study.exe
	dune exec examples/support_tuning.exe
	dune exec examples/online_learning.exe

clean:
	dune clean
