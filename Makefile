# Convenience entry points. Everything is plain dune underneath; these
# targets just name the two workflows every PR runs.

.PHONY: all check test test-faults test-store lint lint-src loc bench bench-baseline bench-churn bench-scale bench-traffic bench-rank bench-store bench-smoke benchmark-smoke clean

all: check

# Tier-1 gate: full build, the alcotest/qcheck suites under test/, and
# the source-level determinism linter.
check:
	dune build && dune runtest && dune build @srclint

test: check

# Just the churn/fault-injection suites: the deterministic fault
# driver, retry/failover/partial-result behavior, self-healing repair,
# the failover property test and the fault-aware linter checks. All
# randomness in these flows from explicit scenario seeds — see
# EXPERIMENTS.md, section "Churn", for the flaky-test policy.
test-faults:
	dune exec test/test_faults.exe
	dune exec test/test_pgrid.exe -- test failover

# Just the storage-backend suites: the differential harness replaying
# every backend (hash/log/packed) against the list model, the log
# torn-tail crash-restart tests, the 100k-triple packed-compression
# assertion and the overlay-level crash/repair recall test. Log files
# are written under the dune sandbox and removed by the tests
# themselves, so the run stays hermetic.
test-store:
	dune exec test/test_store.exe

# Static-analysis gate (lib/analysis): strict-warning build, then the
# full analyzer suite against live deployments on both substrates —
# semantic-check the demo workload, lint a recorded message trace
# against the metrics registry, audit overlay invariants — plus a smoke
# check that `query --check` rejects an unsatisfiable query with a
# non-zero exit.
lint:
	dune build
	dune exec bin/unistore_cli.exe -- lint
	dune exec bin/unistore_cli.exe -- lint --overlay chord
	@if dune exec bin/unistore_cli.exe -- query --check \
	  "SELECT ?v WHERE { (?a,'age',?v) FILTER ?v > 10 AND ?v < 5 }" >/dev/null 2>&1; \
	then echo "FAIL: --check accepted an unsatisfiable query"; exit 1; \
	else echo "--check rejects unsatisfiable queries: OK"; fi

# Source-level determinism & protocol-exhaustiveness linter over the
# repo's own OCaml tree (lib/ and bin/): unordered hashtable iteration
# escaping unsorted, ambient randomness/time outside lib/util/rng.ml,
# polymorphic compare at float/Bitkey positions, and protocol-table
# drift (message constructors vs size/kind/dispatch arms and pending-op
# registrations). Suppress a deliberate finding with
# `(* srclint: allow <rule> *)` on the offending line. See DESIGN.md,
# section "The determinism contract".
lint-src:
	dune build @srclint

# Line totals of the OCaml sources (.ml + .mli) per top-level directory,
# for reporting a change's net line count.
loc:
	@for d in lib bench test bin; do \
	  printf '%-6s %6d\n' $$d $$(find $$d -name '*.ml' -o -name '*.mli' | xargs cat | wc -l); \
	done

# Full experiment harness (all E1..E14 + microbenchmarks).
bench:
	dune exec bench/main.exe

# Regenerate the committed performance baseline (BENCH_core.json).
# Run after any change that might move routing, range-query or query
# latency numbers, and commit the diff. See EXPERIMENTS.md, section
# "Baseline numbers".
bench-baseline:
	dune exec bench/main.exe -- core

# Regenerate the committed churn robustness numbers (BENCH_churn.json):
# recall, messages and retries of the retry/failover policy under
# 0/10/30% churn. Run after any change to the request state machine
# (lib/pgrid/request.ml), the shower wave-retry logic or the fault
# driver, and commit the diff. See EXPERIMENTS.md, section "Churn".
bench-churn:
	dune exec bench/main.exe -- churn

# Regenerate the committed kernel-scale numbers (BENCH_scale.json):
# overlay build time, resident bytes/peer and scheduler events/sec at
# 100/1k/10k/100k peers. Run after any change to the simulation kernel
# (lib/sim, Bitkey, the overlay hot paths) and commit the diff. Times
# in this file are REAL seconds on the build host, so expect machine-
# to-machine variance; the trends, not the absolutes, are the contract.
# See EXPERIMENTS.md, section "Scale".
bench-scale:
	dune exec bench/main.exe -- scale

# Regenerate the committed heavy-traffic numbers (BENCH_traffic.json):
# the adaptive-balancing arm vs the static no_balancing baseline under
# an open-loop Zipf hot-spot flash crowd with per-peer service queues.
# Run after any change to the traffic engine (lib/traffic), the
# queueing model (lib/sim), the EWMA deadline / hot-replication /
# serving-set logic (lib/pgrid) or the balance defaults, and commit
# the diff. See EXPERIMENTS.md, section "Traffic".
bench-traffic:
	dune exec bench/main.exe -- traffic

# Regenerate the committed ranking/similarity numbers (BENCH_rank.json):
# top-N, skyline, similarity and substring selections on P-Grid and on
# Chord at three network sizes, each at the default configuration, so
# every fast path runs where the overlay supports it. Run after any
# change to the ranking operators (lib/qproc/ranking, the skyline
# pushdown in exec/engine), the similarity paths (lib/triple/tstore,
# lib/util/strdist, lib/util/topk) or the rank cost calibration, and
# commit the diff. See EXPERIMENTS.md, section "Ranking & similarity".
bench-rank:
	dune exec bench/main.exe -- rank

# Regenerate the committed storage-backend numbers (BENCH_store.json):
# bytes/triple, insert/lookup/scan throughput and crash-restart recall
# for the hash, log and packed backends on a 100k-triple Zipf dataset.
# Run after any change to the store backends (lib/pgrid/store_intf,
# backend_hash, backend_log, backend_packed, the Store facade) or the
# memory-accounting model, and commit the diff. See EXPERIMENTS.md,
# section "Storage".
bench-store:
	dune exec bench/main.exe -- store

# CI gate over the experiment harness: small runs that write no file.
# Fails if the caching subsystem stops engaging or paying for itself,
# if recall under 30% churn falls below 95% or the 0%-churn run is not
# fault-free (churn-smoke: any retry, give-up or partial result there),
# if kernel throughput falls below the scale-smoke floor / wall-clock
# budget (an O(n) scan creeping back onto a hot path), if adaptive load
# balancing stops strictly beating the static baseline on served
# throughput and p99 under a flash crowd (traffic-smoke also asserts
# both arms return byte-identical answers), if P-Grid stops shipping
# fewer top-N and skyline bytes than Chord or the two overlays' answers
# differ (rank-smoke), or if the storage backends diverge (store-smoke:
# a backend losing triples, packed no longer strictly below hash on
# bytes/triple, or the log failing to replay). The committed full-size
# numbers live in BENCH_cache.json, BENCH_churn.json, BENCH_scale.json,
# BENCH_traffic.json, BENCH_rank.json and BENCH_store.json.
bench-smoke:
	dune exec bench/main.exe -- cache-smoke churn-smoke scale-smoke traffic-smoke rank-smoke store-smoke

# Smoke run of the regression benchmark in benchmark/ (see its README):
# every workload at about a tenth of its size with every answer
# checked, plus a check that BENCHMARK.json names exactly the metrics
# the program emits.
benchmark-smoke:
	dune build @benchmark/benchmark-smoke

clean:
	dune clean
