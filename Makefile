# Convenience entry points. Everything is plain dune underneath; these
# targets just name the two workflows every PR runs.

.PHONY: all check test test-faults test-store lint lint-src loc examples bench bench-rank benchmark-smoke clean

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

# Just the per-peer store suites: the differential harness replaying
# the store with its journal on and off against the list model, the
# words/put linearity guard, the journal's torn-tail crash-restart
# tests, the store gauges and the overlay-level crash/repair recall
# test. Journal files are written under the dune sandbox and removed by
# the tests themselves, so the run stays hermetic. Then a CLI smoke:
# two `--backend log` runs with one seed and temp dir, the second on a
# smaller dataset, must answer from the second run's data alone.
STORE_SMOKE = dune exec --display quiet bin/unistore_cli.exe -- query --backend log \
  --seed 9137 --peers 16 "SELECT ?n WHERE { (?a,'name',?n) }" --authors

test-store:
	dune exec test/test_store.exe
	@tmp=$$(mktemp -d) && \
	  TMPDIR=$$tmp $(STORE_SMOKE) 30 >/dev/null && \
	  out=$$(TMPDIR=$$tmp $(STORE_SMOKE) 3); rm -rf $$tmp; \
	  if echo "$$out" | grep -q '^3 row(s)'; then echo "new log deployment starts empty: OK"; \
	  else echo "FAIL: a second --backend log run replayed the first run's data"; echo "$$out"; exit 1; fi

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
# polymorphic compare at float/Bitkey positions, blocking waits
# (Sim.await / Sim.run_*) below the facade, timeouts scheduled with
# Sim.schedule instead of a cancellable Sim.timer, and protocol-table drift
# (message constructors vs size/kind/dispatch arms and pending-op
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

# Run every program under examples/; a non-zero exit fails the target.
# They drive the public facade end to end from fixed seeds.
EXAMPLES = quickstart publications_skyline conference_sharing schema_integration observability

examples:
	dune build @examples/all
	@for e in $(EXAMPLES); do \
	  echo "== $$e"; \
	  dune exec --display quiet examples/$$e.exe >/dev/null || exit 1; \
	done

# Full experiment harness: the paper reproduction E1..E14, the
# P-Grid-vs-Chord ranking head-to-head and the microbenchmarks. The
# regression benchmark with per-layer metrics is benchmark/ (see
# benchmark-smoke below and BENCHMARK.json).
bench:
	dune exec bench/main.exe

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

# Smoke run of the regression benchmark in benchmark/ (see its README):
# every workload at about a tenth of its size with every answer
# checked, plus a check that BENCHMARK.json names exactly the metrics
# the program emits.
benchmark-smoke:
	dune build @benchmark/benchmark-smoke

clean:
	dune clean
