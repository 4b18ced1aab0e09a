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
# the failover property test and the fault-aware linter checks, then
# the trace linter's fixtures (a retried request that revisits a peer
# is clean, a revisit within one attempt is a loop, a crash needs a
# retry, reply or partial marker). All randomness in these flows from
# explicit scenario seeds — see EXPERIMENTS.md, section "Flaky-test
# policy".
test-faults:
	dune exec test/test_faults.exe
	dune exec test/test_pgrid.exe -- test failover
	dune exec test/test_analysis.exe -- test tracelint

# Just the per-peer store suites: the differential harness replaying
# the store with its journal on and off against the list model, the
# words/put linearity guard, the journal's torn-tail crash-restart
# tests, the store gauges and the overlay-level crash/repair recall
# test. Journal files are written under the dune sandbox and removed by
# the tests themselves, so the run stays hermetic. Then a CLI smoke:
# two `--backend log` runs with one seed and temp dir, the second on a
# smaller dataset, must answer from the second run's data alone, and
# each run must remove its journal directory: the temp dir is empty
# afterwards.
STORE_SMOKE = dune exec --display quiet bin/unistore_cli.exe -- query --backend log \
  --seed 9137 --peers 16 "SELECT ?n WHERE { (?a,'name',?n) }" --authors

test-store:
	dune exec test/test_store.exe
	@tmp=$$(mktemp -d) && \
	  TMPDIR=$$tmp $(STORE_SMOKE) 30 >/dev/null && \
	  out=$$(TMPDIR=$$tmp $(STORE_SMOKE) 3); left=$$(ls -A $$tmp); rm -rf $$tmp; \
	  if echo "$$out" | grep -q '^3 row(s)'; then echo "new log deployment starts empty: OK"; \
	  else echo "FAIL: a second --backend log run replayed the first run's data"; echo "$$out"; exit 1; fi; \
	  if [ -z "$$left" ]; then echo "journal directories removed at exit: OK"; \
	  else echo "FAIL: --backend log runs left files in TMPDIR:"; echo "$$left"; exit 1; fi

# Static-analysis gate (lib/analysis): strict-warning build, then the
# full analyzer suite against live deployments on both substrates —
# semantic-check the demo workload, lint a recorded message trace
# against the metrics registry, audit overlay invariants — plus a smoke
# check that `query --check` rejects an unsatisfiable query with a
# non-zero exit. Then README's skyline query must print the same rows
# with and without `--no-cache`, on P-Grid and on Chord: caching may
# change costs, never answers. Under `--strategy mutant`, whose carriers
# send their scans semi-join filters, it must print the same rows as
# the cached centralized run, in any order (a skyline is a set). Under
# `--explain`, whose steps overlap, the step messages must add up to the
# query's total. Then, at 256 peers on P-Grid its plan and
# estimates must be the same with and without `--no-cache`: after the
# CLI's four gossip rounds every origin's gossiped statistics equal the
# oracle's. Last, in a steady 400 q/s traffic run at 128 peers the
# statistics gossip may carry at most half of all bytes.
SKYLINE_QUERY = SELECT ?name,?age,?cnt WHERE {(?a,'name',?name) (?a,'age',?age) \
  (?a,'num_of_pubs',?cnt) (?a,'has_published',?title) (?p,'title',?title) \
  (?p,'published_in',?conf) (?c,'confname',?conf) (?c,'series',?sr) \
  FILTER edist(?sr,'ICDE')<3 } ORDER BY SKYLINE OF ?age MIN, ?cnt MAX
CLI_QUERY = dune exec --display quiet bin/unistore_cli.exe -- query
PLAN_256 = --explain-only -p 256 --authors 200
STEADY_TRAFFIC = dune exec --display quiet bin/unistore_cli.exe -- traffic -p 128 --authors 150 \
  --arrival-rate 400 --duration 30000 --no-balancing --traffic steady

lint:
	dune build
	dune exec bin/unistore_cli.exe -- lint
	dune exec bin/unistore_cli.exe -- lint --overlay chord
	@if dune exec bin/unistore_cli.exe -- query --check \
	  "SELECT ?v WHERE { (?a,'age',?v) FILTER ?v > 10 AND ?v < 5 }" >/dev/null 2>&1; \
	then echo "FAIL: --check accepted an unsatisfiable query"; exit 1; \
	else echo "--check rejects unsatisfiable queries: OK"; fi
	@for o in pgrid chord; do \
	  on=$$($(CLI_QUERY) --overlay $$o "$(SKYLINE_QUERY)" | grep '^|') || exit 1; \
	  off=$$($(CLI_QUERY) --overlay $$o --no-cache "$(SKYLINE_QUERY)" | grep '^|') || exit 1; \
	  if [ "$$on" = "$$off" ]; then echo "skyline rows with and without --no-cache on $$o: OK"; \
	  else echo "FAIL: --no-cache changed the skyline rows on $$o"; \
	    echo "cached:"; echo "$$on"; echo "uncached:"; echo "$$off"; exit 1; fi; \
	  mut=$$($(CLI_QUERY) --overlay $$o --strategy mutant "$(SKYLINE_QUERY)" | grep '^|') || exit 1; \
	  if [ "$$(echo "$$on" | sort)" = "$$(echo "$$mut" | sort)" ]; then \
	    echo "skyline rows of mutant and cached centralized execution on $$o: OK"; \
	  else echo "FAIL: the mutant strategy changed the skyline rows on $$o"; \
	    echo "centralized:"; echo "$$on"; echo "mutant:"; echo "$$mut"; exit 1; fi; \
	done
	@out=$$($(CLI_QUERY) --explain "$(SKYLINE_QUERY)") || exit 1; \
	steps=$$(echo "$$out" | sed -n 's/^    actual: *msgs=\([0-9]*\) .*/\1/p' | awk '{ s += $$1 } END { print s + 0 }'); \
	total=$$(echo "$$out" | sed -n 's/^  total actual: *msgs=\([0-9]*\) .*/\1/p'); \
	if [ -n "$$total" ] && [ "$$steps" = "$$total" ]; then \
	  echo "skyline --explain step messages add up to the total ($$total): OK"; \
	else echo "FAIL: skyline --explain step messages sum to $$steps, the total is $$total"; \
	  echo "$$out"; exit 1; fi
	@on=$$($(CLI_QUERY) --overlay pgrid $(PLAN_256) "$(SKYLINE_QUERY)") || exit 1; \
	off=$$($(CLI_QUERY) --overlay pgrid $(PLAN_256) --no-cache "$(SKYLINE_QUERY)") || exit 1; \
	if [ "$$on" = "$$off" ]; then echo "gossiped skyline plan = oracle plan at 256 peers: OK"; \
	else echo "FAIL: gossiped statistics planned the skyline query unlike the oracle"; \
	  echo "gossiped:"; echo "$$on"; echo "oracle:"; echo "$$off"; exit 1; fi
	@line=$$($(STEADY_TRAFFIC) | grep '^  messages ') || exit 1; \
	share=$$(echo "$$line" | sed -n 's/.* MB (\([0-9.]*\)%)$$/\1/p'); \
	if [ -n "$$share" ] && awk "BEGIN { exit !($$share <= 50) }"; then \
	  echo "statistics gossip is $$share% of steady-traffic bytes: OK"; \
	else echo "FAIL: statistics gossip exceeds half of steady-traffic bytes"; echo "$$line"; exit 1; fi

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
