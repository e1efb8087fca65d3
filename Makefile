GO ?= go

.PHONY: verify ci build vet test race experiments serve-smoke trace-smoke load-smoke sweep-smoke obs-smoke cluster-smoke cluster-bench cover bench bench-smoke bench-sweep bench-diff

# ci is the gate .github/workflows/ci.yml runs on every push and pull
# request: tier-1 (build + test) plus vet, the race detector across every
# package, the rbcastd serving smoke test, the execution-trace smoke test,
# the saturation/backpressure smoke test, the /v1/sweep planner smoke test,
# the flight-recorder/live-progress smoke test, the 3-node fleet smoke
# test, and the benchmark-scenario golden-hash smoke. The full benchmark
# suite, bench-sweep, bench-diff, and cluster-bench stay out — they need a
# quiet machine and run in the nightly workflow instead.
ci: build vet test race serve-smoke trace-smoke load-smoke sweep-smoke obs-smoke cluster-smoke bench-smoke

# verify is the full pre-merge gate; it is exactly what CI runs.
verify: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

experiments:
	$(GO) run ./cmd/experiments

# serve-smoke boots rbcastd on an ephemeral port and exercises the serving
# contract end to end: healthz, an uncached and a cached run (byte-identical
# bodies), a batch round trip, metrics consistency, graceful shutdown.
serve-smoke:
	GO="$(GO)" sh scripts/serve_smoke.sh

# trace-smoke exercises the observability surface end to end: a CLI trace
# dump, the daemon's /v1/jobs/{id}/trace endpoint (byte-identical to the
# CLI's JSONL for the same scenario), trace-endpoint error contracts, and
# the per-route duration histograms in /metrics.
trace-smoke:
	GO="$(GO)" sh scripts/trace_smoke.sh

# load-smoke boots rbcastd with tiny limits (-queue-depth 1 -max-inflight 1
# -job-timeout 250ms) and drives it to saturation with cmd/loadgen: shed
# requests must get 429 + Retry-After (never hang), a retrying client must
# eventually succeed, and an over-deadline job must fail alone with a
# partial result while its siblings complete.
load-smoke:
	GO="$(GO)" sh scripts/load_smoke.sh

# obs-smoke boots rbcastd with the flight recorder armed and a 1ms
# slow-request threshold, then runs loadgen -progress: live, monotone
# progress events over /v1/jobs/{id}/events to a terminal state, a
# /debug/requests timeline whose child spans account for the request
# duration with a nonzero engine phase, and slow-request WARN lines
# carrying the per-phase breakdown.
obs-smoke:
	GO="$(GO)" sh scripts/obs_smoke.sh

# sweep-smoke boots rbcastd and exercises /v1/sweep against the scalar
# surface: a pre-run element must come back cached and byte-identical, a
# sweep-computed element must be a /v1/run cache hit under the same
# fingerprint, repeats are pure cache reads, oversized grids 400, and the
# sweep counters show on /metrics.
sweep-smoke:
	GO="$(GO)" sh scripts/sweep_smoke.sh

# cluster-smoke boots a 3-node rbcastd fleet sharing one -peers list and
# drives cmd/loadgen's cluster phases: seed (every fingerprint resident on
# exactly its ring owner, misdirected requests crossing the fleet proxy),
# failover (the fleet answers the whole set with a member killed), and
# warm (the restarted member serves its shard from sibling caches with
# zero re-simulations).
cluster-smoke:
	GO="$(GO)" sh scripts/cluster_smoke.sh

# cluster-bench measures loadgen -throughput against one rbcastd and then
# a 3-node fleet (every daemon pinned to GOMAXPROCS=1 so each member
# models one machine's capacity) and fails unless the fleet sustains a
# >= 2x rate. Nightly-only: the assertion is a wall-clock ratio and needs
# a quiet multi-core machine — on a single-core host the fleet shares one
# core and cannot physically scale out. UNVERIFIED: the >= 2x gate has
# never been seen to pass — it has only been run on 1- and 2-core hosts,
# too few for three daemons plus the load generator. See PERFORMANCE.md.
cluster-bench:
	GO="$(GO)" sh scripts/cluster_bench.sh

# cover runs the test suite with coverage and prints a per-package summary
# plus the total; the profile lands in cover.out for `go tool cover -html`.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -n 1

# bench runs the full canonical scenario matrix and writes BENCH_$(PR).json
# for the change it measures (`make bench PR=N`), leaving earlier
# reports alone (see PERFORMANCE.md for the methodology and field meanings).
bench:
	@test -n "$(PR)" || { echo "make bench: name the report, e.g. make bench PR=N for BENCH_N.json" >&2; exit 2; }
	$(GO) run ./cmd/bench -out BENCH_$(PR).json

# bench-smoke runs every scenario once and checks its result fingerprint
# against testdata/results.golden — the fast correctness gate in `verify`.
bench-smoke:
	$(GO) run ./cmd/bench -smoke

# bench-sweep times the incremental sweep engine against an element-by-element
# RunContext loop on the canonical sweep workloads, checks every element hash for
# byte-identity, and fails below a 2x node-round (or wall) speedup. See
# PERFORMANCE.md for the current numbers.
bench-sweep:
	$(GO) run ./cmd/bench -sweep

# bench-diff runs the full suite and fails on a >10% allocation regression
# against the committed baseline (testdata/bench_baseline.json).
bench-diff:
	GO="$(GO)" sh scripts/benchdiff.sh
