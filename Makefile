# Local targets mirroring the CI jobs in .github/workflows/ci.yml, so
# local runs and CI stay in lockstep.

GO ?= go

.PHONY: all build test race vet fmt fmt-check bench bench-smoke bench-json bench-serve profile staticcheck fuzz-smoke crashtest replicatest cover perfbench-test ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/engine ./internal/relation ./internal/semantics ./internal/partition ./internal/incr ./internal/durable ./internal/server ./internal/replica

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi

# Full benchmark sweep (slow): every experiment series.
bench:
	$(GO) test -run '^$$' -bench . .

# The CI smoke variant: one iteration of the E1/E5 series plus a quick
# experiment run.
bench-smoke:
	$(GO) test -run '^$$' -bench 'E1|E5' -benchtime 1x . | tee bench-smoke.txt
	$(GO) run ./cmd/bench -quick -exp E1 | tee -a bench-smoke.txt

# Machine-readable results for the perf trajectory: the headline series
# (E8 fixpoint, E10 distance, E13 planner, E14 incremental updates, E15
# frontier scaling, E16 magic point queries, E17 partition scaling, E18
# dedup path) rendered to BENCH_PR8.json — committed to the repo (and uploaded by
# CI) so the trajectory survives across PRs.  Fixed -benchtime/-count:
# medians over 5 runs of ≥100ms, not 1-iteration smoke samples.
bench-json:
	$(GO) test -run '^$$' -bench 'E8Inflationary|E10Distance|E13JoinPlanner|E14IncrementalUpdate|E15FrontierScaling|E16MagicQuery|E17PartitionScaling|E18DedupPath' \
		-benchtime 100ms -count 5 . | tee bench-json.txt
	$(GO) run ./scripts/benchjson bench-json.txt > BENCH_PR8.json

# Production-serving benchmark: generate a TC workload, start the
# daemon, drive it with cmd/loadgen (mixed read/query/update traffic
# over 16 connections), add the group-commit vs serialized update
# microbenchmarks, and render everything to BENCH_SERVE.json — the
# serving-path counterpart of bench-json, committed for the trajectory
# and uploaded by CI.
BENCH_SERVE_DURATION ?= 10s
BENCH_SERVE_ADDR ?= :8123
bench-serve:
	$(GO) build -o /tmp/repro-serve ./cmd/serve
	$(GO) run ./cmd/genwork -kind program -name tc > /tmp/bench-serve-prog.dl
	$(GO) run ./cmd/genwork -kind graph -n 24 -p 0.15 -seed 1 > /tmp/bench-serve-facts.dl
	/tmp/repro-serve -program /tmp/bench-serve-prog.dl -facts /tmp/bench-serve-facts.dl -addr $(BENCH_SERVE_ADDR) & \
	pid=$$!; sleep 2; \
	$(GO) run ./cmd/loadgen -addr http://localhost$(BENCH_SERVE_ADDR) -conns 16 -duration $(BENCH_SERVE_DURATION) > bench-serve.txt; \
	st=$$?; kill $$pid; [ $$st -eq 0 ]
	$(GO) test -run '^$$' -bench ServeUpdate16 -benchtime 2s ./internal/server | tee -a bench-serve.txt
	$(GO) run ./scripts/benchjson bench-serve.txt > BENCH_SERVE.json

# CPU + allocation + contention profiles of the hot evaluation path
# (the E8/E10 series plus the partitioned E17 sweep, whose exchange
# rounds are what the mutex/block profiles exist to watch), written to
# profiles/, with a top summary printed for each — so future perf PRs
# start from data, not guesses.
# Inspect interactively with: go tool pprof profiles/repro.test profiles/cpu.pprof
profile:
	mkdir -p profiles
	$(GO) test -run '^$$' -bench 'E8Inflationary|E10Distance|E17PartitionScaling' -benchtime 500ms \
		-cpuprofile profiles/cpu.pprof -memprofile profiles/mem.pprof \
		-mutexprofile profiles/mutex.pprof -blockprofile profiles/block.pprof \
		-o profiles/repro.test .
	$(GO) tool pprof -top -nodecount 20 profiles/repro.test profiles/cpu.pprof
	$(GO) tool pprof -top -nodecount 20 -sample_index=alloc_space profiles/repro.test profiles/mem.pprof
	$(GO) tool pprof -top -nodecount 10 profiles/repro.test profiles/mutex.pprof
	$(GO) tool pprof -top -nodecount 10 profiles/repro.test profiles/block.pprof

# Static analysis beyond go vet; pinned so local runs and CI agree.
STATICCHECK_VERSION ?= 2025.1.1
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

# Local mirror of the CI benchstat gate: compare the
# E8/E10/E14/E15/E16/E17/E18 series on BASE (default HEAD~1) against the
# working tree, failing on >15% regressions of the per-series minimum
# (the noise-robust estimator; see scripts/benchdiff).  E14 puts the
# incremental update path (counting, DRed, replay) under the gate; E16
# point-query latency; E17/K=1 guards the unpartitioned path against
# exchange-machinery overhead.  Keep BENCH_SERIES in sync with the
# benchstat job in .github/workflows/ci.yml.  Series missing on BASE (e.g. a newly added benchmark) are
# skipped by benchdiff.  Both sides are prebuilt and the iterations
# interleaved A/B/A/B: running all of base then all of head lets slow
# machine drift (thermal throttling, noisy neighbors) land entirely on
# whichever side runs second and masquerade as a code regression.
BASE ?= HEAD~1
BENCH_SERIES := E8Inflationary|E10Distance|E14IncrementalUpdate|E15FrontierScaling|E16MagicQuery|E17PartitionScaling|E18DedupPath
bench-compare:
	rm -rf /tmp/bench-base && git worktree prune
	git worktree add /tmp/bench-base $(BASE)
	cd /tmp/bench-base && $(GO) test -c -o /tmp/bench-base.bin .
	$(GO) test -c -o /tmp/bench-head.bin .
	rm -f /tmp/bench-base.txt /tmp/bench-head.txt
	for i in 1 2 3 4 5 6 7; do \
		/tmp/bench-base.bin -test.run '^$$' -test.bench '$(BENCH_SERIES)' -test.benchtime 100ms >> /tmp/bench-base.txt || exit 1; \
		/tmp/bench-head.bin -test.run '^$$' -test.bench '$(BENCH_SERIES)' -test.benchtime 100ms >> /tmp/bench-head.txt || exit 1; \
	done
	$(GO) run ./scripts/benchdiff -threshold 15 /tmp/bench-base.txt /tmp/bench-head.txt
	git worktree remove --force /tmp/bench-base

# 30 seconds of native fuzzing per target: the parser round-trip
# invariants and the magic rewrite's stratifiable-or-fallback contract.
# Seed corpora live under testdata/fuzz and also run as plain tests.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParser$$' -fuzztime $(FUZZTIME) ./internal/parser
	$(GO) test -run '^$$' -fuzz '^FuzzFacts$$' -fuzztime $(FUZZTIME) ./internal/parser
	$(GO) test -run '^$$' -fuzz '^FuzzMagicRewrite$$' -fuzztime $(FUZZTIME) ./internal/magic
	$(GO) test -run '^$$' -fuzz '^FuzzWALDecode$$' -fuzztime $(FUZZTIME) ./internal/durable

# The durability kill harness: spawn the daemon with a data dir,
# kill -9 at random points, restart, and diff every relation against a
# from-scratch recompute over the surviving snapshot + WAL.
CRASHES ?= 24
CKPT_CRASHES ?= 6
crashtest:
	$(GO) run ./scripts/crashtest -crashes $(CRASHES) -ckpt-crashes $(CKPT_CRASHES) -fsync always

# The replication kill harness: leader + follower daemons, mid-stream
# leader kill -9, convergence oracle, retention pinning, promotion, and
# follower restart catch-up.
replicatest:
	$(GO) run ./scripts/replicatest -fsync always

# Statement coverage with the recorded floor (the total measured when
# the gate was introduced, minus noise margin): PRs may not shed tests.
COVER_MIN ?= 78.5
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1
	$(GO) run ./scripts/covergate -profile cover.out -min $(COVER_MIN)

# The repository benchmark (perfbench/, see BENCHMARK.json) is a nested
# module, so the root `go test ./...` never reaches it: vet and test it
# on its own.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Hermetic mirror of CI: every job that needs no network.  staticcheck
# (downloads the pinned tool) and the benchstat gate (bench-compare)
# are the two network-using CI jobs; run them explicitly when online.
ci: vet fmt-check build test race perfbench-test bench-smoke cover fuzz-smoke
