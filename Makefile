# Standard checks for this repository. `make check` is what CI (and you,
# before sending a change) should run.

GO ?= go

.PHONY: check build vet lint test race fmt bench bench-smoke altd-smoke altbench fuzz-smoke examples profile

check: fmt vet build lint race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Determinism, float-identity, goroutine, and hot-path allocation
# contracts (DESIGN.md §9, §14). Exits nonzero on findings; suppress
# individual lines with `//altlint:ignore <rule> <reason>`. New escapes in
# //altlint:hotpath functions diff against lint_baseline.json; rewrite the
# baseline deliberately with `BASELINE_UPDATE=1 make lint` — refused under
# CI so the sanctioned set only changes by a reviewed commit.
lint:
ifeq ($(BASELINE_UPDATE),1)
	@if [ -n "$$CI" ]; then \
		echo "BASELINE_UPDATE is refused in CI: commit the regenerated lint_baseline.json instead"; exit 1; \
	fi
	$(GO) run ./cmd/altlint -baseline lint_baseline.json -update-baseline ./...
else
	$(GO) run ./cmd/altlint -baseline lint_baseline.json ./...
endif

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# gofmt -l prints nonconforming files; fail if there are any.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Every benchmark the performance ledger (BENCH.json) records, one record
# per (benchmark, metric): the simulation core (BenchmarkRunCalls) and the
# host reference its calls/sec records are guarded against, Eq-15
# derivation, the fixed-point study, the whole blocking sweep at
# Parallelism 1 and 0, the observability overhead (bare, no-op sink,
# time-series fold), the altd decision loop (direct and over HTTP), and the
# layers behind them — route tables, stream seeding, the admission scan
# and the Erlang bound. Re-record BENCH.json from this output (with its
# host block) when the code it measures changes.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkRunCalls|BenchmarkHostReference|BenchmarkEq15Search|BenchmarkFixedPoint|BenchmarkBlockingSweep|BenchmarkRun(Bare|Instrumented|Timeseries)$$' -benchmem -count 5 .
	$(GO) test -run '^$$' -bench BenchmarkAltdDecisions -benchmem -count 5 -benchtime 2s ./internal/ctrl/
	$(GO) test -run '^$$' -bench BenchmarkBuildMinHop -benchmem -count 5 ./internal/policy/
	$(GO) test -run '^$$' -bench 'BenchmarkNewStream|BenchmarkDecide' -benchmem -count 5 ./internal/sim/
	$(GO) test -run '^$$' -bench BenchmarkErlangBound -benchmem -count 5 ./internal/bound/

# Fast regression tripwire for CI: short benchmarks checked by
# cmd/benchguard against every BENCH.json record that carries a
# max_regress budget; a budgeted record missing from the output fails too.
# Short -benchtime keeps it cheap (and noisy, hence the generous budgets).
# The set-up benchmarks are guarded on allocs/op, and the compiled metro
# route table on B/op, neither of which depends on the host. The replay
# and stream calls/sec are guarded as ratios to a fixed stdlib-only loss
# network (BenchmarkHostReference), and the instrumented and time-series
# runs as ratios to the bare run (their records' "per"), so each is held
# to a budget the host's speed cancels out of. Each group runs in five
# rounds of one sample each, so a change of host speed hits all of a
# round, and the guard compares medians of five. The calls/sec rounds
# run at go test's default benchtime, as `make bench` records them: at
# 0.3s a stream sample's ratio to the reference spread over 0.38–1.04
# on a 2-vCPU Xeon.
bench-smoke:
	{ for round in 1 2 3 4 5; do \
	    $(GO) test -run '^$$' -bench 'BenchmarkRunCalls|BenchmarkHostReference' -benchmem -count 1 . || exit 1; \
	  done && \
	  for round in 1 2 3 4 5; do \
	    $(GO) test -run '^$$' -bench 'BenchmarkRun(Bare|Instrumented|Timeseries)$$' -benchmem -benchtime 0.3s -count 1 . || exit 1; \
	  done && \
	  $(GO) test -run '^$$' -bench 'BenchmarkBuildMinHop/metro200-H2(-flat)?$$' -benchmem -benchtime 0.3s -count 3 ./internal/policy/ && \
	  $(GO) test -run '^$$' -bench 'BenchmarkNewStream/(metro200|nsfnet-drain)$$' -benchmem -benchtime 0.3s -count 3 ./internal/sim/; } \
	| $(GO) run ./cmd/benchguard -ledger BENCH.json

# CPU+heap profile of the hot path via BenchmarkRunCalls (replay = event
# loop only). Inspect with `go tool pprof cpu.out`. For profiling a real
# experiment run instead, altsim has matching -cpuprofile/-memprofile
# flags: `go run ./cmd/altsim nsfnet -window 0 -cpuprofile cpu.out`.
profile:
	$(GO) test -run '^$$' -bench 'BenchmarkRunCalls/replay' -benchtime 2s -cpuprofile cpu.out -memprofile mem.out .
	@echo "profiles written: cpu.out mem.out (go tool pprof cpu.out)"

# The daemon smoke: boot altd from a scenario file, replay a deterministic
# request swarm over HTTP, cross-check counters against an offline sim.Run,
# and shut down gracefully (the CI altd job).
altd-smoke:
	$(GO) test -v -run TestDaemonSmoke ./cmd/altd/
	$(GO) test -run 'TestReplayEquivalence|TestServerHTTPWire|TestServerConcurrentSwarmSerializes' ./internal/ctrl/

# The end-to-end benchmark (BENCHMARK.json): every workload, its checks and
# its layer-by-layer trace. cmd/altbench is a module of its own, so the root
# `go test ./...` does not reach its tests; CI runs them with
# `go -C cmd/altbench test -short ./...`. Pass flags through ARGS, e.g.
# `make altbench ARGS='-workload metro-stream -seconds 10'`.
altbench:
	bash cmd/altbench/run.sh $(ARGS)

# Short fuzz pass over the Erlang-B / Equation-15 invariants, the lazily
# seeded random source's bit-identity with math/rand, the shared
# admission kernel against the interpreted policies, the calendar
# event queue against a stable sort, the slab-batched arrival stream
# against the heap merge it replaced, the pruned Erlang bound against
# exhaustive cut evaluation, the route-table builders against the
# per-pair reference, the hand-written JSONL encoder against
# encoding/json, and altd's /admit and /release codec against
# encoding/json (CI smoke; the
# checked-in corpora under internal/*/testdata/fuzz always run in plain
# `go test`).
fuzz-smoke:
	$(GO) test ./internal/erlang/ -run '^$$' -fuzz FuzzErlangB -fuzztime 10s
	$(GO) test ./internal/erlang/ -run '^$$' -fuzz FuzzProtectionLevel -fuzztime 10s
	$(GO) test ./internal/xrand/ -run '^$$' -fuzz FuzzSourceMatchesStdlib -fuzztime 10s
	$(GO) test ./internal/sim/ -run '^$$' -fuzz FuzzDecideMatchesRoute -fuzztime 10s
	$(GO) test ./internal/calendar/ -run '^$$' -fuzz FuzzQueueMatchesReference -fuzztime 10s
	$(GO) test ./internal/sim/ -run '^$$' -fuzz FuzzStreamMatchesReference -fuzztime 10s
	$(GO) test ./internal/bound/ -run '^$$' -fuzz FuzzErlangBoundMatchesExhaustive -fuzztime 10s
	$(GO) test ./internal/policy/ -run '^$$' -fuzz FuzzBuildMinHopMatchesReference -fuzztime 10s
	$(GO) test ./internal/obs/ -run '^$$' -fuzz FuzzJSONLMatchesEncodingJSON -fuzztime 10s
	$(GO) test ./internal/ctrl/ -run '^$$' -fuzz FuzzWireMatchesEncodingJSON -fuzztime 10s

# Run every example end to end with reduced horizons (the CI examples
# smoke job). Output goes to /dev/null; a non-zero exit is the signal.
examples:
	$(GO) run ./examples/quickstart -seeds 1 -horizon 25 >/dev/null
	$(GO) run ./examples/nsfnet -seeds 1 -horizon 25 >/dev/null
	$(GO) run ./examples/failures -seeds 1 -horizon 30 >/dev/null
	$(GO) run ./examples/adaptive -seeds 1 -horizon 30 >/dev/null
	$(GO) run ./examples/cellular -seeds 1 -horizon 25 >/dev/null
	$(GO) run ./examples/exactcheck -quick >/dev/null
