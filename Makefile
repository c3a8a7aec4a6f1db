# Convenience targets for the ccdem reproduction.

GO ?= go

.PHONY: all build test test-short race cover bench perfgate perfgate-update fuzz chaos validate campaign figures fleet fleet-scale svc svc-chaos telemetry obs clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...
	$(GO) run ./cmd/ccdem-fleet -devices 12 -duration 5 -faults 1 -hardened -workers 4 > /dev/null

# Short fuzz pass over every parser boundary (decoders must never panic
# on hostile input; raise FUZZTIME for a real session; FuzzRelayJSONLine
# also holds the worker-log relay to one record with unique keys, and
# FuzzCheckTrace holds ccdem-obscheck to accepting only one trace-event
# array with the required processes and spans) and the
# tile/naive differential fuzzers (the optimized pixel pipeline must stay
# byte-identical to its brute-force oracle). The five op-stream
# differential fuzzers and FuzzReadScenario bound minimization to 1s per
# input: at the default 60s, minimizing each new corpus entry used up most
# of a short pass. A failing input is still written under testdata/fuzz,
# if not minimized.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -fuzz FuzzReadParams -fuzztime $(FUZZTIME) ./internal/app
	$(GO) test -fuzz FuzzReadScript -fuzztime $(FUZZTIME) ./internal/input
	$(GO) test -fuzz FuzzReadPPM -fuzztime $(FUZZTIME) ./internal/framebuffer
	$(GO) test -fuzz FuzzGridCompare -fuzztime $(FUZZTIME) ./internal/framebuffer
	$(GO) test -fuzz FuzzAccumulatorCodec -fuzztime $(FUZZTIME) ./internal/fleet
	$(GO) test -fuzz FuzzTileCompose -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/surface
	$(GO) test -fuzz FuzzTileCompare -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/core
	$(GO) test -fuzz FuzzPaletteCompose -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/surface
	$(GO) test -fuzz FuzzPaletteCompare -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/framebuffer
	$(GO) test -fuzz FuzzPaletteSnapshot -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/framebuffer
	$(GO) test -fuzz FuzzReadSpec -fuzztime $(FUZZTIME) ./internal/fleet
	$(GO) test -fuzz FuzzDecodeCheckpoint -fuzztime $(FUZZTIME) ./internal/fleet
	$(GO) test -fuzz FuzzDecodeJobSpec -fuzztime $(FUZZTIME) ./internal/svc
	$(GO) test -fuzz FuzzParsePrometheus -fuzztime $(FUZZTIME) ./internal/obs
	$(GO) test -fuzz FuzzRelayJSONLine -fuzztime $(FUZZTIME) ./internal/obs
	$(GO) test -fuzz FuzzCheckTrace -fuzztime $(FUZZTIME) ./cmd/ccdem-obscheck
	$(GO) test -fuzz FuzzReadScenario -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/scenario

# Benchmark-regression gate over the pinned hot-path suite (see
# cmd/ccdem-bench): medians of repeated runs vs results/bench_baseline.json.
# Any allocs/op growth fails; ns/op beyond the threshold fails unless
# PERFGATE_FLAGS adds -warn-time (what CI uses on shared runners).
PERFGATE_FLAGS ?=
perfgate:
	$(GO) run ./cmd/ccdem-bench -count 5 -benchtime 200ms $(PERFGATE_FLAGS)

# Refresh the committed baseline on a quiet machine after an intentional
# performance change.
perfgate-update:
	$(GO) run ./cmd/ccdem-bench -count 5 -benchtime 300ms -update

# The chaos campaign: display quality under injected faults, hardened
# vs unhardened (see DESIGN.md §9).
chaos:
	$(GO) run ./cmd/ccdem -duration 60 -csv results/chaos_60s.csv chaos \
		| tee results/chaos_60s.txt

cover:
	$(GO) test -cover ./...

# One pass over every per-figure benchmark (fast; raise -benchtime for
# statistically meaningful timings).
bench:
	$(GO) test -run XXX -bench . -benchmem -benchtime 1x ./...

# Qualitative shape checks against the paper; exits non-zero on failure.
validate:
	$(GO) run ./cmd/ccdem -duration 60 validate

# The full reference campaign with exported artifacts (≈5 minutes).
campaign:
	mkdir -p results/figures
	$(GO) run ./cmd/ccdem -duration 180 -svg results/figures \
		-csv results/campaign_180s.csv all | tee results/full_campaign_180s.txt

figures:
	mkdir -p results/figures
	$(GO) run ./cmd/ccdem -duration 60 -svg results/figures fig2
	$(GO) run ./cmd/ccdem -duration 60 -svg results/figures fig7

# Small-cohort fleet smoke run (see cmd/ccdem-fleet -help for real studies).
fleet:
	$(GO) run ./cmd/ccdem-fleet -devices 24 -duration 10 -progress

# Fleet-scale smoke (DESIGN.md §11): a 100k-device streamed campaign —
# O(workers) memory, device reuse, batched dispatch — timed on the normal
# build, then the streamed path again under the race detector on a small
# cohort. Short sessions keep the 100k run to minutes; EXPERIMENTS.md has
# the measured 1M-device numbers.
FLEET_SCALE_DEVICES ?= 100000
fleet-scale:
	time $(GO) run ./cmd/ccdem-fleet -devices $(FLEET_SCALE_DEVICES) \
		-duration 1 -stream -batch 64 -progress > /dev/null
	$(GO) test -race -run 'TestStreamedCohort|TestPoolBatch' ./internal/fleet
	$(GO) run -race ./cmd/ccdem-fleet -devices 200 -duration 2 \
		-stream -batch 16 -workers 8 > /dev/null

# Campaign service smoke (DESIGN.md §12): boot ccdem-svc, run a 2-way
# subprocess-sharded campaign over the HTTP API, and diff its merged
# result against the direct single-process streaming run — the two must
# be byte-identical. Needs curl and jq.
svc:
	./scripts/svc_smoke.sh

# Fault-tolerance smoke (DESIGN.md §14): kill a shard worker mid-shard
# and watch the retry finish the campaign, then kill -9 the daemon
# mid-campaign and watch a restart over the same -state-dir resume it —
# both byte-identical to the direct run. Needs curl and jq.
svc-chaos:
	./scripts/svc_chaos.sh

# Telemetry smoke (DESIGN.md §13): boot the daemon with JSON logs and the
# pprof listener, run a sharded campaign, and validate every telemetry
# surface — /metrics against the strict Prometheus parser, the campaign
# trace for spans from the daemon plus one process per shard worker,
# structured log correlation, and pprof reachability. Needs curl and jq.
telemetry:
	./scripts/telemetry_smoke.sh

# Sample observability artifacts from a short fleet run: a Perfetto-loadable
# trace (open at https://ui.perfetto.dev) and the merged metrics dump.
obs:
	mkdir -p results/obs
	$(GO) run ./cmd/ccdem-fleet -devices 24 -duration 10 -seed 42 \
		-trace-out results/obs/fleet-trace.json -metrics \
		> results/obs/fleet-aggregate.json 2> results/obs/fleet-metrics.txt
	@echo "wrote results/obs/fleet-trace.json (Perfetto), fleet-metrics.txt, fleet-aggregate.json"

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
