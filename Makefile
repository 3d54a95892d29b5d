# Tier-1 gate: everything `make check` runs must stay green. CI and the
# stacked-PR driver both treat a check failure as a broken build.

GO ?= go

.PHONY: check vet build test generic race fuzz benchmark-smoke bench baseline perf clean

check: vet build test generic race fuzz benchmark-smoke perf

# Static checks: go vet plus the staticcheck-style hygiene the toolchain
# ships — gofmt drift (gofmt -l must print nothing). No external tools:
# the container has only the Go toolchain. `go vet ./...` includes the
# asmdecl check of the .s files in internal/ldpc, internal/fft,
# internal/modulation and internal/cpu against their Go declarations
# (argument offsets, frame sizes). The arm64 cross-vet type-checks
# internal/fronthaul's recvmmsg batch path against arm64's syscall
# definitions; the Go kernel fallback is vetted and run by `generic`
# below.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/...
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The whole tree on the Go kernel loops: the purego tag drops every amd64
# assembly file, so the build every non-amd64 or pre-AVX2 host runs is
# vetted and tested here too (internal/cpu states the selection rule).
# `-C` must come first on the benchmark line.
generic:
	$(GO) vet -tags purego ./...
	$(GO) test -tags purego ./...
	$(GO) test -C benchmark -tags purego ./...

# Short-mode race pass over every internal package. The MPMC queues, the
# manager-worker engine and the obs tracer/metrics are where a data race
# would hide; TestMetricsSnapshotLive exercises the mid-run TaskStats /
# MetricsSnapshot readers against running workers under the detector,
# TestPromLiveMidRun (internal/core) and TestPromFleetLiveMidRun
# (internal/obs) scrape /metrics from a running engine and a running
# fleet, and internal/fleet's lifecycle tests (drain under in-flight
# frames, degrade and recover) put the router/forwarder/engine interplay
# under it too.
race:
	$(GO) test -race -short ./internal/...

# Short fuzz pass over the frame DAG (FuzzFrameDAG: packets and task
# completions of two frames in a seed-chosen order on a fuzz-chosen cell;
# every task released exactly once, never before its dependencies, and a
# frame done exactly at its last task), the ldpc bit-packing,
# schedule-differential (FuzzLayeredVsFlooding: every reported success is
# the codeword of its own bits) and codeword-shortcut targets
# (FuzzCodewordShortcut: a block that arrives as a codeword decodes at 0
# iterations to the bits one iteration would give) and the vector-vs-Go
# kernel differentials of ldpc, fft and modulation (Go runs one -fuzz
# target per invocation). A few seconds each is a smoke pass; longer
# exploratory runs are `go test -fuzz <Target> <package>` without
# -fuzztime.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzFrameDAG -fuzztime 5s ./internal/sched
	$(GO) test -run '^$$' -fuzz FuzzBitsBytesRoundTrip -fuzztime 5s ./internal/ldpc
	$(GO) test -run '^$$' -fuzz FuzzLayeredVsFlooding -fuzztime 5s ./internal/ldpc
	$(GO) test -run '^$$' -fuzz FuzzCodewordShortcut -fuzztime 5s ./internal/ldpc
	$(GO) test -run '^$$' -fuzz FuzzLaneKernelsSIMD -fuzztime 5s ./internal/ldpc
	$(GO) test -run '^$$' -fuzz FuzzFFTKernelsSIMD -fuzztime 5s ./internal/fft
	$(GO) test -run '^$$' -fuzz FuzzDemodKernelsSIMD -fuzztime 5s ./internal/modulation

# The repository benchmark (benchmark/, BENCHMARK.json) is a Go module of
# its own, so `go test ./...` never reaches it; its smoke test runs every
# workload in both modes for a fraction of a second and checks the metric
# manifest against BENCHMARK.json.
benchmark-smoke:
	$(GO) test -C benchmark ./...

# Key benchmarks (the ones BENCH_BASELINE.json regression checks target).
# internal/ldpc holds the rotating-input kernel A/B, Decode_AVX2 vs
# Decode_PureGo, and beside it Decode_Codeword, decode's fixed term
# (clean blocks, 0 iterations; not in BENCH_BASELINE.json), internal/fft
# the FFT512 / ForwardIQ12_512 /
# IFFTBatch8x512 _AVX2 vs _PureGo pairs, internal/modulation the
# DemodulateSoftSoA pair (not in BENCH_BASELINE.json: its gate is the
# within-process ratio, EXPERIMENTS.md); each has to live next to the
# unexported dispatch it flips.
bench:
	$(GO) test -run '^$$' -bench 'Table1|Fig9|Table4|Decode_|Fleet_|RecorderOverhead|_AVX2$$|_PureGo$$' -benchmem -count 5 . ./internal/ldpc ./internal/fft ./internal/modulation

# Re-snapshot the benchmark suite into BENCH_BASELINE.json. Only commit
# the result when intentionally moving the baseline (e.g. after a perf PR).
baseline:
	$(GO) run ./cmd/bench -baseline -baseline-count 5

# Perf guardrail: re-run the end-to-end medians recorded in the committed
# baseline and fail on >10% regression, so tier-1 catches performance
# regressions alongside correctness. Table4_AllOptimizationsOn pins the
# default engine path (fused SoA demod included) explicitly; the Decode_
# rows pin the layered LDPC decode and its flooding ablation partner
# (Decode_Layered/_Flooding), and Decode_AVX2/_PureGo (internal/ldpc,
# rotating inputs) the vector layer kernels and the Go loops they fall
# back to; the FFT512, ForwardIQ12_512 and IFFTBatch8x512 _AVX2/_PureGo
# pairs (internal/fft) do the same for the FFT stage kernels and the IQ12
# front end.
# Table1 also matches Table1_SteadyStateFrame, which the zero-alloc gate
# additionally holds to exactly 0 allocs/op and 0 B/op (DESIGN §14): any
# allocation creeping back into the recycled frame loop fails the build.
# The -overhead pass benches the SLO/flight recorder on vs off (DESIGN
# §17) and fails if the recorder's measured cost (documented <2% median
# in EXPERIMENTS.md) climbs past the noise-tolerant gate; the zero-alloc
# gate above already runs with the recorder on (it is the default), so
# attribution is also pinned to 0 allocs/op in the steady-state loop.
# The -iters pass is the deterministic decode-convergence tripwire
# (DESIGN §13): mean iterations-to-converge on a fixed seeded workload,
# failing on >10% regression — it catches scheduling bugs that stay
# correct and hide inside the wall-clock tolerance above.
perf:
	$(GO) run ./cmd/bench -compare BENCH_BASELINE.json -compare-bench 'Table1|Fig9|Table4_AllOptimizationsOn|Decode_|_AVX2$$|_PureGo$$' -compare-zero-alloc 'SteadyState'
	$(GO) run ./cmd/bench -overhead
	$(GO) run ./cmd/bench -iters BENCH_BASELINE.json

clean:
	$(GO) clean
	rm -f bench repro.test
