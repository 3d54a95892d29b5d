# Tier-1 gate: everything `make check` runs must stay green. CI and the
# stacked-PR driver both treat a check failure as a broken build.

GO ?= go

.PHONY: check vet build test generic race fuzz benchmark-smoke bench perf clean

check: vet build test generic race fuzz benchmark-smoke perf

# Static checks: go vet plus the staticcheck-style hygiene the toolchain
# ships — gofmt drift (gofmt -l must print nothing). No external tools:
# the container has only the Go toolchain. `go vet ./...` includes the
# asmdecl check of the .s files in internal/ldpc, internal/fft,
# internal/modulation, internal/mat, internal/fronthaul and internal/cpu
# against their Go declarations
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

# Short-mode race pass over every internal package and every command.
# cmd/agora's TestObsRoutes serves the -metrics-addr mux, and cmd/bench's
# -ab tests fold alternated runs. The MPMC queues, the
# manager-worker engine and the obs tracer/metrics are where a data race
# would hide; TestMetricsSnapshotLive exercises the mid-run
# MetricsSnapshot reader against the manager's task-time fold under the
# detector,
# TestPromLiveMidRun (internal/core) and TestPromFleetLiveMidRun
# (internal/obs) scrape /metrics from a running engine and a running
# fleet, and internal/fleet's lifecycle tests (drain under in-flight
# frames, degrade and recover) put the router, the cells' result sinks
# on their managers and the engines under it too; TestSlowConsumer
# fills the fleet's result stream while the managers keep retiring, and
# TestRouterFrameOrder and TestDrainWaitsForFarAheadClaim check the
# router's admission against the engine's per-slot frame-id rule.
# TestWakeNoLostFrames (a tenth of its frames in short
# mode) and TestIdleEngineParks are the wake protocol's race coverage:
# producers reading a role's parked flag while the role raises it, polls
# once more and parks. TestResendUntilResult (internal/core, 120 frames
# in short mode) resends every frame's packets over a Ring until its
# result arrives, so duplicates meet the frame's retirement on netRX.
# TestCountdownConcurrent (several goroutines take batches off one
# countdown word; exactly one sees 0) and TestHandoffCount (GOMAXPROCS
# pinned: one handoff per task type per frame with as many workers as
# processors, none with one to spare) are the stage-edge handoff's.
race:
	$(GO) test -race -short ./internal/... ./cmd/...

# Short fuzz pass over the wire and the frame lifecycle, then the
# kernels. FuzzHeaderDecode (internal/fronthaul): Decode never panics and
# Encode→Decode round-trips. FuzzAcceptPacket (internal/core): fuzzed
# schedules of packets (duplicated, reordered, late, truncated,
# bit-flipped, parity-only, lost, reused and wrapped ids), task runs, a
# stalled worker and reaps through acceptPacket and the manager; every
# frame that claimed or was refused a slot gets exactly one result, a
# claim leaves no arrival flag of its slot set but its own packet's, and
# slots, leases and queues return to their initial occupancy. The frame
# DAG (FuzzFrameDAG: packets and task completions of two frames in a
# seed-chosen order on a fuzz-chosen cell; every task released exactly
# once, never before its dependencies, and a frame done exactly at its
# last task), the ldpc bit-packing,
# decode-success (FuzzDecodeSuccessIsCodeword: every reported success is
# the codeword of its own bits) and codeword-shortcut targets
# (FuzzCodewordShortcut: a block that arrives as a codeword decodes at 0
# iterations to the bits one iteration would give) and the vector-vs-Go
# kernel differentials of ldpc (FuzzLaneKernelsSIMD: whole decodes on the
# rotated, padded layout from raw float bits at Z below 8, at and either
# side of a multiple of 8 and past one word per block, real lanes
# compared, poisoned slack around l, r and the Q slab; and the LLR sign
# pack, FuzzLoadLLRKernelsSIMD: raw float bits, poisoned margins past the
# packed words), fft (FuzzFFTKernelsSIMD: Forward, Inverse, InverseBand
# over a fuzzed band and ForwardIQ12; FuzzStoreIQ12KernelsSIMD: the TX
# quantize-pack, poisoned bytes on either side of the payload;
# FuzzCorrelateCombKernelsSIMD: the pilot comb correlation from raw
# float bits), modulation, mat (the block multiply, and the tile
# multiply on the uplink grid's layout through both its four-row and its
# two-row vector tiles) and fronthaul (FuzzGFKernelsSIMD:
# the GF(2^8) multiply-XOR, single and paired rows, poisoned margins past
# each destination; Go runs one -fuzz target per invocation). A few seconds each is a smoke pass; longer
# exploratory runs are `go test -fuzz <Target> <package>` without
# -fuzztime.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzHeaderDecode -fuzztime 5s ./internal/fronthaul
	$(GO) test -run '^$$' -fuzz FuzzAcceptPacket -fuzztime 5s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzFrameDAG -fuzztime 5s ./internal/sched
	$(GO) test -run '^$$' -fuzz FuzzBitsBytesRoundTrip -fuzztime 5s ./internal/ldpc
	$(GO) test -run '^$$' -fuzz FuzzDecodeSuccessIsCodeword -fuzztime 5s ./internal/ldpc
	$(GO) test -run '^$$' -fuzz FuzzCodewordShortcut -fuzztime 5s ./internal/ldpc
	$(GO) test -run '^$$' -fuzz FuzzLaneKernelsSIMD -fuzztime 5s ./internal/ldpc
	$(GO) test -run '^$$' -fuzz FuzzLoadLLRKernelsSIMD -fuzztime 5s ./internal/ldpc
	$(GO) test -run '^$$' -fuzz FuzzFFTKernelsSIMD -fuzztime 5s ./internal/fft
	$(GO) test -run '^$$' -fuzz FuzzStoreIQ12KernelsSIMD -fuzztime 5s ./internal/fft
	$(GO) test -run '^$$' -fuzz FuzzCorrelateCombKernelsSIMD -fuzztime 5s ./internal/fft
	$(GO) test -run '^$$' -fuzz FuzzDemodKernelsSIMD -fuzztime 5s ./internal/modulation
	$(GO) test -run '^$$' -fuzz FuzzMulBlockKernelsSIMD -fuzztime 5s ./internal/mat
	$(GO) test -run '^$$' -fuzz FuzzMulTileKernelsSIMD -fuzztime 5s ./internal/mat
	$(GO) test -run '^$$' -fuzz FuzzGFKernelsSIMD -fuzztime 5s ./internal/fronthaul

# The repository benchmark (benchmark/, BENCHMARK.json) is a Go module of
# its own, so `go test ./...` never reaches it; its smoke test runs every
# workload in both modes for a fraction of a second and checks the metric
# manifest against BENCHMARK.json.
benchmark-smoke:
	$(GO) test -C benchmark ./...

# The benchmarks behind the paper's tables and figures, the fleet and
# the kernel A/B pairs. internal/ldpc holds the rotating-input
# Decode_AVX2 vs Decode_PureGo pair and beside it Decode_Codeword,
# decode's fixed term (clean blocks, 0 iterations); internal/fft the
# FFT512 / ForwardIQ12_512 / IFFTBatch8x512 (the TX transform
# InverseBand over an 8-antenna run) / StoreIQ12_512 /
# CorrelateComb304x4 (one antenna's pilot CSI correlation) _AVX2 vs
# _PureGo pairs; internal/core the RunIFFT pair (one 2-antenna IFFT task against
# the fill + gather + Inverse body it replaced) and Ingest (netRX's
# packet-accept path alone, in pkts/s: header parse, slot claim, arrival
# flag, lease);
# internal/modulation the DemodulateSoftSoA pair; internal/mat the
# MulBlockRows4 pair (the four-row GEMM tile, on blocks and on grid
# tiles read in place) and the MulTileRows2 pair (the two-row tile on
# the 8-antenna 2-user strip); internal/fronthaul the AccumulateData pair (one
# 16×2 FEC burst of 1536-byte payloads). Each pair has to live
# next to the unexported dispatch it flips. Absolute ns/op moves 25–30%
# between windows on a shared host: compare within one run.
bench:
	$(GO) test -run '^$$' -bench 'Table1|Fig9|Table4|Decode_|Fleet_|RunIFFT|Ingest|_AVX2$$|_PureGo$$' -benchmem -count 5 . ./internal/ldpc ./internal/fft ./internal/modulation ./internal/mat ./internal/fronthaul ./internal/core

# Perf gate: ratios measured within one process, never absolute times.
# BenchmarkKernelGate (ldpc, fft, modulation, mat, fronthaul) alternates each kernel's
# vector and Go sides (mat: the four-row tiles and, as 2x8_T8, the
# two-row tile) and fails when the median Go/vector ratio falls
# below its floor; BenchmarkRecorderGate fails when the recorder's median
# on/off ratio exceeds 1.10. The exact counts — TestDecodeItersReference
# (67 layered iterations to converge) and TestSteadyStateZeroAlloc
# (0 allocs/op) — are tier-1 tests.
perf:
	$(GO) test -run '^$$' -bench 'Gate$$' -benchtime 1x . ./internal/ldpc ./internal/fft ./internal/modulation ./internal/mat ./internal/fronthaul

clean:
	$(GO) clean
	rm -f bench repro.test
