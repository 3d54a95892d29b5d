package core

// Arena / slot-reuse and ZF coherence-cache behaviour (DESIGN §14): a
// buffer slot reused frame after frame must be observationally identical
// to a fresh one, and the cached ZF path bit-identical to recompute
// whenever it hits.

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/fronthaul"
	"repro/internal/workload"
)

// runBitFrames drives n one-at-a-time uplink frames with KeepBits forced
// on and returns the per-frame results plus the engine's ZF-cache
// counters. doppler > 0 switches the generator to a Gauss-Markov
// time-varying channel; 0 keeps the frame-coherent static channel.
func runBitFrames(t *testing.T, opts Options, n int, doppler float64) ([]FrameResult, int64, int64) {
	t.Helper()
	cfg := smallCfg()
	ring := fronthaul.NewRing(4096, fronthaul.PacketSize(cfg.SamplesPerSymbol())+64)
	gen, err := workload.NewGenerator(cfg, channel.Rayleigh, 30, 11)
	if err != nil {
		t.Fatal(err)
	}
	if doppler > 0 {
		gen.SetDoppler(doppler)
	}
	opts.KeepBits = true
	eng, err := NewEngine(cfg, opts, ring.Side(1))
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	defer eng.Stop()
	rru := ring.Side(0)
	results := make([]FrameResult, 0, n)
	for f := 0; f < n; f++ {
		if err := gen.EmitFrame(uint32(f), rru.Send); err != nil {
			t.Fatal(err)
		}
		select {
		case r := <-eng.Results():
			if r.Dropped {
				t.Fatalf("frame %d dropped", f)
			}
			results = append(results, r)
		case <-time.After(20 * time.Second):
			t.Fatalf("frame %d timed out", f)
		}
	}
	return results, eng.Metrics().ZFCacheHits.Load(), eng.Metrics().ZFCacheMisses.Load()
}

// sameBits asserts two runs decoded byte-identical bits with identical
// parity outcomes, frame by frame.
func sameBits(t *testing.T, a, b []FrameResult) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("frame counts differ: %d vs %d", len(a), len(b))
	}
	for f := range a {
		ra, rb := a[f], b[f]
		if ra.BlocksOK != rb.BlocksOK || ra.BlocksTotal != rb.BlocksTotal {
			t.Fatalf("frame %d: blocks %d/%d vs %d/%d",
				f, ra.BlocksOK, ra.BlocksTotal, rb.BlocksOK, rb.BlocksTotal)
		}
		if len(ra.Bits) != len(rb.Bits) {
			t.Fatalf("frame %d: symbol counts differ", f)
		}
		for s := range ra.Bits {
			if (ra.Bits[s] == nil) != (rb.Bits[s] == nil) {
				t.Fatalf("frame %d sym %d: presence differs", f, s)
			}
			for u := range ra.Bits[s] {
				if !bytes.Equal(ra.Bits[s][u], rb.Bits[s][u]) {
					t.Fatalf("frame %d sym %d user %d: decoded bits differ", f, s, u)
				}
				if ra.OKMask[s][u] != rb.OKMask[s][u] {
					t.Fatalf("frame %d sym %d user %d: OK mask differs", f, s, u)
				}
			}
		}
	}
}

// TestFrameStateRecycling runs back-to-back frames through two buffer
// slots, so each slot's record and buffers serve three frames, and checks
// the output is bit-identical to a run with a slot per frame, where
// nothing is reused. Any reset the slot lifecycle misses (a stale
// counter, an uncleared dedupe bitmap, a fftPend row left partially
// consumed, FEC or lease state) shows up as a diff. Runs in short mode so
// `go test -race -short` covers the reuse path under the detector.
func TestFrameStateRecycling(t *testing.T) {
	const frames = 6
	reused, _, _ := runBitFrames(t, Options{Workers: 3, Slots: 2}, frames, 0)
	fresh, _, _ := runBitFrames(t, Options{Workers: 3, Slots: frames}, frames, 0)
	sameBits(t, reused, fresh)
}

// TestZFCacheEquivalence pins the coherence cache's contract from both
// sides. Static channel: the pilot-estimated channel is identical every
// frame (same AWGN draw would differ, but the delta stays far inside the
// coherence window), so the cache must hit and the decoded bits must be
// byte-identical to a full per-frame recompute. Time-varying channel:
// Gauss-Markov aging must drive the delta past the threshold so the
// cache invalidates, and decoding must stay as good as the uncached run.
func TestZFCacheEquivalence(t *testing.T) {
	const frames = 6
	// Static channel: cache hits, bits identical to recompute.
	cached, hits, _ := runBitFrames(t, Options{Workers: 3}, frames, 0)
	uncached, offHits, offMisses := runBitFrames(t,
		Options{Workers: 3, DisableZFCache: true}, frames, 0)
	if hits == 0 {
		t.Fatal("static channel: expected ZF cache hits, got none")
	}
	if offHits != 0 || offMisses != 0 {
		t.Fatalf("DisableZFCache still counted cache decisions: %d hits, %d misses",
			offHits, offMisses)
	}
	sameBits(t, cached, uncached)
	for _, r := range cached {
		if r.BlocksOK != r.BlocksTotal {
			t.Fatalf("static channel: %d/%d blocks decoded", r.BlocksOK, r.BlocksTotal)
		}
	}
	// Fast-fading channel (low Gauss-Markov correlation): every frame's
	// channel moves far beyond the norm-delta threshold, so the cache must
	// invalidate rather than serve stale inverses, and decoding must match
	// the uncached run block for block (same seed, same channel sequence).
	dopCached, dHits, dMisses := runBitFrames(t, Options{Workers: 3}, frames, 0.30)
	dopUncached, _, _ := runBitFrames(t,
		Options{Workers: 3, DisableZFCache: true}, frames, 0.30)
	if dMisses < int64(frames)-1 {
		t.Fatalf("fast fading: cache should invalidate nearly every frame, got %d hits / %d misses",
			dHits, dMisses)
	}
	for f := range dopCached {
		if dopCached[f].BlocksOK != dopUncached[f].BlocksOK {
			t.Fatalf("fast fading frame %d: %d blocks OK cached vs %d uncached",
				f, dopCached[f].BlocksOK, dopUncached[f].BlocksOK)
		}
	}
}
