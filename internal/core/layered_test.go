package core

import (
	"testing"

	"repro/internal/frame"
	"repro/internal/modulation"
	"repro/internal/obs"
)

// TestDisableLayeredDecodeEquivalence is the engine-level contract for
// the decode-schedule ablation: with identical decodable input frames,
// the layered default and the DisableLayeredDecode flooding schedule must
// produce identical decoded bits and decode outcomes for every user and
// uplink symbol. (At 28 dB the generator's blocks decode cleanly, where
// the two schedules provably agree; the kernel-level sweep including
// iteration-count behaviour lives in ldpc.TestLayeredVsFloodingBits.)
func TestDisableLayeredDecodeEquivalence(t *testing.T) {
	cfg := soaCfg(modulation.QAM16)
	layEng, layRes, _ := runOneFrame(t, cfg, Options{Workers: 2}, 83)
	fldEng, fldRes, _ := runOneFrame(t, cfg, Options{Workers: 2, DisableLayeredDecode: true}, 83)
	if layRes.Dropped || fldRes.Dropped {
		t.Fatalf("dropped frame: layered=%v flooding=%v", layRes.Dropped, fldRes.Dropped)
	}
	if !fldEng.workers[0].dec.Flooding || layEng.workers[0].dec.Flooding {
		t.Fatal("DisableLayeredDecode not wired to decoder Flooding flag")
	}
	for sym := 0; sym < cfg.NumSymbols(); sym++ {
		if cfg.SymbolAt(sym) != frame.Uplink {
			continue
		}
		for u := 0; u < cfg.Users; u++ {
			for i, v := range fldEng.buf.decoded[0][sym][u] {
				if layEng.buf.decoded[0][sym][u][i] != v {
					t.Fatalf("sym %d user %d: decoded bit %d differs", sym, u, i)
				}
			}
			if layEng.buf.decodeOK[0][sym][u] != fldEng.buf.decodeOK[0][sym][u] {
				t.Fatalf("sym %d user %d: decodeOK differs", sym, u)
			}
		}
	}
	// Decode-iteration accounting must have seen every uplink block, each
	// an early exit. The clean frame's blocks arrive as codewords, which
	// Decode's syndrome prologue returns at 0 iterations under either
	// schedule, so the two schedules' iteration totals are equal (0).
	lay, fld := layEng.Metrics().Snap().Decode, fldEng.Metrics().Snap().Decode
	want := int64(2 * cfg.Users) // two uplink symbols ("PUU") × users
	for name, snap := range map[string]obs.DecodeSnap{"layered": lay, "flooding": fld} {
		if snap.Blocks != want {
			t.Fatalf("%s: DecodeBlocks=%d want %d", name, snap.Blocks, want)
		}
		if snap.EarlyExits != snap.Blocks {
			t.Fatalf("%s: DecodeEarlyExits=%d want every block (%d)", name, snap.EarlyExits, snap.Blocks)
		}
	}
	if lay.Iters != 0 || fld.Iters != 0 {
		t.Fatalf("DecodeIters layered %d, flooding %d; want 0 for both", lay.Iters, fld.Iters)
	}
}
