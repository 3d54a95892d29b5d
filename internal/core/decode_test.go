package core

import (
	"testing"

	"repro/internal/modulation"
)

// TestDecodeAccountingCleanFrame is the engine-level check of decode
// accounting: on a clean 28 dB frame every uplink block reaches the
// decoder as a codeword, which Decode's syndrome prologue returns at 0
// iterations, so the snapshot must count one block per uplink symbol and
// user, every one an early exit, and no iterations.
func TestDecodeAccountingCleanFrame(t *testing.T) {
	cfg := soaCfg(modulation.QAM16)
	eng, res, _ := runOneFrame(t, cfg, Options{Workers: 2}, 83)
	if res.Dropped {
		t.Fatal("dropped frame")
	}
	snap := eng.Metrics().Snap().Decode
	want := int64(2 * cfg.Users) // two uplink symbols ("PUU") × users
	if snap.Blocks != want {
		t.Fatalf("DecodeBlocks=%d want %d", snap.Blocks, want)
	}
	if snap.EarlyExits != snap.Blocks {
		t.Fatalf("DecodeEarlyExits=%d want every block (%d)", snap.EarlyExits, snap.Blocks)
	}
	if snap.Iters != 0 {
		t.Fatalf("DecodeIters=%d want 0", snap.Iters)
	}
}
