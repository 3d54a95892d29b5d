package ldpc

import (
	"math/rand"
	"testing"
)

// harshLLR is noisyLLR with a per-rate noise level chosen so decoding
// needs several iterations (unit noise on ±4 LLRs flips almost no channel
// signs and everything converges in one iteration, hiding any iteration
// count change) while still converging within a generous budget: the less
// redundancy the code has, the less corruption it can absorb.
func harshLLR(rng *rand.Rand, code *Code, rate Rate) []float32 {
	sigma := 1.5
	switch rate {
	case Rate13:
		sigma = 2.5
	case Rate23:
		sigma = 2.0
	}
	info := randInfo(rng, code.K())
	cw := make([]byte, code.N())
	code.Encode(cw, info)
	llr := cleanLLR(cw, 4)
	for i := range llr {
		llr[i] += float32(sigma * rng.NormFloat64())
	}
	return llr
}

// TestDecodeItersReference is the convergence-speed tripwire (DESIGN
// §13): the reference decode workload — seed 1, 32 blocks of the default
// code (rate 1/3, Z=104), ±4 LLRs plus σ=2.5 noise (harshLLR), a
// 20-iteration cap — is fully deterministic, so its iteration sums are
// exact. A scheduling or kernel change that stays correct but costs
// iterations moves them; every block must converge. The sum is the mean
// 2.09375 over 32 blocks.
func TestDecodeItersReference(t *testing.T) { t.Run(Kernel(), testDecodeItersReference) }

func testDecodeItersReference(t *testing.T) {
	const (
		blocks      = 32
		maxIter     = 20
		wantLayered = 67
	)
	rng := rand.New(rand.NewSource(1))
	code := MustNew(Rate13, 104)
	lay := NewDecoder(code)
	out := make([]byte, code.K())
	layIters := 0
	for blk := 0; blk < blocks; blk++ {
		llr := harshLLR(rng, code, Rate13)
		rl := lay.Decode(out, llr, maxIter)
		if !rl.OK {
			t.Fatalf("block %d did not converge", blk)
		}
		layIters += rl.Iterations
	}
	if layIters != wantLayered {
		t.Fatalf("iterations over %d blocks: layered %d (want %d)", blocks, layIters, wantLayered)
	}
}
