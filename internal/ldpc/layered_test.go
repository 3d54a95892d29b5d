package ldpc

import (
	"math/rand"
	"testing"
)

// harshLLR is noisyLLR with a per-rate noise level chosen so decoding
// needs several iterations (unit noise on ±4 LLRs flips almost no channel
// signs and everything converges in one iteration, hiding any schedule
// difference) while still converging within a generous budget: the less
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

// TestLayeredVsFloodingBits is the schedule-ablation contract: across the
// full Z sweep and every rate, the layered default and the flooding
// schedule must agree on the decoded information bits whenever both
// converge on a decodable input — their LLR trajectories and iteration
// counts legitimately differ (flooding propagates beliefs one full
// iteration later), but both are fixed points of the same min-sum update.
// The aggregate iteration counts must also show the layered advantage the
// tentpole is named for: strictly fewer total iterations across the sweep.
func TestLayeredVsFloodingBits(t *testing.T) { t.Run(Kernel(), testLayeredVsFloodingBits) }

func testLayeredVsFloodingBits(t *testing.T) {
	zs := laneSweepZ
	if testing.Short() {
		zs = laneSweepZShort
	}
	const maxIter = 30
	rng := rand.New(rand.NewSource(81))
	layTotal, floodTotal, converged := 0, 0, 0
	for _, rate := range []Rate{Rate13, Rate23, Rate89} {
		for _, z := range zs {
			code := MustNew(rate, z)
			llr := harshLLR(rng, code, rate)
			for _, alg := range []Alg{OffsetMinSum, NormalizedMinSum} {
				lay := NewDecoder(code)
				flood := NewDecoder(code)
				lay.Alg, flood.Alg = alg, alg
				flood.Flooding = true
				outL := make([]byte, code.K())
				outF := make([]byte, code.K())
				resL := lay.Decode(outL, llr, maxIter)
				resF := flood.Decode(outF, llr, maxIter)
				if resL.OK && resF.OK {
					converged++
					layTotal += resL.Iterations
					floodTotal += resF.Iterations
					for i := range outL {
						if outL[i] != outF[i] {
							t.Fatalf("rate %v Z=%d alg=%d: info bit %d differs (layered vs flooding)",
								rate, z, alg, i)
						}
					}
				}
			}
		}
	}
	if converged < len(zs) {
		t.Fatalf("only %d cases converged under both schedules; noise model too harsh", converged)
	}
	if layTotal >= floodTotal {
		t.Fatalf("layered schedule shows no iteration advantage: %d total iterations vs flooding's %d over %d cases",
			layTotal, floodTotal, converged)
	}
	t.Logf("layered %d vs flooding %d total iterations over %d converged cases (%.2fx)",
		layTotal, floodTotal, converged, float64(floodTotal)/float64(layTotal))
}

// TestFloodingDecoderReuse mirrors TestLaneDecoderReuse on the flooding
// path: garbage then clean through one decoder must not leak state (the
// lPrev snapshot is rebuilt every iteration, the messages every Decode).
func TestFloodingDecoderReuse(t *testing.T) {
	d := NewDecoder(MustNew(Rate23, 64))
	d.Flooding = true
	decodeAfterGarbage(t, d, rand.New(rand.NewSource(27)), 10)
}
