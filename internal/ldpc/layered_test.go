package ldpc

import (
	"math/rand"
	"testing"
)

// decodeLanesWalkRef is the pre-§18 decode loop reconstructed in the
// test: the lane-major layered kernel (iterateLanes) with the historical
// per-iteration convergence detection — a full hard-decision pass plus a
// CheckSyndrome walk. The fused default must reproduce its (info, Result)
// pair exactly; any divergence means the incremental syndrome is only
// approximating the true parity state.
func decodeLanesWalkRef(d *Decoder, info []byte, llr []float32, maxIter int) Result {
	c := d.code
	copy(d.l, llr)
	clear(d.r)
	scl, off := float32(1), d.Offset
	if d.Alg == NormalizedMinSum {
		scl, off = d.Scale, 0
	}
	res := Result{}
	for it := 1; it <= maxIter; it++ {
		res.Iterations = it
		d.iterateLanes(scl, off)
		for v, lv := range d.l {
			if lv < 0 {
				d.hard[v] = 1
			} else {
				d.hard[v] = 0
			}
		}
		if c.CheckSyndrome(d.hard) {
			res.OK = true
			break
		}
	}
	copy(info, d.hard[:c.K()])
	return res
}

// decodeLanesWalkRef8 is the int8 counterpart of decodeLanesWalkRef.
func decodeLanesWalkRef8(d *Decoder8, info []byte, llr []int8, maxIter int) Result {
	c := d.code
	for i, v := range llr {
		d.l[i] = int16(v)
	}
	clear(d.r)
	res := Result{}
	for it := 1; it <= maxIter; it++ {
		res.Iterations = it
		d.iterateLanes8()
		for v, lv := range d.l {
			if lv < 0 {
				d.hard[v] = 1
			} else {
				d.hard[v] = 0
			}
		}
		if c.CheckSyndrome(d.hard) {
			res.OK = true
			break
		}
	}
	copy(info, d.hard[:c.K()])
	return res
}

// TestFusedSyndromeExact pins the tentpole's exactness contract: the
// fused incremental-syndrome default must produce the identical (info,
// Result) pair as the same lane kernel with a full hard-decision pass and
// CheckSyndrome walk per iteration, on both decodable and garbage inputs,
// and after every decode the tracked parity state must agree with a fresh
// CheckSyndrome of the final hard decisions.
func TestFusedSyndromeExact(t *testing.T) { forEachKernel(t, testFusedSyndromeExact) }

func testFusedSyndromeExact(t *testing.T) {
	zs := laneSweepZ
	if testing.Short() {
		zs = laneSweepZShort
	}
	rng := rand.New(rand.NewSource(18))
	for _, rate := range []Rate{Rate13, Rate23, Rate89} {
		for _, z := range zs {
			code := MustNew(rate, z)
			inputs := [][]float32{noisyLLR(rng, code), garbageLLR(rng, code)}
			for li, llr := range inputs {
				for _, alg := range []Alg{OffsetMinSum, NormalizedMinSum} {
					fused := NewDecoder(code)
					ref := NewDecoder(code)
					fused.Alg, ref.Alg = alg, alg
					outF := make([]byte, code.K())
					outR := make([]byte, code.K())
					resF := fused.Decode(outF, llr, 6)
					resR := decodeLanesWalkRef(ref, outR, llr, 6)
					if resF != resR {
						t.Fatalf("rate %v Z=%d alg=%d input=%d: fused %+v != walked %+v",
							rate, z, alg, li, resF, resR)
					}
					for i := range outF {
						if outF[i] != outR[i] {
							t.Fatalf("rate %v Z=%d alg=%d input=%d: info bit %d differs",
								rate, z, alg, li, i)
						}
					}
					if ok := code.CheckSyndrome(fused.hard); ok != (fused.syn.nUnsat == 0) {
						t.Fatalf("rate %v Z=%d alg=%d input=%d: tracked nUnsat=%d but CheckSyndrome=%v",
							rate, z, alg, li, fused.syn.nUnsat, ok)
					}
				}
				fused8 := NewDecoder8(code)
				ref8 := NewDecoder8(code)
				q := make([]int8, code.N())
				fused8.QuantizeLLR(q, llr)
				outF := make([]byte, code.K())
				outR := make([]byte, code.K())
				resF := fused8.Decode(outF, q, 6)
				resR := decodeLanesWalkRef8(ref8, outR, q, 6)
				if resF != resR {
					t.Fatalf("rate %v Z=%d input=%d: int8 fused %+v != walked %+v",
						rate, z, li, resF, resR)
				}
				for i := range outF {
					if outF[i] != outR[i] {
						t.Fatalf("rate %v Z=%d input=%d: int8 info bit %d differs",
							rate, z, li, i)
					}
				}
				if ok := code.CheckSyndrome(fused8.hard); ok != (fused8.syn.nUnsat == 0) {
					t.Fatalf("rate %v Z=%d input=%d: int8 tracked nUnsat=%d but CheckSyndrome=%v",
						rate, z, li, fused8.syn.nUnsat, ok)
				}
			}
		}
	}
}

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
func TestLayeredVsFloodingBits(t *testing.T) { forEachKernel(t, testLayeredVsFloodingBits) }

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
			lay8 := NewDecoder8(code)
			flood8 := NewDecoder8(code)
			flood8.Flooding = true
			q := make([]int8, code.N())
			lay8.QuantizeLLR(q, llr)
			outL := make([]byte, code.K())
			outF := make([]byte, code.K())
			resL := lay8.Decode(outL, q, maxIter)
			resF := flood8.Decode(outF, q, maxIter)
			if resL.OK && resF.OK {
				converged++
				layTotal += resL.Iterations
				floodTotal += resF.Iterations
				for i := range outL {
					if outL[i] != outF[i] {
						t.Fatalf("rate %v Z=%d: int8 info bit %d differs (layered vs flooding)",
							rate, z, i)
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
	rng := rand.New(rand.NewSource(27))
	code := MustNew(Rate23, 64)
	for _, mk := range []func() (func([]byte, []float32, int) Result, string){
		func() (func([]byte, []float32, int) Result, string) {
			d := NewDecoder(code)
			d.Flooding = true
			return d.Decode, "float"
		},
		func() (func([]byte, []float32, int) Result, string) {
			d := NewDecoder8(code)
			d.Flooding = true
			q := make([]int8, code.N())
			return func(info []byte, llr []float32, it int) Result {
				d.QuantizeLLR(q, llr)
				return d.Decode(info, q, it)
			}, "int8"
		},
	} {
		decode, name := mk()
		out := make([]byte, code.K())
		decode(out, garbageLLR(rng, code), 3)
		info := randInfo(rng, code.K())
		cw := make([]byte, code.N())
		code.Encode(cw, info)
		if res := decode(out, cleanLLR(cw, 10), 10); !res.OK {
			t.Fatalf("%s: clean flooding decode failed after garbage decode", name)
		}
		for i := range info {
			if out[i] != info[i] {
				t.Fatalf("%s: bit %d wrong; flooding decoder state leaked", name, i)
			}
		}
	}
}

// TestLegacyPrecedence pins the dispatch contract: Legacy wins over
// Flooding (the check-major path only implements the layered schedule),
// so Legacy+Flooding must reproduce the plain Legacy output exactly.
func TestLegacyPrecedence(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	code := MustNew(Rate23, 32)
	llr := noisyLLR(rng, code)
	leg := NewDecoder(code)
	leg.Legacy = true
	both := NewDecoder(code)
	both.Legacy, both.Flooding = true, true
	outL := make([]byte, code.K())
	outB := make([]byte, code.K())
	resL := leg.Decode(outL, llr, 6)
	resB := both.Decode(outB, llr, 6)
	if resL != resB {
		t.Fatalf("Legacy+Flooding %+v != Legacy %+v", resB, resL)
	}
	for i := range outL {
		if outL[i] != outB[i] {
			t.Fatalf("info bit %d differs under Legacy+Flooding", i)
		}
	}
}
