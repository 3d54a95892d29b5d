package ldpc

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// laneSweepZ is the lifting-size sweep for the reference property: both
// support bounds (2, 512), the paper's sizes (104, 384), powers of two
// (where the rotation split is even), and odd/prime sizes (where every
// shift produces two ragged segments).
var laneSweepZ = []int{2, 3, 4, 5, 7, 8, 13, 16, 31, 63, 64, 104, 127, 128, 255, 256, 384, 511, 512}

// laneSweepZShort trims the sweep for -short runs (the -race pass).
var laneSweepZShort = []int{2, 5, 16, 63, 104, 257, 512}

// noisyLLR returns LLRs for a random codeword perturbed with unit
// Gaussian noise — enough corruption that decoding runs several real
// iterations but normally still converges.
func noisyLLR(rng *rand.Rand, code *Code) []float32 {
	info := randInfo(rng, code.K())
	cw := make([]byte, code.N())
	code.Encode(cw, info)
	llr := cleanLLR(cw, 4)
	for i := range llr {
		llr[i] += float32(rng.NormFloat64())
	}
	return llr
}

// garbageLLR returns pure-noise LLRs: decoding exhausts every iteration
// and fails, exercising the non-converging path.
func garbageLLR(rng *rand.Rand, code *Code) []float32 {
	llr := make([]float32, code.N())
	for i := range llr {
		llr[i] = float32(rng.NormFloat64())
	}
	return llr
}

// refDecode is the test oracle: textbook check-major layered min-sum,
// written straight from the base graph. It walks code.rows with modular
// indexing, keeps its own messages (msg[i][check*deg+edge]) and detects
// convergence with a full hard-decision pass and a CheckSyndrome walk
// every iteration — and, as textbook BP's step 0, once on the channel
// decisions before the first, returning 0 iterations on a codeword. It
// shares none of the decoder's edge tables, lane-major layout or fused
// syndrome, so a bug in those cannot hide in both sides.
func refDecode(code *Code, alg Alg, offset, scale float32, info []byte, llr []float32, maxIter int) Result {
	z := code.Z
	l := append([]float32(nil), llr...)
	hard := make([]byte, len(l))
	for v, x := range l {
		if x < 0 {
			hard[v] = 1
		}
	}
	if code.CheckSyndrome(hard) {
		copy(info, hard[:code.K()])
		return Result{Iterations: 0, OK: true}
	}
	msg := make([][]float32, len(code.rows))
	for i, row := range code.rows {
		msg[i] = make([]float32, z*len(row))
	}
	q := make([]float32, KbBlocks+2)
	res := Result{}
	for it := 1; it <= maxIter; it++ {
		res.Iterations = it
		for i, row := range code.rows {
			for r := 0; r < z; r++ {
				m := msg[i][r*len(row) : (r+1)*len(row)]
				min1, min2, arg, sign := float32(laneInitLLR), float32(laneInitLLR), -1, float32(1)
				for e, ed := range row {
					q[e] = l[ed.col*z+(r+ed.shift)%z] - m[e]
					a := q[e]
					if a < 0 {
						a, sign = -a, -sign
					}
					if a < min1 {
						min2, min1, arg = min1, a, e
					} else if a < min2 {
						min2 = a
					}
				}
				for e, ed := range row {
					mag := min1
					if e == arg {
						mag = min2
					}
					if alg == NormalizedMinSum {
						mag *= scale
					} else {
						mag = max(mag-offset, 0)
					}
					s := sign
					if q[e] < 0 {
						s = -s
					}
					m[e] = s * mag
					l[ed.col*z+(r+ed.shift)%z] = q[e] + m[e]
				}
			}
		}
		for v, x := range l {
			hard[v] = 0
			if x < 0 {
				hard[v] = 1
			}
		}
		if code.CheckSyndrome(hard) {
			res.OK = true
			break
		}
	}
	copy(info, hard[:code.K()])
	return res
}

// referenceSweep decodes every supported rate, the lifting-size sweep,
// both min-sum rules and decodable, multi-iteration and garbage inputs
// with Decode and with refDecode, and hands each pair to check.
func referenceSweep(t *testing.T, seed int64, check func(where string, d *Decoder, got, want []byte, res, ref Result)) {
	zs := laneSweepZ
	if testing.Short() {
		zs = laneSweepZShort
	}
	rng := rand.New(rand.NewSource(seed))
	for _, rate := range []Rate{Rate13, Rate23, Rate89} {
		for _, z := range zs {
			code := MustNew(rate, z)
			inputs := [][]float32{noisyLLR(rng, code), harshLLR(rng, code, rate), garbageLLR(rng, code)}
			for li, llr := range inputs {
				for _, alg := range []Alg{OffsetMinSum, NormalizedMinSum} {
					d := NewDecoder(code)
					d.Alg = alg
					got := make([]byte, code.K())
					want := make([]byte, code.K())
					res := d.Decode(got, llr, 6)
					ref := refDecode(code, alg, d.Offset, d.Scale, want, llr, 6)
					check(fmt.Sprintf("rate %v Z=%d alg=%d input=%d", rate, z, alg, li), d, got, want, res, ref)
				}
			}
		}
	}
}

// TestLaneDecodeEquivalence is the decoder's correctness contract: over
// the reference sweep, Decode and refDecode must produce an identical
// (info, Result) pair — compared exactly, not within tolerance. It runs
// in a subtest named after the layer kernels this build selects (make
// generic runs the Go loops).
func TestLaneDecodeEquivalence(t *testing.T) {
	t.Run(Kernel(), func(t *testing.T) {
		referenceSweep(t, 42, func(where string, d *Decoder, got, want []byte, res, ref Result) {
			if res != ref {
				t.Fatalf("%s: decoder %+v != reference %+v", where, res, ref)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: information bits differ", where)
			}
		})
	})
}

// TestFusedSyndromeExact pins the fused incremental syndrome: it must stop
// on the same iteration, with the same verdict, as refDecode's full
// hard-decision pass and CheckSyndrome walk, and after every decode the
// tracked parity state must agree with a fresh CheckSyndrome of the final
// hard decisions.
func TestFusedSyndromeExact(t *testing.T) {
	t.Run(Kernel(), func(t *testing.T) {
		referenceSweep(t, 18, func(where string, d *Decoder, _, _ []byte, res, ref Result) {
			if res != ref {
				t.Fatalf("%s: fused %+v != walked %+v", where, res, ref)
			}
			if ok := d.code.CheckSyndrome(d.hard); ok != (d.syn.nUnsat == 0) {
				t.Fatalf("%s: tracked nUnsat=%d but CheckSyndrome=%v", where, d.syn.nUnsat, ok)
			}
		})
	})
}

// decodeAfterGarbage runs a garbage block and then a noisy one through
// d: the noisy decode must recover its bits with the Result and the
// posterior array, bit for bit, of a fresh decoder, so no state leaks
// between blocks. (A clean block would prove little: it is a codeword at
// Decode's prologue and never reaches the message slab.)
func decodeAfterGarbage(t *testing.T, d *Decoder, rng *rand.Rand, maxIter int) {
	t.Helper()
	code := d.code
	out := make([]byte, code.K())
	d.Decode(out, garbageLLR(rng, code), 3)
	info := randInfo(rng, code.K())
	cw := make([]byte, code.N())
	code.Encode(cw, info)
	llr := cleanLLR(cw, 4)
	for i := range llr {
		llr[i] += float32(1.5 * rng.NormFloat64())
	}
	fresh := NewDecoder(code)
	fresh.Flooding = d.Flooding
	want := fresh.Decode(make([]byte, code.K()), llr, maxIter)
	if want.Iterations == 0 || !want.OK {
		t.Fatalf("fresh decoder %+v: input must need iterating and converge", want)
	}
	if res := d.Decode(out, llr, maxIter); res != want {
		t.Fatalf("decode after garbage %+v, fresh decoder %+v; decoder state leaked", res, want)
	}
	if !bytes.Equal(out, info) {
		t.Fatal("decode after garbage wrong; decoder state leaked")
	}
	for i, x := range d.l {
		if math.Float32bits(x) != math.Float32bits(fresh.l[i]) {
			t.Fatalf("posterior[%d] after garbage %v, fresh decoder %v; decoder state leaked", i, x, fresh.l[i])
		}
	}
}

// TestLaneDecoderReuse is the layered twin of TestFloodingDecoderReuse.
func TestLaneDecoderReuse(t *testing.T) {
	decodeAfterGarbage(t, NewDecoder(MustNew(Rate23, 64)), rand.New(rand.NewSource(6)), 5)
}
