package ldpc

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Decode's prologue returns a block whose channel hard decisions already
// satisfy every parity check with 0 iterations (DESIGN §13). The
// argument that this is exact: every check is satisfied by hard = x < 0,
// so in a min-sum pass each message to a variable carries that
// variable's own sign, x = q + r_new keeps its sign, and iterating would
// return the same bits. A −0.0 forces its check's min1 to 0, so only the
// zero-valued variable itself can receive a nonzero message, and that
// message is positive. These tests pin the argument against the decoder
// itself: one full layered iteration run from the same prologue flips no
// bit and leaves no check unsatisfied.
//
// NaN is excluded from the inputs: the hard decision reads a NaN as bit
// 0, but the sign product reads its sign bit, so a sign-set NaN turns a
// check's messages around and one iteration can flip the weakest
// variable of its check — while the prologue returns the channel
// decisions, which are a valid codeword. That difference is by design.

// codewordLLR returns LLRs whose hard decisions are the codeword cw: bit
// v takes the magnitude of the float32 bit pattern word(v) and the sign
// of its codeword bit (1 negative). A NaN magnitude becomes +Inf (see the
// NaN note above). A zero magnitude keeps word(v)'s own sign on a 0 bit,
// so both signed zeros occur; a 1 bit cannot be carried by a zero (−0.0
// is bit 0) and takes the smallest denormal instead.
func codewordLLR(cw []byte, word func(v int) uint32) []float32 {
	const inf = 0x7f800000
	llr := make([]float32, len(cw))
	for v, b := range cw {
		w := word(v)
		m := min(w&^laneSignMask, inf)
		switch {
		case b == 1 && m == 0:
			m = 1 | laneSignMask
		case b == 1:
			m |= laneSignMask
		case m == 0:
			m = w & laneSignMask
		}
		llr[v] = math.Float32frombits(m)
	}
	return llr
}

// codewordMag draws an LLR magnitude's bit pattern, with a random sign
// bit for codewordLLR to use on zeros: a few small values (so arg-min
// ties are common), Gaussian magnitudes, and the edge cases — ±0, the
// smallest and largest denormals, MaxFloat32 and +Inf.
func codewordMag(rng *rand.Rand) uint32 {
	var m float32
	switch p := rng.Intn(10); {
	case p < 4:
		m = []float32{0.25, 0.5, 1, 2}[rng.Intn(4)]
	case p < 7:
		m = float32(4 * rng.NormFloat64())
	default:
		edge := []uint32{0, 0x00000001, 0x007fffff, 0x7f7fffff, 0x7f800000}
		m = math.Float32frombits(edge[rng.Intn(len(edge))])
	}
	return math.Float32bits(m) ^ uint32(rng.Intn(2))<<31
}

// checkCodewordShortcut decodes llr, whose hard decisions must be a
// codeword, under rule alg on a decoder that has just decoded a garbage
// block: Decode must report 0 iterations and the
// channel decisions' information bits. Then one full layered iteration
// runs from the state that prologue left, on the kernels the dispatch
// selects (the Go loops under forceGoKernels), and must flip no hard
// decision and leave every check satisfied.
func checkCodewordShortcut(t *testing.T, where string, code *Code, alg Alg, llr []float32) {
	t.Helper()
	d := NewDecoder(code)
	d.Alg = alg
	hard := make([]byte, code.N())
	for v, x := range llr {
		if x < 0 {
			hard[v] = 1
		}
	}
	if !checkSyndrome(code, hard) {
		t.Fatalf("%s: input is not a codeword", where)
	}
	got := make([]byte, code.K())
	// Decode a garbage block first, so that no state the check below
	// reads is still at NewDecoder's zeros (which happen to be a
	// codeword's decisions): the prologue must rebuild hard.
	d.Decode(got, garbageLLR(rand.New(rand.NewSource(1)), code), 2)
	if res := d.Decode(got, llr, 5); res != (Result{Iterations: 0, OK: true}) {
		t.Fatalf("%s: codeword decoded with %+v, want 0 iterations", where, res)
	}
	if !bytes.Equal(got, hard[:code.K()]) {
		t.Fatalf("%s: 0-iteration bits differ from the channel decisions", where)
	}
	iterate := simdIterate
	if iterate == nil {
		iterate = (*Decoder).iterateLayered
	}
	scl, off := d.magnitudeRule()
	iterate(d, true, scl, off)
	d.packHard()
	if !bytes.Equal(hardBits(d), hard) {
		t.Fatalf("%s: one iteration flipped a hard decision of a codeword", where)
	}
	if !d.satisfied() {
		t.Fatalf("%s: one iteration left a check unsatisfied", where)
	}
}

// TestCodewordShortcutExact runs checkCodewordShortcut over the lifting
// sweep, every rate and both min-sum rules, on the Go loops and — where
// init selected them — the vector layer kernels, each in a subtest named
// after Kernel().
func TestCodewordShortcutExact(t *testing.T) {
	restore := forceGoKernels()
	t.Run(Kernel(), testCodewordShortcutExact)
	restore()
	if simdIterate != nil {
		t.Run(Kernel(), testCodewordShortcutExact)
	}
}

func testCodewordShortcutExact(t *testing.T) {
	zs := laneSweepZ
	if testing.Short() {
		zs = laneSweepZShort
	}
	rng := rand.New(rand.NewSource(25))
	for _, rate := range []Rate{Rate13, Rate23, Rate89} {
		for _, z := range zs {
			code := MustNew(rate, z)
			cw := make([]byte, code.N())
			for k := 0; k < 3; k++ {
				code.Encode(cw, randInfo(rng, code.K()))
				llr := codewordLLR(cw, func(int) uint32 { return codewordMag(rng) })
				for _, alg := range []Alg{OffsetMinSum, NormalizedMinSum} {
					checkCodewordShortcut(t, fmt.Sprintf("rate %v Z=%d input %d alg=%d", rate, z, k, alg), code, alg, llr)
				}
			}
		}
	}
}
