package ldpc

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// checkSyndrome is the textbook parity check refDecode stops on: it
// reports whether the hard-decision bits (one per byte) satisfy every
// parity equation, walking code.rows with a modular index per edge.
func checkSyndrome(c *Code, bits []byte) bool {
	z := c.Z
	for i := 0; i < c.Mb; i++ {
		for r := 0; r < z; r++ {
			var s byte
			for _, e := range c.rows[i] {
				s ^= bits[e.col*z+(r+e.shift)%z]
			}
			if s != 0 {
				return false
			}
		}
	}
	return true
}

// hardBits unpacks a decoder's packed hard decisions to one bit per
// byte, N() of them.
func hardBits(d *Decoder) []byte {
	z, w := d.code.Z, d.w
	out := make([]byte, d.code.N())
	for v := range out {
		c, j := v/z, v%z
		out[v] = byte(d.hard[c*w+j/64] >> (j % 64) & 1)
	}
	return out
}

// blockMask returns, per word of a block's stride, the bits below z.
func blockMask(z, w int) []uint64 {
	m := make([]uint64, w)
	for j := 0; j < z; j++ {
		m[j/64] |= 1 << (j % 64)
	}
	return m
}

// checkPackedTails fails the test unless the bits at and past Z of every
// block-column of hard are 0.
func checkPackedTails(t *testing.T, where string, d *Decoder) {
	t.Helper()
	mask := blockMask(d.code.Z, d.w)
	for i, x := range d.hard {
		if x&^mask[i%len(mask)] != 0 {
			t.Fatalf("%s: hard word %d has bits past Z: %016x", where, i, x)
		}
	}
}

// guard allocates an n-element slice inside a larger array whose margins
// hold a sentinel, so that a kernel writing outside its slab is caught.
func guard[T comparable](n int, sentinel T) (s []T, intact func() bool) {
	return guardMargin(n, 16, sentinel)
}

// guardMargin is guard with margin sentinel elements on each side.
func guardMargin[T comparable](n, margin int, sentinel T) (s []T, intact func() bool) {
	buf := make([]T, n+2*margin)
	for i := range buf {
		buf[i] = sentinel
	}
	return buf[margin : margin+n : margin+n], func() bool {
		for i := 0; i < margin; i++ {
			if buf[i] != sentinel || buf[margin+n+i] != sentinel {
				return false
			}
		}
		return true
	}
}

// guardPosteriors replaces d.l with a slab of the same size whose zp
// floats of slack on either side, which the vector pass 1 reads but must
// never write, and 16 more past them hold a sentinel; intact reports
// whether they still do.
func guardPosteriors(d *Decoder) (intact func() bool) {
	var ok func() bool
	d.l, ok = guardMargin(len(d.l), d.zp+16, float32(-12345.5))
	return ok
}

// floatBitsEqual returns the first index at which a and b differ in
// their bits, or -1.
func floatBitsEqual(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// lanesEqual is floatBitsEqual over the real lanes of two padded slabs:
// indexes i with i mod zp below z. Lanes [z, zp) are junk the kernels
// may leave different.
func lanesEqual(a, b []float32, z, zp int) int {
	for i := range a {
		if i%zp < z && math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// refDecode is the test oracle: textbook check-major layered min-sum,
// written straight from the base graph. It walks code.rows with modular
// indexing, keeps its own messages (msg[i][check*deg+edge]) and detects
// convergence with a full hard-decision pass and a checkSyndrome walk
// every iteration — and, as textbook BP's step 0, once on the channel
// decisions before the first, returning 0 iterations on a codeword. It
// shares none of the decoder's edge tables, rotated lane-major layout or
// packed syndrome walk, so a bug in those cannot hide in both sides.
func refDecode(code *Code, alg Alg, offset, scale float32, info []byte, llr []float32, maxIter int) Result {
	l := append([]float32(nil), llr...)
	hard := make([]byte, len(l))
	for v, x := range l {
		if x < 0 {
			hard[v] = 1
		}
	}
	if checkSyndrome(code, hard) {
		copy(info, hard[:code.K()])
		return Result{Iterations: 0, OK: true}
	}
	msg := refMessages(code)
	res := Result{}
	for it := 1; it <= maxIter; it++ {
		res.Iterations = it
		for i := range code.rows {
			refLayer(code, alg, offset, scale, l, msg[i], i)
		}
		for v, x := range l {
			hard[v] = 0
			if x < 0 {
				hard[v] = 1
			}
		}
		if checkSyndrome(code, hard) {
			res.OK = true
			break
		}
	}
	copy(info, hard[:code.K()])
	return res
}

// refMessages returns refDecode's zeroed message arrays, one per
// block-row.
func refMessages(code *Code) [][]float32 {
	msg := make([][]float32, len(code.rows))
	for i, row := range code.rows {
		msg[i] = make([]float32, code.Z*len(row))
	}
	return msg
}

// refLayer is refDecode's block-row i on the natural-order posteriors l
// and the row's messages m: every check r runs the min-sum update on the
// variables (r+shift) mod Z of its edges.
func refLayer(code *Code, alg Alg, offset, scale float32, l, m []float32, i int) {
	z := code.Z
	row := code.rows[i]
	q := make([]float32, len(row))
	for r := 0; r < z; r++ {
		mr := m[r*len(row) : (r+1)*len(row)]
		min1, min2, arg, sign := float32(laneInitLLR), float32(laneInitLLR), -1, float32(1)
		for e, ed := range row {
			q[e] = l[ed.col*z+(r+ed.shift)%z] - mr[e]
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
			mr[e] = s * mag
			l[ed.col*z+(r+ed.shift)%z] = q[e] + mr[e]
		}
	}
}

// layerKernel is one implementation of a layer, named as Kernel() names
// it.
type layerKernel struct {
	name  string
	layer func(d *Decoder, i int, first bool, scl, off float32)
}

// layerKernels are the implementations of one layer the tests run: the
// Go loops here, the vector kernel where lanes_amd64_test.go adds it.
var layerKernels = []layerKernel{{"generic", (*Decoder).layer}}

// TestLayersMatchTextbook runs the decoder one layer at a time beside
// refLayer on natural-order posteriors, on every kernel in layerKernels:
// before each layer every edge's layout entry must be the differential
// shift from the rotation the test tracks for its column (0 at the
// unrotated load, then the shift of the edge that last wrote it), after
// each layer every column rotated back by that rotation must equal the
// textbook posteriors bit for bit, and after the first iteration the
// tracked rotations must be the decoder's sLast. Lifting sizes cover
// Z < 8, multiples of 8, 8k±1 and multi-word blocks.
func TestLayersMatchTextbook(t *testing.T) {
	zs := []int{2, 5, 7, 8, 9, 15, 16, 17, 27, 64, 65, 104}
	rng := rand.New(rand.NewSource(31))
	for _, rate := range []Rate{Rate13, Rate23, Rate89} {
		for _, z := range zs {
			code := MustNew(rate, z)
			llr := harshLLR(rng, code, rate)
			for _, k := range layerKernels {
				for _, alg := range []Alg{OffsetMinSum, NormalizedMinSum} {
					where := fmt.Sprintf("%s rate %v Z=%d alg=%d", k.name, rate, z, alg)
					checkLayersTextbook(t, where, code, alg, llr, k.layer)
				}
			}
		}
	}
}

func checkLayersTextbook(t *testing.T, where string, code *Code, alg Alg, llr []float32, layer func(d *Decoder, i int, first bool, scl, off float32)) {
	t.Helper()
	z := code.Z
	d := NewDecoder(code)
	d.Alg = alg
	d.loadLLR(llr)
	scl, off := d.magnitudeRule()
	ref := append([]float32(nil), llr...)
	msg := refMessages(code)
	rot := make([]int, KbBlocks+code.Mb)
	for it := 1; it <= 3; it++ {
		for i, row := range code.rows {
			for e, en := range row {
				dd := (en.shift - rot[en.col] + z) % z
				want := layerEdge{rd: en.col*d.zp + dd, wr: en.col * d.zp, t: z - 1 - dd}
				if got := d.layerEdges(i, it == 1)[e]; got != want {
					t.Fatalf("%s iteration %d layer %d edge %d: layout %+v, want %+v", where, it, i, e, got, want)
				}
			}
			layer(d, i, it == 1, scl, off)
			refLayer(code, alg, d.Offset, d.Scale, ref, msg[i], i)
			for _, en := range row {
				rot[en.col] = en.shift
			}
			for c := range rot {
				for j := 0; j < z; j++ {
					got := d.l[c*d.zp+(j-rot[c]+z)%z]
					if want := ref[c*z+j]; math.Float32bits(got) != math.Float32bits(want) {
						t.Fatalf("%s iteration %d layer %d: variable (%d, %d) is %v, textbook %v", where, it, i, c, j, got, want)
					}
				}
			}
		}
		if !slices.Equal(rot, d.sLast) {
			t.Fatalf("%s: rotations after iteration %d are %v, sLast %v", where, it, rot, d.sLast)
		}
	}
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

// TestFusedSyndromeExact pins the per-iteration syndrome (the packed
// hard decisions, rotated back to natural order, and satisfied's walk):
// it must stop on the same iteration, with the same verdict, as
// refDecode's full hard-decision pass and checkSyndrome walk, and after
// every decode checkSyndrome of the final hard decisions, unpacked, must
// agree with the verdict.
func TestFusedSyndromeExact(t *testing.T) {
	t.Run(Kernel(), func(t *testing.T) {
		referenceSweep(t, 18, func(where string, d *Decoder, _, _ []byte, res, ref Result) {
			if res != ref {
				t.Fatalf("%s: packed %+v != walked %+v", where, res, ref)
			}
			if ok := checkSyndrome(d.code, hardBits(d)); ok != res.OK || ok != d.satisfied() {
				t.Fatalf("%s: decode OK=%v, satisfied=%v, but checkSyndrome=%v", where, res.OK, d.satisfied(), ok)
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
	if i := lanesEqual(d.l, fresh.l, code.Z, d.zp); i >= 0 {
		t.Fatalf("posterior[%d] after garbage %v, fresh decoder %v; decoder state leaked", i, d.l[i], fresh.l[i])
	}
}

// TestLaneDecoderReuse runs decodeAfterGarbage on one decoder.
func TestLaneDecoderReuse(t *testing.T) {
	decodeAfterGarbage(t, NewDecoder(MustNew(Rate23, 64)), rand.New(rand.NewSource(6)), 5)
}

// signRuleBits are the float32 bit patterns the hard-decision rule x < 0
// can get wrong: ±0, NaNs of both signs with and without payloads, ±Inf,
// denormals (0x80000001 is the negative value nearest −0), ±MaxFloat32
// and ±1.
var signRuleBits = []uint32{
	0x00000000, 0x80000000,
	0x7fc00000, 0xffc00000, 0x7fc12345, 0xffc54321, 0x7f800001, 0xff800001, 0x7fffffff, 0xffffffff,
	0x7f800000, 0xff800000,
	0x00000001, 0x80000001, 0x007fffff, 0x807fffff,
	0x7f7fffff, 0xff7fffff,
	0x3f800000, 0xbf800000,
}

// TestLoadLLRSignRule pins loadLLR's packed hard decisions to the byte
// rule x < 0 (−0.0 and every NaN are bit 0) and its posterior copy to
// the input bits: every signRuleBits pattern at every lane of a
// block-column, for every lifting size 2…65 (each block length residue
// mod 8 and mod 64) and the multi-word sizes 104, 127–129 and 384, on a
// decoder whose previous block set every bit. It runs on the Go loop and
// — where init selected it — the vector sign pack, each in a subtest
// named after Kernel().
func TestLoadLLRSignRule(t *testing.T) {
	restore := forceGoKernels()
	t.Run(Kernel(), testLoadLLRSignRule)
	restore()
	if simdLoad != nil {
		t.Run(Kernel(), testLoadLLRSignRule)
	}
}

func testLoadLLRSignRule(t *testing.T) {
	var zs []int
	for z := 2; z <= 65; z++ {
		zs = append(zs, z)
	}
	zs = append(zs, 104, 127, 128, 129, 384)
	for _, z := range zs {
		code := MustNew(Rate89, z)
		d := NewDecoder(code)
		negative := make([]float32, code.N())
		for v := range negative {
			negative[v] = -1
		}
		llr := make([]float32, code.N())
		for k := range signRuleBits {
			for v := range llr {
				llr[v] = math.Float32frombits(signRuleBits[(v+k)%len(signRuleBits)])
			}
			d.loadLLR(negative)
			d.loadLLR(llr)
			where := fmt.Sprintf("Z=%d rotation %d", z, k)
			hard := hardBits(d)
			for v, x := range llr {
				if want := x < 0; (hard[v] == 1) != want {
					t.Fatalf("%s: variable %d (%#08x) hard bit %d, want x < 0 = %v", where, v, math.Float32bits(x), hard[v], want)
				}
				if got := d.l[v/z*d.zp+v%z]; math.Float32bits(got) != math.Float32bits(x) {
					t.Fatalf("%s: posterior %d is %#08x, loaded %#08x", where, v, math.Float32bits(got), math.Float32bits(x))
				}
			}
			checkPackedTails(t, where, d)
		}
	}
}
