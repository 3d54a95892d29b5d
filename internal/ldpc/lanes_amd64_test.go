//go:build amd64 && !purego

package ldpc

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cpu"
)

// Kernel-level differential tests: the assembly layer kernels against the
// Go loops they replace, on identical state, compared bit for bit after
// every step of every layer.

func requireAVX2(t testing.TB) {
	if !cpu.HasAVX2() {
		t.Skip("CPU or OS without AVX2")
	}
}

// TestLaneInitConstant pins the assembly's copy of laneInitLLR.
func TestLaneInitConstant(t *testing.T) {
	if got := math.Float32bits(laneInitLLR); got != 0x7f7fc99e {
		t.Fatalf("laneInitLLR bits %#x; update laneInit<> in lanes_amd64.s", got)
	}
}

// nastyFloat draws from the values a kernel can get wrong: a small set of
// magnitudes (so that equal |q| across edges — arg-min ties — and exact
// cancellations are common), signed zeros, infinities, quiet and
// signalling NaNs of both signs with payloads, denormals, and ordinary
// noise.
func nastyFloat(rng *rand.Rand) float32 {
	switch p := rng.Intn(100); {
	case p < 45:
		v := []float32{0.5, 1, 1, 2, 2, 3.25}[rng.Intn(6)]
		if rng.Intn(2) == 0 {
			v = -v
		}
		return v
	case p < 80:
		return float32(4 * rng.NormFloat64())
	default:
		bits := []uint32{
			0x00000000, 0x80000000, // ±0
			0x7f800000, 0xff800000, // ±Inf
			0x7fc00000, 0xffc00000, 0x7fc12345, 0xffc54321, // quiet NaNs
			0x7f800001, 0xffa00000, // signalling NaNs
			0x00000001, 0x80000001, 0x007fffff, 0x807fffff, // denormals
			0x7f7fffff, 0xff7fffff, // ±MaxFloat32
		}
		return math.Float32frombits(bits[rng.Intn(len(bits))])
	}
}

// diffDecoder is a Decoder whose kernel-written slabs sit between guard
// margins, plus the checks on those margins.
type diffDecoder struct {
	*Decoder
	intact []func() bool
}

func newDiffDecoder(c *Code) *diffDecoder {
	d := &diffDecoder{Decoder: NewDecoder(c)}
	g := func(s *[]float32) {
		var ok func() bool
		*s, ok = guard(len(*s), float32(-12345.5))
		d.intact = append(d.intact, ok)
	}
	g(&d.l)
	g(&d.r)
	g(&d.laneQ)
	g(&d.laneMin1)
	g(&d.laneMin2)
	var ok func() bool
	d.laneIdx, ok = guard(len(d.laneIdx), int32(0x5a5a5a5a))
	d.intact = append(d.intact, ok)
	d.laneSgn, ok = guard(len(d.laneSgn), uint32(0xa5a5a5a5))
	d.intact = append(d.intact, ok)
	// The layer kernels only read hard, never past a block-column's
	// words; inside them it starts at NewDecoder's zeros.
	d.hard, ok = guard(len(d.hard), uint64(0xa5a5a5a5a5a5a5a5))
	clear(d.hard)
	d.intact = append(d.intact, ok)
	return d
}

// seedState fills two decoders of one code with the same adversarial
// state: posteriors and messages from nastyFloat, hard decisions that
// disagree with the posterior signs about half the time (so flips are
// dense), garbage in every lane-state slab, and a syndrome consistent
// with the hard decisions.
func seedState(rng *rand.Rand, a, b *diffDecoder) {
	c := a.code
	for i := range a.l {
		a.l[i] = nastyFloat(rng)
	}
	for i := range a.r {
		a.r[i] = nastyFloat(rng)
	}
	mask := blockMask(c.Z, a.syn.w)
	for i := range a.hard {
		a.hard[i] = rng.Uint64() & mask[i%len(mask)]
	}
	for i := range a.laneQ {
		a.laneQ[i] = nastyFloat(rng)
	}
	for i := range a.laneMin1 {
		a.laneMin1[i] = nastyFloat(rng)
		a.laneMin2[i] = nastyFloat(rng)
		a.laneIdx[i] = int32(rng.Uint32())
		a.laneSgn[i] = rng.Uint32()
	}
	a.syn.init(c, a.hard)
	copy(b.l, a.l)
	copy(b.r, a.r)
	copy(b.hard, a.hard)
	copy(b.laneQ, a.laneQ)
	copy(b.laneMin1, a.laneMin1)
	copy(b.laneMin2, a.laneMin2)
	copy(b.laneIdx, a.laneIdx)
	copy(b.laneSgn, a.laneSgn)
	b.syn.init(c, b.hard)
}

// compareState fails the test on the first bit that differs between the
// Go-kernel decoder g and the assembly-kernel decoder v.
func compareState(t *testing.T, where string, g, v *diffDecoder) {
	t.Helper()
	for _, f := range []struct {
		name string
		a, b []float32
	}{
		{"q", g.laneQ, v.laneQ}, {"r", g.r, v.r}, {"l", g.l, v.l},
		{"min1", g.laneMin1, v.laneMin1}, {"min2", g.laneMin2, v.laneMin2},
	} {
		if i := floatBitsEqual(f.a, f.b); i >= 0 {
			t.Fatalf("%s: %s[%d] go %#08x (%v) != asm %#08x (%v)", where, f.name, i,
				math.Float32bits(f.a[i]), f.a[i], math.Float32bits(f.b[i]), f.b[i])
		}
	}
	if !slices.Equal(g.laneSgn, v.laneSgn) {
		t.Fatalf("%s: sgn differs\n go  %08x\n asm %08x", where, g.laneSgn, v.laneSgn)
	}
	if !slices.Equal(g.laneIdx, v.laneIdx) {
		t.Fatalf("%s: idx differs\n go  %v\n asm %v", where, g.laneIdx, v.laneIdx)
	}
	if !slices.Equal(g.hard, v.hard) {
		t.Fatalf("%s: hard differs\n go  %016x\n asm %016x", where, g.hard, v.hard)
	}
	if !slices.Equal(g.syn.synd, v.syn.synd) {
		t.Fatalf("%s: synd differs\n go  %016x\n asm %016x", where, g.syn.synd, v.syn.synd)
	}
	if g.syn.nUnsat != v.syn.nUnsat {
		t.Fatalf("%s: nUnsat go %d != asm %d", where, g.syn.nUnsat, v.syn.nUnsat)
	}
	for i, ok := range v.intact {
		if !ok() {
			t.Fatalf("%s: assembly kernel wrote outside slab %d", where, i)
		}
	}
	checkPackedTails(t, where, g.Decoder)
}

// shiftCode builds a two-layer code over lifting size z whose first edge
// has cyclic shift s and whose other edges take shifts spread over
// [0, z), sharing block-columns between the layers so that the second
// layer starts from what the first one wrote. z = 1 (not a valid lifting
// size for New) is allowed: it is the degenerate segment pair (1, 0).
func shiftCode(z, s int) *Code {
	sh := func(k int) int { return (s*k + k*k + z/2*(k&1)) % z }
	rows := [][]edge{
		{{0, s}, {3, sh(2)}, {7, sh(3)}, {KbBlocks, 0}},
		{{3, (z - s) % z}, {0, sh(5)}, {9, sh(7)}, {KbBlocks, 0}, {KbBlocks + 1, 0}},
	}
	return &Code{Z: z, Mb: 2, rows: rows, numEdges: 9}
}

// TestLayerKernelsAVX2 is the kernel differential: for every lifting size
// 1..40 (hence every pair of segment lengths from 0 to 40) and the
// benchmark/paper sizes, every cyclic shift, both min-sum rules, it runs
// each layer step on the Go loops and on the assembly from the same
// adversarial state and demands bit equality of q, r, l, sgn, min1, min2,
// idx, the packed hard and synd words and nUnsat after each step, with
// every bit past Z still 0.
func TestLayerKernelsAVX2(t *testing.T) {
	requireAVX2(t)
	var zs []int
	for z := 1; z <= 40; z++ {
		zs = append(zs, z)
	}
	zs = append(zs, 104, 384, 512)
	if testing.Short() {
		zs = []int{1, 2, 7, 8, 9, 10, 16, 24, 27, 33, 104}
	}
	rng := rand.New(rand.NewSource(19))
	for _, z := range zs {
		for s := 0; s < z; s++ {
			c := shiftCode(z, s)
			g, v := newDiffDecoder(c), newDiffDecoder(c)
			seedState(rng, g, v)
			scl, off := float32(1), float32(0.5)
			if s&1 == 1 {
				scl, off = 0.75, 0
			}
			a := v.newLayerArgs(scl, off)
			for i := range c.rows {
				where := fmt.Sprintf("Z=%d shift=%d layer %d", z, s, i)
				v.setLayer(&a, i)
				g.layerReduce(i)
				layerReduceAVX2(&a)
				compareState(t, where+" after reduce", g, v)
				g.layerMag(scl, off)
				layerMagAVX2(&a)
				compareState(t, where+" after magnitude", g, v)
				g.layerUpdateSyn(i)
				layerUpdateAVX2(&a)
				v.applyFlips(a.nflips)
				compareState(t, where+" after update", g, v)
			}
		}
	}
}

// TestDecodeTrajectoryAVX2 runs whole decodes on real codes and compares
// the two kernels' full state after every iteration: the posterior array
// must stay bit-identical all the way, not just the decoded bits. Inputs
// are a noisy codeword, pure noise, and a noisy codeword salted with
// non-finite and denormal LLRs.
func TestDecodeTrajectoryAVX2(t *testing.T) {
	requireAVX2(t)
	zs := []int{2, 7, 8, 10, 24, 27, 104, 384, 512}
	if testing.Short() {
		zs = []int{2, 7, 10, 27, 104}
	}
	rng := rand.New(rand.NewSource(23))
	for _, rate := range []Rate{Rate13, Rate23, Rate89} {
		for _, z := range zs {
			code := MustNew(rate, z)
			salted := noisyLLR(rng, code)
			for k := 0; k < len(salted)/16+1; k++ {
				salted[rng.Intn(len(salted))] = nastyFloat(rng)
			}
			for li, llr := range [][]float32{harshLLR(rng, code, rate), garbageLLR(rng, code), salted} {
				for _, alg := range []Alg{OffsetMinSum, NormalizedMinSum} {
					g, v := newDiffDecoder(code), newDiffDecoder(code)
					g.Alg = alg
					scl, off := g.magnitudeRule()
					for _, d := range []*diffDecoder{g, v} {
						d.loadLLR(llr)
						d.syn.init(code, d.hard)
					}
					for it := 1; it <= 6; it++ {
						g.iterateLayered(scl, off)
						v.iterateLayeredAVX2(scl, off)
						compareState(t, fmt.Sprintf("rate %v Z=%d input %d alg %d iteration %d", rate, z, li, alg, it), g, v)
					}
				}
			}
		}
	}
}
