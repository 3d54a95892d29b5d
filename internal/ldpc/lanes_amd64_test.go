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

// Kernel-level differential tests: the assembly layer kernel and sign
// packs against the Go loops they replace, on identical state, compared
// bit for bit on every real lane after every layer.

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

func init() {
	if cpu.HasAVX2() {
		layerKernels = append(layerKernels, layerKernel{"avx2", func(d *Decoder, i int, first bool, scl, off float32) {
			a := d.newLayerArgs(scl, off)
			d.setLayer(&a, i, first)
			layerAVX2(&a)
		}})
	}
}

// diffDecoder is a Decoder whose kernel-written slabs sit between guard
// margins — l's past the zp floats of slack the vector pass 1 reads —
// plus the checks on those margins.
type diffDecoder struct {
	*Decoder
	intact []func() bool
}

func newDiffDecoder(c *Code) *diffDecoder {
	d := &diffDecoder{Decoder: NewDecoder(c)}
	d.intact = append(d.intact, guardPosteriors(d.Decoder))
	g := func(s *[]float32) {
		var ok func() bool
		*s, ok = guard(len(*s), float32(-12345.5))
		d.intact = append(d.intact, ok)
	}
	g(&d.r)
	g(&d.laneQ)
	g(&d.laneMin1)
	g(&d.laneMin2)
	var ok func() bool
	d.laneIdx, ok = guard(len(d.laneIdx), int32(0x5a5a5a5a))
	d.intact = append(d.intact, ok)
	d.laneSgn, ok = guard(len(d.laneSgn), uint32(0xa5a5a5a5))
	d.intact = append(d.intact, ok)
	d.hard, ok = guard(len(d.hard), uint64(0xa5a5a5a5a5a5a5a5))
	clear(d.hard)
	d.intact = append(d.intact, ok)
	// The sign pack writes only the bytes of a column's lanes; the rest
	// of its words stay at NewDecoder's zeros.
	d.signs, ok = guard(len(d.signs), uint64(0xa5a5a5a5a5a5a5a5))
	clear(d.signs)
	d.intact = append(d.intact, ok)
	return d
}

// seedState fills two decoders of one code with the same adversarial
// state on the real lanes of the posteriors, messages, Q slab and
// lane-state slabs (nastyFloat and random bits), different junk in lanes
// [Z, zp) of each, so that no real lane may depend on a junk one, and
// random hard decisions.
func seedState(rng *rand.Rand, a, b *diffDecoder) {
	c := a.code
	z, zp := c.Z, a.zp
	for _, d := range []*diffDecoder{a, b} {
		for _, s := range [][]float32{d.l, d.r, d.laneQ, d.laneMin1, d.laneMin2} {
			for i := range s {
				s[i] = nastyFloat(rng)
			}
		}
		for i := range d.laneIdx {
			d.laneIdx[i] = int32(rng.Uint32())
			d.laneSgn[i] = rng.Uint32()
		}
	}
	for _, s := range [][2][]float32{{a.l, b.l}, {a.r, b.r}, {a.laneQ, b.laneQ}, {a.laneMin1, b.laneMin1}, {a.laneMin2, b.laneMin2}} {
		for i := range s[0] {
			if i%zp < z {
				s[1][i] = s[0][i]
			}
		}
	}
	copy(b.laneIdx[:z], a.laneIdx)
	copy(b.laneSgn[:z], a.laneSgn)
	mask := blockMask(z, a.w)
	for i := range a.hard {
		a.hard[i] = rng.Uint64() & mask[i%len(mask)]
	}
	copy(b.hard, a.hard)
}

// compareState fails the test on the first real-lane bit that differs
// between the Go-kernel decoder g and the assembly-kernel decoder v, or
// when v wrote outside its slabs.
func compareState(t *testing.T, where string, g, v *diffDecoder) {
	t.Helper()
	z, zp := g.code.Z, g.zp
	for _, f := range []struct {
		name string
		a, b []float32
	}{
		{"q", g.laneQ, v.laneQ}, {"r", g.r, v.r}, {"l", g.l, v.l},
		{"min1", g.laneMin1, v.laneMin1}, {"min2", g.laneMin2, v.laneMin2},
	} {
		if i := lanesEqual(f.a, f.b, z, zp); i >= 0 {
			t.Fatalf("%s: %s[%d] go %#08x (%v) != asm %#08x (%v)", where, f.name, i,
				math.Float32bits(f.a[i]), f.a[i], math.Float32bits(f.b[i]), f.b[i])
		}
	}
	if !slices.Equal(g.laneSgn[:z], v.laneSgn[:z]) {
		t.Fatalf("%s: sgn differs\n go  %08x\n asm %08x", where, g.laneSgn[:z], v.laneSgn[:z])
	}
	if !slices.Equal(g.laneIdx[:z], v.laneIdx[:z]) {
		t.Fatalf("%s: idx differs\n go  %v\n asm %v", where, g.laneIdx[:z], v.laneIdx[:z])
	}
	if !slices.Equal(g.hard, v.hard) {
		t.Fatalf("%s: hard differs\n go  %016x\n asm %016x", where, g.hard, v.hard)
	}
	if gs, vs := g.satisfied(), v.satisfied(); gs != vs {
		t.Fatalf("%s: parity checks satisfied go %v != asm %v", where, gs, vs)
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
// layer starts from what the first one wrote and the differential shifts
// of both iterations' tables spread over [0, z) too. z = 1 (not a valid
// lifting size for New) is allowed.
func shiftCode(z, s int) *Code {
	sh := func(k int) int { return (s*k + k*k + z/2*(k&1)) % z }
	rows := [][]edge{
		{{0, s}, {3, sh(2)}, {7, sh(3)}, {KbBlocks, 0}},
		{{3, (z - s) % z}, {0, sh(5)}, {9, sh(7)}, {KbBlocks, 0}, {KbBlocks + 1, 0}},
	}
	return &Code{Z: z, Mb: 2, rows: rows}
}

// TestLayerKernelsAVX2 is the kernel differential: for every lifting size
// 1..40 (below 8, every multiple of 8 and both its neighbours) and
// 56, 57, 64, 65, 104, 384, 512 (past one word per block), every cyclic
// shift, both min-sum rules, it runs each layer of the first iteration's
// table and then of the later iterations' on the Go loops and on the
// assembly from the same adversarial state, and demands bit equality of
// the real lanes of q, r, l, sgn, min1, min2 and idx after each layer,
// with every slab and l's slack between poisoned margins. The end of the
// second iteration packs the hard decisions on both kernels; the packed
// words must agree, with every bit past Z 0.
func TestLayerKernelsAVX2(t *testing.T) {
	requireAVX2(t)
	var zs []int
	for z := 1; z <= 40; z++ {
		zs = append(zs, z)
	}
	zs = append(zs, 56, 57, 64, 65, 104, 384, 512)
	if testing.Short() {
		zs = []int{1, 2, 7, 8, 9, 10, 16, 24, 27, 33, 65, 104}
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
			for _, first := range []bool{true, false} {
				for i := range c.rows {
					where := fmt.Sprintf("Z=%d shift=%d first=%v layer %d", z, s, first, i)
					g.layer(i, first, scl, off)
					v.setLayer(&a, i, first)
					layerAVX2(&a)
					compareState(t, where, g, v)
				}
			}
			func() {
				defer forceGoKernels()()
				g.packHard()
			}()
			v.packHard()
			compareState(t, fmt.Sprintf("Z=%d shift=%d packHard", z, s), g, v)
		}
	}
}

// TestDecodeTrajectoryAVX2 runs whole decodes on real codes and compares
// the two kernels' full state after every iteration: the real lanes of
// the posteriors must stay bit-identical all the way, not just the
// decoded bits, and so must the packed hard decisions and the parity
// verdict.
// Inputs are a noisy codeword, pure noise, and a noisy codeword salted
// with non-finite and subnormal LLRs.
func TestDecodeTrajectoryAVX2(t *testing.T) {
	requireAVX2(t)
	zs := []int{2, 7, 8, 9, 10, 24, 27, 57, 65, 104, 384, 512}
	if testing.Short() {
		zs = []int{2, 7, 10, 27, 65, 104}
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
					func() {
						defer forceGoKernels()()
						g.loadLLR(llr)
					}()
					v.loadLLR(llr)
					for it := 1; it <= 6; it++ {
						func() {
							defer forceGoKernels()()
							g.iterateLayered(it == 1, scl, off)
							g.packHard()
						}()
						v.iterateLayeredAVX2(it == 1, scl, off)
						v.packHard()
						compareState(t, fmt.Sprintf("rate %v Z=%d input %d alg %d iteration %d", rate, z, li, alg, it), g, v)
					}
				}
			}
		}
	}
}
