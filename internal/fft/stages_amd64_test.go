//go:build amd64 && !purego

package fft

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cf"
	"repro/internal/cpu"
)

// Kernel-level differential tests: the assembly stage kernels against the
// Go loops they replace, on identical data, compared bit for bit after
// every stage, and the public entry points on both implementations.

func requireAVX2(t testing.TB) {
	if !cpu.HasAVX2() {
		t.Skip("CPU or OS without AVX2")
	}
}

// nastyFloat draws from the values a butterfly can get wrong: ordinary
// noise, exact small values (so that sums cancel to ±0), signed zeros,
// infinities, denormals, magnitudes whose sums overflow or whose products
// underflow, and — when nans is set — quiet and signalling NaNs of both
// signs with payloads.
func nastyFloat(rng *rand.Rand, nans bool) float32 {
	switch p := rng.Intn(100); {
	case p < 40:
		return float32(rng.NormFloat64())
	case p < 65:
		v := []float32{0.5, 1, 1, 2, 3.25}[rng.Intn(5)]
		if rng.Intn(2) == 0 {
			v = -v
		}
		return v
	default:
		bits := []uint32{
			0x00000000, 0x80000000, // ±0
			0x7f800000, 0xff800000, // ±Inf
			0x00000001, 0x80000001, 0x007fffff, 0x807fffff, // denormals
			0x7f7fffff, 0xff7fffff, 0x7f000000, 0xfe800000, // huge: sums overflow
			0x00800000, 0x80800000, 0x0c000000, 0x8c000000, // tiny: products underflow
		}
		if nans {
			bits = append(bits,
				0x7fc00000, 0xffc00000, 0x7fc12345, 0xffc54321, // quiet NaNs
				0x7f800001, 0xffa00000) // signalling NaNs
		}
		return math.Float32frombits(bits[rng.Intn(len(bits))])
	}
}

// guardPair returns two n-sample buffers with identical contents from
// nastyFloat, each inside a larger array whose margins hold a sentinel,
// and a check that the second one's margins (the assembly's) are intact.
func guardPair(rng *rand.Rand, n int, nans bool) (g, v []complex64, intact func() bool) {
	const margin = 16
	sentinel := complex(float32(-12345.5), float32(54321.25))
	bg := make([]complex64, n+2*margin)
	bv := make([]complex64, n+2*margin)
	for i := range bv {
		bg[i], bv[i] = sentinel, sentinel
	}
	g = bg[margin : margin+n : margin+n]
	v = bv[margin : margin+n : margin+n]
	for i := range g {
		g[i] = complex(nastyFloat(rng, nans), nastyFloat(rng, nans))
		v[i] = g[i]
	}
	return g, v, func() bool {
		for i := 0; i < margin; i++ {
			if bv[i] != sentinel || bv[margin+n+i] != sentinel {
				return false
			}
		}
		return true
	}
}

func requireSame(t *testing.T, where string, g, v []complex64, nans bool, intact func() bool) {
	t.Helper()
	if i := firstDiff(g, v, nans); i >= 0 {
		t.Fatalf("%s: sample %d go (%#08x, %#08x) != asm (%#08x, %#08x)", where, i,
			math.Float32bits(real(g[i])), math.Float32bits(imag(g[i])),
			math.Float32bits(real(v[i])), math.Float32bits(imag(v[i])))
	}
	if !intact() {
		t.Fatalf("%s: assembly kernel wrote outside its buffer", where)
	}
}

// TestStageKernelsAVX2 is the stage differential: for every power of two
// 4..4096, both directions, with and without the folded 1/n, it runs
// every stage of the schedule on the Go loop and on the assembly from the
// same fresh adversarial data and demands equal bits. NaN-free data
// (which still breeds NaNs, from Inf−Inf) must match exactly; data with
// NaN payloads matches up to the payload (see firstDiff).
func TestStageKernelsAVX2(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(29))
	for n := 4; n <= 4096; n *= 2 {
		p := MustPlan(n)
		inv := float32(1) / float32(n)
		for _, mode := range []int{0, modeInverse, modeInverse | modeScale} {
			inverse := mode&modeInverse != 0
			tw4, tw2 := p.twiddles(inverse)
			for _, nans := range []bool{false, true} {
				for rep := 0; rep < 4; rep++ {
					where := fmt.Sprintf("n=%d mode=%d nans=%v", n, mode, nans)
					if n >= 8 && mode&modeScale == 0 {
						g, v, intact := guardPair(rng, n, nans)
						stageFirst4(g, inverse)
						stageFirst4AVX2(&v[0], n, mode)
						requireSame(t, where+" first stage", g, v, nans, intact)
					}
					off := 0
					for l := 4; 4*l <= p.radix4Span(); l *= 4 {
						// Only the schedule's last stage ever scales.
						last := tw2 == nil && 4*l == p.radix4Span()
						if mode&modeScale == 0 || last {
							g, v, intact := guardPair(rng, n, nans)
							stageTwiddle4(g, l, tw4[off:off+3*l], inverse)
							if mode&modeScale != 0 {
								cf.Scale(g, inv)
							}
							stageTwiddle4AVX2(&v[0], n, l, &tw4[off], mode, inv)
							requireSame(t, fmt.Sprintf("%s radix-4 stage l=%d", where, l), g, v, nans, intact)
						}
						off += 3 * l
					}
					if tw2 != nil && n >= 8 {
						g, v, intact := guardPair(rng, n, nans)
						stageLast2(g, tw2)
						if mode&modeScale != 0 {
							cf.Scale(g, inv)
						}
						stageLast2AVX2(&v[0], n, &tw2[0], mode, inv)
						requireSame(t, where+" radix-2 stage", g, v, nans, intact)
					}
				}
			}
		}
	}
}

// TestButterfliesAVX2 runs the whole schedule through both drivers, on
// adversarial data and on ordinary signals, for every size 2..4096 — 2 and
// 4 have no vector stage at all and 8 mixes vector and Go stages, so the
// per-stage fallback and the placement of the folded scale are covered at
// each boundary.
func TestButterfliesAVX2(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(31))
	for n := 2; n <= 4096; n *= 2 {
		p := MustPlan(n)
		for _, dir := range []struct{ inverse, scale bool }{{false, false}, {true, false}, {true, true}} {
			for _, nans := range []bool{false, true} {
				g, v, intact := guardPair(rng, n, nans)
				if !nans {
					copy(g, randSignal(rng, n))
					copy(v, g)
				}
				p.stages4(g, dir.inverse)
				if dir.scale {
					cf.Scale(g, float32(1)/float32(n))
				}
				p.butterfliesAVX2(v, dir.inverse, dir.scale)
				requireSame(t, fmt.Sprintf("n=%d inverse=%v scale=%v nans=%v", n, dir.inverse, dir.scale, nans),
					g, v, nans, intact)
			}
		}
	}
}

// iq12Payload packs total samples whose components walk the whole 12-bit
// range: sample k carries I = k+shift and Q = 3k+shift+1365 (mod 4096,
// two's complement), so over 4096 samples every value occurs in both
// components, and shift 0/1 moves each value between even and odd sample
// positions.
func iq12Payload(total, shift int) []byte {
	iq := make([]int16, 2*total)
	for k := 0; k < total; k++ {
		iq[2*k] = int16((k+shift)&0xFFF) - 2048
		iq[2*k+1] = int16((3*k+shift+1365)&0xFFF) - 2048
	}
	payload := make([]byte, total*cf.BytesPerIQ)
	cf.PackIQ12(payload, iq)
	return payload
}

// TestUnpackIQ12AVX2 compares the vector front end with the gather it
// replaces, slot for slot: every size (below 16 the driver itself falls
// back), every cpLen mod 8 — hence every byte alignment of the first
// sample and of the four quarter streams — the all-values payloads and
// random bytes, with the payload ending exactly at the last sample so the
// kernel's 16-byte loads have no slack to hide in.
func TestUnpackIQ12AVX2(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(37))
	for n := 2; n <= 4096; n *= 2 {
		p := MustPlan(n)
		for cp := 0; cp <= 9; cp++ {
			payloads := [][]byte{iq12Payload(cp+n, 0), iq12Payload(cp+n, 1), make([]byte, (cp+n)*cf.BytesPerIQ)}
			rng.Read(payloads[2])
			for pi, payload := range payloads {
				g, v, intact := guardPair(rng, n, false)
				p.gatherIQ12(g, payload, cp)
				p.loadIQ12AVX2(v, payload, cp)
				requireSame(t, fmt.Sprintf("n=%d cp=%d payload %d", n, cp, pi), g, v, false, intact)
			}
		}
	}
}

// TestEntryPointsAVX2 drives every public transform on both
// implementations and demands identical spectra: Forward, Inverse, the
// TX transform InverseBand on both band layouts, and the fused IQ12
// front ends.
func TestEntryPointsAVX2(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(41))
	for n := 2; n <= 4096; n *= 2 {
		p := MustPlan(n)
		const lanes, cp = 3, 5
		stride := n + 7
		x := randSignal(rng, (lanes-1)*stride+n)
		lo, width := n/8, n-n/4
		band := randSignal(rng, lanes*width)
		payloads := make([][]byte, lanes)
		for l := range payloads {
			payloads[l] = make([]byte, (cp+n)*cf.BytesPerIQ+l)
			rng.Read(payloads[l])
		}
		for _, op := range []struct {
			name string
			run  func(buf []complex64)
		}{
			{"Forward", func(buf []complex64) { p.Forward(buf[:n]) }},
			{"Inverse", func(buf []complex64) { p.Inverse(buf[:n]) }},
			{"InverseBand/subcarrier-major", func(buf []complex64) { p.InverseBand(buf, lanes, band, lo, width, lanes, 1) }},
			{"InverseBand/antenna-major", func(buf []complex64) { p.InverseBand(buf, lanes, band, lo, width, 1, width) }},
			{"ForwardIQ12", func(buf []complex64) { p.ForwardIQ12(buf[:n], payloads[0], cp) }},
			{"ForwardIQ12Batch", func(buf []complex64) { p.ForwardIQ12Batch(buf, payloads, cp, stride) }},
		} {
			g := append([]complex64(nil), x...)
			v := append([]complex64(nil), x...)
			restore := forceGoKernels()
			op.run(g)
			restore()
			op.run(v)
			if i := firstDiff(g, v, false); i >= 0 {
				t.Fatalf("n=%d %s: sample %d go %v != avx2 %v", n, op.name, i, g[i], v[i])
			}
		}
	}
}
