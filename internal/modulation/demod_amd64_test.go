//go:build amd64 && !purego

package modulation

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cpu"
)

// Kernel-level differential tests: the assembly SoA kernels against the
// Go loop they replace, on identical tiles, compared bit for bit.

func requireAVX2(t testing.TB) {
	if !cpu.HasAVX2() {
		t.Skip("CPU or OS without AVX2")
	}
}

// nastyCoord draws one PAM coordinate from the values a max-log scan can
// get wrong: a noisy constellation coordinate, an exact level (one
// distance is exactly zero), an exact mid-point between adjacent levels
// (two distances tie), and the floats with special arithmetic — signed
// zeros, denormals, infinities, magnitudes whose square overflows, and
// quiet and signalling NaNs of both signs with payloads.
func nastyCoord(rng *rand.Rand, tab *Table) float32 {
	l := len(tab.levels)
	switch p := rng.Intn(100); {
	case p < 30:
		return tab.levels[rng.Intn(l)] + float32(rng.NormFloat64()*0.05)
	case p < 45:
		return tab.levels[rng.Intn(l)]
	case p < 60:
		r := rng.Intn(l - 1)
		return (tab.levels[r] + tab.levels[r+1]) / 2
	default:
		bits := []uint32{
			0x00000000, 0x80000000, // ±0
			0x00000001, 0x80000001, 0x007fffff, 0x807fffff, // denormals
			0x7f800000, 0xff800000, // ±Inf
			0x7f7fffff, 0xff7fffff, 0x7f7f0000, 0xff7f0000, // ±3.4e38
			0x5f800000, 0xdf800000, // ±2^64: the square overflows
			0x7fc00000, 0xffc00000, 0x7fc12345, 0xffc54321, // quiet NaNs
			0x7f800001, 0xffa00000, // signalling NaNs
		}
		return math.Float32frombits(bits[rng.Intn(len(bits))])
	}
}

// guardMargin is the width, in elements, of the poisoned margin on each
// side of a guarded buffer: wider than any vector access.
const guardMargin = 16

// guardedLLR returns an n-float window whose backing array extends
// guardMargin poisoned floats either side, and a check that the margins
// still hold the poison.
func guardedLLR(n int) (win []float32, intact func() bool) {
	const poison = 0x7fdead00 // a NaN no kernel produces
	back := make([]float32, n+2*guardMargin)
	for i := range back {
		back[i] = math.Float32frombits(poison + uint32(i&0xff))
	}
	return back[guardMargin : guardMargin+n : guardMargin+n], func() bool {
		for i := 0; i < guardMargin; i++ {
			if math.Float32bits(back[i]) != poison+uint32(i&0xff) {
				return false
			}
			if j := guardMargin + n + i; math.Float32bits(back[j]) != poison+uint32(j&0xff) {
				return false
			}
		}
		return true
	}
}

// guardedTile copies tile into a window with guardMargin poisoned symbols
// either side: a kernel that read a margin and used it would turn the
// poison (NaN) into LLRs the reference, handed the bare tile, does not
// have.
func guardedTile(tile []complex64) []complex64 {
	nan := math.Float32frombits(0x7fdead01)
	back := make([]complex64, len(tile)+2*guardMargin)
	for i := range back {
		back[i] = complex(nan, nan)
	}
	win := back[guardMargin : guardMargin+len(tile) : guardMargin+len(tile)]
	copy(win, tile)
	return win
}

// requireSameLLR demodulates tile with the Go loop (bare buffers) and
// with the dispatched kernel (guarded buffers) and demands equal bits and
// untouched margins.
func requireSameLLR(t *testing.T, tab *Table, tile []complex64, users, nsc int, noiseVar float32) {
	t.Helper()
	n := users * nsc * tab.BitsPerSymbol()
	want := make([]float32, n)
	restore := forceGoKernels()
	tab.DemodulateSoftSoA(want, tile, users, nsc, noiseVar)
	restore()
	got, intact := guardedLLR(n)
	tab.DemodulateSoftSoA(got, guardedTile(tile), users, nsc, noiseVar)
	if i := firstLLRDiff(want, got); i >= 0 {
		order := tab.BitsPerSymbol()
		sym := i / order
		j, u := sym/users, sym%users
		t.Fatalf("%v users=%d nsc=%d noiseVar=%g: llr[%d] (sc %d user %d bit %d, symbol %v): go %#08x != %s %#08x",
			tab.Order, users, nsc, noiseVar, i, j, u, i%order, tile[u*nsc+j],
			math.Float32bits(want[i]), Kernel(), math.Float32bits(got[i]))
	}
	if !intact() {
		t.Fatalf("%v users=%d nsc=%d: %s kernel wrote outside dst[0:%d]", tab.Order, users, nsc, Kernel(), n)
	}
}

// TestDemodKernelsAVX2 is the differential over every shape the kernels
// can meet: all four orders × users 1…17 × nsc 1…35 — every nsc mod 4, so
// every split between column groups and the Go tail; the engine's 4×16
// and 16×16 strips; the users×1 tile of the scalar path — once on noisy
// constellation points and once on adversarial floats, at an ordinary
// noise variance and at the two sides of the noiseVar <= 0 clamp.
func TestDemodKernelsAVX2(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(53))
	for _, o := range allOrders {
		tab := Get(o)
		for users := 1; users <= 17; users++ {
			for nsc := 1; nsc <= 35; nsc++ {
				noisy := noisySymbols(tab, rng, users*nsc)
				nasty := make([]complex64, users*nsc)
				for i := range nasty {
					nasty[i] = complex(nastyCoord(rng, tab), nastyCoord(rng, tab))
				}
				for _, noiseVar := range []float32{0.1, 0, -3} {
					requireSameLLR(t, tab, noisy, users, nsc, noiseVar)
					requireSameLLR(t, tab, nasty, users, nsc, noiseVar)
				}
			}
		}
	}
}

// TestDemodKernelsAVX2EveryLane puts each special value in each of the
// eight lanes of a vector in turn, among ordinary neighbours, so that a
// lane-crossing mistake in the interleave or a seed applied to the wrong
// register cannot hide behind the random placement above.
func TestDemodKernelsAVX2EveryLane(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(59))
	specials := []uint32{0x7fc12345, 0xffa00000, 0x7f800000, 0xff800000, 0x7f7fffff, 0x80000000, 0x00000001}
	for _, o := range allOrders {
		tab := Get(o)
		for _, users := range []int{1, 3} {
			const nsc = 8
			for lane := 0; lane < 2*nsc; lane++ {
				for _, bits := range specials {
					tile := noisySymbols(tab, rng, users*nsc)
					for u := 0; u < users; u++ {
						v := tile[u*nsc+lane/2]
						if lane%2 == 0 {
							v = complex(math.Float32frombits(bits), imag(v))
						} else {
							v = complex(real(v), math.Float32frombits(bits))
						}
						tile[u*nsc+lane/2] = v
					}
					requireSameLLR(t, tab, tile, users, nsc, 0.1)
				}
			}
		}
	}
}

// TestDemodKernelsAVX2NoiseVar sweeps the noise variance over the values
// that make 1/noiseVar special: denormal, overflowing, infinite and NaN.
func TestDemodKernelsAVX2NoiseVar(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(61))
	for _, o := range allOrders {
		tab := Get(o)
		const users, nsc = 3, 9
		tile := make([]complex64, users*nsc)
		for i := range tile {
			tile[i] = complex(nastyCoord(rng, tab), nastyCoord(rng, tab))
		}
		for _, bits := range []uint32{0x00000001, 0x00800000, 0x7f7fffff, 0x7f800000, 0xff800000, 0x7fc00001, 0xffc00002, 0x3f800000} {
			requireSameLLR(t, tab, tile, users, nsc, math.Float32frombits(bits))
		}
	}
}

// benchSoA times DemodulateSoftSoA on one tile shape; bytes/op is the
// LLR bytes written.
func benchSoA(b *testing.B, o Order, users, nsc int) {
	tab := Get(o)
	rng := rand.New(rand.NewSource(44))
	tile := noisySymbols(tab, rng, users*nsc)
	dst := make([]float32, users*nsc*tab.BitsPerSymbol())
	b.SetBytes(int64(4 * len(dst)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.DemodulateSoftSoA(dst, tile, users, nsc, 0.1)
	}
}

// soaBenchShapes are the two serving shapes — the reference cell's and
// the QPSK cells' 4-user × 16-subcarrier strip — and the largest tile the
// engine can form.
var soaBenchShapes = []struct {
	o          Order
	users, nsc int
}{
	{QAM64, 4, 16},
	{QPSK, 4, 16},
	{QAM256, 16, 16},
}

// benchSoAShapes runs benchSoA over soaBenchShapes as sub-benchmarks.
func benchSoAShapes(b *testing.B) {
	for _, s := range soaBenchShapes {
		b.Run(fmt.Sprintf("%v_%dx%d", s.o, s.users, s.nsc), func(b *testing.B) { benchSoA(b, s.o, s.users, s.nsc) })
	}
}

// BenchmarkDemodulateSoftSoA_AVX2 and _PureGo are the within-process
// kernel A/B: the same tiles through the vector kernel and through the Go
// loop.
func BenchmarkDemodulateSoftSoA_AVX2(b *testing.B) {
	requireAVX2(b)
	benchSoAShapes(b)
}

func BenchmarkDemodulateSoftSoA_PureGo(b *testing.B) {
	defer forceGoKernels()()
	benchSoAShapes(b)
}
