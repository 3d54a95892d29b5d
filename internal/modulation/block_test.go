package modulation

import (
	"math"
	"math/rand"
	"testing"
)

// refSoft is the per-bit exhaustive max-log scan, an independent
// reference: DemodulateSoft hoists the squared distances but must remain
// arithmetically identical.
func refSoft(t *Table, dst []float32, sym []complex64, noiseVar float32) {
	b := t.BitsPerSymbol() / 2
	if noiseVar <= 0 {
		noiseVar = 1e-6
	}
	inv := 1 / noiseVar
	pam := func(out []float32, x float32) {
		l := len(t.pam)
		for k := 0; k < b; k++ {
			bitMask := 1 << (b - 1 - k)
			best0 := float32(math.Inf(1))
			best1 := float32(math.Inf(1))
			for g := 0; g < l; g++ {
				d := x - t.pam[g]
				m := d * d
				if g&bitMask == 0 {
					if m < best0 {
						best0 = m
					}
				} else if m < best1 {
					best1 = m
				}
			}
			out[k] = (best1 - best0) * inv
		}
	}
	for s, v := range sym {
		o := s * 2 * b
		pam(dst[o:o+b], real(v))
		pam(dst[o+b:o+2*b], imag(v))
	}
}

func noisySymbols(t *Table, rng *rand.Rand, n int) []complex64 {
	syms := make([]complex64, n)
	for i := range syms {
		p := t.Point(rng.Intn(1 << t.BitsPerSymbol()))
		syms[i] = p + complex(float32(rng.NormFloat64()*0.05),
			float32(rng.NormFloat64()*0.05))
	}
	return syms
}

// TestDemodulateSoftMatchesReference pins the shared-distance soft
// demodulator against the exhaustive per-bit scan, bit for bit, for runs
// of symbols and for one symbol per call.
func TestDemodulateSoftMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, o := range allOrders {
		tab := Get(o)
		for _, n := range []int{1, 3, 16, 65} {
			syms := noisySymbols(tab, rng, n)
			got := make([]float32, n*int(o))
			want := make([]float32, n*int(o))
			tab.DemodulateSoft(got, syms, 0.1)
			refSoft(tab, want, syms, 0.1)
			for i := range got {
				if got[i] != want[i] { // bit-identical, not approximate
					t.Fatalf("%v n=%d llr[%d]: got %g want %g", o, n, i, got[i], want[i])
				}
			}
			// One symbol per call must agree exactly with the run.
			one := make([]float32, int(o))
			for s := 0; s < n; s++ {
				tab.DemodulateSoft(one, syms[s:s+1], 0.1)
				for k, v := range one {
					if v != got[s*int(o)+k] {
						t.Fatalf("%v sym %d bit %d: per-symbol %g vs run %g",
							o, s, k, v, got[s*int(o)+k])
					}
				}
			}
		}
	}
}

func TestDemodulateSoftNonPositiveNoise(t *testing.T) {
	tab := Get(QPSK)
	syms := []complex64{complex(0.7, -0.7)}
	a := make([]float32, 2)
	b := make([]float32, 2)
	tab.DemodulateSoft(a, syms, 0)
	tab.DemodulateSoft(b, syms, 1e-6)
	if a[0] != b[0] || a[1] != b[1] {
		t.Fatalf("zero noiseVar not clamped: %v vs %v", a, b)
	}
}

func TestModulateBlockMatchesModulate(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, o := range allOrders {
		tab := Get(o)
		b := int(o)
		nSym := 40
		bits := make([]byte, nSym*b)
		for i := range bits {
			bits[i] = byte(rng.Intn(2))
		}
		want := make([]complex64, nSym)
		tab.Modulate(want, bits)
		for _, first := range []int{0, 1, 7, nSym - 3} {
			for _, n := range []int{1, 3, nSym - first} {
				got := make([]complex64, n)
				tab.ModulateBlock(got, bits, first)
				for s := 0; s < n; s++ {
					if got[s] != want[first+s] {
						t.Fatalf("%v first=%d n=%d sym %d: got %v want %v",
							o, first, n, s, got[s], want[first+s])
					}
				}
			}
		}
	}
}

// TestModulateBlockZeroPadsTail checks the codeword-tail contract: symbol
// positions past the end of bits behave as if the missing bits were zero,
// including a symbol straddling the boundary.
func TestModulateBlockZeroPadsTail(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, o := range allOrders {
		tab := Get(o)
		b := int(o)
		nSym := 8
		cut := nSym*b - b/2 - 1 // mid-symbol truncation
		bits := make([]byte, nSym*b)
		for i := range bits {
			bits[i] = byte(rng.Intn(2))
		}
		padded := make([]byte, (nSym+2)*b)
		copy(padded, bits[:cut])
		want := make([]complex64, nSym+2)
		tab.Modulate(want, padded)
		got := make([]complex64, nSym+2)
		tab.ModulateBlock(got, bits[:cut], 0)
		for s := range got {
			if got[s] != want[s] {
				t.Fatalf("%v sym %d: got %v want %v", o, s, got[s], want[s])
			}
		}
	}
}

// TestDemodulateSoftSoAMatchesBlock checks the subcarrier-major kernel
// against the Go reference symbol by symbol: the SoA entry at
// [(j*users+u)*order] must be bit-identical to demodulating user u's run
// with DemodulateSoft, across orders, user counts and tile widths
// (including width 1, the scalar engine path, and non-multiples of 4),
// in a subtest named after the SoA kernel this build selects (make generic
// runs the Go loop) — the reference is the Go loop always.
func TestDemodulateSoftSoAMatchesBlock(t *testing.T) {
	t.Run(Kernel(), testDemodulateSoftSoAMatchesBlock)
}

func testDemodulateSoftSoAMatchesBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for _, o := range allOrders {
		tab := Get(o)
		order := int(o)
		for _, users := range []int{1, 2, 5} {
			for _, nsc := range []int{1, 3, 13, 16} {
				tile := noisySymbols(tab, rng, users*nsc)
				soa := make([]float32, users*nsc*order)
				tab.DemodulateSoftSoA(soa, tile, users, nsc, 0.1)
				ref := make([]float32, nsc*order)
				for u := 0; u < users; u++ {
					tab.DemodulateSoft(ref, tile[u*nsc:(u+1)*nsc], 0.1)
					for j := 0; j < nsc; j++ {
						for k := 0; k < order; k++ {
							got := soa[(j*users+u)*order+k]
							if got != ref[j*order+k] {
								t.Fatalf("%v users=%d nsc=%d u=%d sc=%d bit=%d: SoA %g != Go %g",
									o, users, nsc, u, j, k, got, ref[j*order+k])
							}
						}
					}
				}
			}
		}
	}
}

func TestDemodulateSoftSoAPanics(t *testing.T) { t.Run(Kernel(), testDemodulateSoftSoAPanics) }

func testDemodulateSoftSoAPanics(t *testing.T) {
	tab := Get(QPSK)
	tile := make([]complex64, 4)
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	expectPanic("short tile", func() {
		tab.DemodulateSoftSoA(make([]float32, 16), tile, 2, 3, 0.1)
	})
	expectPanic("short dst", func() {
		tab.DemodulateSoftSoA(make([]float32, 7), tile, 2, 2, 0.1)
	})
	// Shapes with whole column groups, where a vector kernel would run.
	expectPanic("short tile, grouped", func() {
		tab.DemodulateSoftSoA(make([]float32, 16), make([]complex64, 7), 2, 4, 0.1)
	})
	expectPanic("short dst, grouped", func() {
		tab.DemodulateSoftSoA(make([]float32, 15), make([]complex64, 8), 2, 4, 0.1)
	})
}

func BenchmarkDemodulateSoft(b *testing.B) {
	tab := Get(QAM64)
	rng := rand.New(rand.NewSource(44))
	syms := noisySymbols(tab, rng, 32)
	dst := make([]float32, len(syms)*tab.BitsPerSymbol())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.DemodulateSoft(dst, syms, 0.1)
	}
}

func BenchmarkDemodulateSoftPerSymbol(b *testing.B) {
	tab := Get(QAM64)
	rng := rand.New(rand.NewSource(44))
	syms := noisySymbols(tab, rng, 32)
	dst := make([]float32, tab.BitsPerSymbol())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := range syms {
			tab.DemodulateSoft(dst, syms[s:s+1], 0.1)
		}
	}
}

// BenchmarkDemodulateSoftSoA covers the fused path's tile shape: a
// 16-user × 16-subcarrier strip written as one SoA span.
func BenchmarkDemodulateSoftSoA(b *testing.B) {
	tab := Get(QAM64)
	rng := rand.New(rand.NewSource(44))
	users, nsc := 16, 16
	tile := noisySymbols(tab, rng, users*nsc)
	dst := make([]float32, users*nsc*tab.BitsPerSymbol())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.DemodulateSoftSoA(dst, tile, users, nsc, 0.1)
	}
}

func BenchmarkModulateBlock(b *testing.B) {
	tab := Get(QAM64)
	rng := rand.New(rand.NewSource(45))
	bits := make([]byte, 16*tab.BitsPerSymbol())
	for i := range bits {
		bits[i] = byte(rng.Intn(2))
	}
	dst := make([]complex64, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.ModulateBlock(dst, bits, 0)
	}
}
