package fft

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cf"
)

// forceGoKernels switches the dispatch to the Go loops until the returned
// function is called. (The vector kernels need no forcing: where init
// selected them they are what runs.)
func forceGoKernels() (restore func()) {
	saved := simd
	simd = nil
	return func() { simd = saved }
}

// onEachKernel runs test in a subtest named after Kernel() on the Go
// loops and, where init selected them, on the vector kernels.
func onEachKernel(t *testing.T, test func(*testing.T)) {
	restore := forceGoKernels()
	t.Run(Kernel(), test)
	restore()
	if simd != nil {
		t.Run(Kernel(), test)
	}
}

// TestImplName pins the two names Kernel reports: "generic" while the
// Go loops run, "avx2" where init selected the vector stage kernels. The
// package's kernel-dependent tests run in a subtest named after Kernel(),
// so a -v run shows which stage kernels a suite exercised.
func TestImplName(t *testing.T) {
	restore := forceGoKernels()
	t.Run(Kernel(), func(t *testing.T) {
		if got := Kernel(); got != "generic" {
			t.Fatalf("fallback reports %q, want \"generic\"", got)
		}
	})
	restore()
	if simd != nil {
		t.Run(Kernel(), func(t *testing.T) {
			if got := Kernel(); got != "avx2" {
				t.Fatalf("vector stage kernels report %q, want \"avx2\"", got)
			}
		})
	}
	t.Logf("selected: %s", Kernel())
}

// firstDiff returns the index of the first sample whose bits differ
// between a and b, or -1. With nanPayloads false the comparison is on raw
// bits. With it true, two NaNs in the same component compare equal
// whatever their sign and payload: when two different NaNs meet in an
// addition the hardware keeps the first operand's, and for a commutative
// a+b the Go compiler's choice of first operand is a register-allocation
// accident (it differs between the sums of one butterfly), so the Go
// loops define no payload for a vector kernel to match. Which slots hold
// a NaN, and every bit of every other value, are still compared.
func firstDiff(a, b []complex64, nanPayloads bool) int {
	same := func(x, y float32) bool {
		if math.Float32bits(x) == math.Float32bits(y) {
			return true
		}
		return nanPayloads && x != x && y != y
	}
	for i := range a {
		if !same(real(a[i]), real(b[i])) || !same(imag(a[i]), imag(b[i])) {
			return i
		}
	}
	return -1
}

// storeRef is StoreIQ12 without a prefix, spelled as the passes it
// fuses: cf.Scale, cf.Quantize12 and cf.PackIQ12.
func storeRef(x []complex64, gain float32) []byte {
	sym := append([]complex64(nil), x...)
	cf.Scale(sym, gain)
	iq := make([]int16, 2*len(sym))
	cf.Quantize12(iq, sym)
	out := make([]byte, len(sym)*cf.BytesPerIQ)
	cf.PackIQ12(out, iq)
	return out
}

// rawSample draws a component from raw float32 bits half of the time —
// NaNs, infinities, subnormals and magnitudes far outside the 12-bit
// range — and otherwise from values near full scale, ties included.
func rawSample(rng *rand.Rand) float32 {
	switch rng.Intn(4) {
	case 0, 1:
		return math.Float32frombits(rng.Uint32())
	case 2:
		return float32(rng.Intn(8193)-4096) / 4096 // k/2 LSB: ties at gain ±1
	default:
		return float32(rng.NormFloat64())
	}
}

const (
	storeMargin = 40 // past either end: more than one 24-byte store
	storePoison = 0xa5
)

// storeGains are the gains StoreIQ12 is pinned at: the engine's 0.25,
// unit, zero, a sign flip, a subnormal, one that overflows every sample,
// and ±Inf and NaN.
var storeGains = []float32{0.25, 1, 0, -1, math.Float32frombits(1), 1e30,
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}

// checkStore runs StoreIQ12 into a window of a poisoned buffer and
// compares the window with want and the margins with the poison.
func checkStore(t *testing.T, where string, x []complex64, cpLen int, gain float32, want []byte) {
	t.Helper()
	back := bytes.Repeat([]byte{storePoison}, len(want)+2*storeMargin)
	StoreIQ12(back[storeMargin:storeMargin+len(want)], x, cpLen, gain)
	if got := back[storeMargin : storeMargin+len(want)]; !bytes.Equal(got, want) {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: %s kernel byte %d (sample %d) = %#02x, want %#02x",
					where, Kernel(), i, i/cf.BytesPerIQ, got[i], want[i])
			}
		}
	}
	for i, v := range back {
		if (i < storeMargin || i >= storeMargin+len(want)) && v != storePoison {
			t.Fatalf("%s: %s kernel wrote byte %d outside its %d-byte payload", where, Kernel(), i-storeMargin, len(want))
		}
	}
}

// TestStoreIQ12KernelsExact pins StoreIQ12 to the passes it fuses, byte
// for byte, on both kernel sides: every symbol length 0–80 (every tail
// the vector loop leaves) and 256, 512 and 2048, every cyclic prefix 0…n,
// samples from raw float bits, at every gain of storeGains, with the
// bytes before and after the payload poisoned.
func TestStoreIQ12KernelsExact(t *testing.T) {
	onEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(43))
		var sizes []int
		for n := 0; n <= 80; n++ {
			sizes = append(sizes, n)
		}
		for _, n := range append(sizes, 256, 512, 2048) {
			x := make([]complex64, n)
			for i := range x {
				x[i] = complex(rawSample(rng), rawSample(rng))
			}
			for _, gain := range storeGains {
				// Quantization is per sample, so the reference of any
				// prefix is a slice of the whole symbol's: want is the
				// last cpLen samples' bytes, then every sample's.
				ref := storeRef(x, gain)
				want := make([]byte, 0, 2*len(ref))
				for cp := 0; cp <= n; cp++ {
					want = append(append(want[:0], ref[(n-cp)*cf.BytesPerIQ:]...), ref...)
					checkStore(t, fmt.Sprintf("n=%d cp=%d gain=%v", n, cp, gain), x, cp, gain, want)
				}
			}
		}
	})
}
