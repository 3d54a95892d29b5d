package fft

import (
	"math"
	"testing"
)

// forceGoKernels switches the dispatch to the Go loops until the returned
// function is called. (The vector kernels need no forcing: where init
// selected them they are what runs.)
func forceGoKernels() (restore func()) {
	saved := simd
	simd = nil
	return func() { simd = saved }
}

// forEachKernel runs f once per stage-kernel implementation this process
// can run — the Go loops always, then the platform's vector kernels where
// init selected them — as subtests named after Impl().
func forEachKernel(t *testing.T, f func(t *testing.T)) {
	restore := forceGoKernels()
	t.Run(Impl(), f)
	restore()
	if simd != nil {
		t.Run(Impl(), f)
	}
}

// TestImplName pins the two names Impl can report and that forcing the
// fallback is visible through it.
func TestImplName(t *testing.T) {
	var seen []string
	forEachKernel(t, func(t *testing.T) { seen = append(seen, Impl()) })
	if seen[0] != "generic" {
		t.Fatalf("fallback reports %q, want \"generic\"", seen[0])
	}
	if len(seen) == 2 && seen[1] != "avx2" {
		t.Fatalf("vector kernels report %q, want \"avx2\"", seen[1])
	}
	t.Logf("implementations available: %v; selected: %s", seen, Impl())
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
