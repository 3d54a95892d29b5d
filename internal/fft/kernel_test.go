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
