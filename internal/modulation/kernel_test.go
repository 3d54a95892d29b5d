package modulation

import (
	"math"
	"testing"
)

// forceGoKernels switches the dispatch to the Go loop until the returned
// function is called. (The vector kernel needs no forcing: where init
// selected it, it is what runs.)
func forceGoKernels() (restore func()) {
	saved := simdSoA
	simdSoA = nil
	return func() { simdSoA = saved }
}

// TestKernelName pins the two names Kernel reports: "generic" while the
// Go loop run, "avx2" where init selected the vector SoA kernel. The
// package's kernel-dependent tests run in a subtest named after Kernel(),
// so a -v run shows which SoA kernel a suite exercised.
func TestKernelName(t *testing.T) {
	restore := forceGoKernels()
	t.Run(Kernel(), func(t *testing.T) {
		if got := Kernel(); got != "generic" {
			t.Fatalf("fallback reports %q, want \"generic\"", got)
		}
	})
	restore()
	if simdSoA != nil {
		t.Run(Kernel(), func(t *testing.T) {
			if got := Kernel(); got != "avx2" {
				t.Fatalf("vector SoA kernel report %q, want \"avx2\"", got)
			}
		})
	}
	t.Logf("selected: %s", Kernel())
}

// firstLLRDiff returns the index of the first LLR whose bits differ, or
// -1.
func firstLLRDiff(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}
