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

// forEachKernel runs f once per SoA kernel this process can run — the Go
// loop always, then the platform's vector kernel where init selected it —
// as subtests named after Kernel().
func forEachKernel(t *testing.T, f func(t *testing.T)) {
	restore := forceGoKernels()
	t.Run(Kernel(), f)
	restore()
	if simdSoA != nil {
		t.Run(Kernel(), f)
	}
}

// TestKernelName pins the two names Kernel can report and that forcing
// the fallback is visible through it.
func TestKernelName(t *testing.T) {
	var seen []string
	forEachKernel(t, func(t *testing.T) { seen = append(seen, Kernel()) })
	if seen[0] != "generic" {
		t.Fatalf("fallback kernel reports %q, want \"generic\"", seen[0])
	}
	if len(seen) == 2 && seen[1] != "avx2" {
		t.Fatalf("vector kernel reports %q, want \"avx2\"", seen[1])
	}
	t.Logf("kernels available: %v; selected: %s", seen, Kernel())
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
