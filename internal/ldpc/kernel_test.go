package ldpc

import "testing"

// forceGoKernels switches the dispatch to the Go loops until the returned
// function is called. (The vector kernels need no forcing: where init
// selected them they are what runs.)
func forceGoKernels() (restore func()) {
	saved := simdIterate
	simdIterate = nil
	return func() { simdIterate = saved }
}

// forEachKernel runs f once per layer kernel this process can run — the
// Go loops always, then the platform's vector kernels where init selected
// them — as subtests named after Kernel().
func forEachKernel(t *testing.T, f func(t *testing.T)) {
	restore := forceGoKernels()
	t.Run(Kernel(), f)
	restore()
	if simdIterate != nil {
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
