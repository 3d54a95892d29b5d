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

// TestKernelName pins the two names Kernel reports: "generic" while the
// Go loops run, "avx2" where init selected the vector layer kernels. The
// package's kernel-dependent tests run in a subtest named after Kernel(),
// so a -v run shows which layer kernels a suite exercised.
func TestKernelName(t *testing.T) {
	restore := forceGoKernels()
	t.Run(Kernel(), func(t *testing.T) {
		if got := Kernel(); got != "generic" {
			t.Fatalf("fallback reports %q, want \"generic\"", got)
		}
	})
	restore()
	if simdIterate != nil {
		t.Run(Kernel(), func(t *testing.T) {
			if got := Kernel(); got != "avx2" {
				t.Fatalf("vector layer kernels report %q, want \"avx2\"", got)
			}
		})
	}
	t.Logf("selected: %s", Kernel())
}
