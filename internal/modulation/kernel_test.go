package modulation

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/perfgate"
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

// soaCall returns one DemodulateSoftSoA call on a fixed noisy tile of one
// shape; its LLR output is 4*dstLen bytes.
func soaCall(o Order, users, nsc int) (call func(), dstLen int) {
	tab := Get(o)
	rng := rand.New(rand.NewSource(44))
	tile := noisySymbols(tab, rng, users*nsc)
	dst := make([]float32, users*nsc*tab.BitsPerSymbol())
	return func() { tab.DemodulateSoftSoA(dst, tile, users, nsc, 0.1) }, len(dst)
}

// soaBenchShapes are the two serving shapes — the reference cell's and
// the QPSK cells' 4-user × 16-subcarrier strip — and the largest tile the
// engine can form. calls is the gate's batch per side and round; floor
// is about half of the gate's median on a 2-vCPU AVX2 VM, stated beside
// it.
var soaBenchShapes = []struct {
	o          Order
	users, nsc int
	calls      int
	floor      float64
}{
	{QAM64, 4, 16, 8192, 30},   // median 63×
	{QPSK, 4, 16, 16384, 16},   // median 35×
	{QAM256, 16, 16, 1024, 45}, // median 93×
}

// benchSoAShapes times DemodulateSoftSoA over soaBenchShapes as
// sub-benchmarks; bytes/op is the LLR bytes written.
func benchSoAShapes(b *testing.B) {
	for _, s := range soaBenchShapes {
		b.Run(fmt.Sprintf("%v_%dx%d", s.o, s.users, s.nsc), func(b *testing.B) {
			call, n := soaCall(s.o, s.users, s.nsc)
			b.SetBytes(int64(4 * n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				call()
			}
		})
	}
}

// BenchmarkDemodulateSoftSoA_AVX2 and _PureGo are the within-process
// kernel A/B: the same tiles through the vector kernel and through the Go
// loop.
func BenchmarkDemodulateSoftSoA_AVX2(b *testing.B) {
	if simdSoA == nil {
		b.Skip("no vector kernel on this CPU/GOARCH")
	}
	benchSoAShapes(b)
}

func BenchmarkDemodulateSoftSoA_PureGo(b *testing.B) {
	defer forceGoKernels()()
	benchSoAShapes(b)
}

// BenchmarkKernelGate is the SoA kernel's perf gate (`make perf`): the
// _PureGo/_AVX2 ratio of each shape, measured in one process by
// alternating the two sides over gateRounds rounds of one batch each.
// Only the ratio is checked, so host speed cannot move it much.
func BenchmarkKernelGate(b *testing.B) {
	if Kernel() == "generic" {
		b.Skip("Go loop only: no vector kernel to gate")
	}
	const gateRounds = 11
	for _, s := range soaBenchShapes {
		call, _ := soaCall(s.o, s.users, s.nsc)
		batch := func() {
			for i := 0; i < s.calls; i++ {
				call()
			}
		}
		goSide := func() {
			defer forceGoKernels()()
			batch()
		}
		ratio := perfgate.Ratio(gateRounds, goSide, batch)
		name := fmt.Sprintf("%v_%dx%d", s.o, s.users, s.nsc)
		b.ReportMetric(ratio, name+"-x")
		if ratio < s.floor {
			b.Fatalf("%s: vector SoA kernel %.1f× the Go loop, floor %.0f×", name, ratio, s.floor)
		}
	}
}
