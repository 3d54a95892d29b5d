package mat

import (
	"fmt"
	"math/rand"
	"testing"
)

// blockRef computes the blocked-multiply reference column by column with
// the textbook loop: the j-th output column is w times yt's j-th row (the
// j-th column of the untransposed right operand), one complex
// accumulator per element.
func blockRef(w, yt *M) *M {
	ref := New(w.Rows, yt.Rows)
	for j := 0; j < yt.Rows; j++ {
		y := yt.Row(j)
		for i := 0; i < w.Rows; i++ {
			var s complex64
			for c, wv := range w.Row(i) {
				s += wv * y[c]
			}
			ref.Set(i, j, s)
		}
	}
	return ref
}

// requireExact fails unless got and want hold the same bits.
func requireExact(t *testing.T, name string, got, want *M) {
	t.Helper()
	for i, v := range want.Data {
		if got.Data[i] != v {
			t.Fatalf("%s: element %d = %v, MulBlockInto gives %v", name, i, got.Data[i], v)
		}
	}
}

// blockShapes covers the plan-registry row counts, a tail-prone odd
// mixture of block widths, and inner dimensions below and above the
// 4-wide unroll.
var blockShapes = []struct{ k, m, b int }{
	{1, 8, 16}, {2, 8, 16}, {3, 8, 16}, {4, 8, 16}, {16, 64, 16},
	{4, 16, 1}, {4, 16, 3}, {4, 16, 15}, {4, 16, 64}, {4, 16, 65},
	{2, 1, 7}, {3, 5, 5}, {16, 3, 9},
	// Grouped-plan row counts (8/16 users, 12 via the rows%4 rule) against
	// tail-prone widths that exercise the 16/4/2/1 column cascade.
	{8, 32, 17}, {8, 8, 2}, {16, 24, 31}, {12, 10, 33}, {16, 64, 48},
	{5, 7, 17}, {7, 64, 31},
}

func TestMulBlockIntoMatchesColumnMatVec(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, s := range blockShapes {
		t.Run(fmt.Sprintf("%dx%d_B%d", s.k, s.m, s.b), func(t *testing.T) {
			w := randM(rng, s.k, s.m)
			yt := randM(rng, s.b, s.m)
			ref := blockRef(w, yt)
			for name, kern := range map[string]BlockKernel{
				"generic":   MulBlockInto,
				"naive":     MulBlockIntoNaive,
				"planned":   PlanBlockMul(true, s.k),
				"unplanned": PlanBlockMul(false, s.k),
			} {
				dst := randM(rng, s.k, s.b) // pre-filled: kernels must overwrite
				kern(dst, w, yt)
				if d := dst.MaxAbsDiff(ref); d > 1e-4 {
					t.Errorf("%s: max |diff| = %g", name, d)
				}
			}
		})
	}
}

// TestMulBlockPlansExact holds every specialized plan to MulBlockInto's
// bits, not a tolerance: the engine's strip width (DESIGN §9) and any
// vector tile that replaces a Go plan must not move an LLR. Each shape
// runs through the plan for its own row count and through every other
// plan, so the shape guards' fallbacks are covered too.
func TestMulBlockPlansExact(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, s := range blockShapes {
		w := randM(rng, s.k, s.m)
		yt := randM(rng, s.b, s.m)
		want := New(s.k, s.b)
		MulBlockInto(want, w, yt)
		for _, rows := range []int{s.k, 1, 2, 3, 4, 8, 12, 16} {
			dst := randM(rng, s.k, s.b)
			PlanBlockMul(true, rows)(dst, w, yt)
			requireExact(t, fmt.Sprintf("%dx%d_B%d plan %d", s.k, s.m, s.b, rows), dst, want)
		}
	}
}

// TestMulBlockPlanFallback feeds each specialized plan PlanBlockMul
// returns a problem whose row count does NOT match its specialization;
// the shape guard must route to the generic kernel instead of
// misindexing.
func TestMulBlockPlanFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, rows := range []int{2, 4, 8, 12, 16} {
		k := rows + 1
		w := randM(rng, k, 8)
		yt := randM(rng, 5, 8)
		dst := New(k, 5)
		PlanBlockMul(true, rows)(dst, w, yt)
		if d := dst.MaxAbsDiff(blockRef(w, yt)); d > 1e-4 {
			t.Errorf("plan %d on %d rows: max |diff| = %g", rows, k, d)
		}
	}
}

func TestMulBlockIntoRandomized(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		k := 1 + rng.Intn(17)
		m := 1 + rng.Intn(64)
		b := 1 + rng.Intn(70)
		w := randM(rng, k, m)
		yt := randM(rng, b, m)
		ref := blockRef(w, yt)
		dst := New(k, b)
		PlanBlockMul(true, k)(dst, w, yt)
		if d := dst.MaxAbsDiff(ref); d > 1e-4 {
			t.Fatalf("seed %d (%dx%d B=%d): max |diff| = %g", seed, k, m, b, d)
		}
	}
}

func TestMulBlockShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched block shapes did not panic")
		}
	}()
	MulBlockInto(New(2, 4), New(2, 8), New(5, 8))
}

// The blocked kernel must allocate nothing: it is called once per demod
// tile in the steady-state hot path.
func BenchmarkMulBlockInto(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	w := randM(rng, 16, 64)  // K×M beamweights
	yt := randM(rng, 32, 64) // one demod block of subcarriers
	dst := New(16, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulBlockInto(dst, w, yt)
	}
}

// BenchmarkMulBlockColumnwise is the same problem solved one subcarrier
// at a time: a B=1 MulBlockInto call per column, the matvec the engine
// runs on a one-wide tail strip. The gap between the two is the BLAS-3
// win in isolation.
func BenchmarkMulBlockColumnwise(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	w := randM(rng, 16, 64)
	yt := randM(rng, 32, 64)
	col := New(16, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < yt.Rows; j++ {
			MulBlockInto(col, w, &M{Rows: 1, Cols: yt.Cols, Data: yt.Row(j)})
		}
	}
}

// BenchmarkMulBlockRows16 tracks the grouped four-row streaming plan on
// the 16-user equalization shape.
func BenchmarkMulBlockRows16(b *testing.B) {
	rng := rand.New(rand.NewSource(33))
	w := randM(rng, 16, 64)
	yt := randM(rng, 32, 64)
	dst := New(16, 32)
	kern := PlanBlockMul(true, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kern(dst, w, yt)
	}
}

// BenchmarkMulInto tracks the dense GEMM kernel (satellite: the zero-skip
// branch was removed from its inner loop).
func BenchmarkMulInto(b *testing.B) {
	rng := rand.New(rand.NewSource(32))
	a := randM(rng, 16, 64)
	x := randM(rng, 64, 16)
	dst := New(16, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulInto(dst, a, x)
	}
}
