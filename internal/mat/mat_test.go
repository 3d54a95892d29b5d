package mat

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

func randM(rng *rand.Rand, r, c int) *M {
	m := New(r, c)
	m.Random(rng)
	return m
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randM(rng, 5, 5)
	id := New(5, 5)
	id.Eye()
	out := New(5, 5)
	MulInto(out, a, id)
	if d := out.MaxAbsDiff(a); d > 1e-6 {
		t.Fatalf("A*I != A: %v", d)
	}
	MulInto(out, id, a)
	if d := out.MaxAbsDiff(a); d > 1e-6 {
		t.Fatalf("I*A != A: %v", d)
	}
}

func TestMulConjA(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randM(rng, 9, 4)
	b := randM(rng, 9, 6)
	want := New(4, 6)
	ah := New(4, 9)
	a.ConjTransposeInto(ah)
	MulInto(want, ah, b)
	got := New(4, 6)
	MulConjAInto(got, a, b)
	if d := got.MaxAbsDiff(want); d > 1e-4 {
		t.Fatalf("MulConjAInto mismatch: %v", d)
	}
}

func TestGram(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	h := randM(rng, 16, 6)
	want := New(6, 6)
	MulConjAInto(want, h, h)
	got := New(6, 6)
	GramInto(got, h)
	if d := got.MaxAbsDiff(want); d > 1e-4 {
		t.Fatalf("GramInto mismatch: %v", d)
	}
	// Hermitian: G == Gᴴ
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			gij, gji := got.At(i, j), got.At(j, i)
			if math.Abs(float64(real(gij)-real(gji))) > 1e-5 ||
				math.Abs(float64(imag(gij)+imag(gji))) > 1e-5 {
				t.Fatalf("Gram not Hermitian at (%d,%d)", i, j)
			}
		}
	}
}

// TestMatVecKernels runs every plan on B=1 blocks, the matvecs of the
// engine's one-wide tail strips: the specialized plans must give
// MulBlockInto's bits and the textbook plan must agree within rounding.
// It runs on the Go loops and, where init selected it, beside the vector
// tile (whose B=1 columns are the Go tail's), each in a subtest named
// after Kernel().
func TestMatVecKernels(t *testing.T) {
	restore := forceGoKernels()
	t.Run(Kernel(), testMatVecKernels)
	restore()
	if simdRows4 != nil {
		t.Run(Kernel(), testMatVecKernels)
	}
}

func testMatVecKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, rows := range []int{2, 4, 7, 16} {
		for _, c := range []int{1, 3, 4, 16, 63, 64} {
			a := randM(rng, rows, c)
			x := randM(rng, 1, c)
			want := New(rows, 1)
			MulBlockInto(want, a, x)
			got := New(rows, 1)
			PlanBlockMul(true, rows)(got, a, x)
			requireExact(t, fmt.Sprintf("rows=%d cols=%d", rows, c), got, want)
			PlanBlockMul(false, rows)(got, a, x)
			for i := range got.Data {
				d := got.Data[i] - want.Data[i]
				if math.Hypot(float64(real(d)), float64(imag(d))) > 1e-3 {
					t.Fatalf("rows=%d cols=%d row %d: naive %v vs %v", rows, c, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

func TestInvertKnown(t *testing.T) {
	a := New(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 3)
	a.Set(1, 1, 4)
	inv := New(2, 2)
	if err := invertScratch(inv, a, make([]complex128, 2*2*2)); err != nil {
		t.Fatal(err)
	}
	want := New(2, 2)
	want.Set(0, 0, -2)
	want.Set(0, 1, 1)
	want.Set(1, 0, 1.5)
	want.Set(1, 1, -0.5)
	if d := inv.MaxAbsDiff(want); d > 1e-5 {
		t.Fatalf("2x2 inverse wrong:\n%v", inv)
	}
}

func TestInvertProperty(t *testing.T) {
	// Property: A * A⁻¹ ≈ I for random well-conditioned matrices.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		a := randM(rng, n, n)
		for i := 0; i < n; i++ { // diagonal boost keeps conditioning sane
			a.Set(i, i, a.At(i, i)+complex(float32(n), 0))
		}
		inv := New(n, n)
		if err := invertScratch(inv, a, make([]complex128, 2*n*n)); err != nil {
			return false
		}
		prod := New(n, n)
		MulInto(prod, a, inv)
		id := New(n, n)
		id.Eye()
		return prod.MaxAbsDiff(id) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestInvertSingular(t *testing.T) {
	a := New(3, 3) // all zeros
	if err := invertScratch(New(3, 3), a, make([]complex128, 2*3*3)); err != ErrSingular {
		t.Fatalf("want ErrSingular, got %v", err)
	}
}

func TestZFEqualizerMoorePenrose(t *testing.T) {
	// For a tall full-rank H, W = (HᴴH)⁻¹Hᴴ satisfies W·H = I.
	rng := rand.New(rand.NewSource(6))
	for _, mk := range [][2]int{{8, 2}, {16, 4}, {64, 16}} {
		h := randM(rng, mk[0], mk[1])
		w := New(mk[1], mk[0])
		if err := ZFEqualizerInto(w, h, NewZFWorkspace(mk[1])); err != nil {
			t.Fatal(err)
		}
		prod := New(mk[1], mk[1])
		MulInto(prod, w, h)
		id := New(mk[1], mk[1])
		id.Eye()
		if d := prod.MaxAbsDiff(id); d > 1e-2 {
			t.Errorf("%dx%d: W·H differs from I by %v", mk[0], mk[1], d)
		}
	}
}

func TestZFPrecoderInterferenceFree(t *testing.T) {
	// Zero-forcing precoder: Hᵀ·W must be diagonal (no inter-user leak).
	rng := rand.New(rand.NewSource(7))
	m, k := 32, 8
	h := randM(rng, m, k)
	w := New(m, k)
	if err := ZFPrecoderInto(w, h, NewZFWorkspace(k)); err != nil {
		t.Fatal(err)
	}
	// Received signal at user j when sending unit to user i: (HᵀW)[j][i].
	ht := New(k, m)
	for i := 0; i < m; i++ {
		for j := 0; j < k; j++ {
			ht.Set(j, i, h.At(i, j))
		}
	}
	prod := New(k, k)
	MulInto(prod, ht, w)
	var diagMin, offMax float64 = math.Inf(1), 0
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			a := math.Hypot(float64(real(prod.At(i, j))), float64(imag(prod.At(i, j))))
			if i == j && a < diagMin {
				diagMin = a
			}
			if i != j && a > offMax {
				offMax = a
			}
		}
	}
	if offMax > 1e-3*diagMin {
		t.Fatalf("precoder leaks: diagMin=%v offMax=%v", diagMin, offMax)
	}
	// Per-antenna power constraint: every row norm <= 1 (+eps).
	for r := 0; r < m; r++ {
		var e float64
		for c := 0; c < k; c++ {
			v := w.At(r, c)
			e += float64(real(v))*float64(real(v)) + float64(imag(v))*float64(imag(v))
		}
		if e > 1+1e-4 {
			t.Fatalf("antenna %d power %v > 1", r, e)
		}
	}
}

func TestConjugateEqualizerUnbiased(t *testing.T) {
	// For a single user (K=1), MRC is exact: W·h = 1.
	rng := rand.New(rand.NewSource(8))
	h := randM(rng, 16, 1)
	w := New(1, 16)
	ConjugateEqualizerInto(w, h)
	prod := New(1, 1)
	MulInto(prod, w, h)
	if math.Abs(float64(real(prod.At(0, 0)))-1) > 1e-4 || math.Abs(float64(imag(prod.At(0, 0)))) > 1e-4 {
		t.Fatalf("MRC K=1 gain %v, want 1", prod.At(0, 0))
	}
}

func TestSVDReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, mk := range [][2]int{{4, 4}, {16, 8}, {32, 16}} {
		a := randM(rng, mk[0], mk[1])
		u, s, v := SVD(a)
		// Reconstruct U·diag(s)·Vᴴ.
		us := New(mk[0], mk[1])
		for i := 0; i < mk[0]; i++ {
			for j := 0; j < mk[1]; j++ {
				us.Set(i, j, u.At(i, j)*complex(float32(s[j]), 0))
			}
		}
		vh := New(mk[1], mk[1])
		v.ConjTransposeInto(vh)
		rec := New(mk[0], mk[1])
		MulInto(rec, us, vh)
		if d := rec.MaxAbsDiff(a); d > 1e-3 {
			t.Errorf("%v: reconstruction error %v", mk, d)
		}
		// Singular values sorted descending and nonnegative.
		for j := 1; j < len(s); j++ {
			if s[j] > s[j-1]+1e-9 || s[j] < 0 {
				t.Errorf("%v: singular values unsorted: %v", mk, s)
			}
		}
	}
}

func TestSVDOrthonormalU(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randM(rng, 24, 6)
	u, _, _ := SVD(a)
	g := New(6, 6)
	MulConjAInto(g, u, u)
	id := New(6, 6)
	id.Eye()
	if d := g.MaxAbsDiff(id); d > 1e-3 {
		t.Fatalf("UᴴU != I: %v", d)
	}
}

func TestPinvSVDMatchesZF(t *testing.T) {
	// On well-conditioned channels the SVD pinv equals the Gram-inverse ZF.
	rng := rand.New(rand.NewSource(11))
	h := randM(rng, 16, 4)
	fast := New(4, 16)
	if err := ZFEqualizerInto(fast, h, NewZFWorkspace(4)); err != nil {
		t.Fatal(err)
	}
	robust := New(4, 16)
	PinvSVDInto(robust, h, 1e-10)
	if d := fast.MaxAbsDiff(robust); d > 1e-2 {
		t.Fatalf("pinv paths disagree: %v", d)
	}
}

func TestPinvMoorePenroseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 6 + rng.Intn(10)
		n := 2 + rng.Intn(4)
		a := randM(rng, m, n)
		p := New(n, m)
		PinvSVDInto(p, a, 1e-12)
		// A·A⁺·A == A
		ap := New(m, m)
		MulInto(ap, a, p)
		apa := New(m, n)
		MulInto(apa, ap, a)
		return apa.MaxAbsDiff(a) < 1e-2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCond2(t *testing.T) {
	// diag(3, 1) has condition number 3.
	a := New(2, 2)
	a.Set(0, 0, 3)
	a.Set(1, 1, 1)
	if c := Cond2(a); math.Abs(c-3) > 1e-6 {
		t.Fatalf("cond = %v, want 3", c)
	}
}

// TestPlanSelection pins which kernel PlanBlockMul picks for each row
// count, and that the specialized and textbook plans agree on a B=1
// block.
func TestPlanSelection(t *testing.T) {
	name := func(k BlockKernel) string {
		return runtime.FuncForPC(reflect.ValueOf(k).Pointer()).Name()
	}
	for _, c := range []struct {
		spec bool
		rows int
		want BlockKernel
	}{
		{true, 1, MulBlockInto}, {true, 2, mulBlockRows2}, {true, 3, MulBlockInto},
		{true, 4, mulBlockRows4Group}, {true, 8, mulBlockRows4Group},
		{true, 12, mulBlockRows4Group}, {true, 16, mulBlockRows4Group},
		{true, 6, MulBlockInto}, {false, 4, MulBlockIntoNaive}, {false, 16, MulBlockIntoNaive},
	} {
		if got := name(PlanBlockMul(c.spec, c.rows)); got != name(c.want) {
			t.Errorf("PlanBlockMul(%v, %d) = %s, want %s", c.spec, c.rows, got, name(c.want))
		}
	}
	rng := rand.New(rand.NewSource(12))
	a := randM(rng, 16, 16)
	v := New(1, 16)
	for i := range v.Data {
		v.Data[i] = 1
	}
	g1 := New(16, 1)
	g2 := New(16, 1)
	PlanBlockMul(true, 16)(g1, a, v)
	PlanBlockMul(false, 16)(g2, a, v)
	for i := range g1.Data {
		d := g1.Data[i] - g2.Data[i]
		if math.Hypot(float64(real(d)), float64(imag(d))) > 1e-3 {
			t.Fatalf("block plans disagree at %d", i)
		}
	}
}

func TestConjTranspose(t *testing.T) {
	a := New(2, 3)
	a.Set(0, 1, 1+2i)
	at := New(3, 2)
	a.ConjTransposeInto(at)
	if at.At(1, 0) != 1-2i {
		t.Fatalf("conj transpose wrong: %v", at.At(1, 0))
	}
}

func BenchmarkZFEqualizer64x16(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	h := randM(rng, 64, 16)
	w := New(16, 64)
	ws := NewZFWorkspace(16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := ZFEqualizerInto(w, h, ws); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPinvSVD64x16(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	h := randM(rng, 64, 16)
	p := New(16, 64)
	for i := 0; i < b.N; i++ {
		PinvSVDInto(p, h, 1e-10)
	}
}

func TestCholeskyFactorization(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, k := range []int{1, 2, 4, 16} {
		h := randM(rng, 4*k, k)
		g := New(k, k)
		GramInto(g, h)
		l := New(k, k)
		if !CholeskyInto(l, g) {
			t.Fatalf("k=%d: Gram matrix not recognized as posdef", k)
		}
		// Reconstruct L·Lᴴ.
		lh := New(k, k)
		l.ConjTransposeInto(lh)
		rec := New(k, k)
		MulInto(rec, l, lh)
		if d := rec.MaxAbsDiff(g); d > 1e-3*float64(k) {
			t.Fatalf("k=%d: L·Lᴴ differs from A by %v", k, d)
		}
		// Strictly lower triangular plus real positive diagonal.
		for i := 0; i < k; i++ {
			if real(l.At(i, i)) <= 0 || imag(l.At(i, i)) != 0 {
				t.Fatalf("diagonal %d not positive real: %v", i, l.At(i, i))
			}
			for j := i + 1; j < k; j++ {
				if l.At(i, j) != 0 {
					t.Fatalf("upper triangle nonzero at (%d,%d)", i, j)
				}
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := New(2, 2)
	a.Set(0, 0, -1)
	a.Set(1, 1, 1)
	if CholeskyInto(New(2, 2), a) {
		t.Fatal("indefinite matrix accepted")
	}
}

func TestCholeskySolveMatchesInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	h := randM(rng, 24, 6)
	g := New(6, 6)
	GramInto(g, h)
	l := New(6, 6)
	if !CholeskyInto(l, g) {
		t.Fatal("factorization failed")
	}
	b := randM(rng, 6, 9)
	x := b.Clone()
	CholeskySolveInPlace(l, x)
	// Verify A·x == b.
	ax := New(6, 9)
	MulInto(ax, g, x)
	if d := ax.MaxAbsDiff(b); d > 1e-2 {
		t.Fatalf("A·x differs from b by %v", d)
	}
}

func BenchmarkCholeskyZF64x16(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	h := randM(rng, 64, 16)
	w := New(16, 64)
	ws := NewZFWorkspace(16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := ZFEqualizerInto(w, h, ws); err != nil {
			b.Fatal(err)
		}
	}
}
