package fft

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cf"
	"repro/internal/perfgate"
)

func randSignal(rng *rand.Rand, n int) []complex64 {
	x := make([]complex64, n)
	for i := range x {
		x[i] = complex(rng.Float32()*2-1, rng.Float32()*2-1)
	}
	return x
}

func TestNewPlanRejectsBadSizes(t *testing.T) {
	cases := []struct {
		n    int
		want string // substring of the error
	}{
		{0, "not a power of two"},
		{1, "not a power of two"},
		{3, "not a power of two"},
		{5, "not a power of two"},
		{6, "not a power of two"},
		{7, "not a power of two"},
		{12, "not a power of two"},
		{100, "not a power of two"},
		{1000, "not a power of two"},
		{-8, "not a power of two"},
		{-1 << 20, "not a power of two"},
	}
	for _, tc := range cases {
		_, err := NewPlan(tc.n)
		if err == nil {
			t.Errorf("NewPlan(%d) should fail", tc.n)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("NewPlan(%d) error %q, want substring %q", tc.n, err, tc.want)
		}
	}
	if _, err := NewPlan(256); err != nil {
		t.Errorf("NewPlan(256): %v", err)
	}
}

// expectPanic runs f and reports whether it panicked.
func expectPanic(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return
}

func TestUndersizedBuffersPanic(t *testing.T) {
	p := MustPlan(64)
	short := make([]complex64, 63)
	long := make([]complex64, 65)
	cases := []struct {
		name string
		f    func()
	}{
		{"Forward/short", func() { p.Forward(short) }},
		{"Forward/long", func() { p.Forward(long) }},
		{"Inverse/short", func() { p.Inverse(short) }},
		{"InverseNoScale/short", func() { p.InverseNoScale(short) }},
		{"ForwardBatch/short", func() { p.ForwardBatch(make([]complex64, 2*64-1), 2, 64) }},
		{"ForwardBatch/stride", func() { p.ForwardBatch(make([]complex64, 256), 2, 63) }},
		{"ForwardBatch/count", func() { p.ForwardBatch(make([]complex64, 256), -1, 64) }},
		{"InverseBatch/short", func() { p.InverseBatch(make([]complex64, 100), 2, 70) }},
		{"ForwardIQ12/dst", func() { p.ForwardIQ12(short, make([]byte, 64*3), 0) }},
		{"ForwardIQ12/payload", func() { p.ForwardIQ12(make([]complex64, 64), make([]byte, 64*3-1), 0) }},
		{"ForwardIQ12/cp", func() { p.ForwardIQ12(make([]complex64, 64), make([]byte, 64*3), 4) }},
		{"ForwardIQ12/negcp", func() { p.ForwardIQ12(make([]complex64, 64), make([]byte, 80*3), -1) }},
	}
	for _, tc := range cases {
		if !expectPanic(tc.f) {
			t.Errorf("%s: expected panic", tc.name)
		}
	}
	// Exactly-sized calls must NOT panic.
	p.Forward(make([]complex64, 64))
	p.ForwardBatch(make([]complex64, 64+70), 2, 70)
	p.InverseBatch(nil, 0, 64)
	p.ForwardIQ12(make([]complex64, 64), make([]byte, (64+4)*3), 4)
}

// TestKernelMatchesNaiveDFTAllSizes pins the transform against the O(n^2)
// reference for every power of two 4..4096 — both parities of log2 n, so
// the pure radix-4 schedule and the trailing radix-2 stage are each
// exercised at every depth.
func TestKernelMatchesNaiveDFTAllSizes(t *testing.T) {
	t.Run(Kernel(), func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		for n := 4; n <= 4096; n *= 2 {
			x := randSignal(rng, n)
			want := DFTNaive(x)
			got := append([]complex64(nil), x...)
			MustPlan(n).Forward(got)
			// DFTNaive accumulates in float64; allow float32 butterfly
			// rounding that grows with transform depth.
			if d := cf.MaxAbsDiff(got, want); d > 2e-4*float64(n) {
				t.Errorf("n=%d: max diff vs naive DFT %v", n, d)
			}
		}
	})
}

// TestBatchRoundTrip is the Inverse(Forward(x)) == x property over strided
// batch layouts: every lane round-trips, and the padding between lanes is
// untouched.
func TestBatchRoundTrip(t *testing.T) {
	t.Run(Kernel(), func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		for _, tc := range []struct{ n, count, stride int }{
			{64, 1, 64},
			{64, 4, 64},   // dense
			{64, 4, 71},   // ragged stride
			{256, 8, 256}, // antenna batch
			{512, 3, 512 + 17},
			{2048, 2, 2048},
		} {
			p := MustPlan(tc.n)
			buf := randSignal(rng, (tc.count-1)*tc.stride+tc.n)
			orig := append([]complex64(nil), buf...)
			p.ForwardBatch(buf, tc.count, tc.stride)
			// Each lane must match a standalone Forward.
			for b := 0; b < tc.count; b++ {
				lane := append([]complex64(nil), orig[b*tc.stride:b*tc.stride+tc.n]...)
				p.Forward(lane)
				for i := range lane {
					if lane[i] != buf[b*tc.stride+i] {
						t.Fatalf("n=%d lane %d differs from standalone Forward", tc.n, b)
					}
				}
			}
			p.InverseBatch(buf, tc.count, tc.stride)
			for b := 0; b < tc.count; b++ {
				lo, hi := b*tc.stride, b*tc.stride+tc.n
				if d := cf.MaxAbsDiff(buf[lo:hi], orig[lo:hi]); d > 1e-4*math.Sqrt(float64(tc.n)) {
					t.Errorf("n=%d count=%d stride=%d lane %d roundtrip diff %v",
						tc.n, tc.count, tc.stride, b, d)
				}
				// Padding between lanes stays byte-for-byte.
				if b+1 < tc.count {
					for i := hi; i < lo+tc.stride; i++ {
						if buf[i] != orig[i] {
							t.Fatalf("n=%d stride=%d: padding at %d clobbered", tc.n, tc.stride, i)
						}
					}
				}
			}
		}
	})
}

// TestForwardIQ12MatchesUnfused checks the fused CP-strip/unpack/permute
// front end against the three-pass path it replaces, bit for bit.
func TestForwardIQ12MatchesUnfused(t *testing.T) {
	t.Run(Kernel(), func(t *testing.T) {
		rng := rand.New(rand.NewSource(41))
		for _, tc := range []struct{ n, cp int }{
			{64, 0}, {64, 16}, {256, 32}, {512, 128}, {2048, 144},
		} {
			p := MustPlan(tc.n)
			total := tc.n + tc.cp
			iq := make([]int16, 2*total)
			for i := range iq {
				iq[i] = int16(rng.Intn(4096) - 2048)
			}
			payload := make([]byte, total*cf.BytesPerIQ)
			cf.PackIQ12(payload, iq)
			// Unfused reference: unpack all samples, strip CP, transform.
			ref := make([]complex64, total)
			cf.UnpackIQ12(ref, payload)
			want := append([]complex64(nil), ref[tc.cp:]...)
			p.Forward(want)
			got := make([]complex64, tc.n)
			p.ForwardIQ12(got, payload, tc.cp)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d cp=%d bin %d: fused %v != unfused %v",
						tc.n, tc.cp, i, got[i], want[i])
				}
			}
		}
	})
}

// TestForwardIQ12BatchMatchesSingle checks that each lane of the batched
// fused front end is bit-identical to a standalone ForwardIQ12 call, over
// lane counts that exercise a spare-stride layout and short payloads that
// must panic.
func TestForwardIQ12BatchMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, tc := range []struct{ n, cp, lanes int }{
		{64, 16, 1}, {256, 32, 3}, {512, 128, 4},
	} {
		p := MustPlan(tc.n)
		total := tc.n + tc.cp
		payloads := make([][]byte, tc.lanes)
		for l := range payloads {
			iq := make([]int16, 2*total)
			for i := range iq {
				iq[i] = int16(rng.Intn(4096) - 2048)
			}
			payloads[l] = make([]byte, total*cf.BytesPerIQ)
			cf.PackIQ12(payloads[l], iq)
		}
		stride := tc.n + 8 // spare room between lanes must stay untouched
		got := make([]complex64, (tc.lanes-1)*stride+tc.n+8)
		for i := range got {
			got[i] = complex(-1, -1)
		}
		p.ForwardIQ12Batch(got, payloads, tc.cp, stride)
		want := make([]complex64, tc.n)
		for l := 0; l < tc.lanes; l++ {
			p.ForwardIQ12(want, payloads[l], tc.cp)
			lane := got[l*stride : l*stride+tc.n]
			for i := range lane {
				if lane[i] != want[i] {
					t.Fatalf("n=%d cp=%d lane %d bin %d: batch %v != single %v",
						tc.n, tc.cp, l, i, lane[i], want[i])
				}
			}
			// Gap samples after the lane must be untouched.
			for i := l*stride + tc.n; i < (l+1)*stride && i < len(got); i++ {
				if got[i] != complex(-1, -1) {
					t.Fatalf("lane %d wrote past its stride at %d", l, i)
				}
			}
		}
		// A short payload must panic, like ForwardIQ12.
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("short payload did not panic")
				}
			}()
			p.ForwardIQ12Batch(got, [][]byte{payloads[0][:4]}, tc.cp, stride)
		}()
	}
}

func TestForwardMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{2, 4, 8, 16, 64, 256} {
		x := randSignal(rng, n)
		want := DFTNaive(x)
		got := append([]complex64(nil), x...)
		MustPlan(n).Forward(got)
		if d := cf.MaxAbsDiff(got, want); d > 1e-3*float64(n) {
			t.Errorf("n=%d: max diff %v", n, d)
		}
	}
}

func TestInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{4, 64, 512, 2048} {
		p := MustPlan(n)
		x := randSignal(rng, n)
		y := append([]complex64(nil), x...)
		p.Forward(y)
		p.Inverse(y)
		if d := cf.MaxAbsDiff(x, y); d > 1e-4*math.Sqrt(float64(n)) {
			t.Errorf("n=%d roundtrip diff %v", n, d)
		}
	}
}

func TestImpulseResponse(t *testing.T) {
	// FFT of delta function is all ones.
	n := 128
	x := make([]complex64, n)
	x[0] = 1
	MustPlan(n).Forward(x)
	for k, v := range x {
		if math.Abs(float64(real(v))-1) > 1e-5 || math.Abs(float64(imag(v))) > 1e-5 {
			t.Fatalf("bin %d: %v, want 1", k, v)
		}
	}
}

func TestSingleToneBin(t *testing.T) {
	// A complex exponential at bin k concentrates all energy at bin k.
	n, k := 256, 37
	x := make([]complex64, n)
	for t2 := 0; t2 < n; t2++ {
		ang := 2 * math.Pi * float64(k) * float64(t2) / float64(n)
		s, c := math.Sincos(ang)
		x[t2] = complex(float32(c), float32(s))
	}
	MustPlan(n).Forward(x)
	for b, v := range x {
		mag := math.Hypot(float64(real(v)), float64(imag(v)))
		if b == k {
			if math.Abs(mag-float64(n)) > 1e-2 {
				t.Fatalf("bin %d magnitude %v, want %d", b, mag, n)
			}
		} else if mag > 1e-2 {
			t.Fatalf("leakage at bin %d: %v", b, mag)
		}
	}
}

func TestParseval(t *testing.T) {
	// Property: energy preserved up to factor n.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (3 + rng.Intn(6))
		x := randSignal(rng, n)
		te := cf.Energy(x)
		y := append([]complex64(nil), x...)
		MustPlan(n).Forward(y)
		fe := cf.Energy(y) / float64(n)
		return math.Abs(te-fe) < 1e-2*(1+te)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 128
	p := MustPlan(n)
	x := randSignal(rng, n)
	y := randSignal(rng, n)
	sum := make([]complex64, n)
	for i := range sum {
		sum[i] = x[i] + y[i]
	}
	p.Forward(x)
	p.Forward(y)
	p.Forward(sum)
	for i := range sum {
		x[i] += y[i]
	}
	if d := cf.MaxAbsDiff(sum, x); d > 1e-3 {
		t.Fatalf("linearity violated: %v", d)
	}
}

func TestInverseNoScale(t *testing.T) {
	n := 64
	p := MustPlan(n)
	rng := rand.New(rand.NewSource(10))
	x := randSignal(rng, n)
	a := append([]complex64(nil), x...)
	b := append([]complex64(nil), x...)
	p.InverseNoScale(a)
	p.Inverse(b)
	cf.Scale(b, float32(n))
	if d := cf.MaxAbsDiff(a, b); d > 1e-3 {
		t.Fatalf("InverseNoScale mismatch: %v", d)
	}
}

func TestPlanConcurrentUse(t *testing.T) {
	t.Run(Kernel(), func(t *testing.T) {
		p := MustPlan(512)
		done := make(chan struct{})
		for g := 0; g < 4; g++ {
			go func(seed int64) {
				defer func() { done <- struct{}{} }()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 50; i++ {
					x := randSignal(rng, 512)
					orig := append([]complex64(nil), x...)
					p.Forward(x)
					p.Inverse(x)
					if cf.MaxAbsDiff(x, orig) > 1e-2 {
						panic("concurrent roundtrip failed")
					}
				}
			}(int64(g))
		}
		for g := 0; g < 4; g++ {
			<-done
		}
	})
}

// benchForward measures one in-place forward transform of size n.
func benchForward(b *testing.B, n int) {
	p := MustPlan(n)
	x := randSignal(rand.New(rand.NewSource(1)), n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(x)
	}
}

// The OFDM sizes the engine uses (512 = Fig9 cell, 2048 = paper headline).
func BenchmarkFFT512(b *testing.B)  { benchForward(b, 512) }
func BenchmarkFFT1024(b *testing.B) { benchForward(b, 1024) }
func BenchmarkFFT2048(b *testing.B) { benchForward(b, 2048) }

func BenchmarkIFFT2048(b *testing.B) {
	p := MustPlan(2048)
	x := randSignal(rand.New(rand.NewSource(1)), 2048)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Inverse(x)
	}
}

// BenchmarkIFFTBatch8x512 is the antenna-run shape runIFFT uses: 8
// antenna grids transformed through one call. ns/op is per batch.
func BenchmarkIFFTBatch8x512(b *testing.B) {
	p := MustPlan(512)
	x := randSignal(rand.New(rand.NewSource(1)), 8*512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.InverseBatch(x, 8, 512)
	}
}

// BenchmarkForwardIQ12_512 is the fused RX front end (CP strip + unpack +
// permute + transform) vs its unfused counterpart below.
func BenchmarkForwardIQ12_512(b *testing.B) { benchCalls(b, forwardIQ12()) }

// iq12Payload512 packs one 512-point symbol plus a 128-sample cyclic
// prefix of random 12-bit IQ.
func iq12Payload512() []byte {
	const n, cp = 512, 128
	rng := rand.New(rand.NewSource(1))
	iq := make([]int16, 2*(n+cp))
	for i := range iq {
		iq[i] = int16(rng.Intn(4096) - 2048)
	}
	payload := make([]byte, (n+cp)*cf.BytesPerIQ)
	cf.PackIQ12(payload, iq)
	return payload
}

// forwardIQ12 returns one fused front-end call on iq12Payload512.
func forwardIQ12() func() {
	p := MustPlan(512)
	payload := iq12Payload512()
	dst := make([]complex64, 512)
	return func() { p.ForwardIQ12(dst, payload, 128) }
}

func BenchmarkForwardIQ12_512_Unfused(b *testing.B) {
	const n, cp = 512, 128
	p := MustPlan(n)
	payload := iq12Payload512()
	timeBuf := make([]complex64, n+cp)
	dst := make([]complex64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cf.UnpackIQ12(timeBuf, payload)
		copy(timeBuf, timeBuf[cp:])
		copy(dst, timeBuf[:n])
		p.Forward(dst)
	}
}

// Implementation A/B (DESIGN §10): the same three shapes as above — one
// forward transform, the fused RX front end, an 8-antenna inverse batch —
// on the platform's vector kernels and with the dispatch forced to the Go
// loops. Unlike the in-place benchmarks above, whose buffer decays to
// Inf/NaN after a few dozen iterations, each iteration starts from the
// same finite signal (the refresh copy is inside the timed loop on both
// sides).
func benchImpl(b *testing.B, vector bool, call func()) {
	if vector && simd == nil {
		b.Skip("no vector kernels on this CPU/GOARCH")
	}
	if !vector {
		defer forceGoKernels()()
	}
	benchCalls(b, call)
}

// benchCalls times b.N calls of call.
func benchCalls(b *testing.B, call func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		call()
	}
}

// forwardFresh returns one forward 512-point transform of a fixed signal.
func forwardFresh() func() {
	p := MustPlan(512)
	src := randSignal(rand.New(rand.NewSource(1)), 512)
	x := make([]complex64, 512)
	return func() {
		copy(x, src)
		p.Forward(x)
	}
}

// inverseBatchFresh returns one 8×512 inverse batch of a fixed signal.
func inverseBatchFresh() func() {
	p := MustPlan(512)
	src := randSignal(rand.New(rand.NewSource(1)), 8*512)
	x := make([]complex64, 8*512)
	return func() {
		copy(x, src)
		p.InverseBatch(x, 8, 512)
	}
}

func BenchmarkFFT512_AVX2(b *testing.B)            { benchImpl(b, true, forwardFresh()) }
func BenchmarkFFT512_PureGo(b *testing.B)          { benchImpl(b, false, forwardFresh()) }
func BenchmarkForwardIQ12_512_AVX2(b *testing.B)   { benchImpl(b, true, forwardIQ12()) }
func BenchmarkForwardIQ12_512_PureGo(b *testing.B) { benchImpl(b, false, forwardIQ12()) }
func BenchmarkIFFTBatch8x512_AVX2(b *testing.B)    { benchImpl(b, true, inverseBatchFresh()) }
func BenchmarkIFFTBatch8x512_PureGo(b *testing.B)  { benchImpl(b, false, inverseBatchFresh()) }

// BenchmarkKernelGate is the stage kernels' perf gate (`make perf`): the
// _PureGo/_AVX2 ratio of each pair above, measured in one process by
// alternating the two sides over gateRounds rounds of calls calls each.
// Only the ratio is checked, so host speed cannot move it much. Each
// floor is about half of the median on a 2-vCPU AVX2 VM, stated beside it.
func BenchmarkKernelGate(b *testing.B) {
	if Kernel() == "generic" {
		b.Skip("Go loops only: no vector kernels to gate")
	}
	const gateRounds = 11
	for _, g := range []struct {
		name  string
		call  func()
		calls int
		floor float64
	}{
		{"FFT512", forwardFresh(), 512, 2},             // median 4.1×
		{"ForwardIQ12_512", forwardIQ12(), 1024, 4},    // median 8.2×
		{"IFFTBatch8x512", inverseBatchFresh(), 64, 2}, // median 3.9×
	} {
		batch := func() {
			for i := 0; i < g.calls; i++ {
				g.call()
			}
		}
		goSide := func() {
			defer forceGoKernels()()
			batch()
		}
		ratio := perfgate.Ratio(gateRounds, goSide, batch)
		b.ReportMetric(ratio, g.name+"-x")
		if ratio < g.floor {
			b.Fatalf("%s: vector stage kernels %.2f× the Go loops, floor %.1f×", g.name, ratio, g.floor)
		}
	}
}
