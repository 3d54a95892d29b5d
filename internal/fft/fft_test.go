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
	band := make([]complex64, 128)
	cases := []struct {
		name string
		f    func()
	}{
		{"Forward/short", func() { p.Forward(short) }},
		{"Forward/long", func() { p.Forward(long) }},
		{"Inverse/short", func() { p.Inverse(short) }},
		{"InverseBand/dst", func() { p.InverseBand(make([]complex64, 2*64-1), 2, band, 0, 64, 1, 64) }},
		{"InverseBand/count", func() { p.InverseBand(make([]complex64, 256), -1, band, 0, 64, 1, 64) }},
		{"InverseBand/band", func() { p.InverseBand(make([]complex64, 128), 2, band[:127], 0, 64, 1, 64) }},
		{"InverseBand/submajor", func() { p.InverseBand(make([]complex64, 128), 2, band[:127], 0, 64, 2, 1) }},
		{"InverseBand/lo", func() { p.InverseBand(make([]complex64, 64), 1, band, -1, 8, 1, 0) }},
		{"InverseBand/width", func() { p.InverseBand(make([]complex64, 64), 1, band, 60, 5, 1, 0) }},
		{"InverseBand/negwidth", func() { p.InverseBand(make([]complex64, 64), 1, band, 8, -1, 1, 0) }},
		{"InverseBand/stride", func() { p.InverseBand(make([]complex64, 64), 1, band, 0, 8, -1, 0) }},
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
	p.InverseBand(make([]complex64, 128), 2, band, 0, 64, 1, 64)
	p.InverseBand(make([]complex64, 128), 2, band, 0, 64, 2, 1)
	p.InverseBand(make([]complex64, 64), 1, band, 64, 0, 1, 0)
	p.InverseBand(nil, 0, nil, 0, 64, 1, 64)
	p.InverseBand(make([]complex64, 64), 1, nil, 3, 0, 1, 0)
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

// TestBatchRoundTrip is the Inverse(Forward(x)) == x property over
// strided batch layouts: each lane's spectrum comes from a standalone
// Forward, InverseBand reads the lanes back across ragged lane strides as
// full-width bands, and every lane round-trips.
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
			orig := randSignal(rng, (tc.count-1)*tc.stride+tc.n)
			spec := append([]complex64(nil), orig...)
			for b := 0; b < tc.count; b++ {
				p.Forward(spec[b*tc.stride : b*tc.stride+tc.n])
			}
			got := make([]complex64, tc.count*tc.n)
			p.InverseBand(got, tc.count, spec, 0, tc.n, 1, tc.stride)
			for b := 0; b < tc.count; b++ {
				want := orig[b*tc.stride : b*tc.stride+tc.n]
				if d := cf.MaxAbsDiff(got[b*tc.n:(b+1)*tc.n], want); d > 1e-4*math.Sqrt(float64(tc.n)) {
					t.Errorf("n=%d count=%d stride=%d lane %d roundtrip diff %v",
						tc.n, tc.count, tc.stride, b, d)
				}
			}
		}
	})
}

// inverseBandOracle is InverseBand the long way: per lane, zero an
// n-point buffer, copy the band to bins lo..lo+width-1, then Inverse.
func inverseBandOracle(p *Plan, dst []complex64, count int, band []complex64, lo, width, scStride, laneStride int) {
	n := p.Size()
	for l := 0; l < count; l++ {
		lane := dst[l*n : (l+1)*n]
		cf.Fill(lane, 0)
		for sc := 0; sc < width; sc++ {
			lane[lo+sc] = band[l*laneStride+sc*scStride]
		}
		p.Inverse(lane)
	}
}

// TestInverseBandMatchesInverse checks the TX transform against
// zero-fill + copy + Inverse per lane, bit for bit, on both kernel sides:
// every size 2..4096 (both parities of log2 n), one to three lanes, the
// subcarrier-major and antenna-major band layouts, and the band edges —
// an empty band, the full band, a band at bin 0 and one ending at bin n.
// Nothing past the count lanes is written.
func TestInverseBandMatchesInverse(t *testing.T) {
	onEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(47))
		const sentinel = complex(float32(-3.5), float32(7.25))
		for n := 2; n <= 4096; n *= 2 {
			p := MustPlan(n)
			w := max(n/2+n/8, 1)
			bands := []struct{ lo, width int }{
				{0, 0}, {n / 2, 0}, {0, n}, {0, w}, {n - w, w}, {(n - w) / 2, w}, {n / 4, 1},
			}
			for count := 1; count <= 3; count++ {
				for _, bd := range bands {
					for _, layout := range []struct {
						name                 string
						scStride, laneStride int
					}{
						{"subcarrier-major", count + 1, 1}, // a row per bin, one spare slot
						{"antenna-major", 1, bd.width + 3}, // a band per lane, ragged
					} {
						band := randSignal(rng, (count-1)*layout.laneStride+max(bd.width-1, 0)*layout.scStride+1)
						want := make([]complex64, count*n)
						inverseBandOracle(p, want, count, band, bd.lo, bd.width, layout.scStride, layout.laneStride)
						got := randSignal(rng, count*n+8)
						for i := count * n; i < len(got); i++ {
							got[i] = sentinel
						}
						p.InverseBand(got, count, band, bd.lo, bd.width, layout.scStride, layout.laneStride)
						if i := firstDiff(got[:count*n], want, false); i >= 0 {
							t.Fatalf("n=%d count=%d band [%d,+%d) %s: sample %d = %v, want %v",
								n, count, bd.lo, bd.width, layout.name, i, got[i], want[i])
						}
						for i := count * n; i < len(got); i++ {
							if got[i] != sentinel {
								t.Fatalf("n=%d count=%d: wrote past the lanes at %d", n, count, i)
							}
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

// BenchmarkIFFTBatch8x512 is the TX transform in the shape runIFFT
// calls it: a run of 8 antennas read from a subcarrier-major precoded
// grid, the reference cell's 304-subcarrier band centred in 512 bins.
// ns/op is per run.
func BenchmarkIFFTBatch8x512(b *testing.B) { benchCalls(b, inverseBand8x512()) }

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
// forward transform, the fused RX front end, an 8-antenna TX transform —
// on the platform's vector kernels and with the dispatch forced to the Go
// loops. Unlike the in-place benchmarks above, whose buffer decays to
// Inf/NaN after a few dozen iterations, each iteration starts from the
// same finite signal: the forward transform's refresh copy is inside the
// timed loop on both sides, and the other two never write their input.
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

// inverseBand8x512 returns one InverseBand call over 8 antenna lanes of
// a fixed subcarrier-major 304×8 grid, the band at bins 104..407.
func inverseBand8x512() func() {
	const n, lanes, width = 512, 8, 304
	p := MustPlan(n)
	grid := randSignal(rand.New(rand.NewSource(1)), width*lanes)
	dst := make([]complex64, lanes*n)
	return func() { p.InverseBand(dst, lanes, grid, (n-width)/2, width, lanes, 1) }
}

// storeIQ12Call returns one TX back-end call as runIFFT makes it: a
// 512-sample symbol with a 128-sample prefix at the engine's gain of 0.25.
func storeIQ12Call() func() {
	const n, cp = 512, 128
	x := randSignal(rand.New(rand.NewSource(1)), n)
	payload := make([]byte, (cp+n)*cf.BytesPerIQ)
	return func() { StoreIQ12(payload, x, cp, 0.25) }
}

func BenchmarkFFT512_AVX2(b *testing.B)            { benchImpl(b, true, forwardFresh()) }
func BenchmarkFFT512_PureGo(b *testing.B)          { benchImpl(b, false, forwardFresh()) }
func BenchmarkForwardIQ12_512_AVX2(b *testing.B)   { benchImpl(b, true, forwardIQ12()) }
func BenchmarkForwardIQ12_512_PureGo(b *testing.B) { benchImpl(b, false, forwardIQ12()) }
func BenchmarkIFFTBatch8x512_AVX2(b *testing.B)    { benchImpl(b, true, inverseBand8x512()) }
func BenchmarkIFFTBatch8x512_PureGo(b *testing.B)  { benchImpl(b, false, inverseBand8x512()) }
func BenchmarkStoreIQ12_512_AVX2(b *testing.B)     { benchImpl(b, true, storeIQ12Call()) }
func BenchmarkStoreIQ12_512_PureGo(b *testing.B)   { benchImpl(b, false, storeIQ12Call()) }

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
		{"FFT512", forwardFresh(), 512, 2},            // median 4.1×
		{"ForwardIQ12_512", forwardIQ12(), 1024, 4},   // median 8.2×
		{"IFFTBatch8x512", inverseBand8x512(), 64, 2}, // median 4.7×
		{"StoreIQ12_512", storeIQ12Call(), 1024, 4},   // median 12×
		{"CorrelateComb304x4", combCall(), 1024, 2},   // median 3.9×
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
