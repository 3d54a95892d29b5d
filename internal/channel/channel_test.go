package channel

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/cf"
	"repro/internal/mat"
)

func TestDrawRayleighStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := mat.New(64, 16)
	Draw(h, Rayleigh, rng)
	// Unit average power per entry.
	p := h.FrobNorm()
	avg := p * p / float64(64*16)
	if math.Abs(avg-1) > 0.1 {
		t.Fatalf("average entry power %v, want ~1", avg)
	}
}

func TestDrawLOSUnitPowerAndConditioning(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	h := mat.New(64, 8)
	Draw(h, LOS, rng)
	avg := math.Pow(h.FrobNorm(), 2) / float64(64*8)
	if math.Abs(avg-1) > 0.15 {
		t.Fatalf("LOS average entry power %v, want ~1", avg)
	}
	// With M >> K and scatter, conditioning should be workable.
	if c := mat.Cond2(h); c > 100 {
		t.Fatalf("LOS channel condition number %v too large", c)
	}
}

func TestDrawIdentity(t *testing.T) {
	h := mat.New(4, 2)
	Draw(h, Identity, nil)
	if h.At(0, 0) != 1 || h.At(1, 1) != 1 || h.At(2, 0) != 0 {
		t.Fatalf("identity channel wrong: %v", h)
	}
}

func TestAWGNVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 200000
	x := make([]complex64, n)
	AWGN(x, 0.25, rng)
	v := cf.Energy(x) / float64(n)
	if math.Abs(v-0.25) > 0.01 {
		t.Fatalf("noise variance %v, want 0.25", v)
	}
	// noiseVar <= 0 is a no-op.
	y := []complex64{1 + 1i}
	AWGN(y, 0, rng)
	if y[0] != 1+1i {
		t.Fatal("zero-variance AWGN modified signal")
	}
}

func TestNoiseVarForSNR(t *testing.T) {
	if v := NoiseVarForSNR(0); math.Abs(v-1) > 1e-12 {
		t.Fatalf("0 dB: %v", v)
	}
	if v := NoiseVarForSNR(10); math.Abs(v-0.1) > 1e-12 {
		t.Fatalf("10 dB: %v", v)
	}
	if v := NoiseVarForSNR(25); math.Abs(v-math.Pow(10, -2.5)) > 1e-12 {
		t.Fatalf("25 dB: %v", v)
	}
}

func TestZadoffChuConstantAmplitude(t *testing.T) {
	for _, n := range []int{139, 512, 839} {
		zc := ZadoffChu(n, 25)
		for i, v := range zc {
			if math.Abs(cmplx.Abs(complex128(v))-1) > 1e-5 {
				t.Fatalf("n=%d: |zc[%d]| = %v", n, i, cmplx.Abs(complex128(v)))
			}
		}
	}
}

func TestZadoffChuAutocorrelation(t *testing.T) {
	// Ideal periodic autocorrelation: zero at all nonzero cyclic lags.
	n := 139 // prime length, classic ZC
	zc := ZadoffChu(n, 7)
	for lag := 1; lag < n; lag++ {
		var acc complex128
		for i := 0; i < n; i++ {
			acc += complex128(zc[i]) * cmplx.Conj(complex128(zc[(i+lag)%n]))
		}
		if cmplx.Abs(acc) > 1e-3*float64(n) {
			t.Fatalf("lag %d: autocorrelation %v not ~0", lag, cmplx.Abs(acc))
		}
	}
}

func TestZadoffChuRootsDistinct(t *testing.T) {
	// Different roots give low cross-correlation (prime length).
	n := 139
	a := ZadoffChu(n, 1)
	b := ZadoffChu(n, 2)
	var acc complex128
	for i := 0; i < n; i++ {
		acc += complex128(a[i]) * cmplx.Conj(complex128(b[i]))
	}
	if cmplx.Abs(acc) > float64(n)/math.Sqrt(float64(n))*2 {
		t.Fatalf("cross-correlation %v too high", cmplx.Abs(acc))
	}
}

func TestFrequencyOrthogonalPilots(t *testing.T) {
	q, k := 48, 4
	occupied := make([]int, q)
	for u := 0; u < k; u++ {
		p := FrequencyOrthogonalPilot(q, k, u)
		for sc, v := range p {
			if v != 0 {
				if sc%k != u {
					t.Fatalf("user %d occupies foreign subcarrier %d", u, sc)
				}
				occupied[sc]++
			}
		}
	}
	for sc, n := range occupied {
		if n > 1 {
			t.Fatalf("subcarrier %d shared by %d users", sc, n)
		}
	}
}

func TestEvolvePreservesStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	h := mat.New(64, 8)
	Draw(h, Rayleigh, rng)
	orig := h.Clone()
	for i := 0; i < 10; i++ {
		Evolve(h, 0.98, rng)
	}
	// Power stays ~unit.
	avg := math.Pow(h.FrobNorm(), 2) / float64(64*8)
	if math.Abs(avg-1) > 0.15 {
		t.Fatalf("power drifted to %v", avg)
	}
	// Correlation with the original ~ rho^10.
	var num complex128
	var d1, d2 float64
	for i := range h.Data {
		a, b := complex128(orig.Data[i]), complex128(h.Data[i])
		num += a * cmplx.Conj(b)
		d1 += real(a)*real(a) + imag(a)*imag(a)
		d2 += real(b)*real(b) + imag(b)*imag(b)
	}
	corr := cmplx.Abs(num) / math.Sqrt(d1*d2)
	want := CorrelationAfter(0.98, 10)
	if math.Abs(corr-want) > 0.08 {
		t.Fatalf("correlation %v, want ~%v", corr, want)
	}
}

func TestEvolveEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	h := mat.New(4, 2)
	Draw(h, Rayleigh, rng)
	orig := h.Clone()
	Evolve(h, 1.0, rng) // rho=1: unchanged
	if h.MaxAbsDiff(orig) != 0 {
		t.Fatal("rho=1 changed the channel")
	}
	Evolve(h, -3, rng) // clamped to 0: fully new draw, finite values
	for _, v := range h.Data {
		if v != v {
			t.Fatal("NaN after Evolve")
		}
	}
}

func TestSelectiveFrequencyResponse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := NewSelective(4, 2, 1, 128, rng)
	// Single tap: response identical at every subcarrier.
	a := mat.New(4, 2)
	b := mat.New(4, 2)
	s.FrequencyInto(a, 0)
	s.FrequencyInto(b, 77)
	if a.MaxAbsDiff(b) > 1e-5 {
		t.Fatal("single-tap channel is not flat")
	}
	// Multi-tap: response varies across the band.
	s8 := NewSelective(4, 2, 8, 128, rng)
	s8.FrequencyInto(a, 0)
	s8.FrequencyInto(b, 64)
	if a.MaxAbsDiff(b) < 1e-3 {
		t.Fatal("8-tap channel looks flat")
	}
}

func TestSelectivePowerNormalized(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	s := NewSelective(16, 4, 6, 256, rng)
	// Average per-entry power of H(sc) across the band ~ 1.
	h := mat.New(16, 4)
	var p float64
	for sc := 0; sc < 256; sc += 8 {
		s.FrequencyInto(h, sc)
		p += math.Pow(h.FrobNorm(), 2) / float64(16*4)
	}
	p /= 32
	if math.Abs(p-1) > 0.25 {
		t.Fatalf("average response power %v, want ~1", p)
	}
}
