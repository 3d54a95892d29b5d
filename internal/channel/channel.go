// Package channel provides the radio-world models used to exercise the
// baseband without RF hardware: AWGN, i.i.d. Rayleigh and line-of-sight
// (uniform linear array) channel matrices, frequency-selective multipath
// (Selective, exponential power-delay profile), frame-to-frame channel
// evolution (Evolve, for mobility and ZF-cache experiments), SNR
// control, and the pilot sequences Agora uses (frequency-orthogonal
// pilots for the emulated RRU and Zadoff–Chu sequences for the
// hardware-RRU experiment).
package channel

import (
	"math"
	"math/rand"

	"repro/internal/mat"
)

// Model selects how channel matrices are drawn.
type Model int

// Supported channel models.
const (
	// Rayleigh draws i.i.d. CN(0,1) entries, the emulated-RRU default.
	Rayleigh Model = iota
	// LOS builds steering-vector channels for a uniform linear array with
	// per-user random angles, modeling the indoor line-of-sight links of
	// the paper's over-the-air experiment (§5.3).
	LOS
	// Identity wires user k to antenna k (requires M >= K); useful in
	// tests where exact bit recovery must not depend on fading.
	Identity
)

// Draw fills h (M×K) according to the model. LOS channels get a small
// Rician-like scatter component so the matrix is well conditioned even
// when user angles nearly collide.
func Draw(h *mat.M, model Model, rng *rand.Rand) {
	m, k := h.Rows, h.Cols
	switch model {
	case Rayleigh:
		h.Random(rng)
	case LOS:
		const scatter = 0.3 // power fraction in the diffuse component
		for u := 0; u < k; u++ {
			theta := rng.Float64()*math.Pi - math.Pi/2
			phase0 := rng.Float64() * 2 * math.Pi
			for a := 0; a < m; a++ {
				// Half-wavelength ULA steering.
				ang := phase0 + math.Pi*float64(a)*math.Sin(theta)
				s, c := math.Sincos(ang)
				los := complex(c, s)
				diff := complex(rng.NormFloat64()/math.Sqrt2, rng.NormFloat64()/math.Sqrt2)
				v := complex128(los)*complex(math.Sqrt(1-scatter), 0) +
					complex128(diff)*complex(math.Sqrt(scatter), 0)
				h.Set(a, u, complex64(v))
			}
		}
	case Identity:
		h.Zero()
		for u := 0; u < k && u < m; u++ {
			h.Set(u, u, 1)
		}
	default:
		panic("channel: unknown model")
	}
}

// AWGN adds complex Gaussian noise with the given per-sample noise
// variance (total over both components) to x in place.
func AWGN(x []complex64, noiseVar float64, rng *rand.Rand) {
	if noiseVar <= 0 {
		return
	}
	std := math.Sqrt(noiseVar / 2)
	for i := range x {
		x[i] += complex(float32(rng.NormFloat64()*std), float32(rng.NormFloat64()*std))
	}
}

// NoiseVarForSNR returns the noise variance that yields the requested SNR
// in dB for unit-power signal samples.
func NoiseVarForSNR(snrDB float64) float64 {
	return math.Pow(10, -snrDB/10)
}

// ZadoffChu generates a length-n Zadoff–Chu sequence with root u
// (gcd(u,n) should be 1; n odd gives the classical construction). ZC
// sequences have constant amplitude and ideal cyclic autocorrelation,
// which is why the hardware experiment uses them as full-band pilots.
func ZadoffChu(n, u int) []complex64 {
	out := make([]complex64, n)
	for k := 0; k < n; k++ {
		var phase float64
		if n%2 == 0 {
			phase = -math.Pi * float64(u) * float64(k) * float64(k) / float64(n)
		} else {
			phase = -math.Pi * float64(u) * float64(k) * float64(k+1) / float64(n)
		}
		s, c := math.Sincos(phase)
		out[k] = complex(float32(c), float32(s))
	}
	return out
}

// FrequencyOrthogonalPilot returns user u's pilot over q subcarriers when
// k users share one pilot symbol by occupying interleaved subcarriers:
// user u transmits a unit QPSK-like tone on subcarriers where
// sc % k == u and zero elsewhere. The base station interpolates the
// missing subcarriers (done in the CSI block).
// The occupied tones carry a Zadoff-Chu sequence rather than a constant:
// an all-ones comb is an impulse train in the time domain whose peaks
// clip the RRU's 12-bit converters and bias the channel estimate (a
// ~30 dB error floor that 256-QAM notices), while a ZC comb keeps the
// time-domain envelope flat. The receiver correlates with the conjugate
// sequence, so any unit-amplitude choice is transparent to CSI
// extraction.
func FrequencyOrthogonalPilot(q, k, u int) []complex64 {
	out := make([]complex64, q)
	n := (q - u + k - 1) / k // occupied tone count
	if n == 0 {
		return out
	}
	zc := ZadoffChu(n, 1)
	i := 0
	for sc := u; sc < q; sc += k {
		out[sc] = zc[i]
		i++
	}
	return out
}

// Evolve ages the channel matrix by one step of a first-order
// Gauss–Markov process: H <- rho*H + sqrt(1-rho^2)*W with W i.i.d.
// CN(0,1). rho close to 1 models low (pedestrian) mobility; the paper's
// §3.4.2 stale-precoder optimization is justified exactly when rho is
// high between consecutive frames.
func Evolve(h *mat.M, rho float64, rng *rand.Rand) {
	if rho >= 1 {
		return
	}
	if rho < 0 {
		rho = 0
	}
	innov := math.Sqrt(1 - rho*rho)
	for i := range h.Data {
		w := complex(rng.NormFloat64()/math.Sqrt2, rng.NormFloat64()/math.Sqrt2)
		h.Data[i] = complex64(complex128(h.Data[i])*complex(rho, 0) + w*complex(innov, 0))
	}
}

// CorrelationAfter returns the theoretical correlation between the
// current channel and the channel n Evolve(rho) steps later: rho^n.
func CorrelationAfter(rho float64, n int) float64 {
	return math.Pow(rho, float64(n))
}

// Selective models a frequency-selective multipath channel: taps[l] is
// the M×K channel matrix of the l-th delay tap, and Frequency evaluates
// the per-subcarrier response. With a cyclic prefix at least as long as
// the delay spread, OFDM turns the multipath channel into exactly this
// per-subcarrier flat response, which is what makes per-subcarrier-group
// equalization (Agora's ZF groups of 16) a real design trade-off:
// wider groups amortize matrix inversions but mis-equalize when the
// coherence bandwidth is small.
type Selective struct {
	Taps []*mat.M // tap 0 first; power-normalized across taps
	N    int      // OFDM size the responses are evaluated against
}

// NewSelective draws an L-tap channel with an exponential power-delay
// profile (3 dB per tap) for an M×K link over an n-point OFDM grid.
func NewSelective(m, k, l, n int, rng *rand.Rand) *Selective {
	if l < 1 {
		l = 1
	}
	s := &Selective{N: n}
	var totalP float64
	powers := make([]float64, l)
	for i := 0; i < l; i++ {
		powers[i] = math.Pow(10, -0.3*float64(i))
		totalP += powers[i]
	}
	for i := 0; i < l; i++ {
		t := mat.New(m, k)
		t.Random(rng)
		scale := float32(math.Sqrt(powers[i] / totalP))
		for j := range t.Data {
			t.Data[j] = complex(real(t.Data[j])*scale, imag(t.Data[j])*scale)
		}
		s.Taps = append(s.Taps, t)
	}
	return s
}

// DelaySpread returns the channel's length in samples (the cyclic prefix
// must be at least this long).
func (s *Selective) DelaySpread() int { return len(s.Taps) }

// FrequencyInto writes the per-subcarrier response H(sc) for absolute
// subcarrier index sc (0..N-1) into dst (M×K):
// H(sc) = Σ_l Taps[l] · e^(-j2π·l·sc/N).
func (s *Selective) FrequencyInto(dst *mat.M, sc int) {
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	for l, tap := range s.Taps {
		ang := -2 * math.Pi * float64(l) * float64(sc) / float64(s.N)
		sin, cos := math.Sincos(ang)
		rot := complex(float32(cos), float32(sin))
		for i, v := range tap.Data {
			dst.Data[i] += v * rot
		}
	}
}
