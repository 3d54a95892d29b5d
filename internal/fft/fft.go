// Package fft implements the OFDM (I)FFT used by the baseband.
//
// The transform is a mixed radix-4/radix-2 (split-radix-style)
// decimation-in-time transform over complex64 samples: a digit-reversal
// permutation realized as a precomputed transposition list, a specialized
// unity-twiddle radix-4 first stage, stage-grouped radix-4 butterflies
// (three multiplies per four outputs — 25% fewer multiplies and half the
// memory passes of radix-2), and one trailing radix-2 stage when log2(n)
// is odd.
//
// A Plan is created once per size and is safe for concurrent use by
// multiple workers as long as each call supplies its own buffer, matching
// Agora's model where every FFT task owns a disjoint antenna buffer.
// Neither direction of the baseband runs the permutation as a pass of its
// own: ForwardIQ12 fuses the RX front end — cyclic-prefix strip, 12-bit
// IQ unpack and the input permutation — into a single pass over the
// payload bytes, and InverseBand, the TX transform, scatters each
// lane's data band straight into butterfly order while it zeroes the
// guard bins. Both take a run of antenna lanes per call, so the twiddle
// tables stay cache-resident across the run. Forward and Inverse, the
// in-place transforms, apply the permutation with a swap list.
//
// On amd64 with AVX2 the split-radix stage loops and the IQ12 front end
// run as assembly kernels (stages_amd64.s, see kernel.go); the Go loops in
// this file are the fallback everywhere else and the reference the vector
// kernels are bit-identical to.
package fft

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/cf"
)

// Plan holds the precomputed tables for a fixed power-of-two size.
type Plan struct {
	n    int
	logN uint

	// perm is the input permutation as a gather table: the butterfly
	// stages expect x'[i] = x[perm[i]]: the mixed digit reversal (base-4
	// digits, plus one binary digit when log2 n is odd).
	perm []uint32
	// pos is perm's inverse, a scatter table: input sample k belongs at
	// x'[pos[k]]. InverseBand places each band sample with it. Its first
	// n/4 entries are the first stage's block starts: butterfly i reads
	// samples q, q+n/4, q+n/2, q+3n/4 with q = perm[4i], so pos[q] = 4i,
	// and the vector IQ12 front end walks the payload in sample order
	// and places whole blocks there.
	pos []uint32
	// swaps realizes perm in place as a flat list of (i,j) transposition
	// pairs (one cycle-walk per permutation cycle), so the in-place entry
	// points need no scratch buffer and stay safe for concurrent use.
	swaps []uint32

	// Radix-4 stage twiddles, stages concatenated in execution order
	// (sub-size L = 4, 16, ...). A stage is three planes of L entries,
	// w1 | w2 | w3 with w_m[j] = W_{4L}^{mj} for butterfly j, so a scalar
	// kernel indexes each plane by j and a vector kernel loads four
	// consecutive butterflies' twiddles with one unshuffled load per
	// plane. The unity-twiddle L=1 stage stores nothing.
	tw4, tw4Inv []complex64
	// Trailing radix-2 stage twiddles (odd log2 n only): W_n^j, n/2 of
	// them. nil when log2 n is even.
	tw2, tw2Inv []complex64
}

// NewPlan builds a split-radix plan for size n, a power of two >= 2.
func NewPlan(n int) (*Plan, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("fft: size %d is not a power of two >= 2", n)
	}
	p := &Plan{n: n, logN: uint(bits.TrailingZeros(uint(n)))}
	p.initSplitRadix()
	p.swaps = buildSwaps(p.perm)
	return p, nil
}

// MustPlan is NewPlan that panics on error, for compile-time-constant sizes.
func MustPlan(n int) *Plan {
	p, err := NewPlan(n)
	if err != nil {
		panic(err)
	}
	return p
}

// initSplitRadix fills the digit-reversal permutation and the radix-4 /
// trailing radix-2 twiddle tables for the schedule: unity radix-4 stage,
// twiddled radix-4 stages, then one radix-2 stage iff log2 n is odd.
func (p *Plan) initSplitRadix() {
	n := p.n
	// Radix schedule from first executed stage to last.
	var radices []int
	r4End := n // portion covered by radix-4 stages
	if p.logN%2 == 1 {
		r4End = n / 2
	}
	for l := 1; l < r4End; l *= 4 {
		radices = append(radices, 4)
	}
	if p.logN%2 == 1 {
		radices = append(radices, 2)
	}
	p.perm = make([]uint32, n)
	fillPerm(p.perm, 0, 0, 1, n, radices)
	p.pos = make([]uint32, n)
	for i, k := range p.perm {
		p.pos[k] = uint32(i)
	}
	// Twiddles for radix-4 stages with sub-size L = 4, 16, ... < r4End
	// (the L=1 stage is twiddle-free). Three planes of L per stage.
	total := 0
	for l := 4; 4*l <= r4End; l *= 4 {
		total += 3 * l
	}
	p.tw4 = make([]complex64, total)
	p.tw4Inv = make([]complex64, total)
	off := 0
	for l := 4; 4*l <= r4End; l *= 4 {
		for m := 1; m <= 3; m++ {
			for j := 0; j < l; j++ {
				ang := -2 * math.Pi * float64(m*j) / float64(4*l)
				s, c := math.Sincos(ang)
				p.tw4[off+(m-1)*l+j] = complex(float32(c), float32(s))
				p.tw4Inv[off+(m-1)*l+j] = complex(float32(c), float32(-s))
			}
		}
		off += 3 * l
	}
	if p.logN%2 == 1 {
		h := n / 2
		p.tw2 = make([]complex64, h)
		p.tw2Inv = make([]complex64, h)
		for j := 0; j < h; j++ {
			ang := -2 * math.Pi * float64(j) / float64(n)
			s, c := math.Sincos(ang)
			p.tw2[j] = complex(float32(c), float32(s))
			p.tw2Inv[j] = complex(float32(c), float32(-s))
		}
	}
}

// fillPerm computes the DIT input permutation for a mixed-radix schedule
// recursively: the final stage (radices[len-1]) combines r interleaved
// sub-transforms, each of which recursively owns a contiguous output
// range. With an all-2 schedule this reduces to bit reversal.
func fillPerm(perm []uint32, pos, off, stride, n int, radices []int) {
	if n == 1 {
		perm[pos] = uint32(off)
		return
	}
	r := radices[len(radices)-1]
	sub := n / r
	for j := 0; j < r; j++ {
		fillPerm(perm, pos+j*sub, off+j*stride, stride*r, sub, radices[:len(radices)-1])
	}
}

// buildSwaps decomposes perm into transpositions: walking each cycle
// (i -> perm[i] -> ...) and swapping along it applies x'[i] = x[perm[i]]
// in place. For an involution (pure bit/digit reversal) this degenerates
// to the classic swap-if-i<j loop; for mixed schedules it stays correct.
func buildSwaps(perm []uint32) []uint32 {
	n := len(perm)
	visited := make([]bool, n)
	var swaps []uint32
	for i := 0; i < n; i++ {
		if visited[i] || int(perm[i]) == i {
			visited[i] = true
			continue
		}
		j := i
		for {
			visited[j] = true
			next := int(perm[j])
			if next == i {
				break
			}
			swaps = append(swaps, uint32(j), uint32(next))
			j = next
		}
	}
	return swaps
}

// Size returns the transform length.
func (p *Plan) Size() int { return p.n }

func (p *Plan) check(x []complex64) {
	if len(x) != p.n {
		panic(fmt.Sprintf("fft: buffer length %d != plan size %d", len(x), p.n))
	}
}

// permute applies the input permutation in place via the swap list.
func (p *Plan) permute(x []complex64) {
	sw := p.swaps
	for i := 0; i+1 < len(sw); i += 2 {
		a, b := sw[i], sw[i+1]
		x[a], x[b] = x[b], x[a]
	}
}

// Forward computes the in-place DFT of x (len(x) must equal the plan size).
// No normalization is applied, matching the usual engineering convention.
func (p *Plan) Forward(x []complex64) {
	p.check(x)
	p.permute(x)
	p.butterflies(x, false, false)
}

// Inverse computes the in-place inverse DFT of x, including the 1/N
// normalization so that Inverse(Forward(x)) == x.
func (p *Plan) Inverse(x []complex64) {
	p.check(x)
	p.permute(x)
	p.butterflies(x, true, true)
}

// checkBatch validates a strided batch layout.
func (p *Plan) checkBatch(x []complex64, count, stride int) {
	if count < 0 || stride < p.n {
		panic(fmt.Sprintf("fft: batch count %d / stride %d invalid for size %d", count, stride, p.n))
	}
	if count > 0 && len(x) < (count-1)*stride+p.n {
		panic(fmt.Sprintf("fft: batch buffer length %d < %d (count %d, stride %d, size %d)",
			len(x), (count-1)*stride+p.n, count, stride, p.n))
	}
}

// InverseBand is the TX transform over count lanes of dst, lane l at
// dst[l*n : (l+1)*n]. Lane l's spectrum is zero except on bins lo to
// lo+width-1, which carry the band samples
//
//	bin lo+sc = band[l*laneStride + sc*scStride],  0 <= sc < width,
//
// so one call serves a subcarrier-major grid (scStride = the row length,
// laneStride = 1) and an antenna-major one (scStride = 1, laneStride =
// the band's length). Each band sample is stored straight at its bin's
// butterfly-order position and every other position is zeroed; then the
// inverse butterflies run with the 1/n folded in. Only values move before
// the butterflies, so each lane is bit-identical to zero-filling an n-point
// buffer, copying the band to its bins and calling Inverse; the separate
// permutation pass of that path disappears. band must not overlap dst.
func (p *Plan) InverseBand(dst []complex64, count int, band []complex64, lo, width, scStride, laneStride int) {
	n := p.n
	if count < 0 || len(dst) < count*n {
		panic(fmt.Sprintf("fft: InverseBand of %d lanes of %d into %d samples", count, n, len(dst)))
	}
	if lo < 0 || width < 0 || lo+width > n || scStride < 0 || laneStride < 0 {
		panic(fmt.Sprintf("fft: InverseBand band [%d, %d+%d) strides %d, %d invalid for size %d",
			lo, lo, width, scStride, laneStride, n))
	}
	if count > 0 && width > 0 && len(band) <= (count-1)*laneStride+(width-1)*scStride {
		panic(fmt.Sprintf("fft: InverseBand band of %d samples too short for %d lanes of %d (strides %d, %d)",
			len(band), count, width, scStride, laneStride))
	}
	dst = dst[:count*n]
	clear(dst)
	// Subcarrier-major: the lanes' samples of one bin are read together,
	// which walks a subcarrier-major grid row by row.
	for sc, i := range p.pos[lo : lo+width] {
		for l, k := 0, sc*scStride; l < count; l, k = l+1, k+laneStride {
			dst[l*n+int(i)] = band[k]
		}
	}
	for l := 0; l < count; l++ {
		p.butterflies(dst[l*n:(l+1)*n:(l+1)*n], true, true)
	}
}

// ForwardIQ12 is the fused RX front end: it gathers the n samples that
// start cpLen samples into a 24-bit IQ payload (i.e. with the cyclic
// prefix stripped), converting each straight into its permuted position
// in dst, then runs the butterfly stages. Payload bytes are touched once;
// the separate unpack, CP-strip copy and permutation passes of the
// unfused path disappear. The spectrum is bit-identical to
// cf.UnpackIQ12 + copy + Forward.
func (p *Plan) ForwardIQ12(dst []complex64, payload []byte, cpLen int) {
	p.check(dst)
	p.checkPayload(payload, cpLen)
	p.loadIQ12(dst, payload, cpLen)
	p.butterflies(dst, false, false)
}

// ForwardIQ12Batch runs the fused RX front end (ForwardIQ12) over a run
// of payloads, one strided lane per payload: lane b fills
// x[b*stride : b*stride+n] by gathering payload b's post-CP samples
// straight into permuted order, then the butterfly passes run
// back-to-back while the twiddle tables are hot. Each lane's spectrum is
// bit-identical to a standalone ForwardIQ12 call.
func (p *Plan) ForwardIQ12Batch(x []complex64, payloads [][]byte, cpLen, stride int) {
	p.checkBatch(x, len(payloads), stride)
	for b, payload := range payloads {
		p.checkPayload(payload, cpLen)
		s := x[b*stride : b*stride+p.n : b*stride+p.n]
		p.loadIQ12(s, payload, cpLen)
		p.butterflies(s, false, false)
	}
}

func (p *Plan) checkPayload(payload []byte, cpLen int) {
	if cpLen < 0 || len(payload) < (cpLen+p.n)*cf.BytesPerIQ {
		panic(fmt.Sprintf("fft: payload %d bytes too small for size %d + CP %d",
			len(payload), p.n, cpLen))
	}
}

// loadIQ12 fills dst with the payload's n post-CP samples in permuted
// order, dst[i] = sample perm[i].
func (p *Plan) loadIQ12(dst []complex64, payload []byte, cpLen int) {
	if simd != nil {
		simd.loadIQ12(p, dst, payload, cpLen)
		return
	}
	p.gatherIQ12(dst, payload, cpLen)
}

// gatherIQ12 is the portable loadIQ12: one random-access conversion per
// output slot.
func (p *Plan) gatherIQ12(dst []complex64, payload []byte, cpLen int) {
	for i, pi := range p.perm {
		dst[i] = cf.IQ12At(payload, cpLen+int(pi))
	}
}

// StoreIQ12 is the TX back end, the counterpart of ForwardIQ12: it writes
// the symbol x with its cyclic prefix — x's last cpLen samples, then x —
// into payload as 24-bit IQ, each component ×gain, ×2048, clamped to the
// signed 12-bit range and rounded to even (a NaN gives 2047). The bytes
// are those of copying the prefix, cf.Scale(gain), cf.Quantize12 and
// cf.PackIQ12; payload must hold (cpLen+len(x))*cf.BytesPerIQ bytes and
// nothing past them is written.
func StoreIQ12(payload []byte, x []complex64, cpLen int, gain float32) {
	n := len(x)
	if cpLen < 0 || cpLen > n || len(payload) < (cpLen+n)*cf.BytesPerIQ {
		panic(fmt.Sprintf("fft: StoreIQ12 of %d samples + CP %d into %d bytes", n, cpLen, len(payload)))
	}
	storeIQ12(payload, x[n-cpLen:], gain)
	storeIQ12(payload[cpLen*cf.BytesPerIQ:], x, gain)
}

// storeIQ12 is cf.QuantizeIQ12 on the selected kernel.
func storeIQ12(dst []byte, src []complex64, gain float32) {
	if simd != nil {
		simd.storeIQ12(dst, src, gain)
		return
	}
	cf.QuantizeIQ12(dst, src, gain)
}

// butterflies runs the plan's stage schedule over permuted data; scale
// additionally applies the inverse transform's 1/n.
func (p *Plan) butterflies(x []complex64, inverse, scale bool) {
	if simd != nil {
		simd.butterflies(p, x, inverse, scale)
		return
	}
	p.stages4(x, inverse)
	if scale {
		cf.Scale(x, float32(1)/float32(p.n))
	}
}

// twiddles returns the radix-4 planes and the trailing radix-2 table for
// one direction.
func (p *Plan) twiddles(inverse bool) (tw4, tw2 []complex64) {
	if inverse {
		return p.tw4Inv, p.tw2Inv
	}
	return p.tw4, p.tw2
}

// radix4Span is the sub-transform size the radix-4 stages build up to: n,
// or n/2 when a trailing radix-2 stage finishes an odd log2 n.
func (p *Plan) radix4Span() int {
	if p.logN%2 == 1 {
		return p.n / 2
	}
	return p.n
}

// stages4 runs the split-radix schedule: a unity-twiddle radix-4 first
// stage, the twiddled radix-4 stages, then the trailing radix-2 stage for
// odd log2 sizes. Butterflies within a stage are independent, which is
// what lets a vector kernel regroup them freely and still match these
// loops bit for bit (stages_amd64.go runs the same schedule).
func (p *Plan) stages4(x []complex64, inverse bool) {
	tw4, tw2 := p.twiddles(inverse)
	if len(x) >= 4 {
		stageFirst4(x, inverse)
	}
	off := 0
	for l, span := 4, p.radix4Span(); 4*l <= span; l *= 4 {
		stageTwiddle4(x, l, tw4[off:off+3*l], inverse)
		off += 3 * l
	}
	if tw2 != nil {
		stageLast2(x, tw2)
	}
}

// stageFirst4 is the L = 1 radix-4 stage: all twiddles are unity, so the
// butterfly is pure adds plus the implicit rotation. The forward butterfly
// rotates its odd arm by -i (t3 = -i·(b-d)); the inverse rotation by +i is
// the same arithmetic with the two odd outputs exchanged, so instead of
// multiplying by ±i the kernels just swap the q1/q3 write targets — no
// extra multiplies on either direction.
func stageFirst4(x []complex64, inverse bool) {
	n := len(x)
	if inverse {
		for base := 0; base+3 < n; base += 4 {
			a, b, c, d := x[base], x[base+1], x[base+2], x[base+3]
			t0, t1 := a+c, a-c
			t2 := b + d
			er, ei := real(b)-real(d), imag(b)-imag(d)
			x[base] = t0 + t2
			x[base+3] = complex(real(t1)+ei, imag(t1)-er)
			x[base+2] = t0 - t2
			x[base+1] = complex(real(t1)-ei, imag(t1)+er)
		}
		return
	}
	for base := 0; base+3 < n; base += 4 {
		a, b, c, d := x[base], x[base+1], x[base+2], x[base+3]
		t0, t1 := a+c, a-c
		t2 := b + d
		er, ei := real(b)-real(d), imag(b)-imag(d)
		x[base] = t0 + t2
		x[base+1] = complex(real(t1)+ei, imag(t1)-er)
		x[base+2] = t0 - t2
		x[base+3] = complex(real(t1)-ei, imag(t1)+er)
	}
}

// stageTwiddle4 is one twiddled radix-4 stage with sub-size l (4, 16, …)
// over the stage's w1|w2|w3 planes st. Splitting each block into four
// equal slices drops the bounds checks in the butterfly loop; the
// multiplies are written out in float32 components so the compiler
// schedules them freely (and so that no float64 intermediate appears: a
// complex64 product in Go is computed in float64).
func stageTwiddle4(x []complex64, l int, st []complex64, inverse bool) {
	n := len(x)
	w1s := st[:l:l]
	w2s := st[l : 2*l : 2*l]
	w3s := st[2*l : 3*l : 3*l]
	step := 4 * l
	for base := 0; base < n; base += step {
		q0 := x[base : base+l : base+l]
		q1 := x[base+l : base+2*l : base+2*l]
		q2 := x[base+2*l : base+3*l : base+3*l]
		q3 := x[base+3*l : base+4*l : base+4*l]
		d1, d3 := q1, q3
		if inverse {
			d1, d3 = q3, q1
		}
		for j := 0; j < l; j++ {
			w1, w2, w3 := w1s[j], w2s[j], w3s[j]
			v1, v2, v3 := q1[j], q2[j], q3[j]
			br := real(v1)*real(w1) - imag(v1)*imag(w1)
			bi := real(v1)*imag(w1) + imag(v1)*real(w1)
			cr := real(v2)*real(w2) - imag(v2)*imag(w2)
			ci := real(v2)*imag(w2) + imag(v2)*real(w2)
			dr := real(v3)*real(w3) - imag(v3)*imag(w3)
			di := real(v3)*imag(w3) + imag(v3)*real(w3)
			a := q0[j]
			ar, ai := real(a), imag(a)
			t0r, t0i := ar+cr, ai+ci
			t1r, t1i := ar-cr, ai-ci
			t2r, t2i := br+dr, bi+di
			er, ei := br-dr, bi-di
			q0[j] = complex(t0r+t2r, t0i+t2i)
			d1[j] = complex(t1r+ei, t1i-er)
			q2[j] = complex(t0r-t2r, t0i-t2i)
			d3[j] = complex(t1r-ei, t1i+er)
		}
	}
}

// stageLast2 is the trailing radix-2 stage for odd log2 sizes (also the
// whole transform when n == 2, where tw2 is the single unity twiddle).
// hi[j]*w is Go's complex64 product: both components are formed in
// float64 and rounded once to float32, which the vector kernel has to
// reproduce.
func stageLast2(x []complex64, tw2 []complex64) {
	h := len(x) / 2
	lo := x[:h:h]
	hi := x[h : 2*h : 2*h]
	for j, w := range tw2[:h] {
		u := lo[j]
		v := hi[j] * w
		lo[j] = u + v
		hi[j] = u - v
	}
}

// DFTNaive computes the O(n^2) reference DFT, used only by tests.
func DFTNaive(x []complex64) []complex64 {
	n := len(x)
	out := make([]complex64, n)
	for k := 0; k < n; k++ {
		var accR, accI float64
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			s, c := math.Sincos(ang)
			xr, xi := float64(real(x[t])), float64(imag(x[t]))
			accR += xr*c - xi*s
			accI += xr*s + xi*c
		}
		out[k] = complex(float32(accR), float32(accI))
	}
	return out
}
