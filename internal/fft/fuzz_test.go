package fft

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/cf"
)

// FuzzFFTKernelsSIMD is the whole-transform differential between the
// platform's vector stage kernels and the Go loops (DESIGN §10): the
// fuzzer supplies raw bytes that are read both as float32 bit patterns —
// so NaNs with payloads, infinities, signed zeros and denormals all occur
// — for Forward, Inverse and InverseBand (over the bins of a band whose
// edges the cyclic-prefix and size bytes also pick), and as a 24-bit IQ
// payload for ForwardIQ12 at a fuzzed cyclic-prefix length; both
// implementations must produce the same bits (up to NaN payloads, see
// firstDiff). The size selector covers every schedule shape from n=2 (no
// vector stage) up. Skips where no vector kernel exists.
func FuzzFFTKernelsSIMD(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add([]byte{0, 0, 0xC0, 0x7F, 0, 0, 0x80, 0xFF}, uint8(3), uint8(1))          // NaN, -Inf
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0x80, 0x3F}, uint8(4), uint8(2)) // denormal, -0, 1
	f.Add([]byte{0xFF, 0xFF, 0x7F, 0x7F, 0, 0, 0x80, 0x7F}, uint8(5), uint8(7))    // MaxFloat32, +Inf
	f.Add([]byte{0x10, 0x20, 0x30, 0x40, 0x50}, uint8(8), uint8(5))
	f.Fuzz(func(t *testing.T, raw []byte, size, cp uint8) {
		if simd == nil {
			t.Skip("no vector kernels on this CPU/GOARCH")
		}
		n := 2 << (size % 10) // 2..1024
		p := MustPlan(n)
		at := func(i int) byte {
			if len(raw) == 0 {
				return byte(i)
			}
			return raw[i%len(raw)] + byte(i/len(raw))
		}
		x := make([]complex64, n)
		var w [8]byte
		for i := range x {
			for k := range w {
				w[k] = at(8*i + k)
			}
			x[i] = complex(math.Float32frombits(binary.LittleEndian.Uint32(w[:4])),
				math.Float32frombits(binary.LittleEndian.Uint32(w[4:])))
		}
		lo := int(cp) % n
		width := n - lo - int(size/10)%(n-lo+1)
		payload := make([]byte, (int(cp)+n)*cf.BytesPerIQ)
		for i := range payload {
			payload[i] = at(i)
		}
		for _, op := range []struct {
			name string
			run  func(buf []complex64)
		}{
			{"Forward", p.Forward},
			{"Inverse", p.Inverse},
			{"InverseBand", func(buf []complex64) { p.InverseBand(buf, 1, x, lo, width, 1, 0) }},
			{"ForwardIQ12", func(buf []complex64) { p.ForwardIQ12(buf, payload, int(cp)) }},
		} {
			g := append([]complex64(nil), x...)
			v := append([]complex64(nil), x...)
			restore := forceGoKernels()
			op.run(g)
			restore()
			op.run(v)
			if i := firstDiff(g, v, true); i >= 0 {
				t.Fatalf("n=%d cp=%d %s: sample %d go (%#08x, %#08x) != %s (%#08x, %#08x)", n, cp, op.name, i,
					math.Float32bits(real(g[i])), math.Float32bits(imag(g[i])), Kernel(),
					math.Float32bits(real(v[i])), math.Float32bits(imag(v[i])))
			}
		}
	})
}

// FuzzStoreIQ12KernelsSIMD is the TX back end's differential: the fuzzer
// supplies raw bytes read as float32 bit patterns for the samples, the
// symbol length (0–143, so every tail of the eight-sample loop), the
// cyclic prefix and the gain's bits; the vector kernel must write the
// same payload as the Go loop and leave the poisoned bytes on either side
// of it alone. Skips where no vector kernel exists.
func FuzzStoreIQ12KernelsSIMD(f *testing.F) {
	f.Add([]byte{}, uint8(8), uint8(0), uint32(0x3e800000))                                    // 0.25
	f.Add([]byte{0, 0, 0xC0, 0x7F, 0, 0, 0x80, 0xFF}, uint8(17), uint8(3), uint32(0x3f800000)) // NaN, -Inf at gain 1
	f.Add([]byte{0, 0, 0x80, 0xCB, 1, 0, 0, 0}, uint8(64), uint8(16), uint32(0x3f800000))      // -16777216, subnormal
	f.Add([]byte{0x10, 0x20, 0x30, 0x40, 0x50}, uint8(143), uint8(200), uint32(0x7fc00000))    // NaN gain
	f.Fuzz(func(t *testing.T, raw []byte, size, cp uint8, gainBits uint32) {
		if simd == nil {
			t.Skip("no vector kernels on this CPU/GOARCH")
		}
		n := int(size) % 144
		cpLen := int(cp) % (n + 1)
		gain := math.Float32frombits(gainBits)
		at := func(i int) byte {
			if len(raw) == 0 {
				return byte(i)
			}
			return raw[i%len(raw)] + byte(i/len(raw))
		}
		x := make([]complex64, n)
		var w [8]byte
		for i := range x {
			for k := range w {
				w[k] = at(8*i + k)
			}
			x[i] = complex(math.Float32frombits(binary.LittleEndian.Uint32(w[:4])),
				math.Float32frombits(binary.LittleEndian.Uint32(w[4:])))
		}
		size3 := (cpLen + n) * cf.BytesPerIQ
		g := bytes.Repeat([]byte{storePoison}, size3+2*storeMargin)
		v := bytes.Clone(g)
		restore := forceGoKernels()
		StoreIQ12(g[storeMargin:storeMargin+size3], x, cpLen, gain)
		restore()
		StoreIQ12(v[storeMargin:storeMargin+size3], x, cpLen, gain)
		if !bytes.Equal(g, v) {
			i := 0
			for g[i] == v[i] {
				i++
			}
			t.Fatalf("n=%d cp=%d gain=%#08x: byte %d of the buffer (payload at %d) go %#02x != %s %#02x",
				n, cpLen, gainBits, i, storeMargin, g[i], Kernel(), v[i])
		}
	})
}

// FuzzCorrelateCombKernelsSIMD is CorrelateComb's differential between
// the AVX2 kernel and the Go loop (DESIGN §10): the fuzzer's bytes are
// read as float32 bit patterns for the band, the pilot comb and the
// starting sums — so NaNs with payloads, ±Inf, ±0 and denormals all
// occur — over up to 400 samples, 1–16 accumulators per group (odd
// counts run the Go loop on both sides) and groups of 1–64 samples.
// Both sides must produce the same bits up to NaN payloads (see
// firstDiff), and neither writes an accumulator past the last group.
func FuzzCorrelateCombKernelsSIMD(f *testing.F) {
	f.Add([]byte{}, uint16(304), uint8(3), uint8(15))                                            // 16×4 cell: k 4, groups of 16
	f.Add([]byte{0, 0, 0xC0, 0x7F, 0, 0, 0x80, 0xFF}, uint16(17), uint8(1), uint8(5))            // NaN, -Inf
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0x80, 0x3F}, uint16(128), uint8(1), uint8(15)) // denormal, -0, 1
	f.Add([]byte{0xFF, 0xFF, 0x7F, 0x7F, 0, 0, 0x80, 0x7F}, uint16(31), uint8(7), uint8(2))      // MaxFloat32, +Inf
	f.Add([]byte{0x10, 0x20, 0x30, 0x40, 0x50}, uint16(300), uint8(0), uint8(14))
	f.Fuzz(func(t *testing.T, raw []byte, size uint16, ksel, gsel uint8) {
		if simd == nil {
			t.Skip("no vector kernels on this CPU/GOARCH")
		}
		n, k, group := int(size)%401, 1+int(ksel)%16, 1+int(gsel)%64
		at := func(i int) byte {
			if len(raw) == 0 {
				return byte(i)
			}
			return raw[i%len(raw)] + byte(i/len(raw))
		}
		next := 0
		sample := func() complex64 {
			var w [8]byte
			for i := range w {
				w[i] = at(next)
				next++
			}
			return complex(math.Float32frombits(binary.LittleEndian.Uint32(w[:4])),
				math.Float32frombits(binary.LittleEndian.Uint32(w[4:])))
		}
		x, p := make([]complex64, n), make([]complex64, n)
		for i := range x {
			x[i], p[i] = sample(), sample()
		}
		const spare = 2
		g := make([]complex64, (n+group-1)/group*k+spare)
		for i := range g {
			g[i] = sample()
		}
		v := append([]complex64(nil), g...)
		restore := forceGoKernels()
		CorrelateComb(g, x, p, k, group)
		restore()
		CorrelateComb(v, x, p, k, group)
		if i := firstDiff(g, v, true); i >= 0 {
			t.Fatalf("n=%d k=%d group=%d: accumulator %d go %v != %s %v", n, k, group, i, g[i], Kernel(), v[i])
		}
	})
}
