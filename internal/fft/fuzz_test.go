package fft

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/cf"
)

// FuzzFFTKernelsSIMD is the whole-transform differential between the
// platform's vector stage kernels and the Go loops (DESIGN §10): the
// fuzzer supplies raw bytes that are read both as float32 bit patterns —
// so NaNs with payloads, infinities, signed zeros and denormals all occur
// — for Forward and Inverse, and as a 24-bit IQ payload for ForwardIQ12
// at a fuzzed cyclic-prefix length; both implementations must produce the
// same bits (up to NaN payloads, see firstDiff). The size selector covers
// every schedule shape from n=2 (no vector stage) up. Skips where no
// vector kernel exists.
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
