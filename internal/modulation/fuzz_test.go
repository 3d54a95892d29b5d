package modulation

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzDemodKernelsSIMD is the whole-call differential between the
// platform's vector SoA kernel and the Go loop (DESIGN §9): the fuzzer
// supplies raw bytes read as float32 bit patterns — so NaNs with
// payloads, infinities, signed zeros and denormals all occur — for the
// tile and for the noise variance, and picks the order and the tile
// shape; both kernels must write the same LLR bits. Skips where no vector
// kernel exists.
func FuzzDemodKernelsSIMD(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(3), uint8(15), uint32(0x3dcccccd))
	f.Add([]byte{0, 0, 0xC0, 0x7F, 0, 0, 0x80, 0xFF}, uint8(2), uint8(0), uint8(3), uint32(0))                     // NaN, -Inf; clamp
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0x80, 0x3F}, uint8(3), uint8(16), uint8(16), uint32(0x3f800000)) // denormal, -0, 1
	f.Add([]byte{0xFF, 0xFF, 0x7F, 0x7F, 0, 0, 0x80, 0x7F}, uint8(1), uint8(4), uint8(0), uint32(0x7fc00001))      // MaxFloat32, +Inf; NaN noise
	f.Add([]byte{0x10, 0x20, 0x30, 0x40, 0x50}, uint8(2), uint8(3), uint8(6), uint32(0x00000001))
	f.Fuzz(func(t *testing.T, raw []byte, order, users, nsc uint8, noiseBits uint32) {
		if simdSoA == nil {
			t.Skip("no vector kernel on this CPU/GOARCH")
		}
		tab := Get(allOrders[int(order)%len(allOrders)])
		nu, nc := 1+int(users)%17, 1+int(nsc)%35
		at := func(i int) byte {
			if len(raw) == 0 {
				return byte(i)
			}
			return raw[i%len(raw)] + byte(i/len(raw))
		}
		tile := make([]complex64, nu*nc)
		var w [8]byte
		for i := range tile {
			for k := range w {
				w[k] = at(8*i + k)
			}
			tile[i] = complex(math.Float32frombits(binary.LittleEndian.Uint32(w[:4])),
				math.Float32frombits(binary.LittleEndian.Uint32(w[4:])))
		}
		noiseVar := math.Float32frombits(noiseBits)
		want := make([]float32, nu*nc*tab.BitsPerSymbol())
		got := make([]float32, len(want))
		restore := forceGoKernels()
		tab.DemodulateSoftSoA(want, tile, nu, nc, noiseVar)
		restore()
		tab.DemodulateSoftSoA(got, tile, nu, nc, noiseVar)
		if i := firstLLRDiff(want, got); i >= 0 {
			t.Fatalf("%v users=%d nsc=%d noiseVar=%#08x: llr[%d] go %#08x != %s %#08x",
				tab.Order, nu, nc, noiseBits, i, math.Float32bits(want[i]), Kernel(), math.Float32bits(got[i]))
		}
	})
}
