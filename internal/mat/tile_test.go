package mat

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// stripT returns the n×m transpose of the strip y = tile[c0:] of an m×TileCols
// tile: row j holds every antenna's sample on the strip's subcarrier j,
// the operand MulBlockInto takes.
func stripT(y []complex64, m, n int) *M {
	yt := New(n, m)
	for j := 0; j < n; j++ {
		for c := 0; c < m; c++ {
			yt.Set(j, c, y[c*TileCols+j])
		}
	}
	return yt
}

// TestMulTilePlansExact holds the specialized tile plan to
// MulBlockInto's bits on the transposed strip, not a tolerance, and the
// textbook tile loop to MulBlockIntoNaive's: reading the grid's tiles in
// place (DESIGN §9) must not move an LLR. It covers row counts below,
// at, between and above the vector kernels' groups of four and pairs —
// a pair alone (K = 2), a pair after a group of four (K = 6), an odd row
// after both (K = 7) — antenna counts from 1 to 64, every column offset
// 0–7 and every width that stays inside the tile (1–8), on ordinary
// values and on specialM's signed zeros, subnormals, overflow,
// infinities and NaNs. It runs on the Go loops and — where init selected
// them — on the vector kernels, each in a subtest named after Kernel().
func TestMulTilePlansExact(t *testing.T) {
	restore := forceGoKernels()
	t.Run(Kernel(), testMulTilePlansExact)
	restore()
	if simdTile4 != nil || simdTile2 != nil {
		t.Run(Kernel(), testMulTilePlansExact)
	}
}

func testMulTilePlansExact(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, fill := range []struct {
		name string
		m    func(*rand.Rand, int, int) *M
	}{{"random", randM}, {"special", specialM}} {
		for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 16} {
			for _, m := range []int{1, 3, 8, 16, 64} {
				w := fill.m(rng, k, m)
				tile := fill.m(rng, m, TileCols).Data
				for c0 := 0; c0 < TileCols; c0++ {
					for n := 1; c0+n <= TileCols; n++ {
						y := tile[c0:]
						yt := stripT(y, m, n)
						want, naive := New(k, n), New(k, n)
						MulBlockInto(want, w, yt)
						MulBlockIntoNaive(naive, w, yt)
						name := fmt.Sprintf("%s %dx%d c0=%d n=%d", fill.name, k, m, c0, n)
						dst := randM(rng, k, n) // pre-filled: plans must overwrite
						PlanTileMul(true)(dst, w, y)
						requireExact(t, name, dst, want)
						PlanTileMul(false)(dst, w, y)
						requireExact(t, name+" textbook (vs MulBlockIntoNaive)", dst, naive)
					}
				}
			}
		}
	}
}

// TestMulTileShapePanics checks that a strip reaching past its tile's
// samples panics instead of reading another allocation.
func TestMulTileShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a strip past the tile's end did not panic")
		}
	}()
	PlanTileMul(true)(New(4, 6), New(4, 16), make([]complex64, 16*TileCols)[3:])
}

// FuzzMulTileKernelsSIMD is the whole-call differential between the
// specialized tile plan on the platform's vector kernels — the four-row
// tile on each group of four rows, the two-row tile on each pair left —
// and MulBlockInto on the transposed strip (DESIGN §9): raw fuzzer bytes
// read as float32 bit patterns fill w and an M×TileCols tile, and the
// fuzzer picks K (1–16 rows), M (1–80), the strip's column offset (0–7)
// and its width (1 to the tile's end). Every output must be the same
// result (sameResult: NaN by class), and the poisoned margin past dst
// must be untouched. Skips where no vector kernel exists.
func FuzzMulTileKernelsSIMD(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(15), uint8(56))
	f.Add([]byte{0, 0, 0xC0, 0x7F, 0, 0, 0x80, 0xFF}, uint8(3), uint8(63), uint8(3))                        // NaN, -Inf
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0x80, 0x3F}, uint8(1), uint8(3), uint8(24))               // subnormal, -0, 1
	f.Add([]byte{0xFF, 0xFF, 0x7F, 0x7F, 0xec, 0x78, 0xad, 0x60}, uint8(2), uint8(79), uint8(33))           // MaxFloat32, 1e20
	f.Add([]byte{0xcd, 0xcc, 0xcc, 0x3d, 0x00, 0x00, 0x20, 0xc0, 0x9a, 0x99}, uint8(0), uint8(7), uint8(1)) // 0.1, -2.5
	f.Add([]byte{0, 0, 0xC0, 0x7F, 1, 0, 0, 0, 0, 0, 0, 0x80}, uint8(1), uint8(7), uint8(56))               // K = 2, M = 8, whole tile
	f.Add([]byte{0xcd, 0xcc, 0xcc, 0x3d, 0xFF, 0xFF, 0x7F, 0x7F}, uint8(5), uint8(15), uint8(41))           // K = 6, M = 16, c0 = 1, n = 6
	f.Fuzz(func(t *testing.T, raw []byte, rows, m, strip uint8) {
		if simdTile4 == nil && simdTile2 == nil {
			t.Skip("no vector tile on this CPU/GOARCH")
		}
		nk, nm := 1+int(rows)%16, 1+int(m)%80
		c0 := int(strip) % TileCols
		n := 1 + int(strip/TileCols)%(TileCols-c0)
		at := func(i int) byte {
			if len(raw) == 0 {
				return byte(i)
			}
			return raw[i%len(raw)] + byte(i/len(raw))
		}
		var word [8]byte
		next := 0
		fill := func(x []complex64) {
			for i := range x {
				for k := range word {
					word[k] = at(next)
					next++
				}
				x[i] = complex(math.Float32frombits(binary.LittleEndian.Uint32(word[:4])),
					math.Float32frombits(binary.LittleEndian.Uint32(word[4:])))
			}
		}
		w, tile := New(nk, nm), make([]complex64, nm*TileCols)
		fill(w.Data)
		fill(tile)
		y := tile[c0:]
		want := New(nk, n)
		MulBlockInto(want, w, stripT(y, nm, n))
		const margin = 8
		poison := complex(math.Float32frombits(0x7fdead00), math.Float32frombits(0x7fdead01))
		back := make([]complex64, nk*n+margin)
		for i := range back {
			back[i] = poison
		}
		got := &M{Rows: nk, Cols: n, Data: back[:nk*n]}
		PlanTileMul(true)(got, w, y)
		name := fmt.Sprintf("%dx%d c0=%d n=%d", nk, nm, c0, n)
		requireExact(t, name, got, want)
		for i, v := range back[nk*n:] {
			if math.Float32bits(real(v)) != math.Float32bits(real(poison)) ||
				math.Float32bits(imag(v)) != math.Float32bits(imag(poison)) {
				t.Fatalf("%s: %s tile wrote %d elements past dst", name, Kernel(), i+1)
			}
		}
	})
}
