package mat

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/perfgate"
)

// forceGoKernels switches mulBlockRows4Group and mulTileRows4 to the Go
// loops until the returned function is called: all three vector tiles
// (the block's four-row, the grid's four-row and two-row) go nil
// together. (The vector tiles need no forcing: where init selected them,
// they are what runs.)
func forceGoKernels() (restore func()) {
	saved, savedTile4, savedTile2 := simdRows4, simdTile4, simdTile2
	simdRows4, simdTile4, simdTile2 = nil, nil, nil
	return func() { simdRows4, simdTile4, simdTile2 = saved, savedTile4, savedTile2 }
}

// TestKernelName pins the two names Kernel reports: "generic" while the
// Go loop runs, "avx2" where init selected the vector tile. The package's
// kernel-dependent tests run in a subtest named after Kernel(), so a -v
// run shows which kernel a suite exercised.
func TestKernelName(t *testing.T) {
	restore := forceGoKernels()
	t.Run(Kernel(), func(t *testing.T) {
		if got := Kernel(); got != "generic" {
			t.Fatalf("fallback reports %q, want \"generic\"", got)
		}
	})
	restore()
	if simdRows4 != nil {
		t.Run(Kernel(), func(t *testing.T) {
			if got := Kernel(); got != "avx2" {
				t.Fatalf("vector tile reports %q, want \"avx2\"", got)
			}
		})
	}
	t.Logf("selected: %s", Kernel())
}

// FuzzMulBlockKernelsSIMD is the whole-call differential between the
// four-row plan on the platform's vector tile and MulBlockInto (DESIGN
// §9): the fuzzer supplies raw bytes read as float32 bit patterns — so
// NaNs with payloads, infinities, signed zeros and subnormals all occur —
// for w and yt, and picks K (4, 8, 12 or 16 rows), M (1–80) and B (1–40).
// Every output must be the same result (sameResult: NaN by class), and
// the poisoned margin past dst must be untouched. Skips where no vector
// tile exists.
func FuzzMulBlockKernelsSIMD(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(15), uint8(15))
	f.Add([]byte{0, 0, 0xC0, 0x7F, 0, 0, 0x80, 0xFF}, uint8(3), uint8(63), uint8(3))                        // NaN, -Inf
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0x80, 0x3F}, uint8(1), uint8(3), uint8(16))               // subnormal, -0, 1
	f.Add([]byte{0xFF, 0xFF, 0x7F, 0x7F, 0xec, 0x78, 0xad, 0x60}, uint8(2), uint8(79), uint8(39))           // MaxFloat32, 1e20
	f.Add([]byte{0xcd, 0xcc, 0xcc, 0x3d, 0x00, 0x00, 0x20, 0xc0, 0x9a, 0x99}, uint8(0), uint8(7), uint8(5)) // 0.1, -2.5
	f.Fuzz(func(t *testing.T, raw []byte, groups, m, b uint8) {
		if simdRows4 == nil {
			t.Skip("no vector tile on this CPU/GOARCH")
		}
		nk, nm, nb := 4*(1+int(groups)%4), 1+int(m)%80, 1+int(b)%40
		at := func(i int) byte {
			if len(raw) == 0 {
				return byte(i)
			}
			return raw[i%len(raw)] + byte(i/len(raw))
		}
		var word [8]byte
		next := 0
		fill := func(x *M) {
			for i := range x.Data {
				for k := range word {
					word[k] = at(next)
					next++
				}
				x.Data[i] = complex(math.Float32frombits(binary.LittleEndian.Uint32(word[:4])),
					math.Float32frombits(binary.LittleEndian.Uint32(word[4:])))
			}
		}
		w, yt := New(nk, nm), New(nb, nm)
		fill(w)
		fill(yt)
		want := New(nk, nb)
		MulBlockInto(want, w, yt)
		const margin = 8
		poison := complex(math.Float32frombits(0x7fdead00), math.Float32frombits(0x7fdead01))
		back := make([]complex64, nk*nb+margin)
		for i := range back {
			back[i] = poison
		}
		got := &M{Rows: nk, Cols: nb, Data: back[:nk*nb]}
		PlanBlockMul(true, nk)(got, w, yt)
		requireExact(t, fmt.Sprintf("%dx%d_B%d", nk, nm, nb), got, want)
		for i, v := range back[nk*nb:] {
			if math.Float32bits(real(v)) != math.Float32bits(real(poison)) ||
				math.Float32bits(imag(v)) != math.Float32bits(imag(poison)) {
				t.Fatalf("%dx%d_B%d: %s tile wrote %d elements past dst", nk, nm, nb, Kernel(), i+1)
			}
		}
	})
}

// rows4Shapes are the gate's and the A/B pairs' shapes: the 16- and
// 64-antenna cells' 4-user equalize strips as the engine reads them, one
// whole grid tile in place (K×M = 4×16 and 4×64, TileCols subcarriers,
// PlanTileMul), the same strips 16 subcarriers wide through PlanBlockMul
// (the shape the benchmark's layer walk multiplies), the 16-subcarrier ×
// 4-user precode block against a 16-antenna precoder, and the 8-antenna
// cell's 2-user equalize strip on one grid tile (2×8, the two-row tile).
// calls is the gate's batch per side and round; floor is the gate's,
// stated beside the median on a 2-vCPU AVX2 VM.
var rows4Shapes = []struct {
	k, m, b int
	tile    bool // b = TileCols columns of an M×TileCols tile
	calls   int
	floor   float64
}{
	{4, 16, TileCols, true, 8192, 3}, // median 5.4–6.6×
	{4, 64, TileCols, true, 2048, 3}, // median 6.7–7.9×
	{4, 16, 16, false, 4096, 3},      // median 6–8×
	{4, 64, 16, false, 1024, 3},      // median 6–7×
	{16, 4, 16, false, 4096, 3},      // median 5–6×
	{2, 8, TileCols, true, 16384, 3}, // median 5.4–5.8×
}

// rows4Name is a shape's row name: _T8 for a tile, _B<b> for a block.
func rows4Name(k, m, b int, tile bool) string {
	if tile {
		return fmt.Sprintf("%dx%d_T%d", k, m, b)
	}
	return fmt.Sprintf("%dx%d_B%d", k, m, b)
}

// rows4Call returns one specialized plan call on fixed random operands
// of one shape.
func rows4Call(k, m, b int, tile bool) func() {
	rng := rand.New(rand.NewSource(37))
	w, dst := randM(rng, k, m), New(k, b)
	if tile {
		y := randM(rng, m, TileCols).Data
		kern := PlanTileMul(true)
		return func() { kern(dst, w, y) }
	}
	yt := randM(rng, b, m)
	kern := PlanBlockMul(true, k)
	return func() { kern(dst, w, yt) }
}

// benchRows times the specialized plans over the rows4Shapes of k rows
// (keep) as sub-benchmarks.
func benchRows(b *testing.B, keep func(k int) bool) {
	for _, s := range rows4Shapes {
		if !keep(s.k) {
			continue
		}
		b.Run(rows4Name(s.k, s.m, s.b, s.tile), func(b *testing.B) {
			call := rows4Call(s.k, s.m, s.b, s.tile)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				call()
			}
		})
	}
}

func rowsOf4(k int) bool { return k%4 == 0 }
func rowsOf2(k int) bool { return k == 2 }

// BenchmarkMulBlockRows4_AVX2 and _PureGo are the within-process kernel
// A/B of the four-row tiles: the same operands through the vector tile
// and through the Go loop.
func BenchmarkMulBlockRows4_AVX2(b *testing.B) {
	if simdRows4 == nil {
		b.Skip("no vector tile on this CPU/GOARCH")
	}
	benchRows(b, rowsOf4)
}

func BenchmarkMulBlockRows4_PureGo(b *testing.B) {
	defer forceGoKernels()()
	benchRows(b, rowsOf4)
}

// BenchmarkMulTileRows2_AVX2 and _PureGo are the same A/B for the
// two-row tile on the 8-antenna, 2-user equalize strip.
func BenchmarkMulTileRows2_AVX2(b *testing.B) {
	if simdTile2 == nil {
		b.Skip("no vector tile on this CPU/GOARCH")
	}
	benchRows(b, rowsOf2)
}

func BenchmarkMulTileRows2_PureGo(b *testing.B) {
	defer forceGoKernels()()
	benchRows(b, rowsOf2)
}

// BenchmarkKernelGate is the tile's perf gate (`make perf`): the
// _PureGo/_AVX2 ratio of each shape, measured in one process by
// alternating the two sides over gateRounds rounds of one batch each.
// Only the ratio is checked, so host speed cannot move it much.
func BenchmarkKernelGate(b *testing.B) {
	if Kernel() == "generic" {
		b.Skip("Go loop only: no vector tile to gate")
	}
	const gateRounds = 11
	for _, s := range rows4Shapes {
		call := rows4Call(s.k, s.m, s.b, s.tile)
		batch := func() {
			for i := 0; i < s.calls; i++ {
				call()
			}
		}
		goSide := func() {
			defer forceGoKernels()()
			batch()
		}
		ratio := perfgate.Ratio(gateRounds, goSide, batch)
		name := rows4Name(s.k, s.m, s.b, s.tile)
		b.ReportMetric(ratio, name+"-x")
		if ratio < s.floor {
			b.Fatalf("%s: vector tile %.1f× the Go loop, floor %.0f×", name, ratio, s.floor)
		}
	}
}
