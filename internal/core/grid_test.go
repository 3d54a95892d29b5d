package core

import (
	"fmt"
	"math"
	"testing"
	"unsafe"

	"repro/internal/frame"
	"repro/internal/ldpc"
	"repro/internal/mat"
	"repro/internal/modulation"
)

// gridCfg is a one-pilot, one-uplink-symbol cell of m antennas and q
// data subcarriers whose data FFT messages carry up to batch antennas.
func gridCfg(m, q, batch int) frame.Config {
	nfft := 256
	for nfft < q {
		nfft *= 2
	}
	return frame.Config{
		Antennas:        m,
		Users:           4,
		OFDMSize:        nfft,
		DataSubcarriers: q,
		Order:           modulation.QPSK,
		Rate:            ldpc.Rate89,
		DecodeIter:      4,
		Pilots:          frame.FreqOrthogonal,
		Symbols:         "PU",
		ZFGroupSize:     16,
		DemodBlockSize:  32,
		FFTBatch:        batch,
	}
}

// TestUplinkGridOneWriterPerLine pins the line-ownership rule of the
// tiled uplink grid (DESIGN §9, Layouts), the grid's version of ldpc's
// TestDecoderScratchIsolated: every per-symbol grid starts on a 64-byte
// boundary and spans whole lines, and each 64-byte line of it is changed
// by the store of exactly one antenna. For each geometry and FFTBatch 8,
// 2 and 1, the worker's storeRun stores every run sched.Arrive can emit —
// any contiguous run of 1 to FFTBatch antennas from any first antenna,
// odd runs and runs cut short by a shuffle included — into a poisoned
// grid, with each lane's samples naming their lane. Every line the run
// changed must hold samples of one antenna only, the same antenna in
// every run that changed it, and each antenna must have changed exactly
// ⌈Q/8⌉ lines. The staged store of DisableDirectStore is held to the
// same rule.
func TestUplinkGridOneWriterPerLine(t *testing.T) {
	const line = 64 / 8 // complex64 per line
	poison := complex(float32(-1), float32(-1))
	for _, m := range []int{8, 16, 64} {
		for _, q := range []int{128, 300, 304} {
			for _, batch := range []int{8, 2, 1} {
				for _, opts := range []Options{{Workers: 1}, {Workers: 1, DisableDirectStore: true}} {
					name := fmt.Sprintf("M%d_Q%d_batch%d_directstore=%v", m, q, batch, !opts.DisableDirectStore)
					cfg := gridCfg(m, q, batch)
					eng, err := NewEngine(cfg, opts, nil)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					for slot, syms := range eng.buf.dataFreqTile {
						for sym, g := range syms {
							if cfg.SymbolAt(sym) != frame.Uplink {
								continue
							}
							addr := uintptr(unsafe.Pointer(unsafe.SliceData(g)))
							if addr%64 != 0 || len(g)%line != 0 || len(g) < q*m {
								t.Fatalf("%s: slot %d sym %d grid at %#x, %d samples: want 64-byte aligned, whole lines, >= %d",
									name, slot, sym, addr, len(g), q*m)
							}
						}
					}
					const sym = 1
					grid := eng.buf.dataFreqTile[0][sym]
					nfft := cfg.OFDMSize
					lanes := make([]complex64, batch*nfft)
					for i := range lanes {
						lanes[i] = complex(float32(i/nfft), float32(i%nfft))
					}
					owner := make([]int, len(grid)/line)
					for i := range owner {
						owner[i] = -1
					}
					w := eng.workers[0]
					for count := batch; count >= 1; count-- {
						for ant0 := 0; ant0+count <= m; ant0++ {
							for i := range grid {
								grid[i] = poison
							}
							w.storeRun(0, sym, ant0, lanes[:count*nfft])
							changed := make([]int, count)
							for l := range owner {
								writer := -1
								for _, v := range grid[l*line : (l+1)*line] {
									if math.Float32bits(real(v)) == math.Float32bits(real(poison)) &&
										math.Float32bits(imag(v)) == math.Float32bits(imag(poison)) {
										continue
									}
									a := ant0 + int(real(v))
									if writer >= 0 && a != writer {
										t.Fatalf("%s: run (%d,%d) wrote antennas %d and %d into line %d", name, ant0, count, writer, a, l)
									}
									writer = a
								}
								if writer < 0 {
									continue
								}
								if owner[l] >= 0 && owner[l] != writer {
									t.Fatalf("%s: line %d changed by the stores of antennas %d and %d", name, l, owner[l], writer)
								}
								owner[l] = writer
								changed[writer-ant0]++
							}
							for i, n := range changed {
								if want := (q + line - 1) / line; n != want {
									t.Fatalf("%s: run (%d,%d): antenna %d changed %d lines, want %d", name, ant0, count, ant0+i, n, want)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestStoreTilesLayout checks storeTiles against the tile formula on a
// band that ends mid-tile: sample sc of antenna a lands at
// (sc/8)·8M + 8a + sc%8, and nothing else of the grid changes.
func TestStoreTilesLayout(t *testing.T) {
	const m, a, q = 5, 3, 21
	grid := make([]complex64, (q+mat.TileCols-1)/mat.TileCols*mat.TileCols*m)
	band := make([]complex64, q)
	for i := range band {
		band[i] = complex(float32(i+1), 0)
	}
	storeTiles(grid, m, a, band)
	want := make([]complex64, len(grid))
	for sc, v := range band {
		want[sc/8*8*m+a*8+sc%8] = v
	}
	for i := range want {
		if grid[i] != want[i] {
			t.Fatalf("grid[%d] = %v, want %v", i, grid[i], want[i])
		}
	}
}
