//go:build amd64 && !purego

package mat

import "repro/internal/cpu"

// AVX2 four-row tile (DESIGN §9): the amd64 implementation of
// mulBlockRows4Group's loop over one group of four output rows, four
// subcarriers per pass. It reads the four rows of w from w on and yt's
// first 4·(b/4) rows, all of stride m, and writes exactly dst[k·b + j]
// for rows k < 4 and columns j < 4·(b/4); columns past that are the Go
// loop's. mulTile4AVX2 is the same kernel for mulTileRows4 on the
// uplink grid's tiles: y[c·TileCols + j] for antennas c < m and columns
// j < 4·(n/4), dst of row stride n.

func init() {
	if cpu.HasAVX2() {
		simdRows4 = mulRows4AVX2
		simdTile4 = mulTile4AVX2
	}
}

// mulRows4AVX2 needs m >= 1 and b >= 4, the caller's to guarantee (both
// loops count down to zero).
//
//go:noescape
func mulRows4AVX2(dst, w, yt *complex64, m, b int)

// mulTile4AVX2 needs m >= 1 and n >= 4, the caller's to guarantee.
//
//go:noescape
func mulTile4AVX2(dst, w, y *complex64, m, n int)
