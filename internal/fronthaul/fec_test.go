package fronthaul

import (
	"bytes"
	"math/rand"
	"testing"
)

// combinations calls fn with every k-subset of [0,n).
func combinations(n, k int, fn func(sub []int)) {
	sub := make([]int, k)
	var rec func(start, idx int)
	rec = func(start, idx int) {
		if idx == k {
			fn(sub)
			return
		}
		for i := start; i <= n-(k-idx); i++ {
			sub[idx] = i
			rec(i+1, idx+1)
		}
	}
	rec(0, 0)
}

// TestFECRoundTrip is the encode/reconstruct property test: for several
// (M, P) geometries, encode a random burst, then for EVERY loss pattern
// of up to P data shards and every choice of surviving parity rows that
// is large enough, rebuild the syndromes the way the receiver does
// (streaming folds of whatever arrived) and check Reconstruct returns
// the lost payloads byte-identical. It runs on both kernel sides.
func TestFECRoundTrip(t *testing.T) {
	onEachKernel(t, testFECRoundTrip)
}

func testFECRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const payload = 96
	for _, geo := range []struct{ m, p int }{{4, 1}, {4, 2}, {8, 2}, {8, 3}, {16, 2}} {
		f, err := NewFEC(geo.m, geo.p)
		if err != nil {
			t.Fatal(err)
		}
		data := make([][]byte, geo.m)
		for a := range data {
			data[a] = make([]byte, payload)
			rng.Read(data[a])
		}
		parity := make([][]byte, geo.p)
		for i := range parity {
			parity[i] = make([]byte, payload)
		}
		f.EncodeInto(parity, data)

		// Streaming encode must match the batch helper.
		stream := make([][]byte, geo.p)
		for i := range stream {
			stream[i] = make([]byte, payload)
		}
		for a := geo.m - 1; a >= 0; a-- { // any fold order
			f.AccumulateData(stream, a, data[a])
		}
		for i := range stream {
			if !bytes.Equal(stream[i], parity[i]) {
				t.Fatalf("m=%d p=%d: streaming parity %d differs from batch", geo.m, geo.p, i)
			}
		}

		for nLost := 1; nLost <= geo.p; nLost++ {
			combinations(geo.m, nLost, func(lost []int) {
				combinations(geo.p, nLost, func(rows []int) {
					// Receiver-side syndromes: fold everything that "arrived".
					syn := make([][]byte, geo.p)
					for i := range syn {
						syn[i] = make([]byte, payload)
					}
					for a := 0; a < geo.m; a++ {
						isLost := false
						for _, l := range lost {
							if l == a {
								isLost = true
							}
						}
						if !isLost {
							f.AccumulateData(syn, a, data[a])
						}
					}
					for _, r := range rows {
						f.AccumulateParity(syn, r, parity[r])
					}
					dst := make([][]byte, nLost)
					for i := range dst {
						dst[i] = make([]byte, payload)
					}
					if err := f.Reconstruct(dst, lost, rows, syn); err != nil {
						t.Fatalf("m=%d p=%d lost=%v rows=%v: %v", geo.m, geo.p, lost, rows, err)
					}
					for i, a := range lost {
						if !bytes.Equal(dst[i], data[a]) {
							t.Fatalf("m=%d p=%d lost=%v rows=%v: shard %d not recovered", geo.m, geo.p, lost, rows, a)
						}
					}
				})
			})
		}
	}
}

func TestFECInsufficientParity(t *testing.T) {
	f, err := NewFEC(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	syn := [][]byte{make([]byte, 8), make([]byte, 8)}
	dst := [][]byte{make([]byte, 8), make([]byte, 8)}
	if err := f.Reconstruct(dst, []int{0, 1}, []int{1}, syn); err != ErrFECInsufficient {
		t.Fatalf("2 lost, 1 parity row: got %v, want ErrFECInsufficient", err)
	}
}

func TestFECBadGeometry(t *testing.T) {
	for _, geo := range []struct{ m, p int }{{0, 1}, {1, 0}, {250, 8}} {
		if _, err := NewFEC(geo.m, geo.p); err == nil {
			t.Fatalf("NewFEC(%d,%d) accepted impossible geometry", geo.m, geo.p)
		}
	}
}

// GF sanity: the multiplication table must agree with the field axioms
// the reconstruction math leans on.
func TestGFTables(t *testing.T) {
	for a := 1; a < 256; a++ {
		if gfMul(byte(a), gfInv[a]) != 1 {
			t.Fatalf("a·a⁻¹ != 1 for a=%d", a)
		}
		if gfMul(byte(a), 1) != byte(a) || gfMul(byte(a), 0) != 0 {
			t.Fatalf("identity/zero law broken for a=%d", a)
		}
	}
	for i := 0; i < 64; i++ {
		a, b, c := byte(i*7+3), byte(i*11+5), byte(i*13+1)
		if gfMul(a, b^c) != gfMul(a, b)^gfMul(a, c) {
			t.Fatalf("distributivity broken at a=%d b=%d c=%d", a, b, c)
		}
	}
}
