package fft

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// combSample draws a value of the kind a pilot band holds after the
// forward transform, and the kinds a float64 product can get wrong:
// parts of very different magnitude (|re| near 10³, |im| near 10⁻²),
// ordinary noise, exact small values whose products cancel to ±0, and
// denormals.
func combSample(rng *rand.Rand) complex64 {
	part := func() float32 {
		switch rng.Intn(6) {
		case 0:
			return float32(rng.NormFloat64() * 1e3)
		case 1:
			return float32(rng.NormFloat64() * 1e-2)
		case 2:
			return []float32{0.5, -1, 1, 2, -3.25, 0}[rng.Intn(6)]
		case 3:
			return math.Float32frombits(rng.Uint32()&0x807fffff | 1) // denormal
		default:
			return float32(rng.NormFloat64())
		}
	}
	if rng.Intn(3) == 0 {
		return complex(float32(rng.NormFloat64()*1e3), float32(rng.NormFloat64()*1e-2))
	}
	return complex(part(), part())
}

// csiLoop is the channel estimator's correlation as it stood before the
// comb correlation: per user u of k, a strided pass over the subcarriers
// sc ≡ u (mod k) of [lo, hi) against u's own conjugated pilot, with Go's
// complex64 operators. It returns each user's sum and term count.
func csiLoop(band []complex64, pilots [][]complex64, lo, hi, k int) (sum []complex64, n []int) {
	sum, n = make([]complex64, k), make([]int, k)
	for u := 0; u < k; u++ {
		for sc := lo + ((u-lo)%k+k)%k; sc < hi; sc += k {
			sum[u] += band[sc] * pilots[u][sc]
			n[u]++
		}
	}
	return sum, n
}

// TestCorrelateCombMatchesReference pins CorrelateComb on both kernel
// sides, bit for bit: for k of 1, 2, 3, 4, 5 and 8 accumulators per
// group, groups of 1, 3, 6 and 16 samples and one group of the whole
// band, every length 0–40 and the engine's 304, at band offsets (the
// first group's subcarrier) 0, 1 and k−1. It checks the definition,
// acc[g·k + i mod k] += x[i]·p[i] over group g's samples, from nonzero
// starting sums with the accumulators past the last group untouched; and,
// from zero sums, the per-user strided loop the engine ran before, user
// (lo+j) mod k in accumulator j of a group starting at subcarrier lo.
func TestCorrelateCombMatchesReference(t *testing.T) {
	onEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(47))
		var sizes []int
		for n := 0; n <= 40; n++ {
			sizes = append(sizes, n)
		}
		for _, k := range []int{1, 2, 3, 4, 5, 8} {
			for _, group := range []int{1, 3, 6, 16, 1000} {
				for _, n := range append(sizes, 304) {
					for _, lo := range []int{0, 1, k - 1} {
						checkComb(t, rng, k, group, n, lo)
					}
				}
			}
		}
	})
}

func checkComb(t *testing.T, rng *rand.Rand, k, group, n, lo int) {
	t.Helper()
	where := fmt.Sprintf("k=%d group=%d n=%d lo=%d", k, group, n, lo)
	band := make([]complex64, lo+n)
	pilots := make([][]complex64, k)
	for u := range pilots {
		pilots[u] = make([]complex64, lo+n)
	}
	comb := make([]complex64, lo+n)
	for sc := range band {
		band[sc] = combSample(rng)
		comb[sc] = combSample(rng)
		pilots[sc%k][sc] = comb[sc]
	}
	x, p := band[lo:], comb[lo:]
	groups := (n + group - 1) / group
	const spare = 3 // accumulators past the last group, which must stay as they are

	acc := make([]complex64, groups*k+spare)
	want := make([]complex64, len(acc))
	for j := range acc {
		acc[j] = combSample(rng)
		want[j] = acc[j]
	}
	for i := range x {
		g := i / group
		want[g*k+(i-g*group)%k] += x[i] * p[i]
	}
	CorrelateComb(acc, x, p, k, group)
	if i := firstDiff(acc, want, false); i >= 0 {
		t.Fatalf("%s: %s accumulator %d = %v, definition gives %v", where, Kernel(), i, acc[i], want[i])
	}

	clear(acc)
	CorrelateComb(acc, x, p, k, group)
	for g := 0; g < groups; g++ {
		glo, ghi := lo+g*group, min(lo+(g+1)*group, lo+n)
		sum, cnt := csiLoop(band, pilots, glo, ghi, k)
		for j := 0; j < k; j++ {
			u := (glo + j) % k
			if want := (ghi - glo - j + k - 1) / k; cnt[u] != max(want, 0) {
				t.Fatalf("%s group %d: user %d has %d terms, accumulator %d counts %d", where, g, u, cnt[u], j, want)
			}
			if a := acc[g*k+j : g*k+j+1]; firstDiff(a, sum[u:u+1], false) >= 0 {
				t.Fatalf("%s group %d: %s accumulator %d = %v, user %d's strided loop gives %v",
					where, g, Kernel(), j, a[0], u, sum[u])
			}
		}
	}
}

func TestCorrelateCombPanics(t *testing.T) {
	for _, tc := range []struct {
		name            string
		acc, x, p, k, g int
	}{
		{"no accumulators", 0, 4, 4, 2, 4},
		{"too few accumulators", 3, 4, 4, 2, 2},
		{"short pilot", 2, 4, 3, 2, 4},
		{"zero k", 2, 4, 4, 0, 4},
		{"zero group", 2, 4, 4, 2, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			CorrelateComb(make([]complex64, tc.acc), make([]complex64, tc.x), make([]complex64, tc.p), tc.k, tc.g)
		})
	}
	CorrelateComb(nil, nil, nil, 4, 16) // an empty band is a no-op
}

// combCall returns one antenna's CSI correlation as the engine makes it
// on the benchmark's 16×4 cell: a 304-subcarrier band in 19 ZF groups of
// 16, four accumulators per group.
func combCall() func() {
	const q, group, k = 304, 16, 4
	rng := rand.New(rand.NewSource(1))
	band, comb := randSignal(rng, q), randSignal(rng, q)
	acc := make([]complex64, q/group*k)
	return func() {
		clear(acc)
		CorrelateComb(acc, band, comb, k, group)
	}
}

func BenchmarkCorrelateComb304x4_AVX2(b *testing.B)   { benchImpl(b, true, combCall()) }
func BenchmarkCorrelateComb304x4_PureGo(b *testing.B) { benchImpl(b, false, combCall()) }
