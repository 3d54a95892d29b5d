package fronthaul

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/perfgate"
)

// forceGoKernels switches mulSliceXor and mulSliceXor2 to the byte-table
// loop until the returned function is called. (The vector kernels need no
// forcing: where init selected them, they are what runs.)
func forceGoKernels() (restore func()) {
	saved, saved2 := simdMulXor, simdMulXor2
	simdMulXor, simdMulXor2 = nil, nil
	return func() { simdMulXor, simdMulXor2 = saved, saved2 }
}

// onEachKernel runs test in a subtest named after Kernel() on the Go loop
// and, where init selected one, on the vector kernel.
func onEachKernel(t *testing.T, test func(*testing.T)) {
	restore := forceGoKernels()
	t.Run(Kernel(), test)
	restore()
	if simdMulXor != nil {
		t.Run(Kernel(), test)
	}
}

// TestKernelName pins the two names Kernel reports: "generic" while the
// byte-table loop runs, "avx2" where init selected the vector kernels.
func TestKernelName(t *testing.T) {
	want := "generic"
	onEachKernel(t, func(t *testing.T) {
		if got := Kernel(); got != want {
			t.Fatalf("Kernel() = %q, want %q", got, want)
		}
		want = "avx2"
	})
	t.Logf("selected: %s", Kernel())
}

// refMulXor is the definition both entries must reproduce: dst[i] ^=
// c·src[i] over the shorter slice, one byte-table load per byte.
func refMulXor(dst, src []byte, c byte) {
	for i := 0; i < len(dst) && i < len(src); i++ {
		dst[i] ^= gfMulTab[c][src[i]]
	}
}

// poisoned returns a buffer of off+n+gfMargin bytes filled with the
// poison byte, and its window [off, off+n) filled from rng.
func poisoned(rng *rand.Rand, off, n int) (back, win []byte) {
	back = bytes.Repeat([]byte{gfPoison}, off+n+gfMargin)
	win = back[off : off+n]
	rng.Read(win)
	return back, win
}

const (
	gfMargin = 40 // past a destination: more than one 32-byte group
	gfPoison = 0xa5
)

// checkFold compares a folded buffer with the reference fold of the same
// window and requires every byte outside the window to be poison still.
func checkFold(t *testing.T, name string, got, want []byte, off, n int) {
	t.Helper()
	if !bytes.Equal(got[off:off+n], want[off:off+n]) {
		for i := off; i < off+n; i++ {
			if got[i] != want[i] {
				t.Fatalf("%s: byte %d of %d = %#02x, want %#02x", name, i-off, n, got[i], want[i])
			}
		}
	}
	for i, v := range got {
		if (i < off || i >= off+n) && v != gfPoison {
			t.Fatalf("%s: %s kernel wrote byte %d outside its window [%d, %d)", name, Kernel(), i, off, off+n)
		}
	}
}

// TestGFMulXorKernelsExact checks mulSliceXor and mulSliceXor2 against
// the byte table for every coefficient c (the pair's second coefficient
// runs through all 256 values too, 0 and 1 included) at every length
// 0–300 and at 1536 (one packed 512-sample symbol), with destinations
// and source at different unaligned offsets, on both kernel sides.
func TestGFMulXorKernelsExact(t *testing.T) {
	onEachKernel(t, testGFMulXorExact)
}

func testGFMulXorExact(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	lengths := make([]int, 0, 302)
	for n := 0; n <= 300; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 1536)
	for c := 0; c < 256; c++ {
		c0, c1 := byte(c), byte(c*167+13)
		for _, n := range lengths {
			o0, o1, os := 1+(c+n)%31, 3+(c*5+n)%29, 5+n%27
			_, src := poisoned(rng, os, n)
			d0, w0 := poisoned(rng, o0, n)
			d1, w1 := poisoned(rng, o1, n)
			want0, want1 := bytes.Clone(d0), bytes.Clone(d1)
			refMulXor(want0[o0:o0+n], src, c0)
			refMulXor(want1[o1:o1+n], src, c1)

			single := bytes.Clone(d0)
			mulSliceXor(single[o0:o0+n], src, c0)
			checkFold(t, fmt.Sprintf("single c=%d n=%d", c0, n), single, want0, o0, n)

			mulSliceXor2(w0, w1, src, c0, c1)
			checkFold(t, fmt.Sprintf("pair c0=%d n=%d", c0, n), d0, want0, o0, n)
			checkFold(t, fmt.Sprintf("pair c1=%d n=%d", c1, n), d1, want1, o1, n)
		}
	}
}

// FuzzGFKernelsSIMD is the differential between the vector kernels and
// the byte table: the fuzzer supplies the source bytes, a coefficient
// pair and the offsets; both destinations start from bytes derived from
// the source, and the poisoned margin past each destination (and the
// bytes before it) must survive. Skips where no vector kernel exists.
func FuzzGFKernelsSIMD(f *testing.F) {
	f.Add([]byte{}, uint8(2), uint8(3), uint8(0))
	f.Add(bytes.Repeat([]byte{0xff}, 64), uint8(0x8e), uint8(0xff), uint8(5))
	f.Add(bytes.Repeat([]byte{0x80, 0x0f, 0xf0, 0x01}, 80), uint8(1), uint8(0x53), uint8(17))
	f.Add(bytes.Repeat([]byte{0x1d, 0x00}, 769), uint8(0xca), uint8(0), uint8(250))
	f.Fuzz(func(t *testing.T, src []byte, c0, c1, offs uint8) {
		if simdMulXor == nil {
			t.Skip("no vector kernel on this CPU/GOARCH")
		}
		n := len(src)
		o0, o1 := int(offs%32), int(offs/8)
		dst := func(off int, salt byte) []byte {
			back := bytes.Repeat([]byte{gfPoison}, off+n+gfMargin)
			for i := range n {
				back[off+i] = src[(i*7)%n] ^ salt ^ byte(i)
			}
			return back
		}
		d0, d1 := dst(o0, 0x3c), dst(o1, 0xc3)
		want0, want1 := bytes.Clone(d0), bytes.Clone(d1)
		refMulXor(want0[o0:o0+n], src, c0)
		refMulXor(want1[o1:o1+n], src, c1)

		single := bytes.Clone(d0)
		mulSliceXor(single[o0:o0+n], src, c0)
		checkFold(t, "single", single, want0, o0, n)

		mulSliceXor2(d0[o0:o0+n], d1[o1:o1+n], src, c0, c1)
		checkFold(t, "pair dst0", d0, want0, o0, n)
		checkFold(t, "pair dst1", d1, want1, o1, n)
	})
}

// accumulateCall returns one burst's AccumulateData calls on the gate's
// shape: a 16-antenna symbol of 1536-byte payloads (512 samples of packed
// IQ12) folded into 2 parity rows, as the RRU and the engine's RX do per
// symbol on the 16×4 cells.
func accumulateCall() func() {
	const m, p, payload = 16, 2, 1536
	f, err := NewFEC(m, p)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(37))
	data := make([][]byte, m)
	for a := range data {
		data[a] = make([]byte, payload)
		rng.Read(data[a])
	}
	acc := [][]byte{make([]byte, payload), make([]byte, payload)}
	return func() {
		for a, d := range data {
			f.AccumulateData(acc, a, d)
		}
	}
}

func benchAccumulate(b *testing.B) {
	call := accumulateCall()
	b.SetBytes(16 * 1536)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		call()
	}
}

// BenchmarkAccumulateData_AVX2 and _PureGo are the within-process kernel
// A/B: one 16×2 burst of 1536-byte payloads through the vector kernels
// and through the byte-table loop.
func BenchmarkAccumulateData_AVX2(b *testing.B) {
	if simdMulXor == nil {
		b.Skip("no vector kernel on this CPU/GOARCH")
	}
	benchAccumulate(b)
}

func BenchmarkAccumulateData_PureGo(b *testing.B) {
	defer forceGoKernels()()
	benchAccumulate(b)
}

// BenchmarkKernelGate is the FEC kernels' perf gate (`make perf`): the
// _PureGo/_AVX2 ratio of AccumulateData on one 16×2 burst of 1536-byte
// payloads, measured in one process by alternating the two sides over
// gateRounds rounds of one batch each. Only the ratio is checked, so
// host speed cannot move it much. The floor is about half the median
// measured on a 2-vCPU AVX2 VM.
func BenchmarkKernelGate(b *testing.B) {
	if Kernel() == "generic" {
		b.Skip("byte-table loop only: no vector kernel to gate")
	}
	const (
		gateRounds = 11
		bursts     = 256
		floor      = 9 // median 18.2–18.5×
	)
	call := accumulateCall()
	batch := func() {
		for i := 0; i < bursts; i++ {
			call()
		}
	}
	goSide := func() {
		defer forceGoKernels()()
		batch()
	}
	ratio := perfgate.Ratio(gateRounds, goSide, batch)
	b.ReportMetric(ratio, "16x2_1536-x")
	if ratio < floor {
		b.Fatalf("16x2_1536: vector kernel %.1f× the byte-table loop, floor %d×", ratio, floor)
	}
}
