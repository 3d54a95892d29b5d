package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cf"
	"repro/internal/channel"
	"repro/internal/frame"
	"repro/internal/ldpc"
	"repro/internal/mat"
	"repro/internal/modulation"
)

// csiPilots returns each user's conjugated pilot over the data band, the
// per-user vectors the strided loop below reads.
func csiPilots(cfg *frame.Config) [][]complex64 {
	pilots := make([][]complex64, cfg.Users)
	for u := range pilots {
		if cfg.Pilots == frame.FreqOrthogonal {
			pilots[u] = channel.FrequencyOrthogonalPilot(cfg.DataSubcarriers, cfg.Users, u)
		} else {
			pilots[u] = channel.ZadoffChu(cfg.DataSubcarriers, 1)
		}
		cf.Conj(pilots[u])
	}
	return pilots
}

// extractCSILoop is the channel estimate as the engine computed it before
// the comb correlation: per group and user a strided pass with a modulo
// start over the user's own conjugated pilot, into row ant of csi.
func extractCSILoop(cfg *frame.Config, b *buffers, csi []*mat.M, pilots [][]complex64, ant, pilotIdx int, band []complex64) {
	for g := 0; g < cfg.ZFGroups(); g++ {
		lo, hi := b.groupBounds(g)
		row := csi[g].Row(ant)
		switch cfg.Pilots {
		case frame.FreqOrthogonal:
			for u := 0; u < cfg.Users; u++ {
				var acc complex64
				n := 0
				for sc := lo + ((u-lo)%cfg.Users+cfg.Users)%cfg.Users; sc < hi; sc += cfg.Users {
					acc += band[sc] * pilots[u][sc]
					n++
				}
				if n > 0 {
					row[u] = acc * complex(1/float32(n), 0)
				}
			}
		case frame.TimeOrthogonal:
			var acc complex64
			for sc := lo; sc < hi; sc++ {
				acc += band[sc] * pilots[pilotIdx][sc]
			}
			row[pilotIdx] = acc * complex(1/float32(hi-lo), 0)
		}
	}
}

// csiBand fills band with values of the kind a pilot FFT produces and a
// float64 product can get wrong: parts of very different magnitude
// (|re| near 10³, |im| near 10⁻²), ordinary noise and exact values
// whose products cancel to ±0.
func csiBand(rng *rand.Rand, band []complex64) {
	for i := range band {
		switch rng.Intn(3) {
		case 0:
			band[i] = complex(float32(rng.NormFloat64()*1e3), float32(rng.NormFloat64()*1e-2))
		case 1:
			band[i] = complex([]float32{0, -0.5, 1, 2}[rng.Intn(4)], []float32{0, 0.25, -1}[rng.Intn(3)])
		default:
			band[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
		}
	}
}

// TestExtractCSIMatchesLoop pins the engine's channel estimate, bit for
// bit, to the per-user strided loop it replaced, on random bands through
// every antenna of: the benchmark's 16×4, 64×4 and 8×2 cells; three
// users in 16-subcarrier groups, so groups start at every comb phase;
// groups of 6 and of 3 (fewer subcarriers than users: one user has no
// tone in the group); a band that ends in a short group; and
// time-orthogonal pilots, every pilot symbol. Both estimates start from the same poisoned matrices, so
// an entry one of them leaves unwritten must be left by the other too.
func TestExtractCSIMatchesLoop(t *testing.T) {
	cell := func(m, k, q, group int, pilots frame.PilotScheme) frame.Config {
		c := frame.Config{
			Antennas: m, Users: k, OFDMSize: 512, DataSubcarriers: q,
			Order: modulation.QPSK, Rate: ldpc.Rate89, Pilots: pilots,
			Symbols: frame.UplinkSchedule(1, 2), ZFGroupSize: group, FFTBatch: 2,
		}
		if pilots == frame.TimeOrthogonal {
			c.Symbols = frame.UplinkSchedule(k, 2)
		}
		return c
	}
	small := smallCfg()
	for _, tc := range []struct {
		name string
		cfg  frame.Config
	}{
		{"16x4", cell(16, 4, 304, 16, frame.FreqOrthogonal)},
		{"64x4", cell(64, 4, 304, 16, frame.FreqOrthogonal)},
		{"8x2", small},
		{"8x3_phases", cell(8, 3, 304, 16, frame.FreqOrthogonal)},
		{"16x4_short_group", cell(16, 4, 300, 16, frame.FreqOrthogonal)},
		{"16x4_group6", cell(16, 4, 302, 6, frame.FreqOrthogonal)},
		{"16x4_group3", cell(16, 4, 301, 3, frame.FreqOrthogonal)},
		{"16x4_time", cell(16, 4, 300, 15, frame.TimeOrthogonal)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := NewEngine(tc.cfg, Options{Workers: 1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			cfg := &eng.cfg
			w := eng.workers[0]
			pilots := csiPilots(cfg)
			want := make([]*mat.M, cfg.ZFGroups())
			for g := range want {
				want[g] = mat.New(cfg.Antennas, cfg.Users)
			}
			poison := complex(float32(math.NaN()), float32(-7))
			for g := range want {
				cf.Fill(want[g].Data, poison)
				cf.Fill(eng.buf.csi[0][g].Data, poison)
			}
			rng := rand.New(rand.NewSource(53))
			band := make([]complex64, cfg.DataSubcarriers)
			for rep := 0; rep < 4; rep++ {
				for ant := 0; ant < cfg.Antennas; ant++ {
					pilotIdx := (ant + rep) % cfg.NumPilots()
					csiBand(rng, band)
					w.extractCSI(0, ant, pilotIdx, band)
					extractCSILoop(cfg, eng.buf, want, pilots, ant, pilotIdx, band)
				}
				for g := range want {
					got := eng.buf.csi[0][g].Data
					for i, v := range want[g].Data {
						if math.Float32bits(real(got[i])) != math.Float32bits(real(v)) ||
							math.Float32bits(imag(got[i])) != math.Float32bits(imag(v)) {
							t.Fatalf("rep %d group %d antenna %d user %d: comb %v, loop %v",
								rep, g, i/cfg.Users, i%cfg.Users, got[i], v)
						}
					}
				}
			}
		})
	}
}

// BenchmarkExtractCSI times one antenna's channel estimate on the
// benchmark's 16×4 cell (19 groups of 16 subcarriers of a 304-subcarrier
// band): the comb correlation the engine runs against the per-user
// strided loop it replaced. ns/op is per antenna.
func BenchmarkExtractCSI(b *testing.B) {
	cfg := uplinkCell16x4(modulation.QPSK, ldpc.Rate89)
	eng, err := NewEngine(cfg, Options{Workers: 1}, nil)
	if err != nil {
		b.Fatal(err)
	}
	w := eng.workers[0]
	pilots := csiPilots(&eng.cfg)
	band := make([]complex64, cfg.DataSubcarriers)
	csiBand(rand.New(rand.NewSource(1)), band)
	for _, impl := range []struct {
		name string
		run  func(ant int)
	}{
		{"Comb", func(ant int) { w.extractCSI(0, ant, 0, band) }},
		{"Loop", func(ant int) { extractCSILoop(&eng.cfg, eng.buf, eng.buf.csi[0], pilots, ant, 0, band) }},
	} {
		b.Run(impl.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				impl.run(i % cfg.Antennas)
			}
		})
	}
}
