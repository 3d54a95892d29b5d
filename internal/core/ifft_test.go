package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/cf"
	"repro/internal/fft"
	"repro/internal/frame"
	"repro/internal/fronthaul"
	"repro/internal/ldpc"
	"repro/internal/modulation"
)

// runIFFTOracle is the IFFT task body before fft.InverseBand: zero each
// lane's guard bins, gather the precoded band into natural order, run the
// in-place Inverse (whose swap-list pass does the permutation), then the
// same TX back end as runIFFT.
func runIFFTOracle(w *worker, slot int, sym uint16, ant0, count int) {
	e := w.eng
	cfg := &e.cfg
	nfft, q, m, ds := cfg.OFDMSize, cfg.DataSubcarriers, cfg.Antennas, cfg.DataStart()
	buf := w.lanes[:count*nfft]
	for l := 0; l < count; l++ {
		lane := buf[l*nfft : (l+1)*nfft]
		cf.Fill(lane[:ds], 0)
		cf.Fill(lane[ds+q:], 0)
	}
	src := e.buf.dlFreq[slot][sym]
	for sc := 0; sc < q; sc++ {
		row := src[sc*m+ant0 : sc*m+ant0+count]
		for l, v := range row {
			buf[l*nfft+ds+sc] = v
		}
	}
	for l := 0; l < count; l++ {
		w.plan.Inverse(buf[l*nfft : (l+1)*nfft])
	}
	for l := 0; l < count; l++ {
		pkt := e.buf.dlTime[slot][sym][ant0+l]
		fft.StoreIQ12(pkt[fronthaul.HeaderSize:], buf[l*nfft:(l+1)*nfft], cfg.CPLen, float32(e.dlGain))
	}
}

// BenchmarkRunIFFT times one IFFT task — a 2-antenna run of one downlink
// symbol of the 16×4, 512-point, 304-subcarrier cell, packets written —
// on runIFFT and on the oracle it replaced, after checking that both put
// the same bytes on the wire. ns/op is per task.
func BenchmarkRunIFFT(b *testing.B) {
	cfg := frame.Config{
		Antennas:        16,
		Users:           4,
		OFDMSize:        512,
		DataSubcarriers: 304,
		Order:           modulation.QAM16,
		Rate:            ldpc.Rate23,
		DecodeIter:      8,
		Pilots:          frame.FreqOrthogonal,
		Symbols:         frame.DownlinkSchedule(1, 6),
		ZFGroupSize:     16,
		DemodBlockSize:  64,
		FFTBatch:        2,
		ZFBatch:         3,
	}
	eng, err := NewEngine(cfg, Options{Workers: 1}, nil)
	if err != nil {
		b.Fatal(err)
	}
	const sym, ant0, count = 1, 6, 2
	grid := eng.buf.dlFreq[0][sym]
	rng := rand.New(rand.NewSource(5))
	for i := range grid {
		grid[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
	}
	w := eng.workers[0]
	wire := func() []byte {
		var out []byte
		for l := 0; l < count; l++ {
			out = append(out, eng.buf.dlTime[0][sym][ant0+l]...)
		}
		return out
	}
	runIFFTOracle(w, 0, sym, ant0, count)
	want := wire()
	w.runIFFT(0, sym, ant0, count)
	if !bytes.Equal(wire(), want) {
		b.Fatal("runIFFT packets differ from the fill + gather + Inverse oracle")
	}
	for _, impl := range []struct {
		name string
		run  func(w *worker, slot int, sym uint16, ant0, count int)
	}{{"InverseBand", (*worker).runIFFT}, {"FillGatherInverse", runIFFTOracle}} {
		b.Run(impl.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				impl.run(w, 0, sym, ant0, count)
			}
		})
	}
}
