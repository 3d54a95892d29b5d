package main

import (
	"bytes"
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/cf"
	"repro/internal/fft"
	"repro/internal/frame"
	"repro/internal/ldpc"
	"repro/internal/mat"
	"repro/internal/modulation"
)

// checkDownlink plays the users (the receiver of examples/downlink): it
// mixes the per-antenna time-domain symbols dl[(symbol, antenna)] through
// the reciprocal channel h, OFDM-demodulates each user's signal, removes
// the one complex gain ZF precoding leaves, decodes, and requires every
// user to recover exactly the MAC bits truth(symbol, user).
func checkDownlink(cfg *frame.Config, h *mat.M, dl map[[2]int][]complex64,
	truth func(sym, user int) []byte) error {
	code := cfg.Code()
	plan := fft.MustPlan(cfg.OFDMSize)
	tab := modulation.Get(cfg.Order)
	dec := ldpc.NewDecoder(code)
	dec.Alg = ldpc.NormalizedMinSum
	scUsed := (code.N() + int(cfg.Order) - 1) / int(cfg.Order)
	rx := make([]complex64, cfg.SamplesPerSymbol())
	llr := make([]float32, scUsed*int(cfg.Order))
	got := make([]byte, code.K())
	for sym := 0; sym < cfg.NumSymbols(); sym++ {
		if cfg.SymbolAt(sym) != frame.Downlink {
			continue
		}
		for u := 0; u < cfg.Users; u++ {
			cf.Fill(rx, 0)
			for a := 0; a < cfg.Antennas; a++ {
				s := dl[[2]int{sym, a}]
				if len(s) != len(rx) {
					return fmt.Errorf("symbol %d antenna %d: %d samples, want %d", sym, a, len(s), len(rx))
				}
				cf.AXPY(rx, h.At(a, u), s)
			}
			freq := rx[cfg.CPLen:]
			plan.Forward(freq)
			band := freq[cfg.DataStart() : cfg.DataStart()+cfg.DataSubcarriers]
			norm := math.Sqrt(cf.Energy(band) / float64(len(band)))
			if norm == 0 {
				return fmt.Errorf("symbol %d user %d: silent", sym, u)
			}
			g := blindGain(band, tab, float32(norm))
			for i := range band {
				band[i] = complex64(complex128(band[i]) / g)
			}
			tab.DemodulateSoft(llr, band[:scUsed], 0.1)
			res := dec.Decode(got, llr[:code.N()], cfg.DecodeIter)
			if !res.OK || !bytes.Equal(got, truth(sym, u)) {
				return fmt.Errorf("symbol %d user %d did not recover its MAC bits", sym, u)
			}
		}
	}
	return nil
}

// blindGain estimates g in band ≈ g·x from the average rotation against
// the hard-decided constellation (ZF leaves g real-positive up to noise).
func blindGain(band []complex64, tab *modulation.Table, amp float32) complex128 {
	var acc complex128
	n := 0
	bits := make([]byte, tab.BitsPerSymbol())
	in := make([]complex64, 1)
	point := make([]complex64, 1)
	for _, v := range band {
		in[0] = complex(real(v)/amp, imag(v)/amp)
		tab.Demodulate(bits, in)
		tab.Modulate(point, bits)
		if point[0] == 0 {
			continue
		}
		acc += complex128(in[0]) * cmplx.Conj(complex128(point[0]))
		n++
	}
	if n == 0 {
		return 1
	}
	return acc / complex(float64(n), 0) * complex(float64(amp), 0)
}
