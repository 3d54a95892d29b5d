package main

import (
	"repro/internal/frame"
	"repro/internal/ldpc"
	"repro/internal/modulation"
)

// spec is one workload: one set of inputs the benchmark runs: a cell geometry, a
// channel operating point and a fronthaul link. Each exists to put most
// of the work on one layer and little on another (see README.md).
type spec struct {
	name string
	why  string // the one-line reason, mirrored in BENCHMARK.json
	cfg  frame.Config
	snr  float64 // dB
	pool int     // distinct pre-generated frames replayed cyclically
	// fecParity/lossEvery describe the link: RS parity packets per burst
	// and the deterministic "drop every Nth packet" injector.
	fecParity int
	lossEvery int
	cells     int // >1 runs the cells behind fleet.Fleet
}

// cell16x4 is the repo's reference geometry (cmd/bench -stages).
func cell16x4(order modulation.Order, rate ldpc.Rate, symbols string) frame.Config {
	return frame.Config{
		Antennas:        16,
		Users:           4,
		OFDMSize:        512,
		DataSubcarriers: 304,
		Order:           order,
		Rate:            rate,
		DecodeIter:      5,
		Pilots:          frame.FreqOrthogonal,
		Symbols:         symbols,
		ZFGroupSize:     16,
		DemodBlockSize:  64,
		FFTBatch:        2,
		ZFBatch:         3,
	}
}

func workloads() []spec {
	center := cell16x4(modulation.QAM64, ldpc.Rate13, frame.UplinkSchedule(1, 6))
	wide := cell16x4(modulation.QPSK, ldpc.Rate89, frame.UplinkSchedule(1, 6))
	wide.Antennas = 64
	small := frame.Config{
		Antennas:        8,
		Users:           2,
		OFDMSize:        256,
		DataSubcarriers: 128,
		Order:           modulation.QPSK,
		Rate:            ldpc.Rate89,
		DecodeIter:      8,
		Pilots:          frame.FreqOrthogonal,
		Symbols:         "PUU",
		ZFGroupSize:     16,
		DemodBlockSize:  32,
		FFTBatch:        2,
		ZFBatch:         3,
	}
	down := cell16x4(modulation.QAM16, ldpc.Rate23, frame.DownlinkSchedule(1, 6))
	down.DecodeIter = 8 // user-side receiver budget, as in examples/downlink
	return []spec{
		{name: "cell_center", cfg: center, snr: 25, pool: 64, cells: 1,
			why: "16x4 64-QAM R=1/3 at 25 dB: ZF cache hits, one decode iteration; the reference cell and bypass partner of cell_edge"},
		{name: "cell_edge", cfg: center, snr: 11, pool: 64, cells: 1,
			why: "same cell at 11 dB: ZF cache never hits and blocks need about 1.7 BP iterations, so ldpc and mat ZF do the most work"},
		{name: "wide_array", cfg: wide, snr: 25, pool: 32, cells: 1,
			why: "64x4 QPSK R=8/9: 448 packets and FFTs per frame with a tiny decode, so fft, fronthaul ingest and the mat GEMM dominate"},
		{name: "small_frames", cfg: small, snr: 25, pool: 256, cells: 1,
			why: "8x2 256-pt PUU frames of 24 packets: kernels nearly idle, per-packet and per-message core scheduling costs dominate"},
		{name: "lossy_fec", cfg: center, snr: 25, pool: 64, cells: 1, fecParity: 2, lossEvery: 37,
			why: "cell_center over a 2.7 percent lossy link with 2 RS parity packets per burst: parity accumulate and reconstruct paths of ingest"},
		{name: "downlink", cfg: down, snr: 30, pool: 64, cells: 1,
			why: "16x4 16-QAM R=2/3 P+6D: encode, precode, IFFT and TX, the same layers run in the transmit direction"},
		{name: "fleet_2cells", cfg: center, snr: 25, pool: 64, cells: 2,
			why: "two cell_center cells behind fleet.Fleet sharing the worker budget: router demux, per-cell rings and cross-cell fairness"},
	}
}

func findWorkload(name string) *spec {
	ws := workloads()
	for i := range ws {
		if ws[i].name == name {
			return &ws[i]
		}
	}
	return nil
}
