package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/frame"
	"repro/internal/fronthaul"
	"repro/internal/ldpc"
	"repro/internal/modulation"
	"repro/internal/workload"
)

// uplinkCell16x4 is the repository benchmark's 16×4 uplink cell: 304
// data subcarriers in 16-subcarrier ZF groups, one frequency-orthogonal
// pilot and six uplink symbols.
func uplinkCell16x4(order modulation.Order, rate ldpc.Rate) frame.Config {
	return frame.Config{
		Antennas:        16,
		Users:           4,
		OFDMSize:        512,
		DataSubcarriers: 304,
		Order:           order,
		Rate:            rate,
		DecodeIter:      5,
		Pilots:          frame.FreqOrthogonal,
		Symbols:         frame.UplinkSchedule(1, 6),
		ZFGroupSize:     16,
		DemodBlockSize:  64,
		FFTBatch:        2,
		ZFBatch:         3,
	}
}

// TestUplinkDigest pins the engine's uplink results, the twin of
// TestDownlinkDigest: seeded frames through the benchmark's cell_center
// (16×4), wide_array (64×4) and small_frames (8×2, K = 2) geometries, and
// cell_center with time-orthogonal pilots, so both CSI extraction schemes
// are covered. Per frame it hashes every ZF group's CSI matrix of the
// frame's slot, bit for bit, then every decoded block's bits and parity
// outcome. Every kernel has a Go loop that is its bit-identity reference,
// so a `-tags purego` run (make generic) must print the same digests.
func TestUplinkDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests pinned on amd64")
	}
	wide := uplinkCell16x4(modulation.QPSK, ldpc.Rate89)
	wide.Antennas = 64
	timeOrth := uplinkCell16x4(modulation.QAM64, ldpc.Rate13)
	timeOrth.Pilots = frame.TimeOrthogonal
	timeOrth.Symbols = frame.UplinkSchedule(timeOrth.Users, 6)
	for _, tc := range []struct {
		name string
		cfg  frame.Config
		want string
	}{
		{"cell_center", uplinkCell16x4(modulation.QAM64, ldpc.Rate13), "0f43473823225e76daabe19fc634fdd9c91ef5f588435b9f1624a4e721a314ae"},
		{"wide_array", wide, "90309e5711a85cf78b6eebeb4708395d71a35c436afba3af4f1b120f92443c4d"},
		{"small_frames", smallCfg(), "5d723f86cdef240c8ad6aed3b8208cb61ef394c2fbbf86e5f5a9d86e34f0152f"},
		{"time_orthogonal", timeOrth, "12c38348d42fe257de438bb3cc8fb3ff91ddaea10e1ec56de0e59c0dbdab2d63"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := uplinkDigest(t, tc.cfg, 3); got != tc.want {
				t.Fatalf("uplink digest %s, want %s", got, tc.want)
			}
		})
	}
}

// uplinkDigest runs n frames, one at a time, at 25 dB over a seeded
// Rayleigh channel and returns the SHA-256 of each frame's CSI and
// decoded bits, in frame order.
func uplinkDigest(t *testing.T, cfg frame.Config, n int) string {
	t.Helper()
	ring := fronthaul.NewRing(4096, fronthaul.PacketSize(cfg.SamplesPerSymbol())+64)
	gen, err := workload.NewGenerator(cfg, channel.Rayleigh, 25, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(cfg, Options{Workers: 2, KeepBits: true}, ring.Side(1))
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	defer eng.Stop()
	rru := ring.Side(0)
	h := sha256.New()
	for f := 0; f < n; f++ {
		if err := gen.EmitFrame(uint32(f), rru.Send); err != nil {
			t.Fatal(err)
		}
		var r FrameResult
		select {
		case r = <-eng.Results():
			if r.Dropped || r.BlocksOK != r.BlocksTotal {
				t.Fatalf("frame %d: dropped %v, %d/%d blocks decoded", f, r.Dropped, r.BlocksOK, r.BlocksTotal)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("frame %d timed out", f)
		}
		// The frame's slot is not reused before the next frame is sent.
		putUint(h, uint64(r.Frame))
		for _, m := range eng.buf.csi[int(r.Frame)%eng.opts.Slots] {
			for _, v := range m.Data {
				putUint(h, uint64(math.Float32bits(real(v)))<<32|uint64(math.Float32bits(imag(v))))
			}
		}
		for s := range r.Bits {
			for u, bits := range r.Bits[s] {
				h.Write(bits)
				ok := uint64(0)
				if r.OKMask[s][u] {
					ok = 1
				}
				putUint(h, ok)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func putUint(h hash.Hash, v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	h.Write(b[:])
}
