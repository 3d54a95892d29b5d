package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"repro/internal/channel"
	"repro/internal/frame"
	"repro/internal/ldpc"
	"repro/internal/modulation"
)

// TestEmitFrameDigest pins the SHA-256 of every packet one seeded frame
// of the reference 16×4 cell emits, over a flat and a frequency-selective
// channel. The benchmark replays pools of such frames, so a change to the
// generator's transmit chain that is meant to move values only (the
// precoded band's placement into the inverse transform, say) must leave
// both digests as they are. amd64 only: there the Go compiler never fuses
// a multiply and an add, so the Go loops and the vector kernels give the
// same bits; other architectures may fuse and round differently.
func TestEmitFrameDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests pinned on amd64")
	}
	cfg := frame.Config{
		Antennas:        16,
		Users:           4,
		OFDMSize:        512,
		CPLen:           32,
		DataSubcarriers: 304,
		Order:           modulation.QAM64,
		Rate:            ldpc.Rate13,
		DecodeIter:      5,
		Pilots:          frame.FreqOrthogonal,
		Symbols:         "PUU",
		ZFGroupSize:     16,
		DemodBlockSize:  64,
	}
	for _, tc := range []struct {
		name string
		taps int // multipath taps; 0 keeps the flat channel
		want string
	}{
		{"flat", 0, "d1a97176b70b8833fcb73b60d9a22bca2b6649ef8b160a2eaaf4f91424ad0df6"},
		{"selective", 4, "23181af7a9c3da85c86ae2c1646475d1c34a2e95a93be3d97f0cc94c97582611"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gen, err := NewGenerator(cfg, channel.Rayleigh, 25, 1)
			if err != nil {
				t.Fatal(err)
			}
			if tc.taps > 0 {
				gen.SetSelective(tc.taps)
			}
			h := sha256.New()
			pkts := 0
			if err := gen.EmitFrame(3, func(pkt []byte) error {
				h.Write(pkt)
				pkts++
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if want := 3 * cfg.Antennas; pkts != want {
				t.Fatalf("%d packets, want %d", pkts, want)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Fatalf("packet digest %s, want %s", got, tc.want)
			}
		})
	}
}
