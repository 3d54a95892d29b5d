package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/frame"
	"repro/internal/fronthaul"
	"repro/internal/ldpc"
	"repro/internal/modulation"
	"repro/internal/workload"
)

// downlinkCfg is the repository benchmark's downlink cell: 16×4 16-QAM
// R=2/3, one pilot and six downlink symbols, 304 data subcarriers of which
// 297 carry code bits.
func downlinkCfg() frame.Config {
	return frame.Config{
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
}

// TestDownlinkDigest pins the engine's downlink bytes: seeded frames
// through the benchmark's downlink geometry, every downlink packet payload
// hashed in (frame, symbol, antenna) order. The digest is computed from
// the engine alone, so a change to how precode or IFFT work is cut into
// tasks must leave it unchanged. Every variant has the same digest: the
// block size (24 and 10 are not multiples of the 16-subcarrier ZF group),
// batching and the GEMM plan choose which task computes a sample, never
// its value. Under
// StaleDLSymbols a symbol may be precoded with either frame's precoder;
// the channel is static and the ZF cache serves every frame after the
// first with the first frame's precoder, so both give the same bytes.
func TestDownlinkDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests pinned on amd64")
	}
	const want = "e7aa8d1a2fa4861a9be202644bec5a4c56998ba0800047483d072747e0660f94"
	for _, tc := range []struct {
		name string
		edit func(*frame.Config, *Options)
	}{
		{"bench", func(*frame.Config, *Options) {}},
		{"block24", func(c *frame.Config, _ *Options) { c.DemodBlockSize = 24 }},
		{"block10", func(c *frame.Config, _ *Options) { c.DemodBlockSize = 10 }},
		{"unbatched", func(_ *frame.Config, o *Options) { o.DisableBatching = true }},
		{"textbook-gemm", func(_ *frame.Config, o *Options) { o.DisableJITGemm = true }},
		{"stale2", func(_ *frame.Config, o *Options) { o.StaleDLSymbols = 2 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := downlinkCfg()
			opts := Options{Workers: 2}
			tc.edit(&cfg, &opts)
			if got := downlinkDigest(t, cfg, opts, 3); got != want {
				t.Fatalf("downlink digest %s, want %s", got, want)
			}
		})
	}
}

// downlinkDigest runs n frames, one at a time, and returns the SHA-256 of
// every downlink payload, sorted by frame, symbol and antenna.
func downlinkDigest(t *testing.T, cfg frame.Config, opts Options, n int) string {
	t.Helper()
	ring := fronthaul.NewRing(8192, fronthaul.PacketSize(cfg.SamplesPerSymbol())+64)
	gen, err := workload.NewGenerator(cfg, channel.Rayleigh, 30, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(cfg, opts, ring.Side(1))
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	defer eng.Stop()
	rru := ring.Side(0)
	type dlPkt struct {
		key     uint64
		payload []byte
	}
	pkts := make(chan dlPkt, 1024)
	go func() {
		for {
			pkt, ok := rru.Recv()
			if !ok {
				close(pkts)
				return
			}
			var h fronthaul.Header
			if err := h.Decode(pkt); err == nil && h.Dir == fronthaul.DirDownlink {
				key := uint64(h.Frame)<<32 | uint64(h.Symbol)<<16 | uint64(h.Antenna)
				pkts <- dlPkt{key, append([]byte(nil), pkt[fronthaul.HeaderSize:]...)}
			}
			rru.Release(pkt)
		}
	}()
	var got []dlPkt
	perFrame := cfg.Antennas * cfg.NumDownlink()
	for f := 0; f < n; f++ {
		if err := gen.EmitFrame(uint32(f), rru.Send); err != nil {
			t.Fatal(err)
		}
		select {
		case r := <-eng.Results():
			if r.Dropped {
				t.Fatalf("frame %d dropped", f)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("frame %d timed out", f)
		}
		deadline := time.After(10 * time.Second)
		for len(got) < (f+1)*perFrame {
			select {
			case p, ok := <-pkts:
				if !ok {
					t.Fatalf("ring closed with %d packets", len(got))
				}
				got = append(got, p)
			case <-deadline:
				t.Fatalf("frame %d: %d/%d downlink packets", f, len(got), (f+1)*perFrame)
			}
		}
	}
	sort.Slice(got, func(i, j int) bool { return got[i].key < got[j].key })
	h := sha256.New()
	var key [8]byte
	for i, p := range got {
		if i > 0 && p.key == got[i-1].key {
			t.Fatalf("duplicate downlink packet %x", p.key)
		}
		binary.BigEndian.PutUint64(key[:], p.key)
		h.Write(key[:])
		h.Write(p.payload)
	}
	return hex.EncodeToString(h.Sum(nil))
}
