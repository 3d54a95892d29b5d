package frame

import (
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/ldpc"
)

func TestDefaultValidates(t *testing.T) {
	c := Default64x16()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.NumSymbols() != 14 || c.NumPilots() != 1 || c.NumUplink() != 13 {
		t.Fatalf("schedule counts wrong: %d/%d/%d", c.NumSymbols(), c.NumPilots(), c.NumUplink())
	}
	// 14 symbols at ~71.4 µs is a 1 ms frame.
	if d := c.FrameDuration(); d < 999*time.Microsecond || d > 1001*time.Microsecond {
		t.Fatalf("frame duration %v, want ~1ms", d)
	}
	if c.ZFGroups() != 75 {
		t.Fatalf("ZF groups %d, want 75 (paper Table 3)", c.ZFGroups())
	}
}

func TestPaperDataRates(t *testing.T) {
	// §6.1.1: with 1/3 code rate and 1 ms frames the uplink rate is
	// ~454 Mbps; with 8/9 it is ~1.25 Gbps.
	c := Default64x16()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	r13 := c.UplinkDataRate()
	if r13 < 400e6 || r13 > 520e6 {
		t.Errorf("R=1/3 uplink rate %.0f Mbps outside paper ballpark 454", r13/1e6)
	}
	c89 := Default64x16()
	c89.Rate = ldpc.Rate89
	c89.LiftingZ = 0 // auto-pick
	if err := c89.Validate(); err != nil {
		t.Fatal(err)
	}
	r89 := c89.UplinkDataRate()
	if r89 < 1.1e9 || r89 > 1.45e9 {
		t.Errorf("R=8/9 uplink rate %.2f Gbps outside paper ballpark 1.25", r89/1e9)
	}
}

func TestValidateRejects(t *testing.T) {
	bad := func(mod func(*Config)) error {
		c := Default64x16()
		mod(&c)
		return c.Validate()
	}
	cases := map[string]func(*Config){
		"zero antennas":   func(c *Config) { c.Antennas = 0 },
		"more users":      func(c *Config) { c.Users = 128 },
		"bad ofdm":        func(c *Config) { c.OFDMSize = 1000 },
		"sc overflow":     func(c *Config) { c.DataSubcarriers = 4096 },
		"empty schedule":  func(c *Config) { c.Symbols = "" },
		"bad symbol":      func(c *Config) { c.Symbols = "PX" },
		"two pilots freq": func(c *Config) { c.Symbols = "PPUU" },
		"bad lifting":     func(c *Config) { c.LiftingZ = 1000 },
		"codeword too big": func(c *Config) {
			c.LiftingZ = 120 // 66*120 = 7920 > 7200 capacity
		},
		"time-orth pilot count": func(c *Config) {
			c.Pilots = TimeOrthogonal
			c.Symbols = "PPPUU" // needs 16 P
		},
	}
	for name, mod := range cases {
		if err := bad(mod); err == nil {
			t.Errorf("%s: Validate accepted bad config", name)
		}
	}
}

func TestAutoLiftingFillsSymbol(t *testing.T) {
	for _, r := range []ldpc.Rate{ldpc.Rate13, ldpc.Rate23, ldpc.Rate89} {
		c := Default64x16()
		c.Rate = r
		c.LiftingZ = 0
		if err := c.Validate(); err != nil {
			t.Fatalf("rate %v: %v", r, err)
		}
		code := c.Code()
		if code.N() > c.SymbolCapacityBits() {
			t.Errorf("rate %v: codeword %d exceeds capacity %d", r, code.N(), c.SymbolCapacityBits())
		}
		// Should fill at least 80% of the symbol.
		if float64(code.N()) < 0.8*float64(c.SymbolCapacityBits()) {
			t.Errorf("rate %v: codeword %d underfills capacity %d", r, code.N(), c.SymbolCapacityBits())
		}
	}
}

func TestSchedules(t *testing.T) {
	if s := UplinkSchedule(1, 3); s != "PUUU" {
		t.Fatalf("UplinkSchedule: %q", s)
	}
	if s := DownlinkSchedule(2, 2); s != "PPDD" {
		t.Fatalf("DownlinkSchedule: %q", s)
	}
}

func TestTimeOrthogonalValidates(t *testing.T) {
	c := Default64x16()
	c.Users = 8
	c.Pilots = TimeOrthogonal
	c.Symbols = UplinkSchedule(8, 20)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.NumPilots() != 8 {
		t.Fatalf("pilots %d", c.NumPilots())
	}
}

func TestDerivedGeometry(t *testing.T) {
	c := Default64x16()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.DataStart() != 424 {
		t.Fatalf("DataStart %d, want (2048-1200)/2", c.DataStart())
	}
	if c.SamplesPerSymbol() != 2048 {
		t.Fatalf("SamplesPerSymbol %d", c.SamplesPerSymbol())
	}
	c.CPLen = 144
	if c.SamplesPerSymbol() != 2192 {
		t.Fatalf("SamplesPerSymbol with CP %d", c.SamplesPerSymbol())
	}
	// Rate 1/3, Z=104: 6864 code bits over 64-QAM fill 1144 of the 1200
	// data subcarriers, and demod tasks cover only those.
	if c.UsedSubcarriers() != 1144 || c.DemodBlocks() != (1144+63)/64 {
		t.Fatalf("UsedSubcarriers %d, DemodBlocks %d", c.UsedSubcarriers(), c.DemodBlocks())
	}
}

func TestStringIsCompact(t *testing.T) {
	c := Default64x16()
	_ = c.Validate()
	s := c.String()
	if !strings.Contains(s, "64x16") || len(s) > 200 {
		t.Fatalf("String(): %q", s)
	}
	c.Symbols = UplinkSchedule(1, 69)
	if s2 := c.String(); len(s2) > 200 {
		t.Fatalf("long schedule not abbreviated: %q", s2)
	}
}

func TestConfigJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/cell.json"
	c := Default64x16()
	if err := SaveConfig(path, c); err != nil {
		t.Fatal(err)
	}
	got, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	// Validate fills LiftingZ on both sides; compare the whole struct.
	_ = c.Validate()
	if got != c {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, c)
	}
}

func TestLoadConfigRejects(t *testing.T) {
	dir := t.TempDir()
	bad := dir + "/bad.json"
	if err := os.WriteFile(bad, []byte(`{"Antennas": -1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadConfig(bad); err == nil {
		t.Fatal("invalid config accepted")
	}
	if err := os.WriteFile(bad, []byte(`{"NotAField": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadConfig(bad); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := LoadConfig(dir + "/missing.json"); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := SaveConfig(dir+"/x.json", Config{}); err == nil {
		t.Fatal("SaveConfig accepted invalid config")
	}
}
