// Package frame defines the cellular configuration and TDD frame
// structure shared by the whole pipeline: MIMO dimensions, OFDM numerology,
// the per-frame symbol schedule (pilot / uplink / downlink / empty), the
// modulation and LDPC settings, and the task-granularity knobs (ZF group
// size, demodulation block size, batching) that Agora's scheduler uses.
package frame

import (
	"fmt"
	"time"

	"repro/internal/ldpc"
	"repro/internal/modulation"
)

// SymbolType classifies each symbol in a frame (paper Figure 1a).
type SymbolType byte

// Symbol types.
const (
	Pilot    SymbolType = 'P'
	Uplink   SymbolType = 'U'
	Downlink SymbolType = 'D'
	Empty    SymbolType = 'E'
)

// PilotScheme selects how users send pilots.
type PilotScheme int

// Pilot schemes.
const (
	// FreqOrthogonal interleaves all users' pilots over the subcarriers of
	// a single pilot symbol (emulated-RRU setup, §5.2).
	FreqOrthogonal PilotScheme = iota
	// TimeOrthogonal gives each user its own full-band Zadoff–Chu pilot
	// symbol (hardware-RRU setup, §5.3). Requires K pilot symbols.
	TimeOrthogonal
)

// SymbolDuration is the fixed OFDM symbol duration from the paper (~71 µs,
// 14 symbols per 1 ms frame).
const SymbolDuration = time.Microsecond * 500 / 7 // 71.43 µs

// Config describes one cell/RRU configuration. The zero value is not
// usable; start from Default64x16 or fill every field and call Validate.
type Config struct {
	Antennas int // M: RRU antennas
	Users    int // K: spatial streams (M >= K)

	OFDMSize        int // FFT size (power of two), e.g. 2048
	DataSubcarriers int // subcarriers carrying data, e.g. 1200
	CPLen           int // cyclic prefix samples prepended per symbol

	Order modulation.Order
	Rate  ldpc.Rate
	// LiftingZ is the LDPC lifting size; 0 picks the largest valid size
	// whose codeword fits the symbol capacity (paper default Z=104 for
	// rate 1/3 over 1200 subcarriers of 64-QAM).
	LiftingZ   int
	DecodeIter int // max LDPC iterations (paper: up to 5, Fig 12 up to 10)

	Pilots PilotScheme
	// Symbols is the per-frame schedule, e.g. "PUUUUUUUUUUUUU" for a 1 ms
	// all-uplink frame. With TimeOrthogonal pilots the schedule must start
	// with exactly Users 'P' symbols.
	Symbols string

	// Scheduler granularity (paper §3.4 / Table 3).
	ZFGroupSize    int // subcarriers sharing one ZF precoder (paper: 16)
	DemodBlockSize int // subcarriers per demod task (paper: 64-ish)
	FFTBatch       int // FFT tasks per scheduler message (paper: 2)
	ZFBatch        int // ZF tasks per message (paper: 3)
}

// Default64x16 is the paper's headline configuration: 64×16 MIMO, 20 MHz /
// 2048 subcarriers with 1200 in use, 64-QAM, LDPC rate 1/3 (Z=104), 1 ms
// all-uplink frame.
func Default64x16() Config {
	return Config{
		Antennas:        64,
		Users:           16,
		OFDMSize:        2048,
		DataSubcarriers: 1200,
		Order:           modulation.QAM64,
		Rate:            ldpc.Rate13,
		LiftingZ:        104,
		DecodeIter:      5,
		Pilots:          FreqOrthogonal,
		Symbols:         "PUUUUUUUUUUUUU",
		ZFGroupSize:     16,
		DemodBlockSize:  64,
		FFTBatch:        2,
		ZFBatch:         3,
	}
}

// UplinkSchedule returns a schedule with one pilot (or Users pilots for
// TimeOrthogonal) followed by n uplink data symbols.
func UplinkSchedule(pilots, n int) string {
	s := make([]byte, 0, pilots+n)
	for i := 0; i < pilots; i++ {
		s = append(s, byte(Pilot))
	}
	for i := 0; i < n; i++ {
		s = append(s, byte(Uplink))
	}
	return string(s)
}

// DownlinkSchedule returns a schedule with pilots followed by n downlink
// data symbols.
func DownlinkSchedule(pilots, n int) string {
	s := make([]byte, 0, pilots+n)
	for i := 0; i < pilots; i++ {
		s = append(s, byte(Pilot))
	}
	for i := 0; i < n; i++ {
		s = append(s, byte(Downlink))
	}
	return string(s)
}

// Validate checks internal consistency and fills derived defaults
// (LiftingZ when zero). It must be called before the config is used.
func (c *Config) Validate() error {
	switch {
	case c.Antennas <= 0 || c.Users <= 0:
		return fmt.Errorf("frame: need positive antennas/users, got %d/%d", c.Antennas, c.Users)
	case c.Antennas < c.Users:
		return fmt.Errorf("frame: antennas %d < users %d", c.Antennas, c.Users)
	case c.OFDMSize < 2 || c.OFDMSize&(c.OFDMSize-1) != 0:
		return fmt.Errorf("frame: OFDM size %d not a power of two", c.OFDMSize)
	case c.DataSubcarriers <= 0 || c.DataSubcarriers > c.OFDMSize:
		return fmt.Errorf("frame: data subcarriers %d out of range", c.DataSubcarriers)
	case len(c.Symbols) == 0:
		return fmt.Errorf("frame: empty symbol schedule")
	case c.CPLen < 0:
		return fmt.Errorf("frame: negative cyclic prefix")
	}
	for _, s := range []byte(c.Symbols) {
		switch SymbolType(s) {
		case Pilot, Uplink, Downlink, Empty:
		default:
			return fmt.Errorf("frame: bad symbol type %q", s)
		}
	}
	if c.Pilots == TimeOrthogonal && c.NumPilots() != c.Users {
		return fmt.Errorf("frame: time-orthogonal pilots need %d pilot symbols, schedule has %d",
			c.Users, c.NumPilots())
	}
	if c.Pilots == FreqOrthogonal {
		if c.NumPilots() != 1 {
			return fmt.Errorf("frame: frequency-orthogonal pilots need exactly 1 pilot symbol, schedule has %d", c.NumPilots())
		}
		if c.DataSubcarriers < c.Users {
			return fmt.Errorf("frame: %d subcarriers cannot carry %d interleaved pilots", c.DataSubcarriers, c.Users)
		}
	}
	if c.ZFGroupSize <= 0 {
		c.ZFGroupSize = 16
	}
	if c.DemodBlockSize <= 0 {
		c.DemodBlockSize = 64
	}
	if c.FFTBatch <= 0 {
		c.FFTBatch = 1
	}
	if c.ZFBatch <= 0 {
		c.ZFBatch = 1
	}
	if c.DecodeIter <= 0 {
		c.DecodeIter = 5
	}
	if c.LiftingZ == 0 {
		c.LiftingZ = c.bestLifting()
	}
	if !ldpc.ValidLifting(c.LiftingZ) {
		return fmt.Errorf("frame: invalid lifting size %d", c.LiftingZ)
	}
	code, err := ldpc.New(c.Rate, c.LiftingZ)
	if err != nil {
		return err
	}
	if code.N() > c.SymbolCapacityBits() {
		return fmt.Errorf("frame: codeword %d bits exceeds symbol capacity %d", code.N(), c.SymbolCapacityBits())
	}
	return nil
}

// bestLifting picks the largest valid lifting size whose codeword fits
// one symbol, so each symbol carries exactly one code block (§4, "up to
// one code block per symbol").
func (c *Config) bestLifting() int {
	blocks := ldpc.KbBlocks + c.Rate.ParityBlocks()
	z := c.SymbolCapacityBits() / blocks
	if z > 512 {
		z = 512
	}
	return z
}

// SymbolCapacityBits returns how many coded bits one data symbol carries
// per user.
func (c *Config) SymbolCapacityBits() int {
	return c.DataSubcarriers * int(c.Order)
}

// Code returns the LDPC code instance for this configuration.
func (c *Config) Code() *ldpc.Code {
	return ldpc.MustNew(c.Rate, c.LiftingZ)
}

// NumSymbols returns the schedule length.
func (c *Config) NumSymbols() int { return len(c.Symbols) }

// SymbolAt returns the type of symbol index s.
func (c *Config) SymbolAt(s int) SymbolType { return SymbolType(c.Symbols[s]) }

// NumPilots counts pilot symbols per frame.
func (c *Config) NumPilots() int { return c.countType(Pilot) }

// NumUplink counts uplink data symbols per frame.
func (c *Config) NumUplink() int { return c.countType(Uplink) }

// NumDownlink counts downlink data symbols per frame.
func (c *Config) NumDownlink() int { return c.countType(Downlink) }

func (c *Config) countType(t SymbolType) int {
	n := 0
	for _, s := range []byte(c.Symbols) {
		if SymbolType(s) == t {
			n++
		}
	}
	return n
}

// FrameDuration returns the nominal on-air frame time.
func (c *Config) FrameDuration() time.Duration {
	return time.Duration(len(c.Symbols)) * SymbolDuration
}

// SamplesPerSymbol returns the time-domain samples per symbol including
// the cyclic prefix.
func (c *Config) SamplesPerSymbol() int { return c.OFDMSize + c.CPLen }

// DataStart returns the first subcarrier index carrying data; the band is
// centered with equal guard bands on both sides.
func (c *Config) DataStart() int { return (c.OFDMSize - c.DataSubcarriers) / 2 }

// ZFGroups returns the number of zero-forcing tasks per frame (one per
// subcarrier group; paper: 1200/16 = 75).
func (c *Config) ZFGroups() int {
	return (c.DataSubcarriers + c.ZFGroupSize - 1) / c.ZFGroupSize
}

// UsedSubcarriers returns how many data subcarriers carry code bits: one
// codeword per user per symbol, the rest is padding.
func (c *Config) UsedSubcarriers() int {
	n := (ldpc.KbBlocks + c.Rate.ParityBlocks()) * c.LiftingZ // codeword bits
	return (n + int(c.Order) - 1) / int(c.Order)
}

// DemodBlocks returns the number of demodulation tasks per uplink symbol,
// covering only the subcarriers that carry code bits.
func (c *Config) DemodBlocks() int {
	return (c.UsedSubcarriers() + c.DemodBlockSize - 1) / c.DemodBlockSize
}

// Unbatched returns c with task batching off (§3.4): every scheduler
// message carries one FFT or ZF task, and demod blocks shrink to at most
// 8 subcarriers.
func (c Config) Unbatched() Config {
	c.FFTBatch, c.ZFBatch = 1, 1
	c.DemodBlockSize = min(c.DemodBlockSize, 8)
	return c
}

// UplinkBitsPerFrame returns the information bits Agora delivers to the
// MAC per frame (all users, all uplink symbols).
func (c *Config) UplinkBitsPerFrame() int {
	return c.Code().K() * c.Users * c.NumUplink()
}

// UplinkDataRate returns the deliverable uplink rate in bits/second.
func (c *Config) UplinkDataRate() float64 {
	return float64(c.UplinkBitsPerFrame()) / c.FrameDuration().Seconds()
}

// DownlinkBitsPerFrame is the MAC-to-PHY payload per frame.
func (c *Config) DownlinkBitsPerFrame() int {
	return c.Code().K() * c.Users * c.NumDownlink()
}

// String summarizes the configuration.
func (c *Config) String() string {
	return fmt.Sprintf("%dx%d MIMO, %d/%d SC, %v, LDPC R=%v Z=%d, frame %q (%v)",
		c.Antennas, c.Users, c.DataSubcarriers, c.OFDMSize, c.Order, c.Rate,
		c.LiftingZ, schedAbbrev(c.Symbols), c.FrameDuration().Round(time.Microsecond))
}

func schedAbbrev(s string) string {
	if len(s) <= 16 {
		return s
	}
	return s[:8] + "..." + s[len(s)-4:]
}
