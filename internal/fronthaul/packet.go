// Package fronthaul implements the link between the RRU and Agora: the
// packet format carrying IQ samples (a 64-byte header followed by 24-bit
// IQ samples, paper §5.2), an in-process zero-copy ring transport standing
// in for DPDK kernel-bypass I/O, and a real UDP transport built on the
// standard library for cross-process runs.
package fronthaul

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/cf"
)

// HeaderSize matches the paper's 64-byte packet header.
const HeaderSize = 64

// Magic guards against misdirected traffic.
const Magic = 0x41474F52 // "AGOR"

// Direction of a fronthaul packet.
type Direction uint8

// Packet directions.
const (
	DirUplink   Direction = 0 // RRU -> Agora
	DirDownlink Direction = 1 // Agora -> RRU
)

// Header identifies the samples a packet carries: one packet holds all
// time-domain samples of one antenna for one symbol.
type Header struct {
	Frame   uint32
	Symbol  uint16
	Antenna uint16
	Samples uint32 // IQ sample count in the payload
	Dir     Direction
	// Cell addresses a multi-cell deployment: the fleet router demuxes
	// RRU streams to per-cell engines by this byte (DESIGN §16). It uses
	// a previously-zeroed spare header byte, so legacy senders address
	// cell 0 and single-cell deployments ignore it.
	Cell uint8
	Seq  uint64 // monotone per-sender sequence, for loss accounting
}

// PacketSize returns the wire size of a packet carrying n IQ samples.
func PacketSize(n int) int { return HeaderSize + n*cf.BytesPerIQ }

// Encode writes the header into dst[:HeaderSize].
func (h *Header) Encode(dst []byte) {
	if len(dst) < HeaderSize {
		panic("fronthaul: header buffer too small")
	}
	binary.LittleEndian.PutUint32(dst[0:], Magic)
	binary.LittleEndian.PutUint32(dst[4:], h.Frame)
	binary.LittleEndian.PutUint16(dst[8:], h.Symbol)
	binary.LittleEndian.PutUint16(dst[10:], h.Antenna)
	binary.LittleEndian.PutUint32(dst[12:], h.Samples)
	dst[16] = byte(h.Dir)
	dst[17] = h.Cell
	binary.LittleEndian.PutUint64(dst[24:], h.Seq)
	for i := 18; i < 24; i++ {
		dst[i] = 0
	}
	for i := 32; i < HeaderSize; i++ {
		dst[i] = 0
	}
}

// Errors returned by Decode.
var (
	ErrShortPacket = errors.New("fronthaul: packet shorter than header")
	ErrBadMagic    = errors.New("fronthaul: bad magic")
	ErrTruncated   = errors.New("fronthaul: payload shorter than header claims")
)

// Decode parses the header from wire bytes without allocating, in the
// style of gopacket's DecodeFromBytes: the receiver struct is reused
// across packets.
func (h *Header) Decode(src []byte) error {
	if len(src) < HeaderSize {
		return ErrShortPacket
	}
	if binary.LittleEndian.Uint32(src[0:]) != Magic {
		return ErrBadMagic
	}
	h.Frame = binary.LittleEndian.Uint32(src[4:])
	h.Symbol = binary.LittleEndian.Uint16(src[8:])
	h.Antenna = binary.LittleEndian.Uint16(src[10:])
	h.Samples = binary.LittleEndian.Uint32(src[12:])
	h.Dir = Direction(src[16])
	h.Cell = src[17]
	h.Seq = binary.LittleEndian.Uint64(src[24:])
	if len(src) < PacketSize(int(h.Samples)) {
		return ErrTruncated
	}
	return nil
}

// Payload returns the IQ byte region of a decoded packet.
func Payload(pkt []byte, h *Header) []byte {
	return pkt[HeaderSize:PacketSize(int(h.Samples))]
}

// BuildPacket assembles a complete packet into dst: header plus the
// samples quantized to 12-bit IQ in one pass (cf.QuantizeIQ12 at unit
// gain). dst must have capacity PacketSize(len(samples)). Returns the
// packet slice.
func BuildPacket(dst []byte, h Header, samples []complex64) []byte {
	h.Samples = uint32(len(samples))
	n := PacketSize(len(samples))
	if cap(dst) < n {
		panic(fmt.Sprintf("fronthaul: BuildPacket dst cap %d < %d", cap(dst), n))
	}
	dst = dst[:n]
	h.Encode(dst)
	cf.QuantizeIQ12(dst[HeaderSize:], samples, 1)
	return dst
}

// BuildPacketRaw assembles a packet whose payload bytes are already in
// wire form (FEC parity shards, pre-packed IQ). dst must have capacity
// for HeaderSize+len(payload); h.Samples is derived from the payload
// length. Returns the packet slice.
func BuildPacketRaw(dst []byte, h Header, payload []byte) []byte {
	h.Samples = uint32(len(payload) / cf.BytesPerIQ)
	n := HeaderSize + len(payload)
	if cap(dst) < n {
		panic(fmt.Sprintf("fronthaul: BuildPacketRaw dst cap %d < %d", cap(dst), n))
	}
	dst = dst[:n]
	h.Encode(dst)
	copy(dst[HeaderSize:], payload)
	return dst
}

// String implements fmt.Stringer.
func (h Header) String() string {
	return fmt.Sprintf("cell=%d frame=%d sym=%d ant=%d n=%d dir=%d seq=%d",
		h.Cell, h.Frame, h.Symbol, h.Antenna, h.Samples, h.Dir, h.Seq)
}
