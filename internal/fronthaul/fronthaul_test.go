package fronthaul

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/cf"
)

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{Frame: 12345, Symbol: 13, Antenna: 63, Samples: 2048, Dir: DirDownlink, Cell: 7, Seq: 99}
	buf := make([]byte, HeaderSize)
	h.Encode(buf)
	var got Header
	// Samples claims payload; extend buffer accordingly.
	full := make([]byte, PacketSize(2048))
	copy(full, buf)
	if err := got.Decode(full); err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("roundtrip: got %+v want %+v", got, h)
	}
}

func TestDecodeErrors(t *testing.T) {
	var h Header
	if err := h.Decode(make([]byte, 10)); err != ErrShortPacket {
		t.Fatalf("short: %v", err)
	}
	buf := make([]byte, HeaderSize)
	if err := h.Decode(buf); err != ErrBadMagic {
		t.Fatalf("magic: %v", err)
	}
	good := Header{Samples: 100}
	good.Encode(buf)
	if err := h.Decode(buf); err != ErrTruncated {
		t.Fatalf("truncated: %v", err)
	}
}

// FuzzHeaderDecode: Decode never panics on arbitrary wire bytes, a header
// it accepts has its whole payload in bounds, and every header
// round-trips Encode→Decode field for field.
func FuzzHeaderDecode(f *testing.F) {
	valid := make([]byte, PacketSize(4))
	(&Header{Frame: 7, Symbol: 1, Antenna: 2, Samples: 4, Cell: 3, Seq: 99}).Encode(valid)
	f.Add(valid, uint32(0), uint16(0), uint16(0), uint8(0), uint64(0))
	f.Add(valid[:HeaderSize], uint32(1<<32-1), uint16(13), uint16(63), uint8(255), uint64(1<<63))
	f.Add([]byte{}, uint32(8), uint16(2), uint16(9), uint8(1), uint64(1))
	f.Fuzz(func(t *testing.T, wire []byte, frame uint32, sym, ant uint16, cell uint8, seq uint64) {
		var h Header
		if h.Decode(wire) == nil {
			if n := len(Payload(wire, &h)); n != int(h.Samples)*cf.BytesPerIQ {
				t.Fatalf("%v: payload of %d bytes", h, n)
			}
		}
		want := Header{Frame: frame, Symbol: sym, Antenna: ant,
			Samples: uint32(len(wire) / cf.BytesPerIQ), Dir: Direction(cell & 1), Cell: cell, Seq: seq}
		pkt := BuildPacketRaw(make([]byte, 0, PacketSize(len(wire))), want,
			wire[:int(want.Samples)*cf.BytesPerIQ])
		var got Header
		if err := got.Decode(pkt); err != nil || got != want {
			t.Fatalf("round trip: got %+v (%v), want %+v", got, err, want)
		}
	})
}

func TestBuildPacketRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	samples := make([]complex64, 512)
	for i := range samples {
		samples[i] = complex(rng.Float32()-0.5, rng.Float32()-0.5)
	}
	dst := make([]byte, 0, PacketSize(len(samples)))
	iq := make([]int16, 2*len(samples))
	pkt := BuildPacket(dst, iq, Header{Frame: 7, Symbol: 3, Antenna: 11}, samples)
	if len(pkt) != PacketSize(512) {
		t.Fatalf("packet size %d", len(pkt))
	}
	var h Header
	if err := h.Decode(pkt); err != nil {
		t.Fatal(err)
	}
	if h.Frame != 7 || h.Symbol != 3 || h.Antenna != 11 || h.Samples != 512 {
		t.Fatalf("header %+v", h)
	}
	out := make([]complex64, 512)
	cf.UnpackIQ12(out, Payload(pkt, &h))
	if d := cf.MaxAbsDiff(samples, out); d > 1.5/2048 {
		t.Fatalf("payload quantization error %v", d)
	}
}

func TestRingDelivery(t *testing.T) {
	r := NewRing(16, 256)
	rru, agora := r.Side(0), r.Side(1)
	pkt := make([]byte, 100)
	pkt[0] = 42
	if err := rru.Send(pkt); err != nil {
		t.Fatal(err)
	}
	got, ok := agora.Recv()
	if !ok || len(got) != 100 || got[0] != 42 {
		t.Fatalf("recv: ok=%v len=%d", ok, len(got))
	}
	agora.Release(got)
	// Reverse direction.
	if err := agora.Send(pkt); err != nil {
		t.Fatal(err)
	}
	if got, ok := rru.Recv(); !ok || got[0] != 42 {
		t.Fatal("reverse direction failed")
	}
}

// TestRingReserve pins the preallocated free-list: reserved buffers are
// what Send draws from, and Release puts them back.
func TestRingReserve(t *testing.T) {
	r := NewRing(16, 256)
	r.Reserve(4)
	if n := len(r.free); n != 4 {
		t.Fatalf("free-list holds %d buffers after Reserve(4)", n)
	}
	rru, agora := r.Side(0), r.Side(1)
	pkt := make([]byte, 100)
	for i := 0; i < 4; i++ {
		if err := rru.Send(pkt); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(r.free); n != 0 {
		t.Fatalf("4 sends left %d reserved buffers unused", n)
	}
	for i := 0; i < 4; i++ {
		got, ok := agora.Recv()
		if !ok || cap(got) != 256 {
			t.Fatalf("recv %d: ok=%v cap=%d", i, ok, cap(got))
		}
		agora.Release(got)
	}
	if n := len(r.free); n != 4 {
		t.Fatalf("free-list holds %d buffers after releasing 4", n)
	}
}

func TestRingDropsWhenFull(t *testing.T) {
	r := NewRing(2, 64)
	rru := r.Side(0)
	for i := 0; i < 10; i++ {
		if err := rru.Send(make([]byte, 8)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	// Only depth packets were kept; the rest silently dropped.
	agora := r.Side(1)
	n := 0
	for {
		if pkt, ok := recvNonBlocking(agora); ok {
			agora.Release(pkt)
			n++
		} else {
			break
		}
	}
	if n != 2 {
		t.Fatalf("kept %d packets, want 2", n)
	}
	// The silent drops must still be observable through Stats. (RxPkts
	// stays 0 here: recvNonBlocking reads the channel under the counter.)
	st := rru.Stats()
	if st.TxPkts != 2 || st.TxDrops != 8 {
		t.Fatalf("tx stats = %+v, want 2 sent / 8 dropped", st)
	}
}

func TestRingRecvBatch(t *testing.T) {
	r := NewRing(16, 64)
	rru, agora := r.Side(0), r.Side(1)
	for i := 0; i < 5; i++ {
		if err := rru.Send([]byte{byte(i), 1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	pkts := make([][]byte, 8)
	n, ok := agora.RecvBatch(pkts)
	if !ok || n != 5 {
		t.Fatalf("RecvBatch: n=%d ok=%v, want 5 true", n, ok)
	}
	for i := 0; i < n; i++ {
		if pkts[i][0] != byte(i) {
			t.Fatalf("batch packet %d reordered: got %d", i, pkts[i][0])
		}
		agora.Release(pkts[i])
	}
	// Batch blocks for the first packet like Recv, and a close unblocks.
	done := make(chan bool)
	go func() {
		_, ok := agora.RecvBatch(pkts)
		done <- ok
	}()
	if err := rru.Close(); err != nil {
		t.Fatal(err)
	}
	if ok := <-done; ok {
		t.Fatal("RecvBatch returned ok after close")
	}
}

func recvNonBlocking(e *Endpoint) ([]byte, bool) {
	select {
	case pkt := <-e.rx:
		return pkt, true
	default:
		return nil, false
	}
}

func TestRingClose(t *testing.T) {
	r := NewRing(4, 64)
	rru, agora := r.Side(0), r.Side(1)
	done := make(chan bool)
	go func() {
		_, ok := agora.Recv()
		done <- ok
	}()
	if err := rru.Close(); err != nil {
		t.Fatal(err)
	}
	if ok := <-done; ok {
		t.Fatal("Recv returned ok after close")
	}
	if err := rru.Send(make([]byte, 4)); err != ErrClosed {
		t.Fatalf("send after close: %v", err)
	}
}

func TestRingConcurrent(t *testing.T) {
	// Depth >= message count: the ring drops on overflow by design, so a
	// lossless concurrency check needs room for the whole burst.
	const n = 5000
	r := NewRing(n, 64)
	rru, agora := r.Side(0), r.Side(1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 8)
		for i := 0; i < n; i++ {
			buf[0] = byte(i)
			for {
				if err := rru.Send(buf); err != nil {
					t.Error(err)
					return
				}
				break
			}
		}
	}()
	got := 0
	for got < n {
		pkt, ok := agora.Recv()
		if !ok {
			break
		}
		agora.Release(pkt)
		got++
	}
	wg.Wait()
	if got != n {
		t.Fatalf("received %d of %d (ring deep enough, none should drop)", got, n)
	}
}

func TestUDPTransport(t *testing.T) {
	rx, err := NewUDP("127.0.0.1:0", "", 2048)
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	tx, err := NewUDP("127.0.0.1:0", rx.LocalAddr().String(), 2048)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()

	want := make([]byte, 200)
	for i := range want {
		want[i] = byte(i)
	}
	go func() {
		_ = tx.Send(want)
	}()
	got, ok := rx.Recv()
	if !ok || len(got) != 200 {
		t.Fatalf("recv ok=%v len=%d", ok, len(got))
	}
	for i := range got {
		if got[i] != byte(i) {
			t.Fatalf("payload corrupted at %d", i)
		}
	}
	rx.Release(got)
	// Learned peer: rx can now reply.
	go func() {
		_ = rx.Send(want[:10])
	}()
	back, ok := tx.Recv()
	if !ok || len(back) != 10 {
		t.Fatalf("reply ok=%v len=%d", ok, len(back))
	}
}

func TestUDPRecvBatch(t *testing.T) {
	rx, err := NewUDP("127.0.0.1:0", "", 2048)
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	tx, err := NewUDP("127.0.0.1:0", rx.LocalAddr().String(), 2048)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()

	const burst = 6
	for i := 0; i < burst; i++ {
		pkt := make([]byte, 64)
		pkt[0] = byte(i)
		if err := tx.Send(pkt); err != nil {
			t.Fatal(err)
		}
	}
	// Loopback may still reorder or drop; collect with a deadline and
	// check only that batching loses nothing that single Recv would see.
	got := make(map[byte]bool)
	pkts := make([][]byte, 8)
	deadline := time.Now().Add(2 * time.Second)
	for len(got) < burst && time.Now().Before(deadline) {
		n, ok := rx.RecvBatch(pkts)
		if !ok {
			t.Fatal("RecvBatch closed early")
		}
		for i := 0; i < n; i++ {
			if len(pkts[i]) != 64 {
				t.Fatalf("packet %d truncated to %d bytes", i, len(pkts[i]))
			}
			got[pkts[i][0]] = true
			rx.Release(pkts[i])
		}
	}
	if len(got) != burst {
		t.Fatalf("received %d distinct packets of %d", len(got), burst)
	}
	if st := rx.Stats(); st.RxPkts < int64(burst) {
		t.Fatalf("rx stats = %d pkts, want >= %d", st.RxPkts, burst)
	}
}

func TestLossInjector(t *testing.T) {
	sent := 0
	emit := func([]byte) error { sent++; return nil }

	// Inactive: Wrap must hand back the original function untouched.
	if got := NewLossInjector(0, 0, 1).Wrap(emit); got == nil {
		t.Fatal("inactive injector returned nil")
	}

	// Every-Nth: exact deterministic count.
	li := NewLossInjector(3, 0, 1)
	send := li.Wrap(emit)
	for i := 0; i < 9; i++ {
		if err := send(nil); err != nil {
			t.Fatal(err)
		}
	}
	if sent != 6 || li.Dropped() != 3 || li.Sent() != 9 {
		t.Fatalf("every-3rd over 9: delivered %d, dropped %d, sent %d",
			sent, li.Dropped(), li.Sent())
	}

	// Seeded random rate: reproducible across two injectors.
	a, b := NewLossInjector(0, 0.3, 7), NewLossInjector(0, 0.3, 7)
	sa := a.Wrap(func([]byte) error { return nil })
	sb := b.Wrap(func([]byte) error { return nil })
	for i := 0; i < 1000; i++ {
		_ = sa(nil)
		_ = sb(nil)
	}
	if a.Dropped() != b.Dropped() {
		t.Fatalf("same seed diverged: %d vs %d drops", a.Dropped(), b.Dropped())
	}
	if a.Dropped() < 200 || a.Dropped() > 400 {
		t.Fatalf("rate 0.3 over 1000 dropped %d, far from expectation", a.Dropped())
	}
}

func BenchmarkHeaderDecode(b *testing.B) {
	buf := make([]byte, PacketSize(2048))
	(&Header{Samples: 2048}).Encode(buf)
	var h Header
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := h.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRingSendRecv(b *testing.B) {
	r := NewRing(1024, 8192)
	rru, agora := r.Side(0), r.Side(1)
	pkt := make([]byte, PacketSize(2048))
	b.SetBytes(int64(len(pkt)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = rru.Send(pkt)
		got, _ := agora.Recv()
		agora.Release(got)
	}
}
