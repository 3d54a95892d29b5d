package fronthaul

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Transport moves packets between the RRU and Agora. Implementations are
// safe for one sender goroutine and one receiver goroutine per direction.
type Transport interface {
	// Send transmits one packet. The implementation takes ownership of
	// the buffer until the call returns; callers may reuse it afterwards.
	Send(pkt []byte) error
	// Recv blocks until a packet arrives or the transport closes, in
	// which case ok is false. The returned buffer belongs to the caller;
	// return it with Release when done to recycle it.
	Recv() (pkt []byte, ok bool)
	// RecvBatch blocks for the first packet, then opportunistically
	// fills pkts with whatever is already queued, so the receive
	// goroutine wakes once per burst instead of once per packet. Every
	// returned buffer follows the same Release contract as Recv.
	RecvBatch(pkts [][]byte) (n int, ok bool)
	// Release returns a buffer obtained from Recv or RecvBatch to the pool.
	Release(pkt []byte)
	// Stats reports the endpoint's packet counters.
	Stats() Stats
	// Close shuts the transport down; pending Recv calls unblock.
	Close() error
}

// Stats counts a transport endpoint's packet-level events. TxDrops is
// the count of packets Send discarded because the queue was full — the
// loss that used to be invisible.
type Stats struct {
	TxPkts  int64
	TxDrops int64
	RxPkts  int64
}

// ErrClosed is returned by Send on a closed transport.
var ErrClosed = errors.New("fronthaul: transport closed")

// Ring is the in-process transport: a pair of deep buffered channels over
// preallocated packet buffers, the stand-in for DPDK's kernel-bypass
// queues (no syscalls, no copies beyond the payload write itself).
//
// Buffers recycle through a buffered channel rather than a sync.Pool:
// putting a []byte into a pool boxes the slice header into an interface
// and allocates ~once per packet, which alone keeps a steady-state frame
// from reaching zero allocations. The channel free-list moves the same
// headers with no boxing; buffers are allocated lazily on an empty list
// and dropped (for the GC) when the list is full.
type Ring struct {
	mtu  int
	a2b  chan []byte
	b2a  chan []byte
	free chan []byte
	mu   sync.Mutex
	done chan struct{}
}

// NewRing creates a bidirectional ring with the given per-direction depth
// and maximum packet size. Use the two Endpoints as the RRU and Agora
// sides.
func NewRing(depth, mtu int) *Ring {
	r := &Ring{
		mtu:  mtu,
		a2b:  make(chan []byte, depth),
		b2a:  make(chan []byte, depth),
		free: make(chan []byte, 2*depth+16),
		done: make(chan struct{}),
	}
	return r
}

// Reserve puts n fresh packet buffers on the free-list, the way a DPDK
// mempool is sized up front: a sender that never has more than the
// reserved packets in flight then never allocates, where the lazily grown
// free-list would keep allocating each time the in-flight count reached
// a new high.
func (r *Ring) Reserve(n int) {
	for i := 0; i < n; i++ {
		r.putBuf(make([]byte, 0, r.mtu))
	}
}

// getBuf pops a recycled buffer, allocating only when the free-list is
// empty (startup, or bursts beyond anything previously in flight).
func (r *Ring) getBuf() []byte {
	select {
	case b := <-r.free:
		return b
	default:
		return make([]byte, 0, r.mtu)
	}
}

// putBuf recycles a buffer; a full free-list just drops it.
func (r *Ring) putBuf(b []byte) {
	if cap(b) < r.mtu {
		return // foreign or truncated buffer; never hand it back out
	}
	select {
	case r.free <- b[:0]:
	default:
	}
}

// Endpoint is one side of a Ring.
type Endpoint struct {
	r        *Ring
	tx, rx   chan []byte
	sendSeal *sync.Once
	txPkts   atomic.Int64
	txDrops  atomic.Int64
	rxPkts   atomic.Int64
}

// Side returns the RRU-facing (side=0) or Agora-facing (side=1) endpoint.
func (r *Ring) Side(side int) *Endpoint {
	if side == 0 {
		return &Endpoint{r: r, tx: r.a2b, rx: r.b2a, sendSeal: &sync.Once{}}
	}
	return &Endpoint{r: r, tx: r.b2a, rx: r.a2b, sendSeal: &sync.Once{}}
}

// Send copies pkt into a pooled buffer and enqueues it. It drops the
// packet (returning nil) if the ring is full, mirroring NIC-queue
// overflow semantics rather than blocking the radio; the drop is
// counted in Stats so the loss stays observable.
func (e *Endpoint) Send(pkt []byte) error {
	select {
	case <-e.r.done:
		return ErrClosed
	default:
	}
	buf := e.r.getBuf()[:len(pkt)]
	copy(buf, pkt)
	select {
	case e.tx <- buf:
		e.txPkts.Add(1)
		return nil
	case <-e.r.done:
		return ErrClosed
	default:
		e.r.putBuf(buf)
		e.txDrops.Add(1)
		return nil // dropped, like a full NIC queue
	}
}

// Recv implements Transport.
func (e *Endpoint) Recv() ([]byte, bool) {
	select {
	case pkt := <-e.rx:
		e.rxPkts.Add(1)
		return pkt, true
	case <-e.r.done:
		// Drain anything already queued before reporting closure.
		select {
		case pkt := <-e.rx:
			e.rxPkts.Add(1)
			return pkt, true
		default:
			return nil, false
		}
	}
}

// RecvBatch implements Transport: block for one packet, then drain
// whatever the sender already queued without further channel parks.
func (e *Endpoint) RecvBatch(pkts [][]byte) (int, bool) {
	if len(pkts) == 0 {
		return 0, true
	}
	pkt, ok := e.Recv()
	if !ok {
		return 0, false
	}
	pkts[0] = pkt
	n := 1
	for n < len(pkts) {
		select {
		case p := <-e.rx:
			pkts[n] = p
			n++
		default:
			e.rxPkts.Add(int64(n - 1))
			return n, true
		}
	}
	e.rxPkts.Add(int64(n - 1))
	return n, true
}

// Release implements Transport.
func (e *Endpoint) Release(pkt []byte) { e.r.putBuf(pkt) }

// Stats implements Transport.
func (e *Endpoint) Stats() Stats {
	return Stats{
		TxPkts:  e.txPkts.Load(),
		TxDrops: e.txDrops.Load(),
		RxPkts:  e.rxPkts.Load(),
	}
}

// Close implements Transport; closing either endpoint closes the ring.
func (e *Endpoint) Close() error {
	e.r.mu.Lock()
	defer e.r.mu.Unlock()
	select {
	case <-e.r.done:
	default:
		close(e.r.done)
	}
	return nil
}

var _ Transport = (*Endpoint)(nil)

// UDP is the cross-process transport used by cmd/rru and cmd/agora. The
// paper uses one UDP packet per antenna per symbol over a 40 GbE link
// with DPDK; here the standard net package carries the same format.
//
// Receive buffers recycle through a buffered-channel free-list (the
// same boxing-allocation fix the Ring got): a sync.Pool round-trips
// each []byte through an interface{}, allocating a slice header per
// packet. On Linux, RecvBatch drains queued datagrams with a single
// recvmmsg syscall after the first blocking read (see udp_batch_linux).
type UDP struct {
	conn   *net.UDPConn
	peer   *net.UDPAddr
	mtu    int
	free   chan []byte
	closed chan struct{}
	mu     sync.Mutex

	// deadline is the currently armed read deadline. Re-arming costs a
	// setsockopt-ish runtime call per packet; the receive loop only
	// re-arms when the armed deadline has less than half its window
	// left, so back-to-back bursts read with no deadline traffic at all.
	deadline time.Time

	txPkts atomic.Int64
	rxPkts atomic.Int64

	batch udpBatchState // recvmmsg scratch; empty struct off Linux
}

// udpFreeDepth bounds the receive free-list. Deep enough to cover every
// buffer a full engine keeps leased at once on the small config; beyond
// that, buffers fall back to the allocator.
const udpFreeDepth = 1024

// NewUDP binds a local address and targets peer (which may be nil for a
// pure receiver; the peer is then learned from the first packet).
func NewUDP(local string, peer string, mtu int) (*UDP, error) {
	laddr, err := net.ResolveUDPAddr("udp", local)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, err
	}
	u := &UDP{
		conn:   conn,
		mtu:    mtu,
		free:   make(chan []byte, udpFreeDepth),
		closed: make(chan struct{}),
	}
	if peer != "" {
		u.peer, err = net.ResolveUDPAddr("udp", peer)
		if err != nil {
			conn.Close()
			return nil, err
		}
	}
	// Large socket buffers approximate the paper's jumbo-frame NIC rings.
	_ = conn.SetReadBuffer(8 << 20)
	_ = conn.SetWriteBuffer(8 << 20)
	return u, nil
}

func (u *UDP) getBuf() []byte {
	select {
	case b := <-u.free:
		return b
	default:
		return make([]byte, u.mtu)
	}
}

func (u *UDP) putBuf(b []byte) {
	if cap(b) < u.mtu {
		return
	}
	select {
	case u.free <- b[:u.mtu]:
	default:
	}
}

// armDeadline refreshes the read deadline only when the armed one is
// about to lapse, keeping the syscall off the per-packet path.
func (u *UDP) armDeadline() {
	now := time.Now()
	if u.deadline.Sub(now) > 100*time.Millisecond {
		return
	}
	u.deadline = now.Add(200 * time.Millisecond)
	_ = u.conn.SetReadDeadline(u.deadline)
}

// Send implements Transport.
func (u *UDP) Send(pkt []byte) error {
	u.mu.Lock()
	peer := u.peer
	u.mu.Unlock()
	if peer == nil {
		return errors.New("fronthaul: UDP peer unknown")
	}
	_, err := u.conn.WriteToUDP(pkt, peer)
	if err == nil {
		u.txPkts.Add(1)
	}
	return err
}

// Recv implements Transport.
func (u *UDP) Recv() ([]byte, bool) {
	buf := u.getBuf()[:u.mtu]
	for {
		u.armDeadline()
		n, addr, err := u.conn.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-u.closed:
				u.putBuf(buf)
				return nil, false
			default:
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			u.putBuf(buf)
			return nil, false
		}
		u.mu.Lock()
		if u.peer == nil {
			u.peer = addr
		}
		u.mu.Unlock()
		u.rxPkts.Add(1)
		return buf[:n], true
	}
}

// RecvBatch implements Transport: one blocking read for the first
// datagram (which also learns the peer and honors close/deadlines),
// then a non-blocking recvmmsg drain of everything the socket already
// holds — one syscall per burst instead of one per packet.
func (u *UDP) RecvBatch(pkts [][]byte) (int, bool) {
	if len(pkts) == 0 {
		return 0, true
	}
	pkt, ok := u.Recv()
	if !ok {
		return 0, false
	}
	pkts[0] = pkt
	n := 1 + u.drainBatch(pkts[1:])
	u.rxPkts.Add(int64(n - 1))
	return n, true
}

// Release implements Transport.
func (u *UDP) Release(pkt []byte) { u.putBuf(pkt[:cap(pkt)]) }

// Stats implements Transport. UDP sends never drop locally (the
// kernel socket absorbs or discards); loss shows up as Seq gaps on the
// receive side instead.
func (u *UDP) Stats() Stats {
	return Stats{TxPkts: u.txPkts.Load(), RxPkts: u.rxPkts.Load()}
}

// Close implements Transport.
func (u *UDP) Close() error {
	select {
	case <-u.closed:
		return nil
	default:
		close(u.closed)
	}
	return u.conn.Close()
}

// LocalAddr returns the bound address, useful with port 0.
func (u *UDP) LocalAddr() net.Addr { return u.conn.LocalAddr() }

var _ Transport = (*UDP)(nil)
