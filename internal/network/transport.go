package network

import (
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// Transport abstracts how players reach the referee. Implementations must
// be safe for concurrent Dial calls.
type Transport interface {
	// Listen opens the referee's endpoint.
	Listen() (net.Listener, error)
	// Dial connects a player to the listener returned by Listen.
	Dial(addr net.Addr) (net.Conn, error)
}

// PlayerDialer is an optional Transport extension: transports that care
// which player is dialing — fault injection applies per-player plans —
// implement it, and PlayerNode prefers it over plain Dial.
type PlayerDialer interface {
	// DialPlayer connects the identified player to the listener.
	DialPlayer(addr net.Addr, player uint32) (net.Conn, error)
}

// AggregatorDialer is the aggregator-tier counterpart of PlayerDialer:
// transports that fault the L1 -> root hop per aggregator implement it,
// and the sharded referee tree's aggregators prefer it when dialing the
// root.
type AggregatorDialer interface {
	// DialAggregator connects the identified aggregator to the root.
	DialAggregator(addr net.Addr, agg uint32) (net.Conn, error)
}

// acceptDeadliner is the listener extension the quorum-mode referee needs:
// both *net.TCPListener and memListener provide it.
type acceptDeadliner interface {
	SetDeadline(t time.Time) error
}

// Verify interface compliance.
var (
	_ Transport = (*TCPTransport)(nil)
	_ Transport = (*MemTransport)(nil)
)

// TCPTransport connects over TCP loopback.
type TCPTransport struct{}

// Listen implements Transport on 127.0.0.1 with an ephemeral port.
func (TCPTransport) Listen() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}

// Dial implements Transport.
func (TCPTransport) Dial(addr net.Addr) (net.Conn, error) {
	return net.Dial(addr.Network(), addr.String())
}

// MemTransport connects through in-process buffered connections (memConn):
// zero syscalls, fully deterministic scheduling aside from goroutine
// interleaving. A write copies into the peer's buffer and returns, as on
// a socket, and deadlines re-arm one timer in place, so a settled
// connection moves frames without allocating.
type MemTransport struct {
	mu        sync.Mutex
	listeners map[string]*memListener
	next      int
}

// NewMemTransport returns an empty in-memory fabric.
func NewMemTransport() *MemTransport {
	return &MemTransport{listeners: make(map[string]*memListener)}
}

// Listen implements Transport.
func (m *MemTransport) Listen() (net.Listener, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name := fmt.Sprintf("mem-%d", m.next)
	m.next++
	l := &memListener{
		addr:   memAddr(name),
		accept: make(chan net.Conn),
		done:   make(chan struct{}),
		onClose: func() {
			m.mu.Lock()
			delete(m.listeners, name)
			m.mu.Unlock()
		},
	}
	m.listeners[name] = l
	return l, nil
}

// Dial implements Transport.
func (m *MemTransport) Dial(addr net.Addr) (net.Conn, error) {
	m.mu.Lock()
	l, ok := m.listeners[addr.String()]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("network: no in-memory listener at %q", addr)
	}
	client, server := newMemConn(l.addr)
	select {
	case l.accept <- server:
		return client, nil
	case <-l.done:
		return nil, fmt.Errorf("network: listener %q closed", addr)
	}
}

type memAddr string

// Network names the in-memory network, "mem".
func (a memAddr) Network() string { return "mem" }

// String is the listener's name.
func (a memAddr) String() string { return string(a) }

type memListener struct {
	addr    memAddr
	accept  chan net.Conn
	done    chan struct{}
	once    sync.Once
	onClose func()

	mu       sync.Mutex
	deadline time.Time
}

// SetDeadline mirrors net.TCPListener's accept deadline: an Accept blocked
// past t fails with an error wrapping os.ErrDeadlineExceeded. The zero
// time clears the deadline.
func (l *memListener) SetDeadline(t time.Time) error {
	l.mu.Lock()
	l.deadline = t
	l.mu.Unlock()
	return nil
}

// Accept waits for the next dialed connection, until the listener closes
// or its accept deadline passes.
func (l *memListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	deadline := l.deadline
	l.mu.Unlock()
	var timeout <-chan time.Time
	if !deadline.IsZero() {
		wait := time.Until(deadline)
		if wait <= 0 {
			return nil, fmt.Errorf("network: accept on %q: %w", l.addr, os.ErrDeadlineExceeded)
		}
		tm := time.NewTimer(wait)
		defer tm.Stop()
		timeout = tm.C
	}
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.done:
		return nil, fmt.Errorf("network: listener %q closed", l.addr)
	case <-timeout:
		return nil, fmt.Errorf("network: accept on %q: %w", l.addr, os.ErrDeadlineExceeded)
	}
}

// Close is idempotent: it fails pending and later Accepts and Dials.
func (l *memListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		if l.onClose != nil {
			l.onClose()
		}
	})
	return nil
}

// Addr is the name MemTransport.Dial takes.
func (l *memListener) Addr() net.Addr { return l.addr }

// memConnBuffer bounds each direction of a memConn: a writer waits once
// this many bytes are unread, as on a socket, so a stalled reader still
// trips the writer's deadline. It holds a whole window of frames — a
// ROUND_BATCH is 32 bytes, the widest VOTE_BATCH 8,212 — so a settled
// writer copies its bytes and returns.
const memConnBuffer = 64 << 10

// memConn is one end of MemTransport's in-memory connection. It replaces
// net.Pipe, which hands every write over by rendezvous and allocates a
// timer per deadline. Each direction is a memPipe: a bounded byte buffer
// with its reader's and writer's deadlines. Errors are net.Pipe's: after
// a local Close, Read and Write fail with io.ErrClosedPipe; after the
// peer closes, Read drains the buffered bytes and then returns io.EOF
// and Write fails with io.ErrClosedPipe; an expired deadline fails with
// os.ErrDeadlineExceeded, checked before buffered data.
type memConn struct {
	rd, wr *memPipe   // rd carries the peer's writes to this end, wr this end's to the peer
	wmu    sync.Mutex // serializes Writes, so concurrent ones never interleave
	addr   net.Addr
}

// newMemConn returns the two ends of one connection to the listener at
// addr.
func newMemConn(addr memAddr) (*memConn, *memConn) {
	up, down := newMemPipe(), newMemPipe()
	return &memConn{rd: down, wr: up, addr: addr}, &memConn{rd: up, wr: down, addr: addr}
}

// Read reads the bytes the peer has written, waiting while there are
// none.
func (c *memConn) Read(b []byte) (int, error) { return c.rd.read(b) }

// Write copies b into the peer's buffer, waiting while the buffer is
// full.
func (c *memConn) Write(b []byte) (int, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.wr.write(b)
}

// Close is idempotent: it wakes every waiter on both ends and stops this
// end's deadline timers, so a closed connection is garbage as soon as
// it is dropped.
func (c *memConn) Close() error {
	c.rd.close(true)
	c.wr.close(false)
	return nil
}

// LocalAddr is the listener's address, on both ends.
func (c *memConn) LocalAddr() net.Addr { return c.addr }

// RemoteAddr is the listener's address, on both ends.
func (c *memConn) RemoteAddr() net.Addr { return c.addr }

// SetDeadline sets the read and the write deadline.
func (c *memConn) SetDeadline(t time.Time) error {
	wait := time.Until(t)
	if err := c.armIn(true, t, wait); err != nil {
		return err
	}
	return c.armIn(false, t, wait)
}

// SetReadDeadline bounds Reads: past t they fail with
// os.ErrDeadlineExceeded, and the zero time clears the deadline.
func (c *memConn) SetReadDeadline(t time.Time) error { return c.armIn(true, t, time.Until(t)) }

// SetWriteDeadline bounds Writes as SetReadDeadline bounds Reads.
func (c *memConn) SetWriteDeadline(t time.Time) error { return c.armIn(false, t, time.Until(t)) }

// armIn sets the read or the write deadline t, which is wait from now;
// the caller that built t from the clock passes the distance it added,
// so a deadline set costs one clock read.
func (c *memConn) armIn(read bool, t time.Time, wait time.Duration) error {
	if read {
		return c.rd.arm(true, t, wait)
	}
	return c.wr.arm(false, t, wait)
}

// memPipe is one direction of a memConn: the unread bytes buf[off:],
// which the writing end appends to and the reading end consumes, each
// end's closed flag and deadline, and the conditions either end waits
// on. The buffer compacts before it grows, so it settles at the
// connection's high-water mark.
type memPipe struct {
	mu       sync.Mutex
	readable sync.Cond // bytes arrived, an end closed or a deadline expired
	writable sync.Cond // space freed, an end closed or a deadline expired
	buf      []byte
	off      int
	rclosed  bool // the reading end closed
	wclosed  bool // the writing end closed
	rdl, wdl memDeadline
}

// memDeadline is one end's deadline on one direction. Its timer is
// created by the first arm and re-armed in place by Reset after that.
// fires is the instant the pending timer fires, zero when none is
// pending. A deadline moved later than that instant is only stored: the
// timer fires early, finds the later instant and re-arms for the rest of
// the wait, so a connection whose deadline moves forward on every frame
// touches the runtime's timer heap about once per wait, not per frame.
type memDeadline struct {
	at      time.Time
	fires   time.Time
	expired bool
	timer   *time.Timer
}

// stop stops the pending timer, if any.
func (dl *memDeadline) stop() {
	if dl.timer != nil {
		dl.timer.Stop()
	}
	dl.fires = time.Time{}
}

func newMemPipe() *memPipe {
	p := &memPipe{}
	p.readable.L = &p.mu
	p.writable.L = &p.mu
	return p
}

func (p *memPipe) read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		switch {
		case p.rclosed:
			return 0, io.ErrClosedPipe
		case p.rdl.expired:
			return 0, os.ErrDeadlineExceeded
		case p.off < len(p.buf):
			n := copy(b, p.buf[p.off:])
			p.off += n
			if p.off == len(p.buf) {
				p.buf, p.off = p.buf[:0], 0
			}
			p.writable.Broadcast()
			return n, nil
		case p.wclosed:
			return 0, io.EOF
		}
		p.readable.Wait()
	}
}

func (p *memPipe) write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for {
		switch {
		case p.wclosed, p.rclosed:
			return n, io.ErrClosedPipe
		case p.wdl.expired:
			return n, os.ErrDeadlineExceeded
		case len(b) == 0:
			return n, nil
		}
		free := memConnBuffer - (len(p.buf) - p.off)
		if free == 0 {
			p.writable.Wait()
			continue
		}
		m := min(free, len(b))
		if p.off > 0 && len(p.buf)+m > cap(p.buf) {
			p.buf, p.off = p.buf[:copy(p.buf, p.buf[p.off:])], 0
		}
		p.buf = append(p.buf, b[:m]...)
		b, n = b[m:], n+m
		p.readable.Broadcast()
	}
}

// close marks the reading or the writing end closed and wakes both.
// Closing the reading end drops the unread bytes.
func (p *memPipe) close(reader bool) {
	p.mu.Lock()
	dl := &p.wdl
	if reader {
		dl = &p.rdl
		p.rclosed, p.buf, p.off = true, nil, 0
	} else {
		p.wclosed = true
	}
	// Disarmed, so a firing already under way finds nothing to re-arm.
	dl.at = time.Time{}
	dl.stop()
	p.mu.Unlock()
	p.readable.Broadcast()
	p.writable.Broadcast()
}

// arm sets the reading or the writing end's deadline t, which is wait
// from now: the zero time disarms it, a time not in the future expires it
// at once, a time no earlier than the pending timer's firing is only
// stored, and any other time re-arms the end's one timer.
func (p *memPipe) arm(reader bool, t time.Time, wait time.Duration) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	dl, closed := &p.wdl, p.wclosed
	if reader {
		dl, closed = &p.rdl, p.rclosed
	}
	if closed {
		return io.ErrClosedPipe
	}
	dl.at, dl.expired = t, false
	if t.IsZero() {
		dl.stop()
		return nil
	}
	switch {
	case wait <= 0:
		dl.expired = true
		dl.stop()
		p.readable.Broadcast()
		p.writable.Broadcast()
	case !dl.fires.IsZero() && !t.Before(dl.fires):
		// The pending timer fires first and re-arms for the rest.
	case dl.timer == nil:
		dl.timer = p.newTimer(dl, wait)
		dl.fires = t
	default:
		dl.timer.Reset(wait)
		dl.fires = t
	}
	return nil
}

// newTimer builds the end's one deadline timer, which fires expire.
//
//dut:coldpath first arm of an end only; every later arm re-arms this timer in place
func (p *memPipe) newTimer(dl *memDeadline, wait time.Duration) *time.Timer {
	return time.AfterFunc(wait, func() { p.expire(dl) })
}

// expire is a deadline timer's callback. It re-arms the timer when a
// later instant is stored — a deadline moved forward since the timer was
// set, or a firing left over from an earlier deadline — and expires the
// deadline otherwise; a disarmed deadline is left alone.
func (p *memPipe) expire(dl *memDeadline) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if dl.at.IsZero() {
		return
	}
	if wait := time.Until(dl.at); wait > 0 {
		dl.timer.Reset(wait)
		dl.fires = dl.at
		return
	}
	dl.expired = true
	dl.fires = time.Time{}
	p.readable.Broadcast()
	p.writable.Broadcast()
}
