package network

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"time"
)

// This file is the observability layer for the fan-out claims: a
// Transport decorator that counts every frame crossing each referee
// tier's accepted connections. It is what pins "the root's downstream
// work is O(aggregators), not O(players)" as a test instead of a
// benchmark anecdote, and what `dut netdemo` prints its per-tier frame
// counts from.

// Tier identifies which referee tier accepted a counted connection.
type Tier int

// The two tiers of the referee tree. On a flat star every connection is
// accepted by the root listener, so the aggregator tier stays zero.
const (
	TierRoot Tier = iota
	TierAggregator
	numTiers
)

// frameKindLimit bounds the tally arrays: every FrameType the wire
// writers can emit is below it. The cursor only sees streams our own
// writers produced, so anything at or above the limit is ignored.
const frameKindLimit = int(FrameAggPlanes) + 1

// TierCounts is a snapshot of one tier's frame traffic, keyed by frame
// type. Down counts frames the tier's listeners wrote to their dialers
// (root -> aggregator, aggregator -> player); Up counts frames they
// read (aggregator -> root, player -> aggregator).
type TierCounts struct {
	Down map[FrameType]uint64
	Up   map[FrameType]uint64
}

// DownTotal is the total number of frames the tier wrote downstream.
// Totals walk the frame-type range in order rather than ranging over
// the map, keeping every traversal here deterministic.
func (c TierCounts) DownTotal() uint64 {
	var n uint64
	for k := 0; k < frameKindLimit; k++ {
		n += c.Down[FrameType(k)]
	}
	return n
}

// UpTotal is the total number of frames the tier read from below.
func (c TierCounts) UpTotal() uint64 {
	var n uint64
	for k := 0; k < frameKindLimit; k++ {
		n += c.Up[FrameType(k)]
	}
	return n
}

// FormatFrameCounts renders one direction's tally in frame-type order,
// e.g. "7 frames (ROUND_BATCH:3 VOTE_BATCH:4)". The walk is over the
// numeric frame-type range, so the rendering is deterministic no matter
// how the map iterates; an empty tally renders as "0 frames".
func FormatFrameCounts(m map[FrameType]uint64) string {
	var total uint64
	var b strings.Builder
	for k := 0; k < frameKindLimit; k++ {
		v := m[FrameType(k)]
		if v == 0 {
			continue
		}
		total += v
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%v:%d", FrameType(k), v)
	}
	if b.Len() == 0 {
		return "0 frames"
	}
	return fmt.Sprintf("%d frames (%s)", total, b.String())
}

// CountingTransport wraps any Transport and tallies, per referee tier,
// the frames flowing through every connection its listeners accept.
// Frames are recognized by the wire.go frame cursor, so coalesced
// writes (writeCoalesced flushing a whole window) still count one tally
// per frame, not per syscall.
//
// Tier attribution uses creation order: the first listener is the
// root's (a session listens before startSharded builds the aggregator
// tier), every later listener an aggregator's. That holds for a single
// engine worker — the netdemo and fan-out tests run with Workers 1 — and
// for one direct Run; a multi-worker engine run would interleave
// per-worker root listeners into the aggregator tier, so don't count
// across workers.
//
// The dialing side passes through unwrapped (PlayerDialer and
// AggregatorDialer included), so a CountingTransport can wrap a
// FaultTransport without disturbing its per-player plans.
type CountingTransport struct {
	inner Transport

	mu        sync.Mutex
	listeners int
	down      [numTiers][frameKindLimit]uint64
	up        [numTiers][frameKindLimit]uint64
}

// Verify interface compliance.
var (
	_ Transport        = (*CountingTransport)(nil)
	_ PlayerDialer     = (*CountingTransport)(nil)
	_ AggregatorDialer = (*CountingTransport)(nil)
)

// NewCountingTransport decorates inner with per-tier frame counting.
func NewCountingTransport(inner Transport) (*CountingTransport, error) {
	if inner == nil {
		return nil, fmt.Errorf("network: counting transport around nil transport")
	}
	return &CountingTransport{inner: inner}, nil
}

// Listen implements Transport: the listener is wrapped so every
// accepted connection is counted under the listener's tier.
func (t *CountingTransport) Listen() (net.Listener, error) {
	l, err := t.inner.Listen()
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	tier := TierAggregator
	if t.listeners == 0 {
		tier = TierRoot
	}
	t.listeners++
	t.mu.Unlock()
	return &countingListener{inner: l, tr: t, tier: tier}, nil
}

// Dial implements Transport by delegating: only the accepting side is
// counted, so every frame is tallied exactly once.
func (t *CountingTransport) Dial(addr net.Addr) (net.Conn, error) { return t.inner.Dial(addr) }

// DialPlayer implements PlayerDialer by delegating to the inner
// transport's per-player path when it has one.
func (t *CountingTransport) DialPlayer(addr net.Addr, player uint32) (net.Conn, error) {
	if pd, ok := t.inner.(PlayerDialer); ok {
		return pd.DialPlayer(addr, player)
	}
	return t.inner.Dial(addr)
}

// DialAggregator implements AggregatorDialer by delegating to the inner
// transport's per-aggregator path when it has one.
func (t *CountingTransport) DialAggregator(addr net.Addr, agg uint32) (net.Conn, error) {
	if ad, ok := t.inner.(AggregatorDialer); ok {
		return ad.DialAggregator(addr, agg)
	}
	return t.inner.Dial(addr)
}

// Snapshot copies the current per-tier tallies.
func (t *CountingTransport) Snapshot() (root, agg TierCounts) {
	t.mu.Lock()
	defer t.mu.Unlock()
	snap := func(tier Tier) TierCounts {
		c := TierCounts{Down: make(map[FrameType]uint64), Up: make(map[FrameType]uint64)}
		for k, v := range t.down[tier] {
			if v > 0 {
				c.Down[FrameType(k)] = v
			}
		}
		for k, v := range t.up[tier] {
			if v > 0 {
				c.Up[FrameType(k)] = v
			}
		}
		return c
	}
	return snap(TierRoot), snap(TierAggregator)
}

func (t *CountingTransport) record(tier Tier, down bool, kind FrameType) {
	if int(kind) >= frameKindLimit {
		return
	}
	t.mu.Lock()
	if down {
		t.down[tier][kind]++
	} else {
		t.up[tier][kind]++
	}
	t.mu.Unlock()
}

// countingListener wraps one tier's listener; accepted connections
// count their frames under the listener's tier.
type countingListener struct {
	inner net.Listener
	tr    *CountingTransport
	tier  Tier
}

// Accept wraps each accepted connection to count its frames under the
// listener's tier.
func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.inner.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: conn, tr: l.tr, tier: l.tier}, nil
}

// Close closes the wrapped listener.
func (l *countingListener) Close() error { return l.inner.Close() }

// Addr is the wrapped listener's address.
func (l *countingListener) Addr() net.Addr { return l.inner.Addr() }

// SetDeadline forwards the accept deadline the quorum-mode referee
// needs; a wrapped listener without deadline support reports it here
// instead of silently hanging the accept phase.
func (l *countingListener) SetDeadline(at time.Time) error {
	if dl, ok := l.inner.(acceptDeadliner); ok {
		return dl.SetDeadline(at)
	}
	return fmt.Errorf("network: listener %T has no accept deadline", l.inner)
}

// countingConn tallies the frames crossing one accepted connection:
// writes are the tier's downstream frames, reads its upstream ones.
// Each direction has its own cursor — the batch session's slot writer
// and gather reader own the two directions concurrently.
type countingConn struct {
	net.Conn
	tr     *CountingTransport
	tier   Tier
	wr, rd countedStream
}

// countedStream is one direction of a counted connection.
type countedStream struct {
	mu  sync.Mutex
	cur frameCursor
}

// Write writes through and tallies the downstream frames in what was
// written.
func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.tally(&c.wr, true, p[:n])
	return n, err
}

// Read reads through and tallies the upstream frames in what was read.
func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.tally(&c.rd, false, p[:n])
	return n, err
}

// tally records every frame whose header completes in p.
func (c *countingConn) tally(s *countedStream, down bool, p []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(p) > 0 {
		n, ev := s.cur.next(p)
		if ev == cursorHeader {
			c.tr.record(c.tier, down, s.cur.kind)
		}
		p = p[n:]
	}
}
