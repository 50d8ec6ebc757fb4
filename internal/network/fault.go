package network

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"net"
	"sort"
	"sync"
	"time"

	"github.com/distributed-uniformity/dut/internal/engine"
)

// This file is the chaos layer of the networked deployment: a Transport
// decorator that injects deterministic, seeded faults on the player side
// of every connection. It doubles as the regression harness for the wire
// protocol — every fault it injects must surface as either a validated
// protocol error or a tolerated straggler, never as a wrong verdict.

// FaultPlan configures the faults injected on one player's connections.
// The zero value injects nothing.
type FaultPlan struct {
	// DropDials fails the player's first N dial attempts, exercising the
	// node-side retry-with-backoff path. A value of at least the node's
	// retry budget keeps the player off the network entirely.
	DropDials int
	// Delay is slept before every frame the player writes, turning the
	// player into a straggler (tolerated while Delay stays under the
	// referee's per-frame timeout).
	Delay time.Duration
	// CorruptFrame corrupts the payload of the player's Nth written frame
	// (1-based: HELLO is frame 1, the first VOTE_BATCH frame 2); zero
	// corrupts nothing. The byte is XORed with a seeded mask whose high
	// bit is always set. A batch-shaped frame (VOTE_BATCH, AGG_SUM,
	// AGG_PLANES) is corrupted in its batch-id field — its tail bytes are
	// real vote bits or counters, where a flip would be a silent wrong
	// verdict rather than a detectable violation; the receiver's batch-id
	// echo check catches the id corruption deterministically. Any other
	// frame has its last payload byte corrupted.
	CorruptFrame int
	// CrashAtRound closes the player's connection as it writes the vote of
	// the given round (1-based); zero never crashes. The player behaves
	// correctly up to round CrashAtRound-1 and then dies mid-protocol. A
	// VOTE_BATCH covers as many rounds as its trial count, so a crash
	// scheduled inside a batch kills the write of the whole batch.
	CrashAtRound int
	// DropVerdict kills the connection as the Nth AGG_VERDICT frame
	// (1-based) arrives on its read side; zero never drops. Meaningful in
	// AggPlans: verdicts flow downstream, so the fault models an
	// aggregator dying mid-relay — its shard votes through round N and is
	// absent from round N+1 on, exactly as if every member had crashed at
	// round N+1.
	DropVerdict int
	// CorruptVerdict corrupts the batch id of the Nth AGG_VERDICT frame
	// (1-based) read off the connection; zero corrupts nothing. The
	// aggregator's echo audit rejects the mismatched id deterministically,
	// so the observable failure domain is identical to DropVerdict's.
	CorruptVerdict int
}

// FaultConfig configures NewFaultTransport.
type FaultConfig struct {
	// Seed drives every random choice the fault layer makes (corruption
	// masks); two transports with equal configs inject identical faults.
	Seed uint64
	// Plans maps a player id to its fault plan; players without an entry
	// are passed through untouched.
	Plans map[uint32]FaultPlan
	// AggPlans maps an aggregator id to the fault plan applied on its
	// upstream (aggregator -> root) connection in a sharded referee
	// tree. CrashAtRound counts the rounds an AGG_SUM / AGG_PLANES
	// frame reduces, so crashing aggregator a at round r is the tree's
	// failure-domain analogue of crashing every one of a's players at
	// round r.
	AggPlans map[uint32]FaultPlan
}

// FaultStats counts the faults a FaultTransport actually injected.
type FaultStats struct {
	// DialsDropped counts dial attempts failed by DropDials budgets.
	DialsDropped int
	// FramesDelayed counts frame writes that slept a Delay.
	FramesDelayed int
	// FramesCorrupted counts frames whose payload was corrupted.
	FramesCorrupted int
	// Crashes counts connections killed by CrashAtRound.
	Crashes int
	// VerdictsDropped counts connections killed by DropVerdict on an
	// AGG_VERDICT's arrival.
	VerdictsDropped int
	// VerdictsCorrupted counts AGG_VERDICT frames corrupted in flight by
	// CorruptVerdict.
	VerdictsCorrupted int
}

// FaultTransport wraps any Transport and injects the configured faults on
// the dialing (player) side. It implements both Transport and
// PlayerDialer; plans are applied per player id, so it must be used with
// callers that dial through DialPlayer (PlayerNode does). Plain Dial
// calls pass through unfaulted.
type FaultTransport struct {
	inner Transport
	cfg   FaultConfig

	mu       sync.Mutex
	dials    map[uint32]int
	aggDials map[uint32]int
	stats    FaultStats
}

// Verify interface compliance.
var (
	_ Transport        = (*FaultTransport)(nil)
	_ PlayerDialer     = (*FaultTransport)(nil)
	_ AggregatorDialer = (*FaultTransport)(nil)
)

// NewFaultTransport decorates inner with the configured fault plans.
func NewFaultTransport(inner Transport, cfg FaultConfig) (*FaultTransport, error) {
	if inner == nil {
		return nil, fmt.Errorf("network: fault transport around nil transport")
	}
	players := make([]uint32, 0, len(cfg.Plans))
	for player := range cfg.Plans {
		players = append(players, player)
	}
	sort.Slice(players, func(i, j int) bool { return players[i] < players[j] })
	for _, player := range players {
		plan := cfg.Plans[player]
		if plan.DropDials < 0 || plan.Delay < 0 || plan.CorruptFrame < 0 || plan.CrashAtRound < 0 ||
			plan.DropVerdict < 0 || plan.CorruptVerdict < 0 {
			return nil, fmt.Errorf("network: negative fault parameter in plan for player %d", player)
		}
	}
	aggs := make([]uint32, 0, len(cfg.AggPlans))
	for agg := range cfg.AggPlans {
		aggs = append(aggs, agg)
	}
	sort.Slice(aggs, func(i, j int) bool { return aggs[i] < aggs[j] })
	for _, agg := range aggs {
		plan := cfg.AggPlans[agg]
		if plan.DropDials < 0 || plan.Delay < 0 || plan.CorruptFrame < 0 || plan.CrashAtRound < 0 ||
			plan.DropVerdict < 0 || plan.CorruptVerdict < 0 {
			return nil, fmt.Errorf("network: negative fault parameter in plan for aggregator %d", agg)
		}
	}
	return &FaultTransport{
		inner:    inner,
		cfg:      cfg,
		dials:    make(map[uint32]int),
		aggDials: make(map[uint32]int),
	}, nil
}

// Listen implements Transport by delegating to the inner transport; the
// referee side is never faulted.
func (f *FaultTransport) Listen() (net.Listener, error) { return f.inner.Listen() }

// Dial implements Transport without faults: callers that do not identify
// their player (no PlayerDialer path) are passed through.
func (f *FaultTransport) Dial(addr net.Addr) (net.Conn, error) { return f.inner.Dial(addr) }

// DialPlayer implements PlayerDialer: it applies the player's plan — the
// dial-drop budget first, then a fault-wrapped connection for the frame-
// level faults.
func (f *FaultTransport) DialPlayer(addr net.Addr, player uint32) (net.Conn, error) {
	plan, planned := f.cfg.Plans[player]
	if !planned {
		return f.inner.Dial(addr)
	}
	f.mu.Lock()
	attempt := f.dials[player]
	f.dials[player]++
	if attempt < plan.DropDials {
		f.stats.DialsDropped++
		f.mu.Unlock()
		return nil, fmt.Errorf("network: fault: dropped dial %d of player %d", attempt+1, player)
	}
	f.mu.Unlock()
	conn, err := f.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &faultConn{
		Conn: conn,
		tr:   f,
		plan: plan,
		rng:  engine.NodeRNG(f.cfg.Seed, int(player)),
	}, nil
}

// DialAggregator implements AggregatorDialer: the aggregator's plan is
// applied to its upstream hop exactly as a player plan is to a player
// connection. The corruption RNG stream is derived from the seed and
// the ones' complement of the aggregator id, so it never collides with
// any player's stream.
func (f *FaultTransport) DialAggregator(addr net.Addr, agg uint32) (net.Conn, error) {
	plan, planned := f.cfg.AggPlans[agg]
	if !planned {
		return f.inner.Dial(addr)
	}
	f.mu.Lock()
	attempt := f.aggDials[agg]
	f.aggDials[agg]++
	if attempt < plan.DropDials {
		f.stats.DialsDropped++
		f.mu.Unlock()
		return nil, fmt.Errorf("network: fault: dropped dial %d of aggregator %d", attempt+1, agg)
	}
	f.mu.Unlock()
	conn, err := f.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &faultConn{
		Conn: conn,
		tr:   f,
		plan: plan,
		rng:  engine.NodeRNG(f.cfg.Seed, -1-int(agg)),
	}, nil
}

// Stats returns a snapshot of the faults injected so far.
func (f *FaultTransport) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

func (f *FaultTransport) count(update func(*FaultStats)) {
	f.mu.Lock()
	update(&f.stats)
	f.mu.Unlock()
}

// faultConn applies frame-level faults to the player side of a
// connection. Every frame is written with a single Write call (see
// writeFrame), so write boundaries are frame boundaries.
type faultConn struct {
	net.Conn
	tr   *FaultTransport
	plan FaultPlan
	rng  *rand.Rand

	mu     sync.Mutex
	writes int // frames written on this connection
	votes  int // rounds voted on, counting a VOTE_BATCH as its trial count

	// Read-side frame cursor for the verdict faults: the downstream
	// AGG_VERDICT stream arrives on this connection's reads, possibly
	// split or coalesced, so the scanner tracks where in the current
	// header or payload the stream is.
	rd struct {
		hdr  [headerSize]byte
		have int  // header bytes collected
		rem  int  // payload bytes left in the current frame
		plen int  // payload length of the current frame
		seen int  // AGG_VERDICT frames observed so far
		mask byte // pending batch-id corruption for the current frame
	}
}

// VOTE_BATCH payload offsets within a written frame (header included):
// player(4) batch(4) count(4) bitset words.
const (
	voteBatchIDOffset    = headerSize + 7 // low byte of the batch id
	voteBatchCountOffset = headerSize + 8 // trial-count field
)

// AGG_VERDICT carries its batch id first, so its low byte sits at
// payload offset 3 (the read-side scanner walks payload positions, not
// whole-frame offsets).
const aggVerdictIDPayloadOffset = 3

// Read applies the read-side verdict faults. Write faults model a
// player (or an aggregator's upstream hop) misbehaving; the verdict
// faults model the downstream relay dying, and AGG_VERDICT arrives on
// the aggregator's dialed connection as a read. Plans without verdict
// faults pass straight through.
func (c *faultConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.plan.DropVerdict == 0 && c.plan.CorruptVerdict == 0 {
		return n, err
	}
	if keep, kerr := c.scanVerdicts(p[:n]); kerr != nil {
		return keep, kerr
	}
	return n, err
}

// scanVerdicts walks the read stream's frame structure and applies the
// verdict faults in place. It returns how many leading bytes the reader
// may keep and a non-nil error when the connection was killed on the
// target verdict's arrival.
func (c *faultConn) scanVerdicts(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := 0
	for i < len(p) {
		if c.rd.rem > 0 {
			n := min(c.rd.rem, len(p)-i)
			if c.rd.mask != 0 {
				if off := aggVerdictIDPayloadOffset - (c.rd.plen - c.rd.rem); off >= 0 && off < n {
					p[i+off] ^= c.rd.mask
					c.rd.mask = 0
					c.tr.count(func(s *FaultStats) { s.VerdictsCorrupted++ })
				}
			}
			c.rd.rem -= n
			i += n
			continue
		}
		startedHere := c.rd.have == 0
		start := i
		n := copy(c.rd.hdr[c.rd.have:], p[i:])
		c.rd.have += n
		i += n
		if c.rd.have < headerSize {
			return len(p), nil
		}
		c.rd.have = 0
		c.rd.plen = int(binary.BigEndian.Uint32(c.rd.hdr[4:8]))
		c.rd.rem = c.rd.plen
		c.rd.mask = 0
		if FrameType(c.rd.hdr[3]) != FrameAggVerdict {
			continue
		}
		c.rd.seen++
		if c.rd.seen == c.plan.DropVerdict {
			c.tr.count(func(s *FaultStats) { s.VerdictsDropped++ })
			_ = c.Conn.Close()
			keep := 0
			if startedHere {
				keep = start
			}
			return keep, fmt.Errorf("network: fault: connection killed on verdict %d's arrival", c.rd.seen)
		}
		if c.rd.seen == c.plan.CorruptVerdict {
			c.rd.mask = byte(c.rng.Uint64()) | 0x80
		}
	}
	return len(p), nil
}

func (c *faultConn) Write(p []byte) (int, error) {
	if c.plan.Delay > 0 {
		c.tr.count(func(s *FaultStats) { s.FramesDelayed++ })
		time.Sleep(c.plan.Delay)
	}
	c.mu.Lock()
	c.writes++
	frame := c.writes
	var kind FrameType
	if len(p) >= headerSize && binary.BigEndian.Uint16(p[0:2]) == Magic {
		kind = FrameType(p[3])
	}
	rounds := 0
	switch kind {
	case FrameVoteBatch, FrameAggSum, FrameAggPlanes:
		// Every batch-shaped frame carries its trial count at the same
		// payload offset: player/agg id (4), batch id (4), count (4).
		if len(p) >= voteBatchCountOffset+4 {
			rounds = int(binary.BigEndian.Uint32(p[voteBatchCountOffset : voteBatchCountOffset+4]))
		}
	}
	c.votes += rounds
	lastRound := c.votes
	var mask byte
	if frame == c.plan.CorruptFrame {
		mask = byte(c.rng.Uint64()) | 0x80
	}
	c.mu.Unlock()

	if c.plan.CrashAtRound > 0 && rounds > 0 && lastRound >= c.plan.CrashAtRound {
		c.tr.count(func(s *FaultStats) { s.Crashes++ })
		_ = c.Conn.Close()
		return 0, fmt.Errorf("network: fault: player crashed at round %d", c.plan.CrashAtRound)
	}
	if mask != 0 && len(p) > headerSize {
		c.tr.count(func(s *FaultStats) { s.FramesCorrupted++ })
		q := append([]byte(nil), p...)
		// Corrupt the batch id of a batch-shaped frame (detected by the
		// receiver's echo check) and the last payload byte of everything
		// else; a batch frame's tail bytes are genuine vote bits or
		// counters, where a flip would be a silent wrong verdict instead
		// of a validated protocol error.
		idx := len(q) - 1
		switch kind {
		case FrameVoteBatch, FrameAggSum, FrameAggPlanes:
			if len(q) > voteBatchIDOffset {
				idx = voteBatchIDOffset
			}
		}
		q[idx] ^= mask
		n, err := c.Conn.Write(q)
		if n > len(p) {
			n = len(p)
		}
		return n, err
	}
	return c.Conn.Write(p)
}
