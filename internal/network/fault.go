package network

import (
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
	// scheduled inside a batch kills the write of the whole batch; frames
	// ahead of it in the same write still go out.
	CrashAtRound int
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
	// FramesDelayed counts written frames that slept a Delay.
	FramesDelayed int
	// FramesCorrupted counts frames whose payload was corrupted.
	FramesCorrupted int
	// Crashes counts connections killed by CrashAtRound.
	Crashes int
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
	if err := validatePlans("player", cfg.Plans); err != nil {
		return nil, err
	}
	if err := validatePlans("aggregator", cfg.AggPlans); err != nil {
		return nil, err
	}
	return &FaultTransport{
		inner:    inner,
		cfg:      cfg,
		dials:    make(map[uint32]int),
		aggDials: make(map[uint32]int),
	}, nil
}

// validatePlans rejects a plan with a negative fault parameter, naming
// the lowest offending id so the error does not depend on map order.
func validatePlans(role string, plans map[uint32]FaultPlan) error {
	ids := make([]uint32, 0, len(plans))
	for id := range plans {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		plan := plans[id]
		if plan.DropDials < 0 || plan.Delay < 0 || plan.CorruptFrame < 0 || plan.CrashAtRound < 0 {
			return fmt.Errorf("network: negative fault parameter in plan for %s %d", role, id)
		}
	}
	return nil
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
	return f.dial(addr, "player", player, f.cfg.Plans, f.dials, int(player))
}

// DialAggregator implements AggregatorDialer: the aggregator's plan is
// applied to its upstream hop exactly as a player plan is to a player
// connection. The corruption RNG stream is derived from the seed and
// the ones' complement of the aggregator id, so it never collides with
// any player's stream.
func (f *FaultTransport) DialAggregator(addr net.Addr, agg uint32) (net.Conn, error) {
	return f.dial(addr, "aggregator", agg, f.cfg.AggPlans, f.aggDials, -1-int(agg))
}

// dial is the one dial path of both roles: id's plan from plans, its
// attempt count in attempts, and corruption masks drawn from the RNG
// stream NodeRNG(seed, stream). An unplanned id passes through.
func (f *FaultTransport) dial(addr net.Addr, role string, id uint32, plans map[uint32]FaultPlan, attempts map[uint32]int, stream int) (net.Conn, error) {
	plan, planned := plans[id]
	if !planned {
		return f.inner.Dial(addr)
	}
	f.mu.Lock()
	attempt := attempts[id]
	attempts[id]++
	if attempt < plan.DropDials {
		f.stats.DialsDropped++
		f.mu.Unlock()
		return nil, fmt.Errorf("network: fault: dropped dial %d of %s %d", attempt+1, role, id)
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
		rng:  engine.NodeRNG(f.cfg.Seed, stream),
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
// connection. It follows its write stream with a wire.go frame cursor,
// so faults land on frames, not on Write calls, however the stream is
// chopped. Reads pass through: every fault models the dialing side
// misbehaving.
type faultConn struct {
	net.Conn
	tr   *FaultTransport
	plan FaultPlan
	rng  *rand.Rand

	mu     sync.Mutex
	wr     frameCursor
	frames int // frames written on this connection
	votes  int // rounds voted on, counting a vote frame as its trial count
}

// voteFrame reports the frames that carry votes upstream: a player's
// VOTE_BATCH and an aggregator's reduced AGG_SUM / AGG_PLANES. Their
// trial counts advance CrashAtRound's round count, and CorruptFrame
// hits their batch id: their tail bytes are genuine vote bits or
// counters, where a flip would be a silent wrong verdict instead of a
// validated protocol error.
func voteFrame(t FrameType) bool {
	return t == FrameVoteBatch || t == FrameAggSum || t == FrameAggPlanes
}

// Write applies the write-side faults frame by frame: Delay before each
// frame that starts in p, CorruptFrame on the plan's Nth frame, and
// CrashAtRound on the vote frame whose trials reach that round, which
// dies with the bytes before it written and none of its own.
func (c *faultConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	w := c.walkWrite(p)
	c.mu.Unlock()
	if c.plan.Delay > 0 && w.frames > 0 {
		c.tr.count(func(s *FaultStats) { s.FramesDelayed += w.frames })
		time.Sleep(time.Duration(w.frames) * c.plan.Delay)
	}
	if w.corrupted {
		c.tr.count(func(s *FaultStats) { s.FramesCorrupted++ })
	}
	if w.crash {
		n := 0
		if w.keep > 0 {
			n, _ = c.Conn.Write(w.out[:w.keep])
		}
		c.tr.count(func(s *FaultStats) { s.Crashes++ })
		_ = c.Conn.Close()
		return n, fmt.Errorf("network: fault: player crashed at round %d", c.plan.CrashAtRound)
	}
	n, err := c.Conn.Write(w.out)
	return min(n, len(p)), err
}

// faultedWrite is one Write's bytes after the write cursor's walk.
type faultedWrite struct {
	out       []byte // p itself, or a copy carrying a corrupted byte
	keep      int    // bytes of out before a crashing frame
	frames    int    // frames whose header completes in p
	corrupted bool   // out carries CorruptFrame's corruption ahead of any crash
	crash     bool   // a vote frame in p reaches CrashAtRound
}

// walkWrite runs the write cursor over p, numbering frames, counting
// the rounds of vote frames and corrupting CorruptFrame's frame in a
// copy (p is the caller's encode buffer); it stops at a crashing frame.
func (c *faultConn) walkWrite(p []byte) faultedWrite {
	w := faultedWrite{out: p, keep: len(p)}
	start := 0 // where the current frame starts in p; 0 if an earlier write began it
	for i := 0; i < len(w.out); {
		if c.wr.at == 0 {
			start = i
		}
		n, ev := c.wr.next(w.out[i:])
		i += n
		switch {
		case ev == cursorHeader:
			w.frames++
			c.frames++
			if c.frames != c.plan.CorruptFrame {
				continue
			}
			mask := byte(c.rng.Uint64()) | 0x80
			if c.wr.size == 0 {
				continue
			}
			off := c.wr.size - 1
			if voteFrame(c.wr.kind) {
				off = c.wr.batchIDByte()
			}
			w.out = append([]byte(nil), p...)
			w.corrupted = true
			c.wr.corrupt(off, mask)
		case ev == cursorFields && voteFrame(c.wr.kind):
			rounds := int(c.wr.count())
			c.votes += rounds
			if c.plan.CrashAtRound > 0 && rounds > 0 && c.votes >= c.plan.CrashAtRound {
				// The crashing frame is never written, corrupted or not.
				w.keep, w.crash = start, true
				w.corrupted = w.corrupted && c.frames != c.plan.CorruptFrame
				return w
			}
		}
	}
	return w
}
