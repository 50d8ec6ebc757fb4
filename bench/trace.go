package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/distributed-uniformity/dut/internal/core"
	"github.com/distributed-uniformity/dut/internal/dist"
	"github.com/distributed-uniformity/dut/internal/engine"
	"github.com/distributed-uniformity/dut/internal/network"
)

// The traced run wraps three layer boundaries from outside the program: the
// engine backend, the cluster transport and the local rule. Referees and
// samplers stay unwrapped: core.ThresholdShape, core.SumShape and the SMP
// runner type-assert the concrete referee, so a wrapper would send the run
// down the opaque fallback and measure a different program, and the sampler
// is shared by every node, so its cost comes from an isolated replay.

var (
	_ engine.BatchBackend      = (*tracedBackend)(nil)
	_ engine.WorkerLimiter     = (*tracedBackend)(nil)
	_ io.Closer                = (*tracedScratch)(nil)
	_ network.Transport        = (*tracedTransport)(nil)
	_ network.PlayerDialer     = (*tracedTransport)(nil)
	_ network.AggregatorDialer = (*tracedTransport)(nil)
	_ deadliner                = (*tracedListener)(nil)
	_ core.LocalRule           = (*countingRule)(nil)
)

// maxSpans bounds the in-memory span log; later spans are counted as
// dropped instead of growing memory without limit.
const maxSpans = 1 << 16

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer started; Parent 0 means a root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer collects the spans and counters of one traced run.
type tracer struct {
	origin time.Time
	tree   bool // the cluster has an aggregator tier

	nextID  atomic.Int64
	curCall atomic.Int64 // span id of the engine call in flight

	spanMu  sync.Mutex
	spans   []span
	dropped int

	rule *countingRule

	mu         sync.Mutex
	chunks     []float64 // RunRoundsScratch durations, ms
	firsts     []float64 // first chunk of every worker scratch, ms
	chunkNs    int64
	scratches  int
	goroutines int
	sourceNs   atomic.Int64

	mem      *network.MemTransport
	counting atomic.Pointer[network.CountingTransport]
	frames   uint64 // every counted frame, both tiers and directions
	rootFr   uint64 // frames the root referee read or wrote
	net      netCounters
}

// netCounters are the transport's byte, write and dial tallies.
type netCounters struct {
	playerUp, playerDown atomic.Int64
	aggUp, aggDown       atomic.Int64
	writes, writeBytes   atomic.Int64
	writeNs              atomic.Int64
	dials                atomic.Int64
}

func newTracer(w Workload) (*tracer, error) {
	t := &tracer{origin: time.Now(), tree: w.shards > 1, mem: network.NewMemTransport()}
	if err := t.resetCounting(); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// newSpanID reserves an id for a span whose children start before it ends.
func (t *tracer) newSpanID() int64 { return t.nextID.Add(1) }

func (t *tracer) record(id, parent int64, name string, start, end int64) {
	t.spanMu.Lock()
	defer t.spanMu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end})
}

// chunk records one RunRoundsScratch call; first marks a worker's first
// chunk, which on the cluster includes opening its session.
func (t *tracer) chunk(start, end int64, first bool) {
	t.record(t.newSpanID(), t.curCall.Load(), "chunk", start, end)
	ms := float64(end-start) / 1e6
	g := runtime.NumGoroutine()
	t.mu.Lock()
	t.chunks = append(t.chunks, ms)
	t.chunkNs += end - start
	if first {
		t.firsts = append(t.firsts, ms)
	}
	if g > t.goroutines {
		t.goroutines = g
	}
	t.mu.Unlock()
}

// resetCounting installs a fresh CountingTransport, first folding the old
// one's tallies into the totals. CountingTransport attributes tiers by
// listener creation order, so each engine call gets its own.
func (t *tracer) resetCounting() error {
	if old := t.counting.Load(); old != nil {
		root, agg := old.Snapshot()
		all := root.UpTotal() + root.DownTotal() + agg.UpTotal() + agg.DownTotal()
		t.frames += all
		if t.tree {
			t.rootFr += root.UpTotal() + root.DownTotal()
		} else {
			// Every listener of a flat star is a root referee, whichever
			// tier the creation order filed it under.
			t.rootFr += all
		}
	}
	ct, err := network.NewCountingTransport(t.mem)
	if err != nil {
		return err
	}
	t.counting.Store(ct)
	return nil
}

// wrapSource times every Source call.
func (t *tracer) wrapSource(src engine.Source) engine.Source {
	return func(trial int, rng *rand.Rand) (dist.Sampler, error) {
		start := time.Now()
		s, err := src(trial, rng)
		t.sourceNs.Add(int64(time.Since(start)))
		return s, err
	}
}

// writeFile dumps the spans and counters as JSON.
func (t *tracer) writeFile(path string, header map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.spanMu.Lock()
	doc := map[string]any{"run": header, "dropped_spans": t.dropped, "spans": t.spans}
	data, err := json.Marshal(doc)
	t.spanMu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedBackend forwards every engine backend method and times each
// RunRoundsScratch chunk. It keeps the batch path, the worker limit and the
// io.Closer scratch of the backend it wraps, so the engine drives the
// wrapped backend exactly as it drives the bare one.
type tracedBackend struct {
	inner engine.BatchBackend
	t     *tracer
}

func newTracedBackend(b engine.Backend, t *tracer) (*tracedBackend, error) {
	bb, ok := b.(engine.BatchBackend)
	if !ok {
		return nil, fmt.Errorf("bench: backend %T has no batch path to trace", b)
	}
	return &tracedBackend{inner: bb, t: t}, nil
}

// tracedScratch is one worker's scratch: the inner scratch plus whether the
// worker has run its first chunk.
type tracedScratch struct {
	inner   any
	started bool
}

// Close implements io.Closer by closing the inner scratch when it holds
// resources (the cluster's open batch session).
func (s *tracedScratch) Close() error {
	if c, ok := s.inner.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

func unwrapScratch(s any) any {
	if ts, ok := s.(*tracedScratch); ok {
		return ts.inner
	}
	return s
}

// Players implements engine.Backend.
func (b *tracedBackend) Players() int { return b.inner.Players() }

// RunRound implements engine.Backend.
func (b *tracedBackend) RunRound(ctx context.Context, spec engine.RoundSpec) (engine.RoundResult, error) {
	return b.inner.RunRound(ctx, spec)
}

// NewScratch implements engine.ScratchBackend, wrapping the inner scratch.
func (b *tracedBackend) NewScratch() any {
	b.t.mu.Lock()
	b.t.scratches++
	b.t.mu.Unlock()
	return &tracedScratch{inner: b.inner.NewScratch()}
}

// RunRoundScratch implements engine.ScratchBackend.
func (b *tracedBackend) RunRoundScratch(ctx context.Context, spec engine.RoundSpec, scratch any) (engine.RoundResult, error) {
	return b.inner.RunRoundScratch(ctx, spec, unwrapScratch(scratch))
}

// RunRoundsScratch implements engine.BatchBackend and times the chunk.
func (b *tracedBackend) RunRoundsScratch(ctx context.Context, scratch any, specs []engine.RoundSpec, batch int, out []engine.RoundResult) error {
	start := b.t.now()
	err := b.inner.RunRoundsScratch(ctx, unwrapScratch(scratch), specs, batch, out)
	first := false
	if ts, ok := scratch.(*tracedScratch); ok {
		first, ts.started = !ts.started, true
	}
	b.t.chunk(start, b.t.now(), first)
	return err
}

// MaxWorkers implements engine.WorkerLimiter; 0 means no limit, which is
// how the engine treats a backend without the interface.
func (b *tracedBackend) MaxWorkers() int {
	if lim, ok := b.inner.(engine.WorkerLimiter); ok {
		return lim.MaxWorkers()
	}
	return 0
}

// tracedTransport stacks over a network.CountingTransport (frame counts per
// tier) and adds byte counts per tier from the dialing side, write counts
// and blocking time from the accepting side, and dial spans.
type tracedTransport struct {
	t *tracer
}

// Listen implements network.Transport.
func (tr *tracedTransport) Listen() (net.Listener, error) {
	l, err := tr.t.counting.Load().Listen()
	if err != nil {
		return nil, err
	}
	return &tracedListener{Listener: l, t: tr.t}, nil
}

// Dial implements network.Transport.
func (tr *tracedTransport) Dial(addr net.Addr) (net.Conn, error) {
	return tr.dial("dial", func() (net.Conn, error) { return tr.t.counting.Load().Dial(addr) }, false)
}

// DialPlayer implements network.PlayerDialer.
func (tr *tracedTransport) DialPlayer(addr net.Addr, player uint32) (net.Conn, error) {
	return tr.dial("dial", func() (net.Conn, error) { return tr.t.counting.Load().DialPlayer(addr, player) }, false)
}

// DialAggregator implements network.AggregatorDialer.
func (tr *tracedTransport) DialAggregator(addr net.Addr, agg uint32) (net.Conn, error) {
	return tr.dial("dial_aggregator", func() (net.Conn, error) { return tr.t.counting.Load().DialAggregator(addr, agg) }, true)
}

func (tr *tracedTransport) dial(name string, dial func() (net.Conn, error), agg bool) (net.Conn, error) {
	start := tr.t.now()
	c, err := dial()
	tr.t.record(tr.t.newSpanID(), tr.t.curCall.Load(), name, start, tr.t.now())
	if err != nil {
		return nil, err
	}
	tr.t.net.dials.Add(1)
	up, down := &tr.t.net.playerUp, &tr.t.net.playerDown
	if agg {
		up, down = &tr.t.net.aggUp, &tr.t.net.aggDown
	}
	return &dialConn{Conn: c, up: up, down: down}, nil
}

// deadliner is the accept-deadline extension the quorum-mode referee
// probes listeners for.
type deadliner interface {
	SetDeadline(t time.Time) error
}

// tracedListener counts the writes of every connection it accepts: the
// referee's (and aggregators') downstream traffic.
type tracedListener struct {
	net.Listener
	t *tracer
}

// Accept implements net.Listener.
func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &acceptedConn{Conn: c, n: &l.t.net}, nil
}

// SetDeadline forwards the accept deadline to the inner listener.
func (l *tracedListener) SetDeadline(at time.Time) error {
	if d, ok := l.Listener.(deadliner); ok {
		return d.SetDeadline(at)
	}
	return fmt.Errorf("bench: listener %T has no accept deadline", l.Listener)
}

// dialConn counts the bytes a player or aggregator sends up and receives.
type dialConn struct {
	net.Conn
	up, down *atomic.Int64
}

// Write implements net.Conn.
func (c *dialConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.up.Add(int64(n))
	return n, err
}

// Read implements net.Conn.
func (c *dialConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.down.Add(int64(n))
	return n, err
}

// acceptedConn counts a referee-side connection's writes, their bytes and
// how long each blocked (an in-memory pipe write waits for the reader).
type acceptedConn struct {
	net.Conn
	n *netCounters
}

// Write implements net.Conn.
func (c *acceptedConn) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(p)
	c.n.writeNs.Add(int64(time.Since(start)))
	c.n.writes.Add(1)
	c.n.writeBytes.Add(int64(n))
	return n, err
}

// ruleSlot is one player's call counter, padded to a cache line so
// players computed on different cores never share one.
type ruleSlot struct {
	calls atomic.Uint64
	_     [56]byte
}

// countingRule forwards a LocalRule and counts its calls per player. It
// does not time them: on the cluster thousands of node goroutines share
// two CPUs, and a wall-clock-timed call absorbs their scheduling delays,
// so the rule's cost comes from an isolated replay instead.
type countingRule struct {
	inner core.LocalRule
	slots []ruleSlot
}

func newCountingRule(inner core.LocalRule, k int) *countingRule {
	// One spare slot catches a player index outside [0, k).
	return &countingRule{inner: inner, slots: make([]ruleSlot, k+1)}
}

// Bits implements core.LocalRule.
func (r *countingRule) Bits() int { return r.inner.Bits() }

// Message implements core.LocalRule.
func (r *countingRule) Message(player int, samples []int, shared uint64, private *rand.Rand) (core.Message, error) {
	s := &r.slots[len(r.slots)-1]
	if player >= 0 && player < len(r.slots)-1 {
		s = &r.slots[player]
	}
	s.calls.Add(1)
	return r.inner.Message(player, samples, shared, private)
}

// calls sums the per-player slots.
func (r *countingRule) calls() uint64 {
	var n uint64
	for i := range r.slots {
		n += r.slots[i].calls.Load()
	}
	return n
}
