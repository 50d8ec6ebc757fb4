package network

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"github.com/distributed-uniformity/dut/internal/engine"
)

// clusterBackend runs engine trials through batch sessions. The trial's
// public coin is engine.SharedSeed(spec.Seed, spec.Trial), which every
// node derives from the chunk's ROUND_BATCH trial range, so verdicts
// are bit-identical to the in-process SMP backend's for the same engine
// seed. It implements engine.BatchBackend: each driver worker holds one
// live session in its scratch for all its chunks; the per-trial methods
// are chunks of one trial.
//
// Sessions outlive an engine call. A worker takes a parked session if
// one is idle and opens one otherwise; when it retires, its session
// parks once it has quiesced healthy (park). A parked session that no
// call takes within one timeout is closed by its timer, and Close closes
// every parked session. A session is only opened when none is parked, so
// the pool never holds more sessions than were live at once.
type clusterBackend struct {
	c *Cluster

	mu     sync.Mutex
	idle   []*parkedSession // the most recently parked last
	closed bool
	// evicting counts the evictions tearing a session down, which Close
	// waits for.
	evicting sync.WaitGroup
}

// parkedSession is a session's entry in the idle pool: the session and
// the timer that evicts it. Every session has one, whose timer its first
// park builds and every later park re-arms, so a warm park allocates
// nothing. stale counts the firings a take was too late to stop; evict
// ignores that many, so a late firing cannot close the session once it
// is parked again. The backend's mu guards stale and the timer's arming.
type parkedSession struct {
	bs    *batchSession
	timer *time.Timer
	stale int
}

var (
	_ engine.BatchBackend = (*clusterBackend)(nil)
	_ io.Closer           = (*clusterBackend)(nil)
)

// NewBackend adapts a Cluster to the engine's Backend interface. The
// backend drives the cluster's own topology: ClusterConfig.Shards,
// AggregatorWeights and ShardSeed choose the flat star or the referee
// tree, so a flat and a sharded backend side by side are two clusters.
// The backend keeps its sessions open between engine calls and
// implements io.Closer: close it when done (engine.Engine.Close does).
// An idle session closes by itself after ClusterConfig.Timeout.
func NewBackend(c *Cluster) (engine.Backend, error) {
	if c == nil {
		return nil, fmt.Errorf("network: nil cluster")
	}
	return &clusterBackend{c: c}, nil
}

// NewBackend is NewBackend(c): the backend core.BackendFor builds for
// the cluster, so core.EstimateAcceptance, Separates and Amplify run
// their trials through its batch sessions.
func (c *Cluster) NewBackend() (engine.Backend, error) { return NewBackend(c) }

// Close implements io.Closer: it closes every parked session, waits for
// their teardown and for any eviction in progress, and returns the first
// error. A session released after Close is closed, not parked. Close is
// idempotent.
func (b *clusterBackend) Close() error {
	b.mu.Lock()
	b.closed = true
	idle := b.idle
	b.idle = nil
	b.mu.Unlock()
	var first error
	for _, p := range idle {
		p.timer.Stop()
		if err := p.bs.Close(); err != nil && first == nil {
			first = err
		}
	}
	b.evicting.Wait()
	return first
}

// take hands out the most recently parked session, or nil when none is
// idle. A session that failed while parked is closed and the next one
// tried.
func (b *clusterBackend) take() *batchSession {
	for {
		b.mu.Lock()
		n := len(b.idle)
		if n == 0 {
			b.mu.Unlock()
			return nil
		}
		p := b.idle[n-1]
		b.idle = slices.Delete(b.idle, n-1, n)
		if !p.timer.Stop() {
			p.stale++
		}
		b.mu.Unlock()
		if p.bs.healthy() {
			return p.bs
		}
		_ = p.bs.Close()
	}
}

// park parks a worker's session for the backend's next call when it
// quiesces healthy, its call's cancellation has not reached it and the
// backend is open, and reports whether it did.
func (b *clusterBackend) park(bs *batchSession) bool {
	if !bs.quiesce() || !bs.untie() {
		return false
	}
	// Its nodes now sit in their frame loops, so whoever closes the
	// parked session waits for them all.
	bs.callCtx = context.Background()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return false
	}
	p := &bs.parked
	if p.timer == nil {
		p.bs = bs
		p.timer = time.AfterFunc(b.c.timeout, func() { b.evict(p) })
	} else {
		p.timer.Reset(b.c.timeout)
	}
	b.idle = append(b.idle, p)
	return true
}

// evict closes a session its timer found still parked. A firing a take
// overtook is stale and ignored: the session it was armed for was taken,
// and may be parked again since.
func (b *clusterBackend) evict(p *parkedSession) {
	b.mu.Lock()
	if p.stale > 0 {
		p.stale--
		b.mu.Unlock()
		return
	}
	i := slices.Index(b.idle, p)
	if i < 0 {
		b.mu.Unlock()
		return
	}
	b.idle = slices.Delete(b.idle, i, i+1)
	b.evicting.Add(1)
	b.mu.Unlock()
	defer b.evicting.Done()
	_ = p.bs.Close()
}

// Players implements engine.Backend.
func (b *clusterBackend) Players() int { return b.c.k }

// ErrChunkNotConsecutive is a chunk that breaks the engine's batch
// contract: spec i must be trial specs[0].Trial+i of seed specs[0].Seed.
// A ROUND_BATCH names a trial range, not a list of coins, so any other
// chunk would have its nodes derive the wrong public coins.
var ErrChunkNotConsecutive = errors.New("network: chunk specs are not consecutive trials of one seed")

// clusterScratch is one engine worker's reusable cluster state: the
// session it holds, taken or opened on the worker's first chunk and used
// for every chunk the worker runs. The engine closes it (io.Closer) when
// the worker exits, which releases the session to the backend's pool.
type clusterScratch struct {
	b     *clusterBackend
	batch *batchSession
	// failed marks a session a chunk failed on: it can hold batches in
	// flight or be torn down already, so it is closed, never parked.
	failed bool
	// last is the result of the last trial the worker ran.
	last *engine.RoundResult
}

// Close implements io.Closer: it releases the worker's session, if it
// holds one. A session that does not park is closed, and the connect
// retries its teardown waited out go on the worker's last trial: a node
// still dialling when that trial was decided records them only then,
// after every chunk has claimed its own.
func (s *clusterScratch) Close() error {
	bs, last := s.batch, s.last
	if bs == nil {
		return nil
	}
	s.batch, s.last = nil, nil
	if !s.failed && s.b.park(bs) {
		return nil
	}
	s.failed = false
	err := bs.Close()
	if last != nil {
		last.Retries += bs.takeRetries()
	}
	return err
}

// NewScratch implements engine.ScratchBackend; the session itself is
// taken or opened on the first chunk.
func (b *clusterBackend) NewScratch() any { return &clusterScratch{b: b} }

// RunRound implements engine.Backend: one trial on a session of its own.
func (b *clusterBackend) RunRound(ctx context.Context, spec engine.RoundSpec) (engine.RoundResult, error) {
	cs := clusterScratch{b: b}
	specs := [1]engine.RoundSpec{spec}
	var out [1]engine.RoundResult
	err := b.RunRoundsScratch(ctx, &cs, specs[:], 1, out[:])
	if closeErr := cs.Close(); err == nil {
		err = closeErr
	}
	if err != nil {
		return engine.RoundResult{}, err
	}
	return out[0], nil
}

// RunRoundScratch implements engine.ScratchBackend: a chunk of one trial.
func (b *clusterBackend) RunRoundScratch(ctx context.Context, spec engine.RoundSpec, scratch any) (engine.RoundResult, error) {
	specs := [1]engine.RoundSpec{spec}
	var out [1]engine.RoundResult
	if err := b.RunRoundsScratch(ctx, scratch, specs[:], 1, out[:]); err != nil {
		return engine.RoundResult{}, err
	}
	return out[0], nil
}

// RunRoundsScratch implements engine.BatchBackend: the worker's chunk
// of trials runs through the session it holds — ROUND_BATCH frames
// naming up to batch trials, every batch of the chunk in flight at once,
// packed VOTE_BATCH gathering and per-batch verdict evaluation for any
// message width, on the flat star or the configured referee tree. The
// chunk must be the engine's documented len(specs) consecutive trials of
// one seed; any other chunk is ErrChunkNotConsecutive before a session
// opens or a frame is sent.
//
//dut:hotpath
func (b *clusterBackend) RunRoundsScratch(ctx context.Context, scratch any, specs []engine.RoundSpec, batch int, out []engine.RoundResult) error {
	if len(out) != len(specs) {
		return fmt.Errorf("network: %d results for %d specs", len(out), len(specs))
	}
	cs, ok := scratch.(*clusterScratch)
	if !ok {
		return fmt.Errorf("network: foreign scratch %T", scratch)
	}
	if len(specs) == 0 {
		return nil
	}
	batch = min(max(batch, 1), MaxBatchTrials)
	base, first := specs[0].Seed, specs[0].Trial
	for i, spec := range specs {
		if spec.Sampler == nil {
			return fmt.Errorf("network: nil sampler")
		}
		if spec.Seed != base || spec.Trial != first+i {
			return fmt.Errorf("%w: spec %d is trial %d of seed %#x, want trial %d of seed %#x",
				ErrChunkNotConsecutive, i, spec.Trial, spec.Seed, first+i, base)
		}
	}
	if cs.batch == nil {
		if sess := b.take(); sess != nil {
			sess.hold(ctx)
			cs.batch = sess
		} else {
			sess, err := newBatchSession(ctx, b.c)
			if err != nil {
				return err
			}
			cs.batch = sess
		}
	}
	// The sampler buffer lives on the session, which outlives the engine
	// call and its scratch, so a warm call does not regrow it.
	samplers := cs.batch.samplers[:0]
	for _, spec := range specs {
		samplers = append(samplers, spec.Sampler)
	}
	cs.batch.samplers = samplers
	if err := cs.batch.runChunk(ctx, base, first, samplers, batch, out); err != nil {
		cs.failed = true
		return err
	}
	cs.last = &out[len(out)-1]
	return nil
}
