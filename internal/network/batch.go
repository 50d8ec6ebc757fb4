package network

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/distributed-uniformity/dut/internal/core"
	"github.com/distributed-uniformity/dut/internal/dist"
	"github.com/distributed-uniformity/dut/internal/engine"
)

// This file implements the one trial protocol every cluster entry point
// runs: a batch session. The referee keeps the k player connections
// open, each ROUND_BATCH frame names a range of up to MaxBatchTrials
// trials whose public coins every node derives itself, nodes answer with
// one VOTE_BATCH of r packed bit-planes, and the referee evaluates a
// whole batch of verdicts per synchronization and writes nothing back;
// FINISH ends the session. A single trial is a batch of one. Each slot
// gets a dedicated writer goroutine fed by an unbounded frame queue, so
// the referee queues the next batches' ROUND_BATCH frames while earlier
// votes are still being gathered and never blocks on a slow peer: that
// is what keeps a window of batches in flight. Each slot also gets one
// long-lived reader goroutine, which serves the gather's per-batch
// requests and decodes through the slot's one frameReader, so a settled
// batch starts no goroutine and allocates nothing.
// Determinism is untouched — every vote derives from (shared seed,
// player id) alone, and the referee's per-batch evaluation reproduces
// decideVotes bit for bit (word-parallel from bit-sliced counters when
// the referee has threshold or sum shape, trial by trial otherwise). The
// flat star runs the tree's per-shard pipeline as one shard of all k
// players: the same accept phase, gather and reduce, with the root
// deciding from the reduced counters. In quorum mode a slot that dies
// (crash, timeout, protocol violation) stays dead for the rest of the
// session and counts as a straggler in every later trial.

// workCount is a session's work in flight: frames queued on a slot and
// not yet written, and batches an aggregator relayed and has not yet
// reduced. A session parks only at zero, so no frame of one engine call
// spills into the next. The decrement that drains it to zero wakes the
// quiesce wait, as does every recorded failure (poke). A nil *workCount
// counts nothing: the bare queues of unit tests have none.
type workCount struct {
	n    atomic.Int64
	wake chan struct{} // capacity 1: one pending wake-up
}

func newWorkCount() *workCount { return &workCount{wake: make(chan struct{}, 1)} }

func (w *workCount) add(n int) {
	if w != nil {
		w.n.Add(int64(n))
	}
}

func (w *workCount) done(n int) {
	if w != nil && w.n.Add(-int64(n)) == 0 {
		w.poke()
	}
}

// poke wakes the quiesce wait, if one is waiting or about to.
func (w *workCount) poke() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// frameQueue is an unbounded FIFO of already-encoded frames feeding one
// slot's writer goroutine. Unbounded is deliberate: the aggregator must
// never block enqueueing (a bounded queue toward a stalled node could
// deadlock the window), and memory stays bounded anyway because the
// aggregator only issues one chunk — batch times window trials — ahead
// of the gathers. Frames are appended to a flat byte run and drained
// wholesale: the writer claims every pending frame in one swap, so the
// two backing buffers ping-pong at the queue's high-water mark instead
// of growing with total throughput (the previous queue advanced with
// items = items[1:], pinning the consumed head of the backing array for
// the life of the session).
type frameQueue struct {
	mu     sync.Mutex
	cond   sync.Cond
	buf    []byte // pending frames, encoded by the wire.go Append* helpers
	frames int    // number of frames in buf
	closed bool
	// work counts each pushed frame until its writer has written it.
	work *workCount
}

func newFrameQueue() *frameQueue {
	q := &frameQueue{}
	q.cond.L = &q.mu
	return q
}

// push enqueues one encoded frame (the bytes are copied, so the caller
// may reuse its encode buffer immediately); pushes after close are
// dropped.
func (q *frameQueue) push(frame []byte) {
	q.mu.Lock()
	if !q.closed {
		q.buf = append(q.buf, frame...)
		q.frames++
		q.work.add(1)
	}
	q.mu.Unlock()
	q.cond.Signal()
}

// drain blocks until at least one frame is pending (or the queue is
// closed and empty), then claims the entire pending run in one swap:
// spare becomes the queue's next accumulation buffer and the caller
// gets the encoded run plus its frame count. ok is false once the queue
// is closed and fully drained.
func (q *frameQueue) drain(spare []byte) (run []byte, frames int, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.buf) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.buf) == 0 {
		return spare[:0], 0, false
	}
	run, frames = q.buf, q.frames
	q.buf, q.frames = spare[:0], 0
	return run, frames, true
}

// close marks the queue finished; pending frames still drain.
func (q *frameQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// batchSlot is one referee-side connection — a player on the flat star
// or at an aggregator, an aggregator at the root: what its HELLO
// announced, its writer queue, its reader's frame decoder and request
// channel, and its failure state, which the writer, the reader and the
// session share under the lock.
type batchSlot struct {
	conn       net.Conn
	player     uint32 // the aggregator id at the root of the tree
	bits       uint8
	q          *frameQueue
	writerDone chan struct{}
	// fr decodes every frame the slot's reader reads; gather holds the
	// reader's one pending request, so a gather's send never blocks.
	fr         frameReader
	gather     chan gatherReq
	readerDone chan struct{}

	mu   sync.Mutex
	dead bool
	err  error
}

func newBatchSlot(conn net.Conn, player uint32, bits uint8, work *workCount) *batchSlot {
	q := newFrameQueue()
	q.work = work
	return &batchSlot{
		conn: conn, player: player, bits: bits, q: q, writerDone: make(chan struct{}),
		fr: frameReader{r: conn}, gather: make(chan gatherReq, 1), readerDone: make(chan struct{}),
	}
}

// gatherReq asks a slot's reader for one batch's frame: the batch id and
// trial count it must echo, where a member's vote planes land, and the
// gather's WaitGroup, marked done once the frame is filed or the slot
// has failed.
type gatherReq struct {
	batch uint32
	count int
	dst   *[]uint64
	wg    *sync.WaitGroup
}

// closeSlots ends a tier's slots once its gathers are over: the queues
// close (pending frames still drain), the writers exit, and then the
// readers' request channels close and the readers exit.
func closeSlots(slots []*batchSlot) {
	for _, slot := range slots {
		if slot != nil {
			slot.q.close()
		}
	}
	for _, slot := range slots {
		if slot != nil {
			<-slot.writerDone
			close(slot.gather)
			<-slot.readerDone
		}
	}
}

// allLive reports whether a tier has every slot present and live.
func allLive(slots []*batchSlot) bool {
	for _, slot := range slots {
		if slot == nil || slot.isDead() {
			return false
		}
	}
	return true
}

func (b *batchSlot) isDead() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dead
}

// broadcast queues one encoded frame to every live slot; nil entries are
// absent aggregator-side members.
func broadcast(slots []*batchSlot, frame []byte) {
	for _, slot := range slots {
		if slot == nil || slot.isDead() {
			continue
		}
		slot.q.push(frame)
	}
}

// samplerStage publishes each in-flight batch's per-trial samplers to
// the session's in-process nodes, keyed by batch id: the referee stages
// a batch before queueing its ROUND_BATCH and drops it once the batch is
// gathered, and each node looks its batch up when the frame arrives.
// One table serves every node, so staging costs one map write per batch
// regardless of k.
type samplerStage struct {
	mu sync.RWMutex
	m  map[uint32][]dist.Sampler
}

func (s *samplerStage) put(batch uint32, samplers []dist.Sampler) {
	s.mu.Lock()
	s.m[batch] = samplers
	s.mu.Unlock()
}

func (s *samplerStage) get(batch uint32) ([]dist.Sampler, bool) {
	s.mu.RLock()
	samplers, ok := s.m[batch]
	s.mu.RUnlock()
	return samplers, ok
}

func (s *samplerStage) drop(batch uint32) {
	s.mu.Lock()
	delete(s.m, batch)
	s.mu.Unlock()
}

func (s *samplerStage) empty() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m) == 0
}

// batchSession is one live session: the referee's accepted slots with
// their writers, the in-process node goroutines (none when the players
// are external), and the per-batch evaluation scratch. It persists
// across runChunk calls (batch ids grow monotonically) until Close, and
// the cluster backend parks it between engine calls.
type batchSession struct {
	c        *Cluster
	listener net.Listener
	// life is the session's own context, detached from every call;
	// cancel ends it, which closes the listeners and, through tracker,
	// every referee-side connection. hold ties it to the call that holds
	// the session (stopTie undoes the tie), and callCtx is that call's
	// context: teardown waits for the nodes only while it lives.
	life      context.Context
	cancel    context.CancelFunc
	callCtx   context.Context
	stopTie   func() bool
	tracker   *connTracker
	trackStop func()
	nodes     []*PlayerNode
	nodeWG    sync.WaitGroup
	stage     *samplerStage
	work      *workCount
	// slots are the root's slots by position: the players by id on the
	// flat star, the aggregators by id on the tree; nil = absent.
	slots []*batchSlot

	nextBatch uint32

	mu      sync.Mutex
	nodeErr error
	retries int // accumulated node connect retries, not yet reported

	// quiet is quiesce's timer and parked the session's entry in its
	// backend's idle pool; both are built on first use and reused, so a
	// warm handoff between engine calls allocates no timer.
	quiet  *time.Timer
	parked parkedSession

	// msgBits is the rule's message width r: the plane count of every
	// VOTE_BATCH.
	msgBits int

	// Counter shape of the referee, when it has one (shaped): reject
	// iff the k votes' values sum to at least shapeT. A vote's value is
	// its low valueBits bits; with flip set it is the complement of bit
	// 0, so a threshold rule's counters count rejections. This is what
	// the word-parallel counter decide evaluates.
	shaped    bool
	shapeT    int
	valueBits int
	flip      bool

	// Per-batch scratch: delivered vote planes by player id, the
	// bit-sliced counter planes of one trial word, and the batch's
	// counters (planes x words, plane-major) the shaped decide compares.
	// gathered counts the root's slot reads in flight.
	deliv    [][]uint64
	planes   []uint64
	sums     []uint64
	gathered sync.WaitGroup

	// Chunk scratch, reused across chunks and engine calls. enc is the
	// frame encode buffer (push copies bytes into the queue, so it is free
	// again as soon as the pushes return); samplers holds the chunk's
	// per-trial samplers, which the stage publishes to the nodes;
	// verdictBits is the shaped decide's verdict bitset.
	enc         []byte
	flights     []batchFlight
	samplers    []dist.Sampler
	verdictBits []uint64

	// Opaque-referee scratch for decideVotes: the batch's presence by
	// player id and the trial-major block of unpacked messages, grown
	// once to 64 rows of k.
	got   []bool
	block []core.Message

	// Sharded-tree state, nil/empty on the flat star. aggErr (under mu)
	// records the first aggregator failure; shardSums/shardPresent/
	// shardGot are the root's per-shard gather table, indexed by shard
	// id.
	shards       [][]uint32
	aggs         []*aggregator
	aggListeners []net.Listener
	aggErr       error
	shardSums    [][]uint64
	shardPresent []uint32
	shardGot     []bool
}

// batchFlight is one wire batch of a chunk: its frame id and the trial
// range it covers.
type batchFlight struct {
	id           uint32
	start, count int
}

// newBatchSession opens a session with the cluster's k in-process nodes
// over a fresh listener. Every node is constructed before any goroutine
// spawns, so a construction error leaves nothing running.
//
//dut:coldpath once-per-session node construction, amortized across every batch the session serves
func newBatchSession(ctx context.Context, c *Cluster) (*batchSession, error) {
	nodes, err := c.buildNodes()
	if err != nil {
		return nil, err
	}
	listener, err := c.tr.Listen()
	if err != nil {
		return nil, fmt.Errorf("network: listen: %w", err)
	}
	return openBatchSession(ctx, c, listener, nodes)
}

// openBatchSession starts a session on listener l, which it owns from
// here on: the nodes (nil when the players dial in from elsewhere)
// connect, the referee — or, on a sharded topology, the aggregator tier
// and then the root — runs the accept phase, and every accepted slot
// gets its writer. Strict-mode node failures cancel the session context
// so a blocked accept unwinds.
//
//dut:coldpath once-per-session construction; dial and handshake are amortized across every batch the session serves
func openBatchSession(ctx context.Context, c *Cluster, l net.Listener, nodes []*PlayerNode) (*batchSession, error) {
	if l == nil {
		return nil, fmt.Errorf("network: nil listener")
	}
	life, cancel := context.WithCancel(context.WithoutCancel(ctx))
	go func() {
		<-life.Done()
		_ = l.Close()
	}()
	work := newWorkCount()
	bs := &batchSession{
		c: c, listener: l, life: life, cancel: cancel, nodes: nodes,
		tracker: &connTracker{},
		stage:   &samplerStage{m: make(map[uint32][]dist.Sampler)},
		work:    work,
	}
	bs.hold(ctx)
	bs.trackStop = bs.tracker.watch(life)
	bs.initDecide()
	var err error
	if c.topo.enabled() {
		err = bs.startSharded(life)
	} else {
		err = bs.startFlat(life)
	}
	if err != nil {
		cancel()
		bs.waitNodes()
		bs.untie()
		// A strict-mode node or aggregator failure is the root cause; the
		// accept error it provokes is only a symptom.
		if !c.tolerant() {
			if nodeErr := bs.peekNodeErr(); nodeErr != nil {
				return nil, nodeErr
			}
			if aggErr := bs.peekAggErr(); aggErr != nil && !isTransportErr(aggErr) {
				return nil, aggErr
			}
		}
		return nil, err
	}
	bs.startSlots(bs.slots, bs.sharded())
	return bs, nil
}

// hold ties the session to the call that holds it: the call's
// cancellation cancels the session, and teardown waits for the nodes
// only while the call's context lives.
func (bs *batchSession) hold(ctx context.Context) {
	bs.callCtx = ctx
	bs.stopTie = context.AfterFunc(ctx, bs.cancel)
}

// untie releases the hold's tie. It reports false when the call's
// cancellation has already reached the session.
func (bs *batchSession) untie() bool {
	if bs.stopTie == nil {
		return true
	}
	ok := bs.stopTie()
	bs.stopTie = nil
	return ok
}

// healthy reports whether the session can serve another call: its
// context lives, no node or aggregator failure is recorded, every slot
// on every tier is present and live, no batch is staged and no connect
// retry awaits its report. A quorum-mode absentee or dead slot therefore
// disqualifies it, so quorum carry-over stays within one call.
func (bs *batchSession) healthy() bool {
	if bs.life.Err() != nil {
		return false
	}
	bs.mu.Lock()
	failed := bs.nodeErr != nil || bs.aggErr != nil || bs.retries != 0
	bs.mu.Unlock()
	// Every root slot is live before any aggregator's is read: a live
	// aggregator slot means its AGG_HELLO, sent after it filed its own
	// slots, was read.
	if failed || !bs.stage.empty() || !allLive(bs.slots) {
		return false
	}
	for _, a := range bs.aggs {
		if !allLive(a.slots) {
			return false
		}
	}
	return true
}

// quiesce waits until the session has no work in flight — every queued
// frame written and every relayed batch reduced — and reports whether it
// is then healthy: only a quiesced, healthy session parks. The wait is
// needed although every batch is decided: a slot writer counts a frame
// only after its write returns, and can lag behind the vote that frame
// provoked. Every live node is then blocked in its next read, because
// the last batch was decided only once each live node's vote for it had
// arrived. The wait ends as soon as the session fails, and gives up
// after one timeout.
func (bs *batchSession) quiesce() bool {
	if bs.quiet == nil {
		bs.quiet = time.NewTimer(bs.c.timeout)
	} else {
		bs.quiet.Reset(bs.c.timeout)
	}
	defer stopTimer(bs.quiet)
	for bs.work.n.Load() != 0 {
		if !bs.healthy() {
			return false
		}
		select {
		case <-bs.work.wake:
		case <-bs.life.Done():
			return false
		case <-bs.quiet.C:
			return false
		}
	}
	return bs.healthy()
}

// stopTimer stops a channel timer and drains a firing it was too late to
// stop, so the next Reset starts clean: go.mod's go 1.22 keeps the timer
// channel semantics before Go 1.23, where a stopped timer's channel can
// still hold a stale tick.
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// initDecide classifies the referee and sizes the decide scratch: the
// counter shape the counter decide evaluates, its counter planes, and
// the per-player delivery and presence tables. A threshold rule counts
// rejections in Len(k) planes; a sum referee of the rule's width r
// counts values in Len(k) + r, and only while that stays within 62
// planes, where the lane sums (and atLeast's threshold compare) are
// exact: beyond, it is decided per trial. The opaque decide's message
// block grows on its first batch.
func (bs *batchSession) initDecide() {
	c := bs.c
	bs.msgBits = c.rule.Bits()
	planeLen := bits.Len(uint(c.k))
	if t, ok := core.ThresholdShape(c.referee, c.k); ok {
		bs.shaped, bs.shapeT, bs.valueBits, bs.flip = true, t, 1, true
	} else if t, r, ok := core.SumShape(c.referee, c.k); ok && r == bs.msgBits && r+planeLen <= 62 {
		bs.shaped, bs.shapeT, bs.valueBits = true, t, r
		planeLen += r
	}
	bs.deliv = make([][]uint64, c.k)
	bs.planes = make([]uint64, planeLen)
	bs.got = make([]bool, c.k)
}

// startFlat runs the flat star's connect phase: every node dials the
// root listener and the root accepts the players as one shard of all k,
// so its slots are indexed by player id.
func (bs *batchSession) startFlat(ctx context.Context) error {
	for _, node := range bs.nodes {
		bs.spawnNode(node, bs.listener.Addr())
	}
	players := Topology{Shards: 1}.Partition(bs.c.k)[0]
	slots, present, err := bs.acceptShard(ctx, bs.listener, players, "root")
	if err != nil {
		return err
	}
	bs.slots = slots
	return bs.checkQuorum(present)
}

// startSlots starts the writer and the reader goroutine of every
// accepted slot. reduced selects what the readers read: the aggregators'
// reduced frames at the root of the tree, the members' votes otherwise.
func (bs *batchSession) startSlots(slots []*batchSlot, reduced bool) {
	for _, slot := range slots {
		if slot != nil {
			//lint:ignore dut/ctxprop the writer drains until its frame queue closes (closeSlots always closes it); cancellation reaches it through failSlot closing the conn
			go bs.slotWriter(slot)
			//lint:ignore dut/ctxprop the reader serves until its request channel closes (closeSlots always closes it); each read is deadline-bounded, and cancellation closes the conn under it
			go bs.slotReader(slot, reduced)
		}
	}
}

// spawnNode runs one node for the life of the session: connect to addr,
// then serve frames until FINISH.
func (bs *batchSession) spawnNode(node *PlayerNode, addr net.Addr) {
	bs.nodeWG.Add(1)
	//lint:ignore dut/ctxprop cancel() closes the listeners and session conns, which unwinds connect and serve; a ctx check here would race the same teardown
	go func() {
		defer bs.nodeWG.Done()
		conn, retries, err := node.connect(bs.c.tr, addr)
		bs.addRetries(retries)
		if err != nil {
			bs.failNode(err)
			return
		}
		defer func() { _ = conn.Close() }()
		if err := node.serve(conn, bs.stage); err != nil {
			bs.failNode(err)
		}
	}()
}

// waitNodes waits for the node goroutines, but not past the death of
// the holding call's context: a node stuck inside its own rule cannot be
// force-aborted, and with its connection closed it unwinds as soon as
// the rule returns. A parked session's nodes sit in their frame loops,
// so closing it waits for them all.
//
//dut:coldpath session teardown and strict-mode failure only
func (bs *batchSession) waitNodes() {
	done := make(chan struct{})
	//lint:ignore dut/ctxprop wg.Wait has no cancellation hook; the goroutine only closes done, and the select below honors ctx
	go func() {
		bs.nodeWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-bs.callCtx.Done():
	}
}

func (bs *batchSession) addRetries(n int) {
	bs.mu.Lock()
	bs.retries += n
	bs.mu.Unlock()
}

// takeRetries claims the retries accumulated since the last report, so
// each retry is counted on exactly one trial's stats.
func (bs *batchSession) takeRetries() int {
	bs.mu.Lock()
	n := bs.retries
	bs.retries = 0
	bs.mu.Unlock()
	return n
}

// failNode records a node-goroutine error; in strict mode it also tears
// the session down (any node failure dooms every further trial).
func (bs *batchSession) failNode(err error) {
	bs.mu.Lock()
	if bs.nodeErr == nil {
		bs.nodeErr = err
	}
	bs.mu.Unlock()
	bs.work.poke()
	if !bs.c.tolerant() {
		bs.cancel()
	}
}

func (bs *batchSession) peekNodeErr() error {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	return bs.nodeErr
}

// failSlot marks a slot dead and closes its connection, recording the
// first error. In quorum mode the slot is simply a straggler from then
// on; in strict mode the next gather reports it.
func (bs *batchSession) failSlot(slot *batchSlot, err error) {
	slot.mu.Lock()
	already := slot.dead
	slot.dead = true
	if slot.err == nil {
		slot.err = err
	}
	slot.mu.Unlock()
	if !already {
		_ = slot.conn.Close()
		bs.work.poke()
	}
}

// slotWriter drains one slot's frame queue onto its connection. Writes
// use the write deadline only — the slot's reader owns the same
// connection's read deadline concurrently. Each wake-up claims every
// pending frame and flushes them in a single write under one deadline
// scaled by the frame count, so a full window of queued frames costs
// one syscall pair instead of one per frame while each frame keeps its
// original per-frame time budget. The node reads frame by frame off the
// same stream, so coalescing is invisible to it.
//
//dut:hotpath
func (bs *batchSession) slotWriter(slot *batchSlot) {
	defer close(slot.writerDone)
	var spare []byte
	for {
		run, frames, ok := slot.q.drain(spare)
		spare = run
		if !ok {
			return
		}
		// A dead slot's frames are drained and dropped: it is out of the
		// session.
		if !slot.isDead() {
			setWriteDeadline(slot.conn, time.Duration(frames)*bs.c.timeout)
			if err := writeCoalesced(slot.conn, run); err != nil {
				//lint:ignore dut/hotalloc failure path: failSlot drops the player, so the error allocation never recurs on a live slot
				bs.failSlot(slot, fmt.Errorf("network: coalesced write of %d frame(s) to player %d: %w", frames, slot.player, err))
			}
		}
		slot.q.work.done(frames)
	}
}

// runChunk executes one chunk of trials: engine trials first, first+1,
// ... of base seed base, samplers[i] being trial first+i's sampler. It
// slices the chunk into wire batches of at most batch trials, issues
// every ROUND_BATCH up front (putting the whole window in flight), then
// gathers and decides batch by batch. A ROUND_BATCH names its trial
// range, and every node derives each trial's public coin
// engine.SharedSeed(base, trial) itself. out receives one RoundResult
// per trial.
func (bs *batchSession) runChunk(ctx context.Context, base uint64, first int, samplers []dist.Sampler, batch int, out []engine.RoundResult) error {
	if len(out) != len(samplers) {
		return fmt.Errorf("network: chunk of %d samplers with %d results", len(samplers), len(out))
	}
	flights := bs.flights[:0]
	for start := 0; start < len(samplers); start += batch {
		count := min(len(samplers)-start, batch)
		id := bs.nextBatch
		// A negative first trial converts past math.MaxInt64, which the
		// encoder rejects with ErrRoundBatchRange.
		rb := RoundBatch{Batch: id, Count: uint32(count), Base: base, First: uint64(first + start)}
		enc, err := AppendRoundBatch(bs.enc[:0], rb)
		bs.enc = enc
		if err != nil {
			bs.flights = flights
			return err
		}
		bs.nextBatch++
		bs.stage.put(id, samplers[start:start+count])
		broadcast(bs.slots, enc)
		flights = append(flights, batchFlight{id: id, start: start, count: count})
	}
	bs.flights = flights
	for i, fl := range flights {
		if err := ctx.Err(); err != nil {
			return bs.chunkErr(err)
		}
		var received int
		if bs.sharded() {
			received = bs.gatherShards(fl.id, fl.count)
		} else {
			received = bs.gatherShard(bs.slots, bs.deliv, &bs.gathered, fl.id, fl.count)
		}
		bs.stage.drop(fl.id)
		if !bs.c.tolerant() && received < bs.c.k {
			return bs.chunkErr(bs.firstSlotErr())
		}
		results := out[fl.start : fl.start+fl.count]
		if err := bs.decideBatch(fl.count, received, results); err != nil {
			return bs.chunkErr(err)
		}
		// The chunk's first batch claims the connect retries once it is
		// gathered: a node records its retries before it serves, so every
		// node that voted on the batch has recorded them. An empty chunk
		// claims none, leaving them for the next chunk's stats.
		if i == 0 {
			results[0].Retries = bs.takeRetries()
		}
	}
	return nil
}

// chunkErr resolves the root cause of a strict-mode failure. A node
// that dies first (crash, rule error) leaves the referee only a bare
// transport error — EOF, closed pipe, blown deadline — so in that case
// the recorded node failure is the story. A descriptive referee-side
// error (echo-check mismatch, width violation) is itself the root
// cause: the node's subsequent EOF is the symptom of the referee closing
// the offending connection.
func (bs *batchSession) chunkErr(err error) error {
	if !bs.c.tolerant() {
		bs.cancel()
		bs.waitNodes()
		// A descriptive aggregator-recorded error (a member's protocol
		// violation escalated by failMember, or the aggregator's own) is a
		// root cause on par with a node crash.
		if aggErr := bs.peekAggErr(); aggErr != nil && !isTransportErr(aggErr) && (err == nil || isTransportErr(err)) {
			return aggErr
		}
		if nodeErr := bs.peekNodeErr(); nodeErr != nil && (err == nil || isTransportErr(err)) {
			return nodeErr
		}
		if aggErr := bs.peekAggErr(); aggErr != nil && (err == nil || isTransportErr(err)) {
			return aggErr
		}
	}
	return err
}

// isTransportErr reports whether err is a bare IO failure rather than a
// validated protocol violation.
func isTransportErr(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) ||
		errors.Is(err, net.ErrClosed) || errors.Is(err, os.ErrDeadlineExceeded)
}

// firstSlotErr reports why a strict-mode gather came up short. A
// descriptive protocol violation wins over bare transport errors: once
// one slot is failed the session tears down and every other in-flight
// gather dies with an EOF that is pure collateral.
func (bs *batchSession) firstSlotErr() error {
	var first error
	note := func(err error) error {
		if err != nil && !isTransportErr(err) {
			return err
		}
		if first == nil && err != nil {
			first = err
		}
		return nil
	}
	for _, slot := range bs.slots {
		if slot == nil {
			continue
		}
		slot.mu.Lock()
		err := slot.err
		slot.mu.Unlock()
		if root := note(err); root != nil {
			return root
		}
	}
	// On the sharded tree the violation may be a member's, recorded on
	// its aggregator-side slot (a.slots is published before AGG_HELLO,
	// which the root read before runChunk could run, so reading it here
	// is ordered).
	for _, a := range bs.aggs {
		for _, slot := range a.slots {
			if slot == nil {
				continue
			}
			slot.mu.Lock()
			err := slot.err
			slot.mu.Unlock()
			if root := note(err); root != nil {
				return root
			}
		}
	}
	if root := note(bs.peekAggErr()); root != nil {
		return root
	}
	if first != nil {
		return first
	}
	return fmt.Errorf("network: batch gather incomplete with no recorded slot failure")
}

// slotReader serves one slot's gather requests until closeSlots closes
// its request channel: each request reads one batch's frame through the
// slot's frameReader and files it, a member's vote planes at the
// request's destination and an aggregator's reduced frame in the root's
// shard table. What it files are views of the reader's scratch, valid
// until its next request, which the gather sends only once the batch is
// reduced or decided. A parked session's readers wait on their channel,
// not in a read, so parking never trips a deadline.
//
//dut:hotpath per-batch slot read
func (bs *batchSession) slotReader(slot *batchSlot, reduced bool) {
	defer close(slot.readerDone)
	for req := range slot.gather {
		var err error
		if reduced {
			err = bs.readReduced(slot, req.batch, req.count)
		} else {
			*req.dst, err = bs.readVoteBatch(slot, req.batch, req.count)
		}
		if err != nil {
			bs.failSlot(slot, err)
			// In strict mode a member failure dooms the session on the tree
			// too; the flat star's short gather reports it.
			if !reduced && bs.sharded() && !bs.c.tolerant() {
				bs.failAgg(err)
			}
		}
		req.wg.Done()
	}
}

// readVoteBatch reads one slot's VOTE_BATCH for a batch and validates
// its echoes: the player id of the connection, the batch id and trial
// count the gather expects, and the message width the player announced
// in HELLO as the plane count. The planes it returns are a view of the
// slot's frameReader.
func (bs *batchSession) readVoteBatch(slot *batchSlot, batchID uint32, count int) ([]uint64, error) {
	// The vote can lag the node's whole batch of sampling; budget two
	// timeouts, like every other cross-phase read.
	setReadDeadline(slot.conn, 2*bs.c.timeout)
	t, err := slot.fr.read()
	if err == nil && t != FrameVoteBatch {
		err = unexpectedFrame(FrameVoteBatch, t)
	}
	if err != nil {
		return nil, fmt.Errorf("network: vote batch from player %d: %w", slot.player, err)
	}
	vb := &slot.fr.vote
	if vb.Player != slot.player {
		return nil, fmt.Errorf("network: vote batch claims player %d on player %d's connection", vb.Player, slot.player)
	}
	if vb.Batch != batchID {
		return nil, fmt.Errorf("network: player %d answered batch %d, expected %d", slot.player, vb.Batch, batchID)
	}
	if int(vb.Count) != count {
		return nil, fmt.Errorf("network: player %d voted on %d trials of batch %d, expected %d", slot.player, vb.Count, batchID, count)
	}
	if w := vb.Width(); w != int(slot.bits) {
		return nil, fmt.Errorf("network: player %d sent %d-bit votes but announced %d bits at HELLO", slot.player, w, slot.bits)
	}
	return vb.Planes, nil
}

// gatherShard collects one batch's VOTE_BATCH from every live player
// slot of a shard — the flat root's k players or an aggregator's members
// — concurrently: it sends each live slot's reader one request and waits
// on the tier's WaitGroup wg. Delivered plane sets land in deliv at the
// slot's position (nil = absent); it returns the number of valid
// deliveries.
func (bs *batchSession) gatherShard(slots []*batchSlot, deliv [][]uint64, wg *sync.WaitGroup, batchID uint32, count int) int {
	clear(deliv)
	for pos, slot := range slots {
		if slot == nil || slot.isDead() {
			continue
		}
		wg.Add(1)
		slot.gather <- gatherReq{batch: batchID, count: count, dst: &deliv[pos], wg: wg}
	}
	wg.Wait()
	received := 0
	for _, d := range deliv {
		if d != nil {
			received++
		}
	}
	return received
}

// decideBatch evaluates every trial of a gathered batch, filling one
// RoundResult per trial. A shaped referee — a threshold rule counting
// rejections, or a sum referee counting values — decides the whole batch
// word-parallel from bit-sliced counters at any presence
// (decideCounters), into the verdict bitset scratch; an opaque referee
// decides trial by trial, through decideVotes on each trial's vote
// slate, so quorum checks and absentee policy are the referee's by
// construction. The slates are the rows of a trial-major block that each
// word of the delivered planes unpacks into, 64 trials at a time.
func (bs *batchSession) decideBatch(count, received int, out []engine.RoundResult) error {
	words := batchWords(count)
	k := bs.c.k
	if bs.shaped {
		if cap(bs.verdictBits) < words {
			bs.verdictBits = make([]uint64, words)
		}
		verdictBits := bs.verdictBits[:words]
		if err := bs.decideCounters(count, received, verdictBits); err != nil {
			return err
		}
		for j := range out {
			out[j] = engine.RoundResult{
				Verdict:    verdictBits[j/64]>>(j%64)&1 == 1,
				Votes:      received,
				Stragglers: k - received,
				Messages:   received,
				Samples:    received * bs.c.q,
			}
		}
		return nil
	}
	// Presence is fixed for the whole batch. Each plane word unpacks into
	// at most 64 rows of k messages, one column per present player; an
	// absent player's column is left as it was and never enters a
	// decision.
	got := bs.got
	for player, d := range bs.deliv {
		got[player] = d != nil
	}
	if need := min(count, 64) * k; cap(bs.block) < need {
		bs.block = make([]core.Message, need)
	}
	for w := 0; w < words; w++ {
		rows := min(count-w*64, 64)
		block := bs.block[:rows*k]
		for player, d := range bs.deliv {
			if d != nil {
				core.UnpackPlaneWord(block[player:], k, d, words, w, bs.msgBits)
			}
		}
		for i := 0; i < rows; i++ {
			accept, recv, err := bs.c.decideVotes(block[i*k:(i+1)*k], got)
			out[w*64+i] = engine.RoundResult{
				Verdict:    accept,
				Votes:      recv,
				Stragglers: k - recv,
				Messages:   recv,
				Samples:    recv * bs.c.q,
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// atLeast returns a word with bit j set iff lane j's bit-sliced counter
// is at least t; planes[i] holds bit i of every lane's counter.
func atLeast(planes []uint64, t int) uint64 {
	if t <= 0 {
		return ^uint64(0)
	}
	if len(planes) < 63 && t >= 1<<len(planes) {
		return 0
	}
	ge, eq := uint64(0), ^uint64(0)
	for i := len(planes) - 1; i >= 0; i-- {
		var tb uint64
		if t>>i&1 == 1 {
			tb = ^uint64(0)
		}
		ge |= eq & planes[i] &^ tb
		eq &= ^(planes[i] ^ tb)
	}
	return ge | eq
}

// Close finishes the session: FINISH rides each slot's queue behind any
// pending frames, the writers drain and exit, the readers exit, the
// aggregators and nodes unwind, and every connection and listener
// closes. In strict mode it reports a node failure that surfaced after
// the last trial.
func (bs *batchSession) Close() error {
	bs.untie()
	finish := AppendFinish(nil)
	for _, slot := range bs.slots {
		if slot != nil {
			slot.q.push(finish)
		}
	}
	closeSlots(bs.slots)
	// Sharded: FINISH is now on the wire to every aggregator; each one
	// relays it, drains its pending reductions and exits. Wait for them
	// before cancelling so a clean shutdown never races the force-close.
	for _, a := range bs.aggs {
		<-a.done
	}
	bs.cancel()
	bs.waitNodes()
	bs.trackStop()
	bs.tracker.closeAll()
	for _, l := range bs.aggListeners {
		if l != nil {
			_ = l.Close()
		}
	}
	_ = bs.listener.Close()
	if !bs.c.tolerant() {
		return bs.peekNodeErr()
	}
	return nil
}

// readBudget is the read deadline of a frame from the tier above. The
// first frame waits out that tier's accept phase, which lasts up to two
// timeouts at the root of the tree (it waits for aggregators that each
// accept their shard for one), so the first read gets three: a full
// timeout of margin, as the flat star's one-timeout accept phase has
// under the two-timeout budget. Every later frame lags at most one
// referee phase and gets two, so a referee that goes silent mid-session
// is still detected as fast.
func readBudget(timeout time.Duration, first bool) time.Duration {
	if first {
		return 3 * timeout
	}
	return 2 * timeout
}

// setReadDeadline bounds only reads, for d from now: the batch
// session's slot writer owns the same connection's write deadline
// concurrently, and a full SetDeadline from either side would clobber
// the other's budget.
func setReadDeadline(conn net.Conn, d time.Duration) { setDeadlineIn(conn, true, d) }

// setWriteDeadline is setReadDeadline's write-side counterpart.
func setWriteDeadline(conn net.Conn, d time.Duration) { setDeadlineIn(conn, false, d) }

// setDeadlineIn sets the read or the write deadline d from now with one
// clock read: an in-memory connection is armed with the instant and its
// distance d together, where its SetReadDeadline would read the clock
// again to find the distance.
func setDeadlineIn(conn net.Conn, read bool, d time.Duration) {
	//lint:ignore dut/nondeterminism net deadlines need an absolute instant; bounds frame IO waits, never the verdict
	t := time.Now().Add(d)
	if c, ok := conn.(*memConn); ok {
		_ = c.armIn(read, t, d)
	} else if read {
		_ = conn.SetReadDeadline(t)
	} else {
		_ = conn.SetWriteDeadline(t)
	}
}
