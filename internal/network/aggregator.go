package network

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/distributed-uniformity/dut/internal/core"
)

// This file implements the sharded referee tree: with Topology.Shards
// s > 1 the flat star becomes a two-tier tree where each of s L1
// aggregators owns one shard of players, runs the same accept phase
// (acceptShard) and gather (gatherShard) the flat root runs over its one
// shard of all k players, reduces every gathered VOTE_BATCH locally with
// the flat root's reduction, and sends one reduced frame per batch
// upstream. For threshold- and sum-shaped referees the
// reduction is the bit-sliced partial sum itself (AGG_SUM carries the
// per-lane rejection/value counters, which compose across shards by
// lane-wise addition); for opaque referees the aggregator forwards its
// shard's packed planes in one AGG_PLANES frame, and the root scatters
// them back into the per-player delivery table so the per-trial
// decideVotes fallback is reached with exactly the flat referee's
// inputs. Quorum and absentee accounting compose per shard through the
// explicit present-counts every reduced frame carries: the root's
// received count is the sum of shard present-counts, and the shaped
// decide adjusts its threshold for the absentees exactly as
// decideVotes would have (see adjustedThreshold), so verdicts are
// bit-identical to the flat referee for every rule shape, shard count,
// batch size and presence pattern.

// dialAggregator uses per-aggregator dialing when the transport
// supports it, so fault-injecting transports can apply per-aggregator
// plans on the L1 -> root hop.
func dialAggregator(tr Transport, addr net.Addr, agg uint32) (net.Conn, error) {
	if ad, ok := tr.(AggregatorDialer); ok {
		return ad.DialAggregator(addr, agg)
	}
	return tr.Dial(addr)
}

// aggBatch is one pending reduction: the batch id and trial count the
// aggregator's reader observed on a ROUND_BATCH it relayed downstream.
type aggBatch struct {
	id    uint32
	count int
}

// aggBatchQueue is an unbounded FIFO of pending reductions feeding the
// aggregator's reduce loop, mirroring frameQueue's close semantics:
// pushes after close are dropped, pending items still drain. The oldest
// item sits at head; the slice compacts whenever it drains, so its
// backing array settles at the high-water mark.
type aggBatchQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []aggBatch
	head   int
	closed bool
	// work counts each pushed batch until the reduce loop has sent its
	// reduction upstream.
	work *workCount
}

func newAggBatchQueue() *aggBatchQueue {
	q := &aggBatchQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *aggBatchQueue) push(b aggBatch) {
	q.mu.Lock()
	if !q.closed {
		q.items = append(q.items, b)
		q.work.add(1)
	}
	q.mu.Unlock()
	q.cond.Signal()
}

// pop blocks until an item is pending or the queue is closed and empty.
func (q *aggBatchQueue) pop() (aggBatch, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head == len(q.items) && !q.closed {
		q.cond.Wait()
	}
	if q.head == len(q.items) {
		return aggBatch{}, false
	}
	b := q.items[q.head]
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return b, true
}

func (q *aggBatchQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// aggregator is one L1 node of the referee tree: it accepts its shard's
// players, relays the root's ROUND_BATCH / FINISH frames downstream and
// reduces each batch's votes into one upstream frame. Its reader and
// reducer run as separate goroutines so the next batch's relay is never
// blocked behind the previous batch's gather — the same pipelining the
// flat session gets from its writer queues.
type aggregator struct {
	bs       *batchSession
	id       uint32
	members  []uint32 // ascending player ids, from Topology.Partition
	listener net.Listener

	root  net.Conn
	slots []*batchSlot // by shard position; nil = absent (quorum mode)

	pending    *aggBatchQueue
	readerDone chan struct{}
	done       chan struct{}

	// Reduce scratch, reused per batch so the hot path stays at zero
	// allocations: deliv holds delivered plane sets by shard position,
	// col the bit-sliced per-word counters, sums the encoded partial
	// sums, mask/fwd the AGG_PLANES membership mask and forwarded
	// planes. enc backs the upstream frame encode, relay the downstream
	// re-encode of root frames.
	deliv [][]uint64
	col   []uint64
	sums  []uint64
	mask  []uint64
	fwd   []uint64
	enc   []byte
	relay []byte
}

func newAggregator(bs *batchSession, id uint32, members []uint32, l net.Listener) *aggregator {
	pending := newAggBatchQueue()
	pending.work = bs.work
	return &aggregator{
		bs:         bs,
		id:         id,
		members:    members,
		listener:   l,
		pending:    pending,
		readerDone: make(chan struct{}),
		done:       make(chan struct{}),
		deliv:      make([][]uint64, len(members)),
		col:        make([]uint64, len(bs.planes)),
		mask:       make([]uint64, aggMaskWords(len(members))),
	}
}

// runAggregator is the aggregator goroutine: member accept, root
// connect, then reader (downstream relay) and reducer (upstream
// reduction) until FINISH or failure. a.done is closed on exit, which
// is what Close waits on.
func (bs *batchSession) runAggregator(ctx context.Context, a *aggregator, rootAddr net.Addr) {
	defer close(a.done)
	if err := a.setup(ctx, rootAddr); err != nil {
		bs.failAgg(err)
		a.closeMembers()
		return
	}
	//lint:ignore dut/ctxprop the reader blocks in deadline-bounded root reads; cancellation reaches it when session teardown closes the root conn and the next read errors out
	go a.readRoot()
	a.reduceLoop()
	<-a.readerDone
	a.closeMembers()
	_ = a.root.Close()
}

// setup runs the aggregator's connect phase: accept the shard's
// players, start their writers, then dial the root and announce the
// shard with AGG_HELLO. In quorum mode a partial shard is not an error
// here: the root checks the global quorum against the summed
// present-counts.
func (a *aggregator) setup(ctx context.Context, rootAddr net.Addr) error {
	slots, present, err := a.bs.acceptShard(ctx, a.listener, a.members, fmt.Sprintf("aggregator %d", a.id))
	if err != nil {
		return err
	}
	a.slots = slots
	a.bs.startWriters(slots)
	return a.connectRoot(rootAddr, uint32(present))
}

// connectRoot dials the root with the node-style retry/backoff policy
// and announces the shard. Retries are accounted like node connect
// retries, onto the next reported trial's stats.
//
//dut:coldpath once-per-session upstream dial with retry/backoff
func (a *aggregator) connectRoot(addr net.Addr, present uint32) error {
	c := a.bs.c
	backoff := c.backoff
	var lastErr error
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		conn, err := dialAggregator(c.tr, addr, a.id)
		if err != nil {
			lastErr = fmt.Errorf("network: aggregator %d dial: %w", a.id, err)
			continue
		}
		a.bs.tracker.track(conn)
		hello, err := AppendAggHello(nil, AggHello{Agg: a.id, Bits: uint8(a.bs.msgBits), Present: present, Members: a.members})
		if err == nil {
			setWriteDeadline(conn, c.timeout)
			err = writeCoalesced(conn, hello)
		}
		if err != nil {
			_ = conn.Close()
			lastErr = fmt.Errorf("network: aggregator %d hello: %w", a.id, err)
			continue
		}
		a.bs.addRetries(attempt)
		a.root = conn
		return nil
	}
	a.bs.addRetries(c.retries)
	return fmt.Errorf("network: aggregator %d connect failed after %d attempt(s): %w", a.id, c.retries+1, lastErr)
}

// readRoot relays the root's frames downstream. Every relayed
// ROUND_BATCH also queues a reduction descriptor for the reduce loop,
// so relaying batch n+1 never waits on gathering batch n. The pending
// queue is closed on exit (FINISH or failure), which is what ends the
// reduce loop.
//
//dut:hotpath per-batch downstream relay loop
func (a *aggregator) readRoot() {
	defer close(a.readerDone)
	defer a.pending.close()
	bs := a.bs
	for first := true; ; first = false {
		// A root frame can lag a whole accept or decide phase; budget it
		// like every other read from the tier above (readBudget).
		setReadDeadline(a.root, readBudget(bs.c.timeout, first))
		kind, msg, err := ReadFrame(a.root)
		if err != nil {
			a.fail(fmt.Errorf("network: aggregator %d read: %w", a.id, err))
			return
		}
		switch m := msg.(type) {
		case RoundBatch:
			relay, err := AppendRoundBatch(a.relay[:0], m)
			a.relay = relay
			if err != nil {
				a.fail(fmt.Errorf("network: aggregator %d relay: %w", a.id, err))
				return
			}
			broadcast(a.slots, relay)
			a.pending.push(aggBatch{id: m.Batch, count: int(m.Count)})
		case Finish:
			a.relay = AppendFinish(a.relay[:0])
			broadcast(a.slots, a.relay)
			a.closeQueues()
			return
		default:
			a.fail(fmt.Errorf("network: aggregator %d got unexpected %v from the root", a.id, kind))
			return
		}
	}
}

func (a *aggregator) closeQueues() {
	for _, slot := range a.slots {
		if slot == nil {
			continue
		}
		slot.q.close()
	}
}

// reduceLoop drains pending reductions in FIFO order until the reader
// closes the queue.
//
//dut:hotpath per-batch reduce driver
func (a *aggregator) reduceLoop() {
	for {
		b, ok := a.pending.pop()
		if !ok {
			return
		}
		a.runBatch(b)
		a.pending.work.done(1)
	}
}

// runBatch gathers one batch from the shard and sends the reduced frame
// upstream: bit-sliced partial sums (AGG_SUM) when the referee is
// threshold- or sum-shaped, the packed planes with a membership mask
// (AGG_PLANES) otherwise. Both encodes reuse the aggregator's scratch,
// so a settled session reduces at zero allocations per batch.
func (a *aggregator) runBatch(b aggBatch) {
	bs := a.bs
	words := batchWords(b.count)
	received := bs.gatherShard(a.slots, a.deliv, b.id, b.count)
	var err error
	if bs.shapeOK || bs.sumOK {
		planes := len(bs.planes)
		need := planes * words
		if cap(a.sums) < need {
			a.sums = make([]uint64, need)
		}
		sums := a.sums[:need]
		bs.reduceShard(a.deliv, b.count, a.col, sums)
		a.enc, err = AppendAggSum(a.enc[:0], AggSum{
			Agg: a.id, Batch: b.id, Count: uint32(b.count),
			Bits: uint8(bs.msgBits), Planes: uint8(planes),
			Present: uint32(received), Sums: sums,
		})
	} else {
		clear(a.mask)
		a.fwd = a.fwd[:0]
		stride := bs.msgBits * words
		for pos, d := range a.deliv {
			if d == nil {
				continue
			}
			a.mask[pos/64] |= 1 << (pos % 64)
			a.fwd = append(a.fwd, d[:stride]...)
		}
		a.enc, err = AppendAggPlanes(a.enc[:0], AggPlanes{
			Agg: a.id, Batch: b.id, Count: uint32(b.count), Bits: uint8(bs.msgBits),
			Members: uint32(len(a.members)), Present: uint32(received),
			Mask: a.mask, Planes: a.fwd,
		})
	}
	if err != nil {
		a.fail(fmt.Errorf("network: aggregator %d reduce batch %d: %w", a.id, b.id, err))
		return
	}
	setWriteDeadline(a.root, bs.c.timeout)
	if err := writeCoalesced(a.root, a.enc); err != nil {
		//lint:ignore dut/hotalloc failure path: fail tears the session down, so the error allocation is the last thing this batch does
		a.fail(fmt.Errorf("network: aggregator %d reduced batch %d upstream: %w", a.id, b.id, err))
	}
}

// fail records the aggregator's own failure and closes the upstream
// connection, so the root's gather observes the loss promptly instead
// of waiting out its deadline.
func (a *aggregator) fail(err error) {
	if a.root != nil {
		_ = a.root.Close()
	}
	a.bs.failAgg(err)
}

// closeMembers finishes the shard: queues close (pending frames still
// drain), writers exit, connections close.
func (a *aggregator) closeMembers() {
	a.closeQueues()
	for _, slot := range a.slots {
		if slot == nil {
			continue
		}
		<-slot.writerDone
		_ = slot.conn.Close()
	}
}

// reduceShard reduces one shard's delivered votes (deliv by shard
// position, nil = absent) into the batch's bit-sliced counters with the
// reduction that fits the referee's shape: rejection counts for a
// threshold shape, value sums for a sum shape. An aggregator reduces its
// members this way, the flat star all k players.
func (bs *batchSession) reduceShard(deliv [][]uint64, count int, col, sums []uint64) {
	if bs.shapeOK {
		reduceThresholdSums(deliv, count, batchWords(count), col, sums)
	} else {
		reduceValueSums(deliv, bs.msgBits, batchWords(count), col, sums)
	}
}

// reduceThresholdSums accumulates the shard's per-lane rejection counts
// into bit-sliced counter planes: for each trial word, every present
// member's inverted vote word (1 = rejection) is ripple-carry added
// into col, and the columns land in sums plane-major (sums[p*words+w]
// is bit p of every lane in word w). The inversion is masked on the
// final word so padding lanes stay zero, as AGG_SUM's validation
// demands of counters that travel the wire.
//
//dut:hotpath
func reduceThresholdSums(deliv [][]uint64, count, words int, col, sums []uint64) {
	clear(sums)
	rem := count % 64
	for w := 0; w < words; w++ {
		for i := range col {
			col[i] = 0
		}
		for _, d := range deliv {
			if d == nil {
				continue
			}
			carry := ^d[w]
			if w == words-1 && rem != 0 {
				carry &= 1<<rem - 1
			}
			for i := 0; i < len(col) && carry != 0; i++ {
				next := col[i] & carry
				col[i] ^= carry
				carry = next
			}
		}
		for p := range col {
			sums[p*words+w] = col[p]
		}
	}
}

// reduceValueSums is reduceThresholdSums for r-bit sum-shaped referees:
// message plane b adds 2^b per set lane, so the ripple starts at
// counter plane b. Value planes are wire-validated to have zero
// padding, so no masking is needed.
//
//dut:hotpath
func reduceValueSums(deliv [][]uint64, msgBits, words int, col, sums []uint64) {
	clear(sums)
	for w := 0; w < words; w++ {
		for i := range col {
			col[i] = 0
		}
		for _, d := range deliv {
			if d == nil {
				continue
			}
			for b := 0; b < msgBits; b++ {
				carry := d[b*words+w]
				for i := b; i < len(col) && carry != 0; i++ {
					next := col[i] & carry
					col[i] ^= carry
					carry = next
				}
			}
		}
		for p := range col {
			sums[p*words+w] = col[p]
		}
	}
}

// combineShardSums adds one shard's bit-sliced partial sums into the
// accumulator, lane-wise: a full adder per counter plane per word. It
// reports overflow past the top plane, which legitimate totals cannot
// produce (the planes are sized for all k players), so a true result
// means a hostile or corrupted counter.
//
//dut:hotpath
func combineShardSums(acc, shard []uint64, planes, words int) bool {
	var overflow uint64
	for w := 0; w < words; w++ {
		var carry uint64
		for p := 0; p < planes; p++ {
			i := p*words + w
			a, b := acc[i], shard[i]
			acc[i] = a ^ b ^ carry
			carry = a&b | carry&(a^b)
		}
		overflow |= carry
	}
	return overflow != 0
}

// failAgg records an aggregator failure; in strict mode it also tears
// the session down, like failNode.
func (bs *batchSession) failAgg(err error) {
	bs.mu.Lock()
	if bs.aggErr == nil {
		bs.aggErr = err
	}
	bs.mu.Unlock()
	bs.work.poke()
	if !bs.c.tolerant() {
		bs.cancel()
	}
}

func (bs *batchSession) peekAggErr() error {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	return bs.aggErr
}

// sharded reports whether this session runs the two-tier tree.
func (bs *batchSession) sharded() bool { return bs.aggs != nil }

// startSharded builds the aggregator tier: partition the players,
// spawn one aggregator goroutine per shard (each with its own
// listener), point every node at its shard's aggregator, and run the
// root's AGG_HELLO accept phase.
//
//dut:coldpath once-per-session tree construction; shard planning, aggregator spawn and member dialing are amortized across every batch
func (bs *batchSession) startSharded(ctx context.Context) error {
	c := bs.c
	bs.shards = c.topo.Partition(c.k)
	nShards := len(bs.shards)
	bs.shardSums = make([][]uint64, nShards)
	bs.shardPresent = make([]uint32, nShards)
	bs.shardGot = make([]bool, nShards)

	addrByPlayer := make([]net.Addr, c.k)
	bs.aggs = make([]*aggregator, nShards)
	listeners := make([]net.Listener, nShards)
	bs.aggListeners = listeners
	go func() {
		<-ctx.Done()
		for _, l := range listeners {
			if l != nil {
				_ = l.Close()
			}
		}
	}()
	for i, members := range bs.shards {
		l, err := c.tr.Listen()
		if err != nil {
			return fmt.Errorf("network: aggregator %d listen: %w", i, err)
		}
		listeners[i] = l
		bs.aggs[i] = newAggregator(bs, uint32(i), members, l)
		for _, p := range members {
			addrByPlayer[p] = l.Addr()
		}
	}
	for _, a := range bs.aggs {
		go bs.runAggregator(ctx, a, bs.listener.Addr())
	}
	for _, node := range bs.nodes {
		bs.spawnNode(node, addrByPlayer[node.id])
	}
	return bs.acceptAggregators(ctx)
}

// acceptAggregators is the root's accept phase on the sharded tree:
// every shard's AGG_HELLO in strict mode, or whoever made it before the
// deadline in quorum mode, filed in bs.slots by aggregator id. The
// quorum is checked against the summed per-shard present-counts, because
// one aggregator speaks for a whole shard of players. The deadline is
// two timeouts: a quorum aggregator holds its own accept phase open for
// one timeout waiting out stragglers before it dials upstream.
func (bs *batchSession) acceptAggregators(ctx context.Context) error {
	bs.slots = make([]*batchSlot, len(bs.shards))
	present := 0
	_, err := acceptPhase(ctx, bs.listener, bs.tracker, len(bs.shards), bs.c.acceptWait(2), func(conn net.Conn) error {
		setReadDeadline(conn, bs.c.timeout)
		hello, err := expectFrame[AggHello](conn, FrameAggHello)
		if err != nil {
			return fmt.Errorf("network: aggregator hello: %w", err)
		}
		if err := bs.validateAggHello(hello); err != nil {
			return err
		}
		bs.slots[hello.Agg] = newBatchSlot(conn, hello.Agg, hello.Bits, bs.work)
		present += int(hello.Present)
		return nil
	})
	if err != nil {
		return err
	}
	return bs.checkQuorum(present)
}

// validateAggHello checks one aggregator's announcement: a known,
// unduplicated shard id, the pinned message width, and membership that
// agrees exactly with the deterministic router — the root never trusts
// a shard map it did not compute itself.
func (bs *batchSession) validateAggHello(h AggHello) error {
	if int(h.Agg) >= len(bs.shards) {
		return fmt.Errorf("network: aggregator id %d out of range [0, %d)", h.Agg, len(bs.shards))
	}
	if bs.slots[h.Agg] != nil {
		return fmt.Errorf("network: duplicate aggregator id %d", h.Agg)
	}
	if int(h.Bits) != bs.msgBits {
		return fmt.Errorf("network: aggregator %d announced %d-bit messages but the referee's rule decides over %d-bit messages",
			h.Agg, h.Bits, bs.msgBits)
	}
	want := bs.shards[h.Agg]
	if len(h.Members) != len(want) {
		return fmt.Errorf("network: aggregator %d announced %d members, the router assigns it %d", h.Agg, len(h.Members), len(want))
	}
	for i := range want {
		if h.Members[i] != want[i] {
			return fmt.Errorf("network: aggregator %d announced member %d at position %d, the router assigns %d",
				h.Agg, h.Members[i], i, want[i])
		}
	}
	if int(h.Present) > len(want) {
		return fmt.Errorf("network: aggregator %d reports %d present of %d members", h.Agg, h.Present, len(want))
	}
	return nil
}

// gatherShards collects one batch's reduced frames from every live
// aggregator concurrently, the tree counterpart of gatherShard. Shaped
// referees land partial sums in shardSums; opaque referees scatter
// the forwarded planes back into bs.deliv by player id, so the
// per-trial fallback sees exactly the flat gather's delivery table.
// It returns the number of player votes the tree received, summed
// from the per-shard present-counts.
func (bs *batchSession) gatherShards(batchID uint32, count int) int {
	for i := range bs.deliv {
		bs.deliv[i] = nil
	}
	for i := range bs.shardGot {
		bs.shardGot[i] = false
		bs.shardSums[i] = nil
		bs.shardPresent[i] = 0
	}
	shaped := bs.shapeOK || bs.sumOK
	words := batchWords(count)
	var wg sync.WaitGroup
	for _, slot := range bs.slots {
		if slot == nil || slot.isDead() {
			continue
		}
		wg.Add(1)
		//lint:ignore dut/hotalloc one reader goroutine per live member per batch, amortized across the batch's trials
		go func(slot *batchSlot) {
			defer wg.Done()
			conn := slot.conn
			agg := slot.player
			// The reduced frame waits on the aggregator's own member gather
			// (itself budgeted two timeouts) plus the reduction; budget three.
			setReadDeadline(conn, 3*bs.c.timeout)
			if shaped {
				v, err := expectFrame[AggSum](conn, FrameAggSum)
				if err != nil {
					bs.failSlot(slot, fmt.Errorf("network: reduced batch from aggregator %d: %w", agg, err))
					return
				}
				if v.Agg != agg {
					bs.failSlot(slot, fmt.Errorf("network: reduced batch claims aggregator %d on aggregator %d's connection", v.Agg, agg))
					return
				}
				if v.Batch != batchID {
					bs.failSlot(slot, fmt.Errorf("network: aggregator %d answered batch %d, expected %d", agg, v.Batch, batchID))
					return
				}
				if int(v.Count) != count {
					bs.failSlot(slot, fmt.Errorf("network: aggregator %d reduced %d trials of batch %d, expected %d", agg, v.Count, v.Batch, count))
					return
				}
				if int(v.Bits) != bs.msgBits {
					bs.failSlot(slot, fmt.Errorf("network: aggregator %d sent %d-bit sums, the rule uses %d bits", agg, v.Bits, bs.msgBits))
					return
				}
				if int(v.Planes) != len(bs.planes) {
					bs.failSlot(slot, fmt.Errorf("network: aggregator %d sent %d counter planes, the referee needs %d", agg, v.Planes, len(bs.planes)))
					return
				}
				if int(v.Present) > len(bs.shards[agg]) {
					bs.failSlot(slot, fmt.Errorf("network: aggregator %d reports %d present of %d members", agg, v.Present, len(bs.shards[agg])))
					return
				}
				bs.shardSums[agg] = v.Sums
				bs.shardPresent[agg] = v.Present
				bs.shardGot[agg] = true
			} else {
				v, err := expectFrame[AggPlanes](conn, FrameAggPlanes)
				if err != nil {
					bs.failSlot(slot, fmt.Errorf("network: forwarded batch from aggregator %d: %w", agg, err))
					return
				}
				if v.Agg != agg {
					bs.failSlot(slot, fmt.Errorf("network: forwarded batch claims aggregator %d on aggregator %d's connection", v.Agg, agg))
					return
				}
				if v.Batch != batchID {
					bs.failSlot(slot, fmt.Errorf("network: aggregator %d answered batch %d, expected %d", agg, v.Batch, batchID))
					return
				}
				if int(v.Count) != count {
					bs.failSlot(slot, fmt.Errorf("network: aggregator %d forwarded %d trials of batch %d, expected %d", agg, v.Count, v.Batch, count))
					return
				}
				if int(v.Bits) != bs.msgBits {
					bs.failSlot(slot, fmt.Errorf("network: aggregator %d sent %d-bit planes, the rule uses %d bits", agg, v.Bits, bs.msgBits))
					return
				}
				members := bs.shards[agg]
				if int(v.Members) != len(members) {
					bs.failSlot(slot, fmt.Errorf("network: aggregator %d forwarded %d members, the router assigns it %d", agg, v.Members, len(members)))
					return
				}
				stride := bs.msgBits * words
				mi := 0
				for pos, player := range members {
					if v.Mask[pos/64]>>(pos%64)&1 == 1 {
						bs.deliv[player] = v.Planes[mi*stride : (mi+1)*stride]
						mi++
					}
				}
				bs.shardPresent[agg] = v.Present
				bs.shardGot[agg] = true
			}
		}(slot)
	}
	wg.Wait()
	received := 0
	for i := range bs.shardGot {
		if bs.shardGot[i] {
			received += int(bs.shardPresent[i])
		}
	}
	return received
}

// decideCounters evaluates a gathered shaped batch word-parallel. It
// builds the batch's per-lane rejection or value counters — on the tree
// by combining every shard's partial sums lane-wise, on the flat star by
// reducing the delivered votes exactly as an aggregator reduces its
// shard — checks the quorum, then compares each lane's total against the
// presence-adjusted threshold.
//
//dut:hotpath
func (bs *batchSession) decideCounters(count, received int, verdictBits []uint64) error {
	words := batchWords(count)
	planes := len(bs.planes)
	need := planes * words
	if cap(bs.sums) < need {
		bs.sums = make([]uint64, need)
	}
	acc := bs.sums[:need]
	if bs.sharded() {
		clear(acc)
		for i := range bs.shardGot {
			if !bs.shardGot[i] {
				continue
			}
			if combineShardSums(acc, bs.shardSums[i], planes, words) {
				return fmt.Errorf("network: aggregator %d overflowed the referee's batch counters", i)
			}
		}
	} else {
		bs.reduceShard(bs.deliv, count, bs.planes, acc)
	}
	if received < bs.c.minVotes {
		return fmt.Errorf("network: quorum not met: %d of %d votes, need %d", received, bs.c.k, bs.c.minVotes)
	}
	t, err := bs.adjustedThreshold(received)
	if err != nil {
		return err
	}
	col := bs.planes
	for w := 0; w < words; w++ {
		for p := 0; p < planes; p++ {
			col[p] = acc[p*words+w]
		}
		verdictBits[w] = ^atLeast(col, t)
	}
	if rem := count % 64; rem != 0 {
		verdictBits[words-1] &= 1<<rem - 1
	}
	return nil
}

// adjustedThreshold maps the batch's presence onto the rejection- or
// sum-threshold decideVotes would effectively apply with received of k
// votes in. Absent players enter the flat decision
// per the resolved absentee policy: Omit re-shapes the rule at the
// smaller count (exact for every stock threshold rule — AND stays 1,
// OR and Majority follow the count, fixed thresholds stay fixed);
// Accept contributes zero rejections (zero value), leaving the
// threshold alone for sums and — because the counters only ever count
// real votes — for thresholds too; Reject contributes one
// rejection (value zero) per absentee, so the remaining votes need
// that many fewer rejections.
func (bs *batchSession) adjustedThreshold(received int) (int, error) {
	k := bs.c.k
	if bs.shapeOK {
		if received == k {
			return bs.shapeT, nil
		}
		switch core.ResolveAbsentee(bs.c.absentees, bs.c.referee) {
		case core.AbsenteeOmit:
			t, ok := core.ThresholdShape(bs.c.referee, received)
			if !ok {
				return 0, fmt.Errorf("network: referee lost its threshold shape at %d votes", received)
			}
			return t, nil
		case core.AbsenteeAccept:
			return bs.shapeT, nil
		default: // core.AbsenteeReject: each absentee is one rejection already counted for.
			return bs.shapeT - (k - received), nil
		}
	}
	if received == k {
		return bs.sumT, nil
	}
	if core.ResolveAbsentee(bs.c.absentees, bs.c.referee) == core.AbsenteeAccept {
		// core.Accept is message value 1, so each absentee adds one to the
		// flat sum; the tree's counters hold only real votes.
		return bs.sumT - (k - received), nil
	}
	// Omit and Reject both contribute value zero to the sum.
	return bs.sumT, nil
}
