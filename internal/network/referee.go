package network

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"slices"
	"sync"
	"time"

	"github.com/distributed-uniformity/dut/internal/core"
)

// connTracker collects accepted connections so that they are all closed
// when the round/session ends and force-closed when the context dies.
type connTracker struct {
	mu    sync.Mutex
	conns []net.Conn
}

func (t *connTracker) track(c net.Conn) {
	t.mu.Lock()
	t.conns = append(t.conns, c)
	t.mu.Unlock()
}

func (t *connTracker) closeAll() {
	t.mu.Lock()
	for _, c := range t.conns {
		_ = c.Close()
	}
	t.mu.Unlock()
}

// watch force-closes all tracked connections when ctx dies; the returned
// stop function must be deferred.
func (t *connTracker) watch(ctx context.Context) (stop func()) {
	done := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			t.closeAll()
		case <-done:
		}
	}()
	return func() { close(done) }
}

// acceptPhase is every tier's accept loop: it accepts connections on l
// until want of them have registered. register reads and validates one
// connection's handshake and files its slot. With wait zero the tier is
// strict: the phase blocks until everyone is in, and a failed accept or
// handshake aborts it. With wait > 0 the tier runs in quorum mode: an
// accept deadline wait from now bounds the phase, a failed handshake
// drops its connection, and the phase ends at the deadline with whoever
// registered; the caller checks its own quorum. It returns the number of
// connections registered.
func acceptPhase(ctx context.Context, l net.Listener, tracker *connTracker, want int, wait time.Duration, register func(net.Conn) error) (int, error) {
	if wait > 0 {
		dl, ok := l.(acceptDeadliner)
		if !ok {
			return 0, fmt.Errorf("network: quorum mode needs a listener with accept deadlines (have %T)", l)
		}
		//lint:ignore dut/nondeterminism net deadlines need an absolute instant; bounds the accept wait, never the verdict
		_ = dl.SetDeadline(time.Now().Add(wait))
		defer func() { _ = dl.SetDeadline(time.Time{}) }()
	}
	registered := 0
	for registered < want {
		if err := ctx.Err(); err != nil {
			return registered, err
		}
		conn, err := l.Accept()
		if err != nil {
			if wait > 0 && errors.Is(err, os.ErrDeadlineExceeded) {
				return registered, nil
			}
			return registered, fmt.Errorf("network: accept: %w", err)
		}
		tracker.track(conn)
		if err := register(conn); err != nil {
			if wait == 0 {
				return registered, err
			}
			_ = conn.Close()
			continue
		}
		registered++
	}
	return registered, nil
}

// acceptWait is the accept deadline of a tier that waits n timeouts for
// its connections: zero in strict mode, where acceptPhase waits for all.
func (c *Cluster) acceptWait(n int) time.Duration {
	if !c.tolerant() {
		return 0
	}
	return time.Duration(n) * c.timeout
}

// acceptShard runs a player tier's accept phase — the flat root's over
// all k players, or an aggregator's over its shard — and files each
// valid HELLO's slot at the player's position in members, the tier's
// ascending player ids; an absent player's slot stays nil. owner names
// the tier in errors. It returns the slots and how many players
// registered.
func (bs *batchSession) acceptShard(ctx context.Context, l net.Listener, members []uint32, owner string) ([]*batchSlot, int, error) {
	slots := make([]*batchSlot, len(members))
	present, err := acceptPhase(ctx, l, bs.tracker, len(members), bs.c.acceptWait(1), func(conn net.Conn) error {
		setReadDeadline(conn, bs.c.timeout)
		hello, err := expectFrame[Hello](conn, FrameHello)
		if err != nil {
			return fmt.Errorf("network: %s hello: %w", owner, err)
		}
		pos, err := bs.validateHello(hello, members, slots, owner)
		if err != nil {
			return err
		}
		slots[pos] = newBatchSlot(conn, hello.Player, hello.Bits, bs.work)
		return nil
	})
	return slots, present, err
}

// validateHello checks one player's announcement against the protocol
// rules — bits in [1,64] and matching the rule's width, an id the tier
// owns, not yet registered — and returns the player's position in
// members.
func (bs *batchSession) validateHello(h Hello, members []uint32, slots []*batchSlot, owner string) (int, error) {
	if h.Bits < 1 || h.Bits > 64 {
		return 0, fmt.Errorf("network: player %d announced %d message bits", h.Player, h.Bits)
	}
	if int(h.Bits) != bs.msgBits {
		return 0, fmt.Errorf("network: player %d announced %d-bit messages but the referee's rule decides over %d-bit messages",
			h.Player, h.Bits, bs.msgBits)
	}
	pos, ok := slices.BinarySearch(members, h.Player)
	if !ok {
		return 0, fmt.Errorf("network: player id %d out of range: %s does not own it", h.Player, owner)
	}
	if slots[pos] != nil {
		return 0, fmt.Errorf("network: duplicate player id %d", h.Player)
	}
	return pos, nil
}

// checkQuorum fails a session whose accept phase ended with fewer than
// MinVotes players connected: it could not decide a single trial.
func (bs *batchSession) checkQuorum(present int) error {
	if present < bs.c.minVotes {
		return fmt.Errorf("network: quorum not met: %d of %d players connected before the accept deadline, need %d",
			present, bs.c.k, bs.c.minVotes)
	}
	return nil
}

// decideVotes is the referee's decision on one trial's vote slate, the
// paper's f(m_1..m_k): it checks the quorum and applies the decision
// function, with absent players entering per the resolved absentee
// policy. It returns the verdict and the number of votes received.
// Opaque referees decide every trial through it; it is also the
// reference the word-parallel counter decide is tested against.
func (c *Cluster) decideVotes(votes []core.Message, got []bool) (bool, int, error) {
	received := 0
	for _, g := range got {
		if g {
			received++
		}
	}
	if received < c.minVotes {
		return false, received, fmt.Errorf("network: quorum not met: %d of %d votes, need %d", received, c.k, c.minVotes)
	}
	msgs := votes
	if received < c.k {
		switch core.ResolveAbsentee(c.absentees, c.referee) {
		case core.AbsenteeOmit:
			msgs = make([]core.Message, 0, received)
			for i, g := range got {
				if g {
					msgs = append(msgs, votes[i])
				}
			}
		case core.AbsenteeAccept:
			//lint:ignore dut/hotalloc degraded-quorum branch (received < k); the steady received==k path above is allocation-free, and the copy is deliberate so the caller's votes stay unmutated
			msgs = append([]core.Message(nil), votes...)
			for i, g := range got {
				if !g {
					msgs[i] = core.Accept
				}
			}
		default: // core.AbsenteeReject
			//lint:ignore dut/hotalloc degraded-quorum branch (received < k); the steady received==k path above is allocation-free, and the copy is deliberate so the caller's votes stay unmutated
			msgs = append([]core.Message(nil), votes...)
			for i, g := range got {
				if !g {
					msgs[i] = core.Reject
				}
			}
		}
	}
	accept, err := c.referee.Decide(msgs)
	if err != nil {
		return false, received, fmt.Errorf("network: referee decision: %w", err)
	}
	return accept, received, nil
}
