package network

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"github.com/distributed-uniformity/dut/internal/core"
)

// RefereeServer is the referee's configuration and decision: it accepts
// k players' HELLOs and applies its core.Referee to their votes; the
// batch session (batch.go) runs the exchange. By default it is strict —
// all k votes are required, exactly the paper's model. WithMinVotes
// relaxes it to a quorum: the referee tolerates stragglers, crashed
// nodes and protocol violators, decides from the votes it has
// (absentees entering the decision per the configured
// core.AbsenteePolicy), and reports what happened in a RoundStats.
type RefereeServer struct {
	k        int
	decide   core.Referee
	timeout  time.Duration
	minVotes int
	policy   core.AbsenteePolicy
	bits     int
}

// RefereeOption customizes NewRefereeServer beyond the required
// arguments.
type RefereeOption func(*RefereeServer)

// WithMinVotes sets the quorum: a round succeeds once at least m valid
// votes arrive, with missing players treated per the absentee policy.
// m = k (the default) is strict mode, where any failure aborts the round.
func WithMinVotes(m int) RefereeOption {
	return func(s *RefereeServer) { s.minVotes = m }
}

// WithAbsentees sets how missing votes enter the decision in quorum mode;
// core.AbsenteeDefault (the default) defers to the decision rule's advice.
func WithAbsentees(p core.AbsenteePolicy) RefereeOption {
	return func(s *RefereeServer) { s.policy = p }
}

// WithMessageBits pins the message width r the referee's rule decides
// over: a HELLO announcing any other width is rejected by name instead
// of being discovered later as a width-violation on some vote. Zero
// (the default) accepts any legal width, preserving the behavior of
// directly constructed servers that never negotiate.
func WithMessageBits(r int) RefereeOption {
	return func(s *RefereeServer) { s.bits = r }
}

// NewRefereeServer builds the server. timeout bounds each connection's
// per-frame wait and, in quorum mode, the whole accept phase; zero means
// 10 seconds.
func NewRefereeServer(k int, decide core.Referee, timeout time.Duration, opts ...RefereeOption) (*RefereeServer, error) {
	if k <= 0 {
		return nil, fmt.Errorf("network: referee for %d players", k)
	}
	if decide == nil {
		return nil, fmt.Errorf("network: nil decision function")
	}
	if timeout < 0 {
		return nil, fmt.Errorf("network: negative timeout %v", timeout)
	}
	if timeout == 0 {
		timeout = 10 * time.Second
	}
	s := &RefereeServer{k: k, decide: decide, timeout: timeout, minVotes: k}
	for _, o := range opts {
		o(s)
	}
	if s.minVotes < 1 || s.minVotes > k {
		return nil, fmt.Errorf("network: quorum of %d votes for %d players", s.minVotes, k)
	}
	if !s.policy.Valid() {
		return nil, fmt.Errorf("network: unknown absentee policy %d", int(s.policy))
	}
	if s.bits < 0 || s.bits > 64 {
		return nil, fmt.Errorf("network: referee expecting %d message bits, want 1..64 (or 0 for any)", s.bits)
	}
	return s, nil
}

// strict reports whether all k votes are required (the seed semantics:
// any failure aborts the round).
func (s *RefereeServer) strict() bool { return s.minVotes >= s.k }

// RoundStats describes one referee round of a (possibly fault-tolerant)
// deployment: how many votes actually arrived, how many players
// straggled, how hard the nodes had to retry, and how long the round
// took. Cluster threads it back to callers of RunStats / RunManyStats.
type RoundStats struct {
	// Round is the 0-based round index within the session.
	Round int
	// Votes is the number of valid votes received.
	Votes int
	// Stragglers is k minus Votes: players absent, crashed, timed out or
	// rejected for protocol violations.
	Stragglers int
	// Retries is the total number of node-side dial/HELLO retry attempts.
	// It is filled in by Cluster (the referee cannot see retries); for
	// multi-round sessions the setup-phase retries are reported on the
	// first round's stats.
	Retries int
	// Wall is the wall-clock duration of the round; for the first round
	// of a session it includes the accept phase.
	Wall time.Duration
	// Verdict is the referee's decision for the round.
	Verdict bool
}

// playerSlot is the referee's per-connection state: the connection and
// what its HELLO announced. Failure state lives on the batch session's
// batchSlot.
type playerSlot struct {
	conn   net.Conn
	player uint32
	bits   uint8
}

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

// validateHello checks one player's announcement against the protocol
// rules: bits in [1,64] and matching the referee's negotiated width
// when one is pinned (WithMessageBits), id in [0,k), no duplicate ids.
func (s *RefereeServer) validateHello(h Hello, seen []bool) error {
	if h.Bits < 1 || h.Bits > 64 {
		return fmt.Errorf("network: player %d announced %d message bits", h.Player, h.Bits)
	}
	if s.bits != 0 && int(h.Bits) != s.bits {
		return fmt.Errorf("network: player %d announced %d-bit messages but the referee's rule decides over %d-bit messages",
			h.Player, h.Bits, s.bits)
	}
	if h.Player >= uint32(s.k) {
		return fmt.Errorf("network: player id %d out of range [0, %d)", h.Player, s.k)
	}
	if seen[h.Player] {
		return fmt.Errorf("network: duplicate player id %d", h.Player)
	}
	return nil
}

// acceptPlayers runs the accept/HELLO phase. In strict mode it blocks
// until all k players have registered (or the listener/context dies). In
// quorum mode the whole phase is bounded by an accept deadline of one
// timeout; once the deadline passes, the phase succeeds with at least
// minVotes players and fails otherwise. Connections with invalid HELLOs
// (bad bits, out-of-range or duplicate ids) abort the round in strict
// mode and are dropped in quorum mode.
func (s *RefereeServer) acceptPlayers(ctx context.Context, l net.Listener, tr *connTracker) ([]*playerSlot, error) {
	if !s.strict() {
		dl, ok := l.(acceptDeadliner)
		if !ok {
			return nil, fmt.Errorf("network: quorum mode needs a listener with accept deadlines (have %T)", l)
		}
		//lint:ignore dut/nondeterminism net deadlines need an absolute instant; bounds the accept wait, never the verdict
		_ = dl.SetDeadline(time.Now().Add(s.timeout))
		defer func() { _ = dl.SetDeadline(time.Time{}) }()
	}
	slots := make([]*playerSlot, 0, s.k)
	seen := make([]bool, s.k)
	for len(slots) < s.k {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		conn, err := l.Accept()
		if err != nil {
			if !s.strict() && errors.Is(err, os.ErrDeadlineExceeded) {
				if len(slots) >= s.minVotes {
					return slots, nil
				}
				return nil, fmt.Errorf("network: quorum not met: %d of %d players connected before the accept deadline, need %d",
					len(slots), s.k, s.minVotes)
			}
			return nil, fmt.Errorf("network: accept: %w", err)
		}
		tr.track(conn)
		setReadDeadline(conn, s.timeout)
		hello, err := expectFrame[Hello](conn, FrameHello)
		if err != nil {
			if s.strict() {
				return nil, fmt.Errorf("network: hello: %w", err)
			}
			_ = conn.Close()
			continue
		}
		if err := s.validateHello(hello, seen); err != nil {
			if s.strict() {
				return nil, err
			}
			_ = conn.Close()
			continue
		}
		seen[hello.Player] = true
		slots = append(slots, &playerSlot{conn: conn, player: hello.Player, bits: hello.Bits})
	}
	return slots, nil
}

// decideVotes checks the quorum and applies the decision function, with
// absent players entering per the resolved absentee policy. It returns
// the verdict and the number of votes received.
func (s *RefereeServer) decideVotes(votes []core.Message, got []bool) (bool, int, error) {
	received := 0
	for _, g := range got {
		if g {
			received++
		}
	}
	if received < s.minVotes {
		return false, received, fmt.Errorf("network: quorum not met: %d of %d votes, need %d", received, s.k, s.minVotes)
	}
	msgs := votes
	if received < s.k {
		switch core.ResolveAbsentee(s.policy, s.decide) {
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
	accept, err := s.decide.Decide(msgs)
	if err != nil {
		return false, received, fmt.Errorf("network: referee decision: %w", err)
	}
	return accept, received, nil
}
