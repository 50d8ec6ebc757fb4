package congest

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
)

// MessageBits is the CONGEST bandwidth cap per edge per round. The classic
// model allows O(log n) bits; 64 accommodates every protocol here while
// still catching accidental flooding (the simulator enforces that payloads
// fit).
const MessageBits = 64

// Payload is one edge-message: a value of at most MessageBits significant
// bits.
type Payload uint64

// fitsBits reports whether p uses at most b significant bits.
func (p Payload) fitsBits(b int) bool {
	return bits.Len64(uint64(p)) <= b
}

// ErrStalled is the error Run returns when nodes are still live but none
// is due to step: no message is in flight and no node asked to be woken,
// so no later round could change anything.
var ErrStalled = errors.New("congest: stalled")

// Outbox collects a node's messages for the current round. Slots are
// indexed by the neighbor's position in the node's ascending-sorted
// neighbor list — flat slices instead of a per-round map, so a round of
// sends touches no allocator and no hashing.
type Outbox struct {
	node      int
	neighbors []int // ascending neighbor ids
	msgs      []Payload
	has       []bool
	wake      bool // StayAwake was called this step
}

// Send queues a message to a neighbor; sending twice to the same neighbor
// in one round, to a non-neighbor, or over the bandwidth cap is an error
// (the simulator is strict so protocol bugs surface as failures, not as
// silently cheaty behavior).
func (o *Outbox) Send(to int, p Payload) error {
	pos, ok := slices.BinarySearch(o.neighbors, to)
	if !ok {
		return fmt.Errorf("congest: node %d sending to non-neighbor %d", o.node, to)
	}
	if o.has[pos] {
		return fmt.Errorf("congest: node %d sending twice to %d in one round", o.node, to)
	}
	if !p.fitsBits(MessageBits) {
		return fmt.Errorf("congest: message exceeds %d bits", MessageBits)
	}
	o.msgs[pos], o.has[pos] = p, true
	return nil
}

// Queued reports whether a message to the given neighbor is already
// queued this round, letting programs postpone lower-priority traffic
// instead of violating the one-message-per-edge-per-round rule.
func (o *Outbox) Queued(to int) bool {
	pos, ok := slices.BinarySearch(o.neighbors, to)
	return ok && o.has[pos]
}

// StayAwake asks for the node to be stepped in the next round even if no
// message arrives for it (see NodeProgram).
func (o *Outbox) StayAwake() { o.wake = true }

// Inbox is the set of messages a node received last round, indexed by the
// sender's position in the node's ascending-sorted neighbor list.
type Inbox struct {
	msgs []Payload
	has  []bool
}

// Get returns the message from the neighbor at the given position in the
// node's sorted neighbor list, and whether one arrived this round.
func (in Inbox) Get(pos int) (Payload, bool) {
	if !in.has[pos] {
		return 0, false
	}
	return in.msgs[pos], true
}

// NodeProgram is a synchronous-round state machine. Step is called with
// the messages received at the start of the round; it queues this round's
// messages on the outbox and returns true when the node has terminated
// (a terminated node keeps receiving but never steps again).
//
// Rounds are event-driven. Round 0 steps every node. After that a live
// node steps only in a round where it has mail, or when its previous step
// called out.StayAwake(); nodes due in the same round step in ascending id
// order. So a step with an empty inbox happens only when asked for: a
// program whose next step would send or change state without new mail
// must call StayAwake, and one that never does is stepped once and then
// only on mail.
type NodeProgram interface {
	Step(round int, in Inbox, out *Outbox) (done bool, err error)
}

// Simulator drives a set of node programs over a graph in synchronous,
// event-driven rounds (see NodeProgram). Its round buffers — inboxes,
// outboxes, step sets and termination flags — are sized at construction,
// carved from flat slices indexed by edge slot (see topology) and cleared
// per Run, so a rerun loop (the engine's batch scratch path) executes
// allocation-free.
type Simulator struct {
	top      *topology
	programs []NodeProgram
	// Stats of the last Run.
	rounds        int
	messagesSent  int
	maxBitsInAMsg int
	// Round buffers. The two inbox generations swap every round: round r
	// reads generation r%2, and the messages its steps send are delivered
	// into the other. awake[g] holds one bit per node, set for the live
	// nodes that step in the round reading generation g; a node's inbox
	// is cleared right after it steps, and a terminated node's inbox is
	// never read again. flags backs every has flag and words every awake
	// bit, so Run clears them in two calls. An Inbox or Outbox handed to
	// Step is only valid for that call.
	done    []bool
	inboxes [2][]Inbox
	outs    []Outbox
	awake   [2][]uint64
	flags   []bool
	words   []uint64
}

// NewSimulator validates that there is exactly one program per node.
func NewSimulator(g *Graph, programs []NodeProgram) (*Simulator, error) {
	if g == nil {
		return nil, fmt.Errorf("congest: nil graph")
	}
	if len(programs) != g.N() {
		return nil, fmt.Errorf("congest: %d programs for %d nodes", len(programs), g.N())
	}
	for i, p := range programs {
		if p == nil {
			return nil, fmt.Errorf("congest: nil program at node %d", i)
		}
	}
	return newSimulator(newTopology(g), programs), nil
}

// newSimulator builds a simulator over a shared topology, one program per
// node, in a constant number of allocations: every node's inboxes and
// outbox are views into three flat per-slot generations of cells (inbox
// generations 0 and 1, then the outboxes).
func newSimulator(top *topology, programs []NodeProgram) *Simulator {
	n, slots, nw := top.n(), len(top.nbr), (top.n()+63)/64
	flags := make([]bool, 3*slots)
	msgs := make([]Payload, 3*slots)
	inboxes := make([]Inbox, 2*n)
	words := make([]uint64, 2*nw)
	s := &Simulator{
		top:      top,
		programs: programs,
		done:     make([]bool, n),
		inboxes:  [2][]Inbox{inboxes[:n:n], inboxes[n:]},
		outs:     make([]Outbox, n),
		awake:    [2][]uint64{words[:nw:nw], words[nw:]},
		flags:    flags,
		words:    words,
	}
	for u := 0; u < n; u++ {
		for g := range s.inboxes {
			base := g * slots
			s.inboxes[g][u] = Inbox{msgs: nodeSlots(top, msgs[base:], u), has: nodeSlots(top, flags[base:], u)}
		}
		base := 2 * slots
		s.outs[u] = Outbox{node: u, neighbors: nodeSlots(top, top.nbr, u),
			msgs: nodeSlots(top, msgs[base:], u), has: nodeSlots(top, flags[base:], u)}
	}
	return s
}

// Run executes rounds until every node has terminated. Round 0 steps
// every node; after that only the nodes with mail or a StayAwake request
// step (see NodeProgram). When no live node is due to step, Run returns
// ErrStalled after the current round; when nodes are still live after
// maxRounds, it returns an error too — a correct protocol terminates.
// Every Run starts from cleared buffers and zeroed statistics.
func (s *Simulator) Run(maxRounds int) error {
	if maxRounds <= 0 {
		return fmt.Errorf("congest: maxRounds %d", maxRounds)
	}
	s.rounds, s.messagesSent, s.maxBitsInAMsg = 0, 0, 0
	clear(s.done)
	clear(s.flags)
	clear(s.words)
	n := len(s.done)
	for u := 0; u < n; u++ {
		s.awake[0][u>>6] |= 1 << (u & 63)
	}
	remaining := n
	for round := 0; remaining > 0; round++ {
		if round >= maxRounds {
			return fmt.Errorf("congest: %d nodes still running after %d rounds", remaining, maxRounds)
		}
		s.rounds = round + 1
		inboxes, next := s.inboxes[round&1], s.inboxes[(round+1)&1]
		awake, wakeNext := s.awake[round&1], s.awake[(round+1)&1]
		for w, word := range awake {
			awake[w] = 0
			for ; word != 0; word &= word - 1 {
				u := w<<6 | bits.TrailingZeros64(word)
				out := &s.outs[u]
				out.wake = false
				finished, err := s.programs[u].Step(round, inboxes[u], out)
				if err != nil {
					return fmt.Errorf("congest: node %d round %d: %w", u, round, err)
				}
				clear(inboxes[u].has)
				back := s.top.rev[s.top.off[u]:]
				for pos, to := range out.neighbors {
					if !out.has[pos] {
						continue
					}
					out.has[pos] = false
					p := out.msgs[pos]
					next[to].msgs[back[pos]] = p
					next[to].has[back[pos]] = true
					if !s.done[to] {
						wakeNext[to>>6] |= 1 << (to & 63)
					}
					s.messagesSent++
					if b := bits.Len64(uint64(p)); b > s.maxBitsInAMsg {
						s.maxBitsInAMsg = b
					}
				}
				switch {
				case finished:
					// Mail already delivered to u this round is never read.
					s.done[u] = true
					wakeNext[w] &^= 1 << (u & 63)
					remaining--
				case out.wake:
					wakeNext[w] |= 1 << (u & 63)
				}
			}
		}
		if remaining > 0 && !slices.ContainsFunc(wakeNext, func(x uint64) bool { return x != 0 }) {
			return fmt.Errorf("%w: %d nodes live, none due to step after round %d", ErrStalled, remaining, round)
		}
	}
	return nil
}

// Rounds returns the number of rounds the last Run executed.
func (s *Simulator) Rounds() int { return s.rounds }

// MessagesSent returns the number of edge-messages the last Run sent.
func (s *Simulator) MessagesSent() int { return s.messagesSent }

// MaxMessageBits returns the largest significant bit-length the last Run
// sent.
func (s *Simulator) MaxMessageBits() int { return s.maxBitsInAMsg }
