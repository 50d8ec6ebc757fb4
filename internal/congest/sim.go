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
// neighbor list, and sent holds one bit per position — flat slices
// instead of a per-round map, so a round of sends touches no allocator
// and no hashing, and delivery visits only the positions that were sent.
type Outbox struct {
	node      int
	neighbors []int // ascending neighbor ids
	back      []int // by position: this node's position in that neighbor's list
	msgs      []Payload
	sent      []uint64 // bit pos&63 of word pos>>6: a message to position pos
	wake      bool     // StayAwake was called this step
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
	return o.SendAt(pos, p)
}

// SendAt is Send to the neighbor at the given position in the node's
// sorted neighbor list; a position outside the list is an error.
func (o *Outbox) SendAt(pos int, p Payload) error {
	if pos < 0 || pos >= len(o.neighbors) {
		return fmt.Errorf("congest: node %d sending to position %d of %d neighbors", o.node, pos, len(o.neighbors))
	}
	bit := uint64(1) << (pos & 63)
	if o.sent[pos>>6]&bit != 0 {
		return fmt.Errorf("congest: node %d sending twice to %d in one round", o.node, o.neighbors[pos])
	}
	if !p.fitsBits(MessageBits) {
		return fmt.Errorf("congest: message exceeds %d bits", MessageBits)
	}
	o.msgs[pos] = p
	o.sent[pos>>6] |= bit
	return nil
}

// Queued reports whether a message to the given neighbor is already
// queued this round, letting programs postpone lower-priority traffic
// instead of violating the one-message-per-edge-per-round rule.
func (o *Outbox) Queued(to int) bool {
	pos, ok := slices.BinarySearch(o.neighbors, to)
	return ok && o.QueuedAt(pos)
}

// QueuedAt is Queued for the neighbor at the given position; it is false
// for a position outside the neighbor list.
func (o *Outbox) QueuedAt(pos int) bool {
	return pos >= 0 && pos < len(o.neighbors) && o.sent[pos>>6]&(1<<(pos&63)) != 0
}

// StayAwake asks for the node to be stepped in the next round even if no
// message arrives for it (see NodeProgram).
func (o *Outbox) StayAwake() { o.wake = true }

// Inbox is the set of messages a node received last round, indexed by the
// sender's position in the node's ascending-sorted neighbor list, with
// one mail bit per position.
type Inbox struct {
	msgs []Payload
	mail []uint64 // bit pos&63 of word pos>>6: a message from position pos
}

// Get returns the message from the neighbor at the given position in the
// node's sorted neighbor list, and whether one arrived this round.
func (in Inbox) Get(pos int) (Payload, bool) {
	if in.mail[pos>>6]&(1<<(pos&63)) == 0 {
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
// carved from flat slices indexed by edge slot and by mail word (see
// topology) and cleared per Run, so a rerun loop (the engine's batch
// scratch path) executes allocation-free.
type Simulator struct {
	programs []NodeProgram
	// Stats of the last Run.
	rounds        int
	messagesSent  int
	maxBitsInAMsg int
	// Round buffers. The two inbox generations swap every round: round r
	// reads generation r%2, and the messages its steps send are delivered
	// into the other. awake[g] holds one bit per node, set for the live
	// nodes that step in the round reading generation g; a node's mail
	// is cleared right after it steps, and a terminated node's inbox is
	// never read again. words backs every mail, sent and awake bit, so
	// Run clears them in one call. An Inbox or Outbox handed to Step is
	// only valid for that call.
	done    []bool
	inboxes [2][]Inbox
	outs    []Outbox
	awake   [2][]uint64
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
// outbox are views into three flat per-slot generations of cells and
// three flat generations of mail words (inbox generations 0 and 1, then
// the outboxes), the words followed by the two awake sets.
func newSimulator(top *topology, programs []NodeProgram) *Simulator {
	n, slots, mw, nw := top.n(), len(top.nbr), top.words(), (top.n()+63)/64
	msgs := make([]Payload, 3*slots)
	inboxes := make([]Inbox, 2*n)
	words := make([]uint64, 3*mw+2*nw)
	awake := words[3*mw:]
	s := &Simulator{
		programs: programs,
		done:     make([]bool, n),
		inboxes:  [2][]Inbox{inboxes[:n:n], inboxes[n:]},
		outs:     make([]Outbox, n),
		awake:    [2][]uint64{awake[:nw:nw], awake[nw:]},
		words:    words,
	}
	for u := 0; u < n; u++ {
		for g := range s.inboxes {
			s.inboxes[g][u] = Inbox{msgs: nodeSlots(top, msgs[g*slots:], u), mail: nodeWords(top, words[g*mw:], u)}
		}
		s.outs[u] = Outbox{node: u, neighbors: nodeSlots(top, top.nbr, u), back: nodeSlots(top, top.rev, u),
			msgs: nodeSlots(top, msgs[2*slots:], u), sent: nodeWords(top, words[2*mw:], u)}
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
				clear(inboxes[u].mail)
				for sw, sent := range out.sent {
					out.sent[sw] = 0
					for ; sent != 0; sent &= sent - 1 {
						pos := sw<<6 | bits.TrailingZeros64(sent)
						to, at, p := out.neighbors[pos], out.back[pos], out.msgs[pos]
						next[to].msgs[at] = p
						next[to].mail[at>>6] |= 1 << (at & 63)
						if !s.done[to] {
							wakeNext[to>>6] |= 1 << (to & 63)
						}
						s.messagesSent++
						if b := bits.Len64(uint64(p)); b > s.maxBitsInAMsg {
							s.maxBitsInAMsg = b
						}
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
