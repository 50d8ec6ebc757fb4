package congest

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// denseSimulator is the differential reference for Simulator: the
// simulator as it was before rounds went event-driven, kept verbatim but
// for its name and for reading and writing the Inbox and Outbox mail bits
// where it read and wrote one flag per position. It steps every live node
// in every round, scans every position of every outbox, clears the whole
// next inbox generation up front, and builds its own sorted adjacency and
// reverse-edge index from the Graph, so it shares nothing with Simulator
// but the Outbox and Inbox types the programs see. It ignores StayAwake.
type denseSimulator struct {
	graph    *Graph
	programs []NodeProgram
	// Stats.
	rounds        int
	messagesSent  int
	maxBitsInAMsg int
	// Reusable round buffers (see ensureBuffers). sortedAdj holds each
	// node's ascending neighbor list (the Graph's own adjacency keeps
	// insertion order, which BFS parents depend on); edgeBack[u][i] is
	// the position of u in sortedAdj[v] for v = sortedAdj[u][i], so
	// delivery is a direct index instead of a map insert. The two inbox
	// generations are swapped every round; an Inbox handed to Step is
	// only valid for that call.
	done      []bool
	sortedAdj [][]int
	edgeBack  [][]int
	inboxes   [2][]Inbox
	outs      []*Outbox
}

// newOutbox builds the outbox for a node with the given ascending-sorted
// neighbor list.
func newOutbox(node int, neighbors []int) *Outbox {
	return &Outbox{
		node:      node,
		neighbors: neighbors,
		msgs:      make([]Payload, len(neighbors)),
		sent:      make([]uint64, (len(neighbors)+63)/64),
	}
}

// reset clears the outbox for a fresh round. Simulator clears each slot
// as it delivers it instead.
func (o *Outbox) reset() {
	clear(o.sent)
}

// ensureBuffers allocates the reusable round buffers on first use.
func (s *denseSimulator) ensureBuffers(n int) {
	if len(s.done) == n {
		return
	}
	s.done = make([]bool, n)
	s.sortedAdj = make([][]int, n)
	s.edgeBack = make([][]int, n)
	s.outs = make([]*Outbox, n)
	for u := 0; u < n; u++ {
		adj := s.graph.Neighbors(u)
		sort.Ints(adj)
		s.sortedAdj[u] = adj
	}
	for u := 0; u < n; u++ {
		adj := s.sortedAdj[u]
		back := make([]int, len(adj))
		for i, v := range adj {
			pos, ok := slices.BinarySearch(s.sortedAdj[v], u)
			if !ok {
				// Graph edges are symmetric by construction; a miss here
				// would be a Graph invariant violation, not a protocol bug.
				panic(fmt.Sprintf("congest: edge %d-%d has no reverse entry", u, v))
			}
			back[i] = pos
		}
		s.edgeBack[u] = back
		s.outs[u] = newOutbox(u, adj)
	}
	for g := range s.inboxes {
		s.inboxes[g] = make([]Inbox, n)
		for u := 0; u < n; u++ {
			deg := len(s.sortedAdj[u])
			s.inboxes[g][u] = Inbox{msgs: make([]Payload, deg), mail: make([]uint64, (deg+63)/64)}
		}
	}
}

// Run executes rounds until every node has terminated or maxRounds is
// exhausted.
func (s *denseSimulator) Run(maxRounds int) error {
	if maxRounds <= 0 {
		return fmt.Errorf("congest: maxRounds %d", maxRounds)
	}
	n := s.graph.N()
	s.ensureBuffers(n)
	done := s.done
	for i := range done {
		done[i] = false
	}
	inboxes := s.inboxes[0]
	for i := range inboxes {
		clear(inboxes[i].mail)
	}
	nextGen := s.inboxes[1]
	remaining := n
	for round := 0; remaining > 0; round++ {
		if round >= maxRounds {
			return fmt.Errorf("congest: %d nodes still running after %d rounds", remaining, maxRounds)
		}
		s.rounds = round + 1
		next := nextGen
		for i := range next {
			clear(next[i].mail)
		}
		for u := 0; u < n; u++ {
			if done[u] {
				continue
			}
			out := s.outs[u]
			out.reset()
			finished, err := s.programs[u].Step(round, inboxes[u], out)
			if err != nil {
				return fmt.Errorf("congest: node %d round %d: %w", u, round, err)
			}
			adj, back := s.sortedAdj[u], s.edgeBack[u]
			for pos, to := range adj {
				if out.sent[pos>>6]&(1<<(pos&63)) == 0 {
					continue
				}
				p := out.msgs[pos]
				next[to].msgs[back[pos]] = p
				next[to].mail[back[pos]>>6] |= 1 << (back[pos] & 63)
				s.messagesSent++
				if b := bits.Len64(uint64(p)); b > s.maxBitsInAMsg {
					s.maxBitsInAMsg = b
				}
			}
			if finished {
				done[u] = true
				remaining--
			}
		}
		inboxes, nextGen = next, inboxes
	}
	return nil
}
