package congest

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"sort"
	"sync"

	"github.com/distributed-uniformity/dut/internal/core"
	"github.com/distributed-uniformity/dut/internal/dist"
	"github.com/distributed-uniformity/dut/internal/engine"
)

// Message tags (low 3 payload bits); values ride in the upper bits.
const (
	tagExplore Payload = iota + 1 // BFS wave
	tagChild                      // "I adopted you as parent"
	tagNack                       // "I will not be your child"
	tagReport                     // convergecast: subtree score sum
	tagDecide                     // broadcast: the verdict bit
)

const tagBits = 3

func encode(tag Payload, value uint64) Payload { return tag | Payload(value<<tagBits) }

func decode(p Payload) (tag Payload, value uint64) {
	return p & (1<<tagBits - 1), uint64(p >> tagBits)
}

// neighborStatus tracks how an edge resolved during BFS construction.
type neighborStatus uint8

const (
	nbUnknown neighborStatus = iota
	nbParent
	nbChild
	nbNotChild
)

// uniformityNode is the per-node state machine of the tree-aggregation
// tester. All per-neighbor state is indexed by the neighbor's position
// in the ascending-sorted neighbor list — the same indexing the
// simulator's Inbox uses — so a trial's worth of steps allocates
// nothing (the previous map-backed status/oweNack/oweExplore and the
// per-step explorer slice were most of the CONGEST backend's per-trial
// allocations).
type uniformityNode struct {
	id        int
	root      bool
	threshold int    // referee threshold T (used by the root only)
	score     uint64 // this node's convergecast contribution (see Tester)

	neighbors  []int            // ascending neighbor ids
	status     []neighborStatus // by position
	oweNack    []bool           // by position
	oweExplore []bool           // by position
	explorers  []int            // per-step scratch: explorer positions

	parent      int // parent node id (not position); -1 until adopted
	adopted     bool
	waveSent    bool
	oweChild    bool
	childCount  int
	reportsIn   int
	scoreSum    uint64
	reportSent  bool
	verdict     bool
	verdictSeen bool

	// Result hook: the root writes the final verdict here.
	result *bool
}

var _ NodeProgram = (*uniformityNode)(nil)

//dut:coldpath once-per-node construction; scratch runs reuse the node via reset
func newUniformityNode(g *Graph, id int, root bool, threshold int, score uint64, result *bool) *uniformityNode {
	nbrs := g.Neighbors(id)
	sort.Ints(nbrs)
	n := &uniformityNode{
		id:         id,
		root:       root,
		threshold:  threshold,
		neighbors:  nbrs,
		status:     make([]neighborStatus, len(nbrs)),
		oweNack:    make([]bool, len(nbrs)),
		oweExplore: make([]bool, len(nbrs)),
		explorers:  make([]int, 0, len(nbrs)),
	}
	n.reset(score, result)
	return n
}

// reset rebinds the node for a fresh run — the per-trial inputs (local
// score and verdict sink) plus every piece of mutable protocol state —
// restoring exactly the state a newly-constructed node has. It lets a
// worker's scratch reuse the node set (sorted neighbor slices and maps
// included) across trials instead of rebuilding k state machines per
// round.
func (n *uniformityNode) reset(score uint64, result *bool) {
	n.score = score
	n.result = result
	clear(n.status) // nbUnknown is the zero status
	clear(n.oweNack)
	clear(n.oweExplore)
	n.parent = -1
	n.adopted = false
	n.waveSent = false
	n.oweChild = false
	n.childCount = 0
	n.reportsIn = 0
	n.scoreSum = 0
	n.reportSent = false
	n.verdict = false
	n.verdictSeen = false
	if n.root {
		n.adopted = true
		n.parent = n.id
		for pos := range n.oweExplore {
			n.oweExplore[pos] = true
		}
	}
}

// Step implements NodeProgram.
func (n *uniformityNode) Step(_ int, in Inbox, out *Outbox) (bool, error) {
	// 1. Digest the inbox.
	explorers := n.explorers[:0]
	for pos, from := range n.neighbors {
		p, ok := in.Get(pos)
		if !ok {
			continue
		}
		tag, value := decode(p)
		switch tag {
		case tagExplore:
			explorers = append(explorers, pos)
		case tagChild:
			if n.status[pos] == nbChild {
				return false, fmt.Errorf("duplicate CHILD from %d", from)
			}
			n.status[pos] = nbChild
			n.childCount++
			n.oweExplore[pos] = false
		case tagNack:
			n.status[pos] = nbNotChild
			n.oweExplore[pos] = false
		case tagReport:
			if n.status[pos] != nbChild {
				return false, fmt.Errorf("REPORT from non-child %d", from)
			}
			n.reportsIn++
			n.scoreSum += value
		case tagDecide:
			if from != n.parent {
				return false, fmt.Errorf("DECIDE from non-parent %d", from)
			}
			n.verdict = value&1 == 1
			n.verdictSeen = true
		default:
			return false, fmt.Errorf("unknown tag %d from %d", tag, from)
		}
	}
	n.explorers = explorers // keep the grown capacity for the next step

	// 2. Adoption: pick the smallest explorer as parent; everyone else who
	// explored is resolved as not-a-child and owed a NACK. explorers holds
	// positions in ascending order, which is ascending id order — no sort
	// needed.
	for _, pos := range explorers {
		if !n.adopted {
			n.adopted = true
			n.parent = n.neighbors[pos]
			n.status[pos] = nbParent
			n.oweChild = true
			n.oweExplore[pos] = false
			// Schedule the wave to the remaining unknown neighbors.
			for v := range n.neighbors {
				if n.status[v] == nbUnknown {
					n.oweExplore[v] = true
				}
			}
			continue
		}
		if n.status[pos] == nbUnknown || n.status[pos] == nbNotChild {
			// An explorer already has its own parent; it can never be our
			// child.
			n.status[pos] = nbNotChild
			n.oweNack[pos] = true
			n.oweExplore[pos] = false
		}
	}

	// 3. Send: one message per neighbor per round, with NACK/CHILD taking
	// precedence over a now-pointless EXPLORE.
	if n.oweChild {
		if err := out.Send(n.parent, encode(tagChild, 0)); err != nil {
			return false, err
		}
		n.oweChild = false
	}
	for pos, v := range n.neighbors {
		if !n.oweNack[pos] {
			continue
		}
		if err := out.Send(v, encode(tagNack, 0)); err != nil {
			return false, err
		}
		n.oweNack[pos] = false
		n.oweExplore[pos] = false
	}
	if n.adopted {
		for pos, v := range n.neighbors {
			if !n.oweExplore[pos] {
				continue
			}
			if err := out.Send(v, encode(tagExplore, 0)); err != nil {
				return false, err
			}
			n.oweExplore[pos] = false
		}
		n.waveSent = true
	}

	// 4. Convergecast once the subtree is accounted for. If a control
	// message (CHILD) already went to the parent this round, wait one
	// round rather than double-send on the edge.
	if n.adopted && n.waveSent && !n.reportSent && n.allResolved() &&
		n.reportsIn == n.childCount && (n.root || !out.Queued(n.parent)) {
		total := n.scoreSum + n.score
		if n.root {
			accept := total < uint64(n.threshold)
			n.verdict = accept
			n.verdictSeen = true
			*n.result = accept
		} else {
			if err := out.Send(n.parent, encode(tagReport, total)); err != nil {
				return false, err
			}
		}
		n.reportSent = true
	}

	// 5. Broadcast the verdict down the tree and terminate.
	if n.verdictSeen {
		bit := uint64(0)
		if n.verdict {
			bit = 1
		}
		for pos, v := range n.neighbors {
			if n.status[pos] == nbChild {
				if err := out.Send(v, encode(tagDecide, bit)); err != nil {
					return false, err
				}
			}
		}
		return true, nil
	}
	return false, nil
}

// allResolved reports whether every incident edge has been classified.
func (n *uniformityNode) allResolved() bool {
	for _, st := range n.status {
		if st == nbUnknown {
			return false
		}
	}
	return true
}

// Tester runs distributed uniformity testing in the CONGEST model: the
// nodes of a connected graph each draw q samples, vote with a shared
// core.LocalRule, aggregate the votes up a BFS tree rooted at Root, apply
// the threshold rule there, and broadcast the verdict. It implements
// core.Protocol, so the same measurement harness drives it.
//
// The convergecast sums a per-node score. With a single-bit rule (the
// classic mode) the score is the rejection indicator — 1 iff the node
// voted reject — and the root rejects iff at least T nodes rejected,
// matching core.BitReferee{ThresholdRule{T}}. With an r-bit rule the
// score is the raw message value and the root rejects iff the values
// sum to at least T, matching core.SumThresholdReferee{Bits: r, T: T};
// this is how r-bit votes ride the BFS tree without widening any edge
// beyond the value sum's bit length (validated against MessageBits at
// construction).
type Tester struct {
	graph *Graph
	root  int
	q     int
	rule  core.LocalRule
	t     int
	sum   bool

	// Stats from the last run; guarded so concurrent Monte-Carlo
	// estimation over the same Tester stays race-free.
	statsMu      sync.Mutex
	lastRounds   int
	lastMessages int
	lastMaxBits  int
}

var _ core.Protocol = (*Tester)(nil)

// TesterConfig configures NewTester.
type TesterConfig struct {
	// Graph is the communication graph; must be connected.
	Graph *Graph
	// Root is the aggregation root (the "decision" node).
	Root int
	// Q is the per-node sample count.
	Q int
	// Rule is the shared local rule. A single-bit rule aggregates
	// rejection counts (the classic mode); a wider rule implies Sum.
	Rule core.LocalRule
	// T is the threshold applied at the root; 0 selects
	// core.DefaultThresholdT(k) in the classic mode. Sum mode has no
	// sensible default and requires an explicit T (see
	// core.QuantizedSumThreshold for the collision rule's).
	T int
	// Sum selects value-sum aggregation: each node's convergecast score
	// is its raw message value instead of its rejection indicator, and
	// the root rejects iff the sum is at least T. Implied (and required)
	// when Rule.Bits() > 1.
	Sum bool
}

// NewTester validates the configuration.
func NewTester(cfg TesterConfig) (*Tester, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("congest: nil graph")
	}
	if !cfg.Graph.Connected() {
		return nil, fmt.Errorf("congest: graph is not connected")
	}
	if cfg.Root < 0 || cfg.Root >= cfg.Graph.N() {
		return nil, fmt.Errorf("congest: root %d outside %d nodes", cfg.Root, cfg.Graph.N())
	}
	if cfg.Q < 0 {
		return nil, fmt.Errorf("congest: %d samples per node", cfg.Q)
	}
	if cfg.Rule == nil {
		return nil, fmt.Errorf("congest: nil local rule")
	}
	msgBits := cfg.Rule.Bits()
	if msgBits < 1 || msgBits > 64 {
		return nil, fmt.Errorf("congest: rule uses %d message bits, want 1..64", msgBits)
	}
	sum := cfg.Sum || msgBits > 1
	n := cfg.Graph.N()
	t := cfg.T
	var maxTotal uint64
	if sum {
		// Every convergecast value (a subtree's score sum, at most
		// n*(2^r-1)) must fit the edge bandwidth after the tag shift.
		if msgBits+bits.Len(uint(n))+tagBits > MessageBits {
			return nil, fmt.Errorf("congest: score sums over %d nodes of %d-bit values exceed the %d-bit edge bandwidth",
				n, msgBits, MessageBits)
		}
		maxTotal = uint64(n) * (1<<msgBits - 1)
		if t == 0 {
			return nil, fmt.Errorf("congest: sum aggregation needs an explicit threshold T")
		}
		if t < 1 || uint64(t) > maxTotal+1 {
			return nil, fmt.Errorf("congest: sum threshold %d outside [1,%d]", t, maxTotal+1)
		}
	} else {
		if t == 0 {
			t = core.DefaultThresholdT(n)
		}
		if t < 1 || t > n {
			return nil, fmt.Errorf("congest: threshold %d outside [1,%d]", t, n)
		}
	}
	return &Tester{graph: cfg.Graph, root: cfg.Root, q: cfg.Q, rule: cfg.Rule, t: t, sum: sum}, nil
}

// Players implements core.Protocol.
func (t *Tester) Players() int { return t.graph.N() }

// MaxSamplesPerPlayer implements core.Protocol.
func (t *Tester) MaxSamplesPerPlayer() int { return t.q }

// LastRounds returns the round count of the most recent Run.
func (t *Tester) LastRounds() int {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	return t.lastRounds
}

// LastMessages returns the message count of the most recent Run.
func (t *Tester) LastMessages() int {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	return t.lastMessages
}

// LastMaxMessageBits returns the widest message of the most recent Run.
func (t *Tester) LastMaxMessageBits() int {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	return t.lastMaxBits
}

// Run implements core.Protocol: draw samples, vote, aggregate, decide.
// The round's public-coin seed is drawn from rng; everything else derives
// from that seed via RunSeeded.
func (t *Tester) Run(sampler dist.Sampler, rng *rand.Rand) (bool, error) {
	if rng == nil {
		return false, fmt.Errorf("congest: nil rng")
	}
	return t.RunSeeded(sampler, rng.Uint64())
}

// RunSeeded executes one CONGEST round with an explicit public-coin seed.
// Node u draws its samples and private coins from engine.NodeRNG(shared,
// u) — the same derivation the in-process SMP simulator and the networked
// nodes apply — so the votes entering the tree aggregation are
// bit-identical to the other backends' for the same seed.
func (t *Tester) RunSeeded(sampler dist.Sampler, shared uint64) (bool, error) {
	verdict, sim, err := t.runSeeded(sampler, shared)
	if err != nil {
		return false, err
	}
	t.statsMu.Lock()
	t.lastRounds = sim.Rounds()
	t.lastMessages = sim.MessagesSent()
	t.lastMaxBits = sim.MaxMessageBits()
	t.statsMu.Unlock()
	return verdict, nil
}

// runScratch is one worker's reusable per-run state: the sample batch
// buffer, the reseedable per-node generator, the program slice handed
// to the simulator, and — amortized across every run on this worker —
// the per-node state machines and the simulator with its round buffers.
// Nodes are reset (not rebuilt) per run; reset restores exactly the
// fresh-construction state, so scratch runs stay bit-identical to
// allocating ones.
type runScratch struct {
	buf      []int
	rng      *engine.ReusableRNG
	programs []NodeProgram
	nodes    []*uniformityNode
	sim      *Simulator
	// verdict is the root's result sink. It lives on the scratch (not the
	// stack of runSeededScratch) because the nodes retain the pointer
	// across trials — a local would escape to a fresh heap allocation on
	// every run.
	verdict bool
}

// newScratch sizes a runScratch for this tester.
func (t *Tester) newScratch() *runScratch {
	return &runScratch{
		buf:      make([]int, t.q),
		rng:      engine.NewReusableRNG(),
		programs: make([]NodeProgram, t.graph.N()),
	}
}

// runSeeded is the shared-state-free core of RunSeeded: it returns the
// simulator so callers (the engine backend) can read per-run statistics
// without racing on the Tester's last* fields.
func (t *Tester) runSeeded(sampler dist.Sampler, shared uint64) (bool, *Simulator, error) {
	return t.runSeededScratch(sampler, shared, t.newScratch())
}

// runSeededScratch is runSeeded over a caller-owned scratch: node-side
// sampling goes through the scratch generator's batched SampleInto into
// the reused buffer, and each node's stream comes from that reseeded
// generator — exactly the engine.NodeRNG stream, so scratch runs are
// bit-identical to allocating ones.
func (t *Tester) runSeededScratch(sampler dist.Sampler, shared uint64, sc *runScratch) (bool, *Simulator, error) {
	if sampler == nil {
		return false, nil, fmt.Errorf("congest: nil sampler")
	}
	n := t.graph.N()
	sc.verdict = false
	if sc.nodes == nil {
		sc.nodes = make([]*uniformityNode, n)
		for u := range sc.nodes {
			sc.nodes[u] = newUniformityNode(t.graph, u, u == t.root, t.t, 0, nil)
		}
	}
	msgBits := t.rule.Bits()
	programs := sc.programs
	for u := 0; u < n; u++ {
		rng := sc.rng.SeedNode(shared, u)
		sc.rng.SampleInto(sampler, sc.buf)
		msg, err := t.rule.Message(u, sc.buf, shared, rng)
		if err != nil {
			return false, nil, fmt.Errorf("congest: node %d vote: %w", u, err)
		}
		var score uint64
		if t.sum {
			if msgBits < 64 && msg >= 1<<msgBits {
				return false, nil, fmt.Errorf("congest: node %d message %#x wider than the rule's %d bits", u, uint64(msg), msgBits)
			}
			score = uint64(msg)
		} else if !msg.Bit() {
			score = 1
		}
		node := sc.nodes[u]
		node.reset(score, &sc.verdict)
		programs[u] = node
	}
	if sc.sim == nil {
		sim, err := NewSimulator(t.graph, programs)
		if err != nil {
			return false, nil, err
		}
		sc.sim = sim
	} else {
		sc.sim.Reset()
	}
	// BFS + convergecast + broadcast each take O(diameter) rounds; 8D+16
	// is a generous envelope that still catches deadlocks.
	maxRounds := 8*n + 16
	if err := sc.sim.Run(maxRounds); err != nil {
		return false, nil, err
	}
	return sc.verdict, sc.sim, nil
}
