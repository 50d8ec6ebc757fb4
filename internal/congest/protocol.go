package congest

import (
	"fmt"
	"math/bits"
	"math/rand/v2"

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
// simulator's Inbox and Outbox use — and is carved from flat per-edge
// slices shared by a whole node set (newUniformityNodes): statuses one
// per slot, and the owed-message and explorer sets one bit per position,
// ⌈deg/64⌉ words per node. So building a worker's k nodes takes a
// constant number of allocations and a trial's worth of steps allocates
// nothing.
type uniformityNode struct {
	id        int
	root      bool
	threshold int    // referee threshold T (used by the root only)
	score     uint64 // this node's convergecast contribution (see Tester)

	neighbors  []int            // ascending neighbor ids (shared, read-only)
	status     []neighborStatus // by position
	unknown    int              // positions still nbUnknown
	oweNack    []uint64         // bit set by position
	oweExplore []uint64         // bit set by position
	explorers  []uint64         // per-step scratch: explorer positions, all zero between steps

	parent      int // parent node id (not position); -1 until adopted
	parentPos   int // parent's position; -1 until adopted, and at the root
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

// newUniformityNodes builds the state machines of every node of top, with
// root as the aggregation root and threshold as its T. The per-neighbor
// state of all nodes comes from two flat slices, so the set costs three
// allocations whatever the graph. Each node needs reset before a run.
func newUniformityNodes(top *topology, root, threshold int) []uniformityNode {
	mw := top.words()
	status := make([]neighborStatus, len(top.nbr))
	masks := make([]uint64, 3*mw)
	nodes := make([]uniformityNode, top.n())
	for u := range nodes {
		nodes[u] = uniformityNode{
			id:         u,
			root:       u == root,
			threshold:  threshold,
			neighbors:  nodeSlots(top, top.nbr, u),
			status:     nodeSlots(top, status, u),
			oweNack:    nodeWords(top, masks, u),
			oweExplore: nodeWords(top, masks[mw:], u),
			explorers:  nodeWords(top, masks[2*mw:], u),
		}
	}
	return nodes
}

// reset rebinds the node for a fresh run — the per-trial inputs (local
// score and verdict sink) plus every piece of mutable protocol state —
// leaving exactly the state of a first run. It lets a worker's scratch
// reuse the node set across trials instead of rebuilding k state
// machines per round.
func (n *uniformityNode) reset(score uint64, result *bool) {
	n.score = score
	n.result = result
	clear(n.status) // nbUnknown is the zero status
	n.unknown = len(n.status)
	clear(n.oweNack)
	clear(n.oweExplore)
	clear(n.explorers)
	n.parent = -1
	n.parentPos = -1
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
		for pos := range n.status {
			n.oweExplore[pos>>6] |= 1 << (pos & 63)
		}
	}
}

// resolve classifies the edge at pos, counting it off unknown the first
// time.
func (n *uniformityNode) resolve(pos int, st neighborStatus) {
	if n.status[pos] == nbUnknown {
		n.unknown--
	}
	n.status[pos] = st
}

// Step implements NodeProgram. Its one wake request is the REPORT held
// back behind a CHILD (step 4); every other step with an empty inbox
// would send nothing and change no state, so the simulator may skip it.
//
//dut:hotpath per-round node step; the simulator reaches it only through the NodeProgram interface
func (n *uniformityNode) Step(_ int, in Inbox, out *Outbox) (bool, error) {
	// 1. Digest the inbox: only the positions with mail, in ascending
	// order.
	for w, word := range in.mail {
		for ; word != 0; word &= word - 1 {
			bit := word & -word
			pos := w<<6 | bits.TrailingZeros64(word)
			tag, value := decode(in.msgs[pos])
			switch tag {
			case tagExplore:
				n.explorers[w] |= bit
			case tagChild:
				if n.status[pos] == nbChild {
					return false, fmt.Errorf("duplicate CHILD from %d", n.neighbors[pos])
				}
				n.resolve(pos, nbChild)
				n.childCount++
				n.oweExplore[w] &^= bit
			case tagNack:
				n.resolve(pos, nbNotChild)
				n.oweExplore[w] &^= bit
			case tagReport:
				if n.status[pos] != nbChild {
					return false, fmt.Errorf("REPORT from non-child %d", n.neighbors[pos])
				}
				n.reportsIn++
				n.scoreSum += value
			case tagDecide:
				if pos != n.parentPos {
					return false, fmt.Errorf("DECIDE from non-parent %d", n.neighbors[pos])
				}
				n.verdict = value&1 == 1
				n.verdictSeen = true
			default:
				return false, fmt.Errorf("unknown tag %d from %d", tag, n.neighbors[pos])
			}
		}
	}

	// 2. Adoption: pick the smallest explorer as parent; everyone else who
	// explored is resolved as not-a-child and owed a NACK. The explorer
	// set is walked in ascending position order, which is ascending id
	// order, and cleared as it goes.
	for w, word := range n.explorers {
		n.explorers[w] = 0
		for ; word != 0; word &= word - 1 {
			bit := word & -word
			pos := w<<6 | bits.TrailingZeros64(word)
			if !n.adopted {
				n.adopted = true
				n.parent, n.parentPos = n.neighbors[pos], pos
				n.resolve(pos, nbParent)
				n.oweChild = true
				n.oweExplore[w] &^= bit
				// Schedule the wave to the remaining unknown neighbors.
				for v, st := range n.status {
					if st == nbUnknown {
						n.oweExplore[v>>6] |= 1 << (v & 63)
					}
				}
				continue
			}
			if n.status[pos] == nbUnknown || n.status[pos] == nbNotChild {
				// An explorer already has its own parent; it can never be
				// our child.
				n.resolve(pos, nbNotChild)
				n.oweNack[w] |= bit
				n.oweExplore[w] &^= bit
			}
		}
	}

	// 3. Send: one message per neighbor per round, with NACK/CHILD taking
	// precedence over a now-pointless EXPLORE.
	if n.oweChild {
		if err := out.SendAt(n.parentPos, encode(tagChild, 0)); err != nil {
			return false, err
		}
		n.oweChild = false
	}
	for w, word := range n.oweNack {
		n.oweNack[w] = 0
		n.oweExplore[w] &^= word
		for ; word != 0; word &= word - 1 {
			if err := out.SendAt(w<<6|bits.TrailingZeros64(word), encode(tagNack, 0)); err != nil {
				return false, err
			}
		}
	}
	if n.adopted {
		for w, word := range n.oweExplore {
			n.oweExplore[w] = 0
			for ; word != 0; word &= word - 1 {
				if err := out.SendAt(w<<6|bits.TrailingZeros64(word), encode(tagExplore, 0)); err != nil {
					return false, err
				}
			}
		}
		n.waveSent = true
	}

	// 4. Convergecast once the subtree is accounted for. If a control
	// message (CHILD) already went to the parent this round, wait one
	// round rather than double-send on the edge — and ask to be stepped
	// then, as no mail may arrive to wake the node.
	if n.adopted && n.waveSent && !n.reportSent && n.unknown == 0 && n.reportsIn == n.childCount {
		total := n.scoreSum + n.score
		switch {
		case n.root:
			accept := total < uint64(n.threshold)
			n.verdict = accept
			n.verdictSeen = true
			*n.result = accept
			n.reportSent = true
		case out.QueuedAt(n.parentPos):
			out.StayAwake()
		default:
			if err := out.SendAt(n.parentPos, encode(tagReport, total)); err != nil {
				return false, err
			}
			n.reportSent = true
		}
	}

	// 5. Broadcast the verdict down the tree and terminate.
	if n.verdictSeen {
		bit := uint64(0)
		if n.verdict {
			bit = 1
		}
		for pos, st := range n.status {
			if st == nbChild {
				if err := out.SendAt(pos, encode(tagDecide, bit)); err != nil {
					return false, err
				}
			}
		}
		return true, nil
	}
	return false, nil
}

// Tester runs distributed uniformity testing in the CONGEST model: the
// nodes of a connected graph each draw q samples, vote with a shared
// core.LocalRule, aggregate the votes up a BFS tree rooted at Root, apply
// the threshold rule there, and broadcast the verdict. It implements
// core.Protocol, and core.BackendFor hands it to the engine through
// NewBackend, so the same measurement harness drives it.
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
	top  *topology // the graph's adjacency, shared by every worker's scratch
	root int
	q    int
	rule core.LocalRule
	bits int // rule.Bits(), read once at construction
	t    int
	sum  bool
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
	return &Tester{top: newTopology(cfg.Graph), root: cfg.Root, q: cfg.Q, rule: cfg.Rule, bits: msgBits, t: t, sum: sum}, nil
}

// Players implements core.Protocol.
func (t *Tester) Players() int { return t.top.n() }

// MaxSamplesPerPlayer implements core.Protocol.
func (t *Tester) MaxSamplesPerPlayer() int { return t.q }

// Run implements core.Protocol: draw samples, vote, aggregate, decide.
// The round's public-coin seed is drawn from rng; everything else derives
// from that seed via RunSeeded.
func (t *Tester) Run(sampler dist.Sampler, rng *rand.Rand) (bool, error) {
	if rng == nil {
		return false, fmt.Errorf("congest: nil rng")
	}
	return t.RunSeeded(sampler, rng.Uint64())
}

// RunSeeded executes one CONGEST round with an explicit public-coin seed,
// on a fresh scratch. Node u draws its samples and private coins from
// engine.NodeRNG(shared, u) — the same derivation the in-process SMP
// simulator and the networked nodes apply — so the votes entering the
// tree aggregation are bit-identical to the other backends' for the same
// seed. The engine backend (NewBackend) runs the same round and reports
// its rounds and messages.
func (t *Tester) RunSeeded(sampler dist.Sampler, shared uint64) (bool, error) {
	verdict, _, err := t.runSeededScratch(sampler, shared, t.newScratch())
	return verdict, err
}

// runScratch is one worker's reusable per-run state: the sample batch
// buffer, the reseedable per-node generator, the worker's own copy of
// the local rule, the node state machines and the simulator with its
// round buffers, all amortized across every run on this worker. Nodes
// are reset (not rebuilt) per run; reset restores exactly the state of a
// first run, so scratch runs stay bit-identical to fresh ones.
type runScratch struct {
	buf []int
	rng *engine.ReusableRNG
	// rule is core.Instance of the tester's rule: the worker votes its
	// nodes one at a time, so the collision rules count into a counter
	// the worker owns (over a domain of at most 256) instead of the
	// shared rule's pool.
	rule  core.LocalRule
	nodes []uniformityNode
	sim   *Simulator
	// verdict is the root's result sink. It lives on the scratch (not the
	// stack of runSeededScratch) because the nodes retain the pointer
	// across trials — a local would escape to a fresh heap allocation on
	// every run.
	verdict bool
}

// newScratch builds a runScratch for this tester in a constant number of
// allocations: the nodes' per-edge state and the simulator's round
// buffers are flat slices over the tester's shared topology.
func (t *Tester) newScratch() *runScratch {
	nodes := newUniformityNodes(t.top, t.root, t.t)
	programs := make([]NodeProgram, len(nodes))
	for u := range nodes {
		programs[u] = &nodes[u]
	}
	return &runScratch{
		buf:   make([]int, t.q),
		rng:   engine.NewReusableRNG(),
		rule:  core.Instance(t.rule),
		nodes: nodes,
		sim:   newSimulator(t.top, programs),
	}
}

// runSeededScratch is one CONGEST round over a caller-owned scratch,
// returning the verdict and the simulator, which holds the round's
// statistics. Node-side sampling goes through the scratch generator's
// batched SampleInto into the reused buffer, each node's stream comes
// from that reseeded generator — exactly the engine.NodeRNG stream — and
// each node votes through the scratch's rule instance, which derives the
// shared rule's messages bit for bit, so scratch runs are bit-identical
// to allocating ones.
func (t *Tester) runSeededScratch(sampler dist.Sampler, shared uint64, sc *runScratch) (bool, *Simulator, error) {
	if sampler == nil {
		return false, nil, fmt.Errorf("congest: nil sampler")
	}
	sc.verdict = false
	for u := range sc.nodes {
		rng := sc.rng.SeedNode(shared, u)
		sc.rng.SampleInto(sampler, sc.buf)
		msg, err := sc.rule.Message(u, sc.buf, shared, rng)
		if err != nil {
			return false, nil, fmt.Errorf("congest: node %d vote: %w", u, err)
		}
		if t.bits < 64 && msg >= 1<<t.bits {
			return false, nil, fmt.Errorf("congest: node %d message %#x wider than the rule's %d bits", u, uint64(msg), t.bits)
		}
		var score uint64
		if t.sum {
			score = uint64(msg)
		} else if !msg.Bit() {
			score = 1
		}
		sc.nodes[u].reset(score, &sc.verdict)
	}
	// BFS, convergecast and broadcast each take O(diameter) rounds, and
	// the diameter is below n, so 8n+16 rounds is a generous envelope; a
	// deadlocked run stops sooner with ErrStalled.
	if err := sc.sim.Run(8*len(sc.nodes) + 16); err != nil {
		return false, nil, err
	}
	return sc.verdict, sc.sim, nil
}
