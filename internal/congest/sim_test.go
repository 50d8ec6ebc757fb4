package congest

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

// stepFunc adapts a function to NodeProgram.
type stepFunc func(round int, in Inbox, out *Outbox) (bool, error)

func (f stepFunc) Step(round int, in Inbox, out *Outbox) (bool, error) { return f(round, in, out) }

// countSteps wraps every program so that steps[u] counts node u's Step
// calls.
func countSteps(programs []NodeProgram) (wrapped []NodeProgram, steps []int) {
	steps = make([]int, len(programs))
	wrapped = make([]NodeProgram, len(programs))
	for u, p := range programs {
		wrapped[u] = stepFunc(func(round int, in Inbox, out *Outbox) (bool, error) {
			steps[u]++
			return p.Step(round, in, out)
		})
	}
	return wrapped, steps
}

// treeRun is what one run of the tree-aggregation nodes exposes.
type treeRun struct {
	rounds, messages, maxBits int
	steps                     int // Step calls over all nodes
	verdict                   bool
	nodes                     []uniformityNode
}

// runTree runs the tree-aggregation nodes of g under the event-driven
// Simulator, or under the dense reference.
func runTree(t *testing.T, g *Graph, root, threshold int, scores []uint64, dense bool) treeRun {
	t.Helper()
	verdict := new(bool)
	nodes := newUniformityNodes(newTopology(g), root, threshold)
	programs := make([]NodeProgram, len(nodes))
	for u := range nodes {
		nodes[u].reset(scores[u], verdict)
		programs[u] = &nodes[u]
	}
	programs, steps := countSteps(programs)
	r := treeRun{nodes: nodes}
	maxRounds := 8*g.N() + 16
	if dense {
		sim := &denseSimulator{graph: g, programs: programs}
		if err := sim.Run(maxRounds); err != nil {
			t.Fatalf("dense reference: %v", err)
		}
		r.rounds, r.messages, r.maxBits = sim.rounds, sim.messagesSent, sim.maxBitsInAMsg
	} else {
		sim, err := NewSimulator(g, programs)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(maxRounds); err != nil {
			t.Fatalf("event-driven: %v", err)
		}
		r.rounds, r.messages, r.maxBits = sim.Rounds(), sim.MessagesSent(), sim.MaxMessageBits()
	}
	for _, s := range steps {
		r.steps += s
	}
	r.verdict = *verdict
	return r
}

// diffRuns describes the first difference between two runs' statistics,
// verdicts and per-node trees, or returns "".
func diffRuns(dense, sparse treeRun) string {
	if dense.rounds != sparse.rounds || dense.messages != sparse.messages || dense.maxBits != sparse.maxBits {
		return fmt.Sprintf("rounds/messages/bits %d/%d/%d dense, %d/%d/%d event-driven",
			dense.rounds, dense.messages, dense.maxBits, sparse.rounds, sparse.messages, sparse.maxBits)
	}
	if dense.verdict != sparse.verdict {
		return fmt.Sprintf("verdict %v dense, %v event-driven", dense.verdict, sparse.verdict)
	}
	for u := range dense.nodes {
		d, s := &dense.nodes[u], &sparse.nodes[u]
		if d.parent != s.parent || d.childCount != s.childCount || d.scoreSum != s.scoreSum ||
			d.verdict != s.verdict || d.verdictSeen != s.verdictSeen {
			return fmt.Sprintf("node %d: parent/children/sum/verdict %d/%d/%d/%v dense, %d/%d/%d/%v event-driven",
				u, d.parent, d.childCount, d.scoreSum, d.verdict, s.parent, s.childCount, s.scoreSum, s.verdict)
		}
	}
	return ""
}

// checkTree checks a finished run against the graph itself, so the two
// simulators cannot agree on a wrong answer: the verdict is the threshold
// rule on the true score sum and every node saw it, the parents form a
// BFS tree from root, and each node's child count and subtree sum match
// that tree.
func checkTree(g *Graph, root, threshold int, scores []uint64, r treeRun) error {
	n := g.N()
	var total uint64
	for _, s := range scores {
		total += s
	}
	want := total < uint64(threshold)
	if r.verdict != want {
		return fmt.Errorf("verdict %v on score sum %d, T=%d", r.verdict, total, threshold)
	}
	dist, _ := g.BFS(root)
	byDepth := make([]int, n)
	for u := range byDepth {
		byDepth[u] = u
	}
	slices.SortFunc(byDepth, func(a, b int) int { return dist[b] - dist[a] })
	children := make([]int, n)
	sums := make([]uint64, n)
	for _, u := range byDepth {
		node := &r.nodes[u]
		if !node.verdictSeen || node.verdict != want {
			return fmt.Errorf("node %d verdict %v (seen %v), want %v", u, node.verdict, node.verdictSeen, want)
		}
		if u == root {
			if node.parent != root {
				return fmt.Errorf("root parent %d", node.parent)
			}
			continue
		}
		p := node.parent
		if p < 0 || p >= n || dist[p] != dist[u]-1 || !slices.Contains(g.adj[u], p) {
			return fmt.Errorf("node %d at depth %d has parent %d, not a BFS parent", u, dist[u], p)
		}
		// byDepth visits every child of p before p itself.
		children[p]++
		sums[p] += sums[u] + scores[u]
	}
	for u := range r.nodes {
		if r.nodes[u].childCount != children[u] || r.nodes[u].scoreSum != sums[u] {
			return fmt.Errorf("node %d: %d children summing %d, tree says %d summing %d",
				u, r.nodes[u].childCount, r.nodes[u].scoreSum, children[u], sums[u])
		}
	}
	return nil
}

// TestEventDrivenMatchesDense runs the tree-aggregation nodes under the
// event-driven Simulator and under the dense reference, from every root
// of paths, rings, stars, complete graphs and random trees up to 40 nodes
// and grids up to 8x8, and from the hub (node 0), a leaf (node 1) and the
// last node of Star(65), Star(129) and Complete(66). Their wide nodes
// use mask positions the smaller shapes never reach: Star(65)'s hub
// fills one whole word (bit 63), Star(129)'s hub two, and every node of
// Complete(66) spills one position into a second word. Scores and
// thresholds are random, in both the rejection-count mode (0/1 scores,
// T <= n) and the r-bit sum mode. Both runs must agree exactly and be
// right on their own (checkTree).
func TestEventDrivenMatchesDense(t *testing.T) {
	rng := testRand(15)
	type shape struct {
		name  string
		g     *Graph
		roots []int // nil: every node
	}
	var shapes []shape
	add := func(name string, g *Graph, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		shapes = append(shapes, shape{name: name, g: g})
	}
	for n := 1; n <= 40; n++ {
		g, err := Path(n)
		add(fmt.Sprintf("path(%d)", n), g, err)
		if n >= 3 {
			g, err = Ring(n)
			add(fmt.Sprintf("ring(%d)", n), g, err)
		}
		if n >= 2 {
			g, err = Star(n)
			add(fmt.Sprintf("star(%d)", n), g, err)
		}
		g, err = Complete(n)
		add(fmt.Sprintf("complete(%d)", n), g, err)
		g, err = RandomTree(n, rng)
		add(fmt.Sprintf("tree(%d)", n), g, err)
	}
	for rows := 1; rows <= 8; rows++ {
		for cols := 1; cols <= 8; cols++ {
			g, err := Grid(rows, cols)
			add(fmt.Sprintf("grid(%dx%d)", rows, cols), g, err)
		}
	}
	for _, n := range []int{65, 129} {
		g, err := Star(n)
		add(fmt.Sprintf("star(%d)", n), g, err)
	}
	g, err := Complete(66)
	add("complete(66)", g, err)
	for i := len(shapes) - 3; i < len(shapes); i++ {
		shapes[i].roots = []int{0, 1, shapes[i].g.N() - 1}
	}
	cases := 0
	for _, sh := range shapes {
		n := sh.g.N()
		roots := sh.roots
		if roots == nil {
			for root := 0; root < n; root++ {
				roots = append(roots, root)
			}
		}
		for _, root := range roots {
			for _, r := range []int{1, 2 + rng.IntN(7)} {
				scores := make([]uint64, n)
				for u := range scores {
					scores[u] = rng.Uint64N(1 << r)
				}
				var threshold int
				if r == 1 {
					threshold = 1 + rng.IntN(n)
				} else {
					threshold = 1 + rng.IntN(n*(1<<r-1)+1)
				}
				dense := runTree(t, sh.g, root, threshold, scores, true)
				sparse := runTree(t, sh.g, root, threshold, scores, false)
				if d := diffRuns(dense, sparse); d != "" {
					t.Fatalf("%s root %d r=%d T=%d: %s", sh.name, root, r, threshold, d)
				}
				if err := checkTree(sh.g, root, threshold, scores, sparse); err != nil {
					t.Fatalf("%s root %d r=%d T=%d: %v", sh.name, root, r, threshold, err)
				}
				if sparse.steps > dense.steps {
					t.Fatalf("%s root %d: %d event-driven steps, %d dense", sh.name, root, sparse.steps, dense.steps)
				}
				cases++
			}
		}
	}
	t.Logf("%d graph x root x mode cases agree", cases)
}

// FuzzSimulatorMatchesDense is TestEventDrivenMatchesDense over graphs
// built from the fuzz input: a random tree on 1 to 200 nodes drawn from
// seed, up to 255 extra random edges, and optionally a hub joined to
// every other node, which puts its mail and owed messages in up to four
// mask words. The input also picks the root, the mode (1-bit rejection
// counts or r-bit sums, r <= 8), T and, through seed, the scores. The
// event-driven run must equal the dense reference, be right on its own
// (checkTree) and take no more steps.
func FuzzSimulatorMatchesDense(f *testing.F) {
	f.Add(uint64(1), uint8(15), uint8(0), false, uint16(0), uint8(0), uint32(3))
	f.Add(uint64(2), uint8(199), uint8(40), true, uint16(7), uint8(3), uint32(100))
	f.Add(uint64(3), uint8(64), uint8(0), true, uint16(64), uint8(1), uint32(5))
	f.Add(uint64(4), uint8(130), uint8(255), false, uint16(129), uint8(7), uint32(1<<20))
	f.Fuzz(func(t *testing.T, seed uint64, size, extra uint8, hub bool, root uint16, mode uint8, tSel uint32) {
		n := 1 + int(size)%200
		rng := testRand(seed)
		tree, err := RandomTree(n, rng)
		if err != nil {
			t.Fatal(err)
		}
		var edges [][2]int
		seen := make(map[[2]int]bool)
		join := func(u, v int) {
			key := [2]int{min(u, v), max(u, v)}
			if u != v && !seen[key] {
				seen[key] = true
				edges = append(edges, key)
			}
		}
		for u := 0; u < n; u++ {
			for _, v := range tree.adj[u] {
				join(u, v)
			}
		}
		for range int(extra) {
			join(rng.IntN(n), rng.IntN(n))
		}
		if hub {
			h := rng.IntN(n)
			for v := 0; v < n; v++ {
				join(h, v)
			}
		}
		g, err := NewGraph(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		r := 1 + int(mode)%8
		scores := make([]uint64, n)
		for u := range scores {
			scores[u] = rng.Uint64N(1 << r)
		}
		threshold := 1 + int(tSel%uint32(n))
		if r > 1 {
			threshold = 1 + int(tSel%uint32(n*(1<<r-1)+1))
		}
		from := int(root) % n
		dense := runTree(t, g, from, threshold, scores, true)
		sparse := runTree(t, g, from, threshold, scores, false)
		if d := diffRuns(dense, sparse); d != "" {
			t.Fatalf("n=%d edges=%d root %d r=%d T=%d: %s", n, len(edges), from, r, threshold, d)
		}
		if err := checkTree(g, from, threshold, scores, sparse); err != nil {
			t.Fatalf("n=%d edges=%d root %d r=%d T=%d: %v", n, len(edges), from, r, threshold, err)
		}
		if sparse.steps > dense.steps {
			t.Fatalf("n=%d edges=%d root %d: %d event-driven steps, %d dense", n, len(edges), from, sparse.steps, dense.steps)
		}
	})
}

// TestEventDrivenStepCount pins the saving on the benchmark's 16x16 grid
// from root 0: the dense loop steps every live node in every one of the
// 92 rounds, the event-driven loop only the nodes with mail or a
// held-back REPORT.
func TestEventDrivenStepCount(t *testing.T) {
	g, err := Grid(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := testRand(16)
	scores := make([]uint64, g.N())
	for u := range scores {
		scores[u] = rng.Uint64N(2)
	}
	dense := runTree(t, g, 0, 64, scores, true)
	sparse := runTree(t, g, 0, 64, scores, false)
	if d := diffRuns(dense, sparse); d != "" {
		t.Fatal(d)
	}
	if sparse.rounds != 92 {
		t.Errorf("%d rounds, want 92", sparse.rounds)
	}
	if dense.steps != 19712 || sparse.steps != 1277 {
		t.Errorf("Step calls: %d dense, %d event-driven; want 19712 and 1277", dense.steps, sparse.steps)
	}
}

// TestWakeContract pins which nodes step on a path 0-1-2. Node 0 keeps
// itself awake and sends node 1 one message in each of rounds 0-4; node 1
// only ever steps on that mail and, in round 5, forwards to node 2 or
// not. Node 2 never asks to be woken, so it steps in round 0 and then
// only on node 1's message — or, without one, never again, and the run
// stalls.
func TestWakeContract(t *testing.T) {
	g, err := Path(3)
	if err != nil {
		t.Fatal(err)
	}
	build := func(forward bool) []NodeProgram {
		return []NodeProgram{
			stepFunc(func(round int, _ Inbox, out *Outbox) (bool, error) {
				if round == 5 {
					return true, nil
				}
				out.StayAwake()
				return false, out.Send(1, 1)
			}),
			stepFunc(func(round int, _ Inbox, out *Outbox) (bool, error) {
				if round < 5 {
					return false, nil
				}
				if forward {
					return true, out.Send(2, 1)
				}
				return true, nil
			}),
			stepFunc(func(_ int, in Inbox, _ *Outbox) (bool, error) {
				_, got := in.Get(0)
				return got, nil
			}),
		}
	}

	programs, steps := countSteps(build(true))
	sim, err := NewSimulator(g, programs)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(100); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(steps, []int{6, 6, 2}) || sim.Rounds() != 7 || sim.MessagesSent() != 6 {
		t.Errorf("steps %v, %d rounds, %d messages; want [6 6 2], 7, 6", steps, sim.Rounds(), sim.MessagesSent())
	}
	programs, steps = countSteps(build(true))
	dense := &denseSimulator{graph: g, programs: programs}
	if err := dense.Run(100); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(steps, []int{6, 6, 7}) || dense.rounds != 7 || dense.messagesSent != 6 {
		t.Errorf("dense: steps %v, %d rounds, %d messages; want [6 6 7], 7, 6", steps, dense.rounds, dense.messagesSent)
	}

	programs, steps = countSteps(build(false))
	sim, err = NewSimulator(g, programs)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(100); !errors.Is(err, ErrStalled) {
		t.Fatalf("stranded node: got %v, want ErrStalled", err)
	}
	if !slices.Equal(steps, []int{6, 6, 1}) || sim.Rounds() != 6 {
		t.Errorf("stranded node: steps %v, %d rounds; want [6 6 1], 6", steps, sim.Rounds())
	}
}

// TestTerminatedNodeNeverSteps pins that mail does not wake a terminated
// node. On a path 0-1-2, node 1 terminates in round 0 while nodes 0 and 2
// send to it in rounds 0-2: node 0's first message arrives before node 1
// steps that round, node 2's after. The messages still count.
func TestTerminatedNodeNeverSteps(t *testing.T) {
	g, err := Path(3)
	if err != nil {
		t.Fatal(err)
	}
	sender := stepFunc(func(round int, _ Inbox, out *Outbox) (bool, error) {
		if round == 3 {
			return true, nil
		}
		out.StayAwake()
		return false, out.Send(1, 1)
	})
	quitter := stepFunc(func(int, Inbox, *Outbox) (bool, error) { return true, nil })
	programs, steps := countSteps([]NodeProgram{sender, quitter, sender})
	sim, err := NewSimulator(g, programs)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(100); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(steps, []int{4, 1, 4}) || sim.Rounds() != 4 || sim.MessagesSent() != 6 {
		t.Errorf("steps %v, %d rounds, %d messages; want [4 1 4], 4, 6", steps, sim.Rounds(), sim.MessagesSent())
	}
}
