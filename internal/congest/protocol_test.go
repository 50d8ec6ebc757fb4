package congest

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/distributed-uniformity/dut/internal/core"
	"github.com/distributed-uniformity/dut/internal/dist"
	"github.com/distributed-uniformity/dut/internal/stats"
)

// fixedVoteRule returns a rule voting according to a fixed bit vector,
// ignoring samples — for deterministic aggregation tests.
func fixedVoteRule(accepts []bool) core.LocalRule {
	return core.RuleFunc(func(player int, _ []int, _ uint64, _ *rand.Rand) (core.Message, error) {
		if accepts[player] {
			return core.Accept, nil
		}
		return core.Reject, nil
	})
}

func uniformSampler(t *testing.T, n int) dist.Sampler {
	t.Helper()
	u, err := dist.Uniform(n)
	if err != nil {
		t.Fatal(err)
	}
	s, err := dist.NewAliasSampler(u)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewTesterValidation(t *testing.T) {
	g, _ := Path(4)
	rule := fixedVoteRule(make([]bool, 4))
	bad := []TesterConfig{
		{Graph: nil, Root: 0, Q: 1, Rule: rule},
		{Graph: g, Root: -1, Q: 1, Rule: rule},
		{Graph: g, Root: 4, Q: 1, Rule: rule},
		{Graph: g, Root: 0, Q: -1, Rule: rule},
		{Graph: g, Root: 0, Q: 1, Rule: nil},
		{Graph: g, Root: 0, Q: 1, Rule: rule, T: 5},
	}
	for i, cfg := range bad {
		if _, err := NewTester(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	disc, _ := NewGraph(3, [][2]int{{0, 1}})
	if _, err := NewTester(TesterConfig{Graph: disc, Root: 0, Q: 1, Rule: rule, T: 1}); err == nil {
		t.Error("disconnected graph accepted")
	}
	multi := core.RuleFunc(func(int, []int, uint64, *rand.Rand) (core.Message, error) { return 0, nil })
	_ = multi
}

func TestTreeAggregationCountsExactly(t *testing.T) {
	// For every graph shape and every vote pattern on <= 6 nodes, the root
	// verdict must equal "rejections < T" — exactly the SMP ThresholdRule.
	shapes := map[string]func() (*Graph, error){
		"path":     func() (*Graph, error) { return Path(6) },
		"ring":     func() (*Graph, error) { return Ring(6) },
		"star":     func() (*Graph, error) { return Star(6) },
		"complete": func() (*Graph, error) { return Complete(6) },
		"grid":     func() (*Graph, error) { return Grid(2, 3) },
	}
	for name, mk := range shapes {
		g, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		for pattern := 0; pattern < 1<<6; pattern++ {
			accepts := make([]bool, 6)
			rejections := 0
			for i := range accepts {
				accepts[i] = pattern&(1<<i) != 0
				if !accepts[i] {
					rejections++
				}
			}
			for _, T := range []int{1, 3, 6} {
				for _, root := range []int{0, 5} {
					tester, err := NewTester(TesterConfig{
						Graph: g, Root: root, Q: 0, Rule: fixedVoteRule(accepts), T: T,
					})
					if err != nil {
						t.Fatal(err)
					}
					got, err := tester.Run(uniformSampler(t, 4), testRand(1))
					if err != nil {
						t.Fatalf("%s pattern=%06b T=%d root=%d: %v", name, pattern, T, root, err)
					}
					want := rejections < T
					if got != want {
						t.Fatalf("%s pattern=%06b T=%d root=%d: verdict %v, want %v",
							name, pattern, T, root, got, want)
					}
				}
			}
		}
	}
}

func TestAllNodesLearnTheVerdict(t *testing.T) {
	// Wrap programs to record each node's final verdict; every node must
	// agree with the root.
	g, err := Grid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	accepts := []bool{true, false, true, true, false, true, true, true, false}
	var rootVerdict bool
	nodes := newUniformityNodes(newTopology(g), 4, 3)
	programs := make([]NodeProgram, len(nodes))
	for u := range nodes {
		var score uint64
		if !accepts[u] {
			score = 1
		}
		nodes[u].reset(score, &rootVerdict)
		programs[u] = &nodes[u]
	}
	sim, err := NewSimulator(g, programs)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(200); err != nil {
		t.Fatal(err)
	}
	for u := range nodes {
		node := &nodes[u]
		if !node.verdictSeen {
			t.Errorf("node %d never saw the verdict", u)
		}
		if node.verdict != rootVerdict {
			t.Errorf("node %d verdict %v, root %v", u, node.verdict, rootVerdict)
		}
	}
}

func TestRoundsScaleWithDiameter(t *testing.T) {
	// The protocol is O(diameter): a long path takes ~3 passes; a star is
	// constant.
	rule := fixedVoteRule(make([]bool, 64))
	long, _ := Path(64)
	pathTester, err := NewTester(TesterConfig{Graph: long, Root: 0, Q: 0, Rule: fixedVoteRule(make([]bool, 64)), T: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pathTester.Run(uniformSampler(t, 4), testRand(2)); err != nil {
		t.Fatal(err)
	}
	star, _ := Star(64)
	starTester, err := NewTester(TesterConfig{Graph: star, Root: 0, Q: 0, Rule: rule, T: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := starTester.Run(uniformSampler(t, 4), testRand(3)); err != nil {
		t.Fatal(err)
	}
	if pathTester.LastRounds() < 63 {
		t.Errorf("path rounds %d below diameter", pathTester.LastRounds())
	}
	if pathTester.LastRounds() > 4*63+10 {
		t.Errorf("path rounds %d not O(diameter)", pathTester.LastRounds())
	}
	if starTester.LastRounds() > 12 {
		t.Errorf("star rounds %d, want O(1)", starTester.LastRounds())
	}
	if pathTester.LastMaxMessageBits() > MessageBits {
		t.Errorf("message width %d over cap", pathTester.LastMaxMessageBits())
	}
}

func TestMessageCountLinearInEdges(t *testing.T) {
	// Each edge carries O(1) messages over the whole execution.
	g, err := Grid(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	tester, err := NewTester(TesterConfig{Graph: g, Root: 0, Q: 0, Rule: fixedVoteRule(make([]bool, 36)), T: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tester.Run(uniformSampler(t, 4), testRand(4)); err != nil {
		t.Fatal(err)
	}
	if tester.LastMessages() > 6*g.Edges() {
		t.Errorf("%d messages on %d edges — not O(1) per edge", tester.LastMessages(), g.Edges())
	}
}

func TestCONGESTMatchesSMPTester(t *testing.T) {
	// The CONGEST tester over any topology realizes exactly the SMP
	// threshold tester: acceptance probabilities agree.
	const (
		n   = 1024
		k   = 16
		eps = 0.5
	)
	q := core.RecommendedThresholdSamples(n, k, eps)
	smp, err := core.NewThresholdTester(core.ThresholdTesterConfig{N: n, K: k, Q: q, Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	g, err := RandomTree(k, testRand(5))
	if err != nil {
		t.Fatal(err)
	}
	congest, err := NewTester(TesterConfig{
		Graph: g, Root: 0, Q: q, Rule: smp.Local(), T: core.DefaultThresholdT(k),
	})
	if err != nil {
		t.Fatal(err)
	}
	far, err := dist.PairedBump(n, eps)
	if err != nil {
		t.Fatal(err)
	}
	opts := stats.EstimateOptions{Seed: 6}
	smpEst, err := core.EstimateAcceptance(smp, far, 200, opts)
	if err != nil {
		t.Fatal(err)
	}
	congestEst, err := core.EstimateAcceptance(congest, far, 200, opts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(smpEst.P-congestEst.P) > 0.15 {
		t.Errorf("SMP accept %v vs CONGEST accept %v", smpEst.P, congestEst.P)
	}
	uniform, _ := dist.Uniform(n)
	smpU, err := core.EstimateAcceptance(smp, uniform, 200, opts)
	if err != nil {
		t.Fatal(err)
	}
	congestU, err := core.EstimateAcceptance(congest, uniform, 200, opts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(smpU.P-congestU.P) > 0.15 {
		t.Errorf("SMP accept(U) %v vs CONGEST accept(U) %v", smpU.P, congestU.P)
	}
}

func TestTesterRunValidation(t *testing.T) {
	g, _ := Path(3)
	tester, err := NewTester(TesterConfig{Graph: g, Root: 0, Q: 1, Rule: fixedVoteRule(make([]bool, 3)), T: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tester.Run(nil, testRand(0)); err == nil {
		t.Error("nil sampler accepted")
	}
	if _, err := tester.Run(uniformSampler(t, 4), nil); err == nil {
		t.Error("nil rng accepted")
	}
	if tester.Players() != 3 || tester.MaxSamplesPerPlayer() != 1 {
		t.Error("accessors wrong")
	}
}

func TestTesterOnRandomTopologies(t *testing.T) {
	// Exhaustive vote patterns on random trees: the count must always be
	// exact regardless of topology.
	rng := testRand(7)
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.IntN(12)
		g, err := RandomTree(n, rng)
		if err != nil {
			t.Fatal(err)
		}
		accepts := make([]bool, n)
		rejections := 0
		for i := range accepts {
			accepts[i] = rng.Uint64()&1 == 0
			if !accepts[i] {
				rejections++
			}
		}
		T := 1 + rng.IntN(n)
		root := rng.IntN(n)
		tester, err := NewTester(TesterConfig{Graph: g, Root: root, Q: 0, Rule: fixedVoteRule(accepts), T: T})
		if err != nil {
			t.Fatal(err)
		}
		got, err := tester.Run(uniformSampler(t, 4), testRand(uint64(trial)))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if want := rejections < T; got != want {
			t.Fatalf("trial %d (n=%d T=%d): verdict %v, want %v", trial, n, T, got, want)
		}
	}
}

func TestSimulatorValidation(t *testing.T) {
	g, _ := Path(2)
	if _, err := NewSimulator(nil, nil); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := NewSimulator(g, make([]NodeProgram, 1)); err == nil {
		t.Error("program count mismatch accepted")
	}
	if _, err := NewSimulator(g, make([]NodeProgram, 2)); err == nil {
		t.Error("nil programs accepted")
	}
}

// stuckProgram never terminates, and never asks to be woken.
type stuckProgram struct{}

func (stuckProgram) Step(int, Inbox, *Outbox) (bool, error) { return false, nil }

func TestSimulatorDetectsNonTermination(t *testing.T) {
	g, _ := Path(2)
	sim, err := NewSimulator(g, []NodeProgram{stuckProgram{}, stuckProgram{}})
	if err != nil {
		t.Fatal(err)
	}
	// Nothing is in flight after round 0 and nobody asked to be woken:
	// the run stops there instead of idling to the round limit.
	if err := sim.Run(10); !errors.Is(err, ErrStalled) {
		t.Errorf("stuck protocol: got %v, want ErrStalled", err)
	}
	if sim.Rounds() != 1 {
		t.Errorf("stuck protocol ran %d rounds, want 1", sim.Rounds())
	}
	// A program that asks to be woken every round never stalls; it runs
	// into the round limit.
	insomniac := stepFunc(func(_ int, _ Inbox, out *Outbox) (bool, error) {
		out.StayAwake()
		return false, nil
	})
	sim2, err := NewSimulator(g, []NodeProgram{insomniac, insomniac})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim2.Run(10); err == nil || errors.Is(err, ErrStalled) {
		t.Errorf("self-waking protocol: got %v, want the round-limit error", err)
	}
	if sim2.Rounds() != 10 {
		t.Errorf("self-waking protocol ran %d rounds, want 10", sim2.Rounds())
	}
	if err := sim2.Run(0); err == nil {
		t.Error("maxRounds=0 accepted")
	}
}

// chattyProgram violates the model by double-sending.
type chattyProgram struct{ peer int }

func (c chattyProgram) Step(_ int, _ Inbox, out *Outbox) (bool, error) {
	if err := out.Send(c.peer, 1); err != nil {
		return false, err
	}
	if err := out.Send(c.peer, 2); err != nil {
		return false, fmt.Errorf("double send rejected as expected: %w", err)
	}
	return true, nil
}

func TestOutboxEnforcesModel(t *testing.T) {
	g, _ := Path(2)
	sim, err := NewSimulator(g, []NodeProgram{chattyProgram{peer: 1}, chattyProgram{peer: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(5); err == nil {
		t.Error("double-send not surfaced")
	}
	// Send to non-neighbor.
	out := newOutbox(0, []int{1})
	if err := out.Send(0, 1); err == nil {
		t.Error("self-send accepted")
	}
	out3 := newOutbox(0, []int{1})
	if err := out3.Send(2, 1); err == nil {
		t.Error("non-neighbor send accepted")
	}
	// By position: one outside the list is an error, and a second send on
	// a position is one too, whichever of Send and SendAt queued first.
	// Queued and QueuedAt agree on every neighbor, and QueuedAt is false
	// outside the list.
	neighbors := make([]int, 70)
	for i := range neighbors {
		neighbors[i] = 2 * (i + 1)
	}
	wide := newOutbox(1, neighbors)
	for _, pos := range []int{-1, len(neighbors)} {
		if err := wide.SendAt(pos, 1); err == nil {
			t.Errorf("SendAt(%d, p) on %d neighbors accepted", pos, len(neighbors))
		}
		if wide.QueuedAt(pos) {
			t.Errorf("QueuedAt(%d) true on %d neighbors", pos, len(neighbors))
		}
	}
	for _, pos := range []int{0, 63, 64, 69} {
		if err := wide.SendAt(pos, 1); err != nil {
			t.Fatalf("SendAt(%d, p): %v", pos, err)
		}
		if err := wide.SendAt(pos, 2); err == nil {
			t.Errorf("second SendAt(%d, p) accepted", pos)
		}
		if err := wide.Send(neighbors[pos], 2); err == nil {
			t.Errorf("Send after SendAt(%d, p) accepted", pos)
		}
	}
	if err := wide.Send(neighbors[5], 1); err != nil {
		t.Fatal(err)
	}
	if err := wide.SendAt(5, 2); err == nil {
		t.Error("SendAt after Send to the same neighbor accepted")
	}
	queued := []int{0, 5, 63, 64, 69}
	for pos, v := range neighbors {
		at, by := wide.QueuedAt(pos), wide.Queued(v)
		if at != by || at != slices.Contains(queued, pos) {
			t.Errorf("position %d (neighbor %d): QueuedAt %v, Queued %v", pos, v, at, by)
		}
		if wide.Queued(v + 1) {
			t.Errorf("Queued(%d) true for a non-neighbor", v+1)
		}
	}
}

func TestPayloadEncoding(t *testing.T) {
	for _, tag := range []Payload{tagExplore, tagChild, tagNack, tagReport, tagDecide} {
		for _, value := range []uint64{0, 1, 1000, 1 << 40} {
			gotTag, gotValue := decode(encode(tag, value))
			if gotTag != tag || gotValue != value {
				t.Fatalf("encode/decode(%d, %d) = (%d, %d)", tag, value, gotTag, gotValue)
			}
		}
	}
}
