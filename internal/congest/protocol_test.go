package congest

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"github.com/distributed-uniformity/dut/internal/core"
	"github.com/distributed-uniformity/dut/internal/dist"
	"github.com/distributed-uniformity/dut/internal/engine"
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
	path := runOnce(t, pathTester, 2)
	star, _ := Star(64)
	starTester, err := NewTester(TesterConfig{Graph: star, Root: 0, Q: 0, Rule: rule, T: 1})
	if err != nil {
		t.Fatal(err)
	}
	starSim := runOnce(t, starTester, 3)
	if path.Rounds() < 63 {
		t.Errorf("path rounds %d below diameter", path.Rounds())
	}
	if path.Rounds() > 4*63+10 {
		t.Errorf("path rounds %d not O(diameter)", path.Rounds())
	}
	if starSim.Rounds() > 12 {
		t.Errorf("star rounds %d, want O(1)", starSim.Rounds())
	}
	if path.MaxMessageBits() > MessageBits {
		t.Errorf("message width %d over cap", path.MaxMessageBits())
	}
}

// runOnce runs one round of the tester on a fresh scratch, with public
// coin shared, over U_4, and returns the simulator holding its
// statistics.
func runOnce(t *testing.T, tester *Tester, shared uint64) *Simulator {
	t.Helper()
	_, sim, err := tester.runSeededScratch(uniformSampler(t, 4), shared, tester.newScratch())
	if err != nil {
		t.Fatal(err)
	}
	return sim
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
	if m := runOnce(t, tester, 4).MessagesSent(); m > 6*g.Edges() {
		t.Errorf("%d messages on %d edges — not O(1) per edge", m, g.Edges())
	}
}

func TestCONGESTMatchesSMPTester(t *testing.T) {
	// The CONGEST tester over any topology realizes exactly the SMP
	// threshold tester: on the engine's coins, through core.BackendFor,
	// both decide every trial alike, so they accept equally often.
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
	uniform, err := dist.Uniform(n)
	if err != nil {
		t.Fatal(err)
	}
	estimate := func(p core.Protocol, d dist.Dist) engine.Result {
		t.Helper()
		b, err := core.BackendFor(p)
		if err != nil {
			t.Fatal(err)
		}
		src, err := engine.FromDist(d)
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.Estimate(context.Background(), b, src, 200, engine.Options{Seed: 6})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, d := range []struct {
		name string
		d    dist.Dist
	}{{"far", far}, {"uniform", uniform}} {
		s, c := estimate(smp, d.d), estimate(congest, d.d)
		if s.Estimate.Successes != c.Estimate.Successes {
			t.Errorf("%s: SMP accepts %d of 200 trials, CONGEST %d", d.name, s.Estimate.Successes, c.Estimate.Successes)
		}
		for i := range s.Rounds {
			if s.Rounds[i].Verdict != c.Rounds[i].Verdict {
				t.Errorf("%s: trial %d: SMP verdict %v, CONGEST %v", d.name, i, s.Rounds[i].Verdict, c.Rounds[i].Verdict)
				break
			}
		}
	}
}

// evenTester is allocTester's fair-coin rule on a five-node path rooted
// in its middle, with T = 3, so that about half its runs accept.
func evenTester(t *testing.T) *Tester {
	t.Helper()
	g, err := Path(5)
	if err != nil {
		t.Fatal(err)
	}
	rule := allocTester(t, func() (*Graph, error) { return g, nil }).rule
	tester, err := NewTester(TesterConfig{Graph: g, Root: 2, Q: 3, Rule: rule, T: 3})
	if err != nil {
		t.Fatal(err)
	}
	return tester
}

// TestBackendForRunsTheTesterBackend: core.BackendFor hands the tester
// the CONGEST backend, which no other backend could pass for: each of
// its trials decides as RunSeeded on the engine's public coin for that
// trial, and reports the rounds and messages of that trial's own CONGEST
// execution.
func TestBackendForRunsTheTesterBackend(t *testing.T) {
	tester := evenTester(t)
	b, err := core.BackendFor(tester)
	if err != nil {
		t.Fatal(err)
	}
	const seed, trials = 0x5eed, 24
	s := allocSampler(t)
	results, err := engine.Run(context.Background(), b, engine.Fixed(s), trials, engine.Options{Seed: seed, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	accepts := 0
	for i, r := range results {
		shared := engine.SharedSeed(seed, i)
		want, sim, err := tester.runSeededScratch(s, shared, tester.newScratch())
		if err != nil {
			t.Fatal(err)
		}
		if r.Verdict != want || r.CommRounds != sim.Rounds() || r.Messages != sim.MessagesSent() {
			t.Errorf("trial %d: verdict %v, %d rounds, %d messages; RunSeeded's %v, %d, %d",
				i, r.Verdict, r.CommRounds, r.Messages, want, sim.Rounds(), sim.MessagesSent())
		}
		if r.Votes != tester.Players() || r.Samples != tester.Players()*tester.MaxSamplesPerPlayer() {
			t.Errorf("trial %d: %d votes over %d samples", i, r.Votes, r.Samples)
		}
		if r.Verdict {
			accepts++
		}
	}
	if accepts == 0 || accepts == trials {
		t.Errorf("%d of %d trials accepted; the verdicts never differ", accepts, trials)
	}
}

// TestRunSeededConcurrent: RunSeeded votes on a fresh scratch, so calls
// on one tester from several goroutines share no state and decide as
// the same calls made one at a time.
func TestRunSeededConcurrent(t *testing.T) {
	tester := evenTester(t)
	s := allocSampler(t)
	const seeds, workers = 32, 4
	want := make([]bool, seeds)
	for i := range want {
		v, err := tester.RunSeeded(s, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}
	got := make([][]bool, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range got {
		got[w] = make([]bool, seeds)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range got[w] {
				v, err := tester.RunSeeded(s, uint64(i))
				if err != nil {
					errs[w] = err
					return
				}
				got[w][i] = v
			}
		}()
	}
	wg.Wait()
	for w := range got {
		if errs[w] != nil {
			t.Fatalf("goroutine %d: %v", w, errs[w])
		}
		if !slices.Equal(got[w], want) {
			t.Errorf("goroutine %d decided %v, one at a time %v", w, got[w], want)
		}
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
