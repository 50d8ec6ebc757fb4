package network

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"github.com/distributed-uniformity/dut/internal/core"
	"github.com/distributed-uniformity/dut/internal/dist"
	"github.com/distributed-uniformity/dut/internal/engine"
)

// runSession runs a lock-step session of rounds trials, as a deployment
// does: engine.Run with one worker on a cluster backend of its own, from
// base seed rng.Uint64(). Each round is a batch of one trial, decided
// before the next round's ROUND_BATCH goes out, so a fault injected in
// one round has settled its player's slot before the next. The backend
// is closed before it returns, and a close error is reported when the
// run succeeded.
func runSession(ctx context.Context, c *Cluster, s dist.Sampler, rng *rand.Rand, rounds int) ([]engine.RoundResult, error) {
	b, err := NewBackend(c)
	if err != nil {
		return nil, err
	}
	results, err := engine.Run(ctx, b, engine.Fixed(s), rounds, engine.Options{Workers: 1, Seed: rng.Uint64()})
	if closeErr := b.(*clusterBackend).Close(); err == nil {
		err = closeErr
	}
	return results, err
}

func TestSessionBasics(t *testing.T) {
	// Deterministic rule: accept iff the first sample is even.
	rule := core.RuleFunc(func(_ int, samples []int, _ uint64, _ *rand.Rand) (core.Message, error) {
		if samples[0]%2 == 0 {
			return core.Accept, nil
		}
		return core.Reject, nil
	})
	c, err := NewCluster(ClusterConfig{
		K: 4, Q: 1, Rule: rule, Referee: core.BitReferee{Rule: core.ANDRule{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	evens, err := dist.FromWeights([]float64{1, 0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	s, err := dist.NewAliasSampler(evens)
	if err != nil {
		t.Fatal(err)
	}
	results, err := runSession(context.Background(), c, s, testRand(1), 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 7 {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if !r.Verdict {
			t.Errorf("round %d rejected all-even input", i)
		}
	}
}

// TestSessionValidation: a session the engine refuses (no rounds, no
// source, a source with no sampler) fails before the cluster backend
// listens or a player dials, so it leaves nothing open. A valid session
// on the same backend then opens one session of poolPlayers players.
func TestSessionValidation(t *testing.T) {
	checkGoroutines(t)
	b, _, ct, lc := countedBackend(t, 0, 10*time.Second)
	s := uniformSampler(t, 16)
	ctx := context.Background()
	for _, c := range []struct {
		name   string
		src    engine.Source
		rounds int
	}{
		{"zero rounds", engine.Fixed(s), 0},
		{"nil source", nil, 3},
		{"nil sampler", engine.Fixed(nil), 3},
	} {
		if _, err := engine.Run(ctx, b, c.src, c.rounds, engine.Options{Workers: 1}); err == nil {
			t.Errorf("%s: session ran", c.name)
		}
	}
	if hellos, _ := helloCounts(ct); hellos != 0 || lc.listens.Load() != 0 {
		t.Errorf("refused sessions: %d HELLO frames over %d listeners, want none", hellos, lc.listens.Load())
	}
	if _, err := engine.Run(ctx, b, engine.Fixed(s), 3, engine.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if hellos, _ := helloCounts(ct); hellos != poolPlayers || lc.listens.Load() != 1 {
		t.Errorf("valid session: %d HELLO frames over %d listeners, want %d over 1", hellos, lc.listens.Load(), poolPlayers)
	}
}

// TestClusterRunIsOneEngineTrial: Cluster.Run draws one word from its
// rng and decides trial 0 of that base seed, as engine.Run does on a
// backend of the cluster's own, and it closes the session it opened
// before it returns: every player that said HELLO has been sent FINISH.
func TestClusterRunIsOneEngineTrial(t *testing.T) {
	checkGoroutines(t)
	ct, err := NewCountingTransport(NewMemTransport())
	if err != nil {
		t.Fatal(err)
	}
	cfg := poolConfig(ct, 0, 10*time.Second)
	c := poolCluster(t, cfg)
	refCfg := cfg
	refCfg.Transport = NewMemTransport()
	ref := testBackend(t, poolCluster(t, refCfg))
	s := uniformSampler(t, 16)
	for i := uint64(0); i < 8; i++ {
		rng := testRand(100 + i)
		got, err := c.Run(s, rng)
		if err != nil {
			t.Fatal(err)
		}
		want := testRand(100 + i)
		results, err := engine.Run(context.Background(), ref, engine.Fixed(s), 1, engine.Options{Workers: 1, Seed: want.Uint64()})
		if err != nil {
			t.Fatal(err)
		}
		if got != results[0].Verdict {
			t.Errorf("rng %d: Run verdict %v, engine trial 0 %v", i, got, results[0].Verdict)
		}
		if rng.Uint64() != want.Uint64() {
			t.Errorf("rng %d: Run drew other than one word", i)
		}
		root, agg := ct.Snapshot()
		hellos, finishes := root.Up[FrameHello]+agg.Up[FrameHello], root.Down[FrameFinish]+agg.Down[FrameFinish]
		if want := (i + 1) * poolPlayers; hellos != want || finishes != want {
			t.Errorf("after %d Run calls: %d HELLO and %d FINISH frames, want %d of each", i+1, hellos, finishes, want)
		}
	}
}

func TestSessionMatchesSingleRounds(t *testing.T) {
	// A 21-round session's acceptance frequency on uniform input matches
	// 21 independent single rounds, and amplification beats one round:
	// engine.Amplify on the cluster's backend with one worker, each
	// session from its own base seed.
	const (
		n   = 256
		k   = 8
		eps = 0.5
	)
	q := core.RecommendedThresholdSamples(n, k, eps)
	smp, err := core.NewThresholdTester(core.ThresholdTesterConfig{N: n, K: k, Q: q, Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(ClusterConfig{
		K: k, Q: q,
		Rule:    smp.Local(),
		Referee: core.BitReferee{Rule: core.ThresholdRule{T: core.DefaultThresholdT(k)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	uniform, _ := dist.Uniform(n)
	s, err := dist.NewAliasSampler(uniform)
	if err != nil {
		t.Fatal(err)
	}
	b := testBackend(t, c)
	rng := testRand(9)
	acceptCount, total := 0, 0
	majorities := 0
	const sessions = 12
	for i := 0; i < sessions; i++ {
		maj, results, err := engine.Amplify(context.Background(), b, engine.Fixed(s), 21,
			engine.Options{Workers: 1, Seed: rng.Uint64()})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			total++
			if r.Verdict {
				acceptCount++
			}
		}
		if maj {
			majorities++
		}
	}
	perRound := float64(acceptCount) / float64(total)
	if math.Abs(perRound-0.97) > 0.12 {
		t.Errorf("per-round acceptance %v, want near the tester's ~0.97", perRound)
	}
	if majorities != sessions {
		t.Errorf("majority verdict wrong in %d/%d sessions", sessions-majorities, sessions)
	}
}

func TestSessionOverTCP(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		K: 3, Q: 2, Rule: acceptAllRule(),
		Referee:   core.BitReferee{Rule: core.ANDRule{}},
		Transport: TCPTransport{},
	})
	if err != nil {
		t.Fatal(err)
	}
	results, err := runSession(context.Background(), c, uniformSampler(t, 8), testRand(10), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("got %d results", len(results))
	}
}

func TestSessionFreshSeedsPerRound(t *testing.T) {
	// Each round must carry a distinct public seed.
	var mu = make(chan uint64, 64)
	rule := core.RuleFunc(func(_ int, _ []int, shared uint64, _ *rand.Rand) (core.Message, error) {
		select {
		case mu <- shared:
		default:
		}
		return core.Accept, nil
	})
	c, err := NewCluster(ClusterConfig{
		K: 1, Q: 0, Rule: rule, Referee: core.BitReferee{Rule: core.ANDRule{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runSession(context.Background(), c, uniformSampler(t, 4), testRand(11), 6); err != nil {
		t.Fatal(err)
	}
	close(mu)
	seen := map[uint64]bool{}
	count := 0
	for s := range mu {
		if seen[s] {
			t.Fatalf("seed %d repeated across rounds", s)
		}
		seen[s] = true
		count++
	}
	if count != 6 {
		t.Fatalf("rule saw %d seeds, want 6", count)
	}
}

func TestSessionCancellation(t *testing.T) {
	block := make(chan struct{})
	t.Cleanup(func() { close(block) })
	rule := core.RuleFunc(func(int, []int, uint64, *rand.Rand) (core.Message, error) {
		<-block
		return core.Accept, nil
	})
	c, err := NewCluster(ClusterConfig{
		K: 2, Q: 0, Rule: rule,
		Referee: core.BitReferee{Rule: core.ANDRule{}},
		Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := runSession(ctx, c, uniformSampler(t, 4), testRand(12), 3)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("cancelled session reported success")
		}
	case <-time.After(3 * time.Second):
		t.Error("cancellation did not abort the session")
	}
}
