package network

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"github.com/distributed-uniformity/dut/internal/core"
	"github.com/distributed-uniformity/dut/internal/dist"
)

func TestRunManyBasics(t *testing.T) {
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
	verdicts, err := c.RunMany(context.Background(), s, testRand(1), 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != 7 {
		t.Fatalf("got %d verdicts", len(verdicts))
	}
	for i, v := range verdicts {
		if !v {
			t.Errorf("round %d rejected all-even input", i)
		}
	}
	maj, err := MajorityVerdict(verdicts)
	if err != nil || !maj {
		t.Errorf("majority = %v, %v", maj, err)
	}
}

func TestRunManyValidation(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		K: 1, Q: 1, Rule: acceptAllRule(), Referee: core.BitReferee{Rule: core.ANDRule{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := uniformSampler(t, 4)
	if _, err := c.RunMany(context.Background(), nil, testRand(0), 3); err == nil {
		t.Error("nil sampler accepted")
	}
	if _, err := c.RunMany(context.Background(), s, nil, 3); err == nil {
		t.Error("nil rng accepted")
	}
	if _, err := c.RunMany(context.Background(), s, testRand(0), 0); err == nil {
		t.Error("zero rounds accepted")
	}
}

func TestMajorityVerdict(t *testing.T) {
	if _, err := MajorityVerdict(nil); err == nil {
		t.Error("empty verdicts accepted")
	}
	maj, err := MajorityVerdict([]bool{true, false, true})
	if err != nil || !maj {
		t.Errorf("majority = %v, %v", maj, err)
	}
	maj, err = MajorityVerdict([]bool{true, false, false, false})
	if err != nil || maj {
		t.Errorf("minority = %v, %v", maj, err)
	}
}

func TestSessionMatchesSingleRounds(t *testing.T) {
	// A 21-round session's acceptance frequency on uniform input matches
	// 21 independent single rounds, and amplification beats one round.
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
	rng := testRand(9)
	acceptCount, total := 0, 0
	majorities := 0
	const sessions = 12
	for i := 0; i < sessions; i++ {
		verdicts, err := c.RunMany(context.Background(), s, rng, 21)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range verdicts {
			total++
			if v {
				acceptCount++
			}
		}
		maj, err := MajorityVerdict(verdicts)
		if err != nil {
			t.Fatal(err)
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
	verdicts, err := c.RunMany(context.Background(), uniformSampler(t, 8), testRand(10), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != 5 {
		t.Fatalf("got %d verdicts", len(verdicts))
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
	if _, err := c.RunMany(context.Background(), uniformSampler(t, 4), testRand(11), 6); err != nil {
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
		_, err := c.RunMany(ctx, uniformSampler(t, 4), testRand(12), 3)
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

func TestRefereeSessionValidation(t *testing.T) {
	c := fakeCluster(t, 1, acceptAllRule(), time.Second)
	if _, _, err := c.RunManyStats(context.Background(), uniformSampler(t, 4), testRand(0), 0); err == nil {
		t.Error("zero rounds accepted")
	}
}
