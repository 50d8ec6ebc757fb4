package core

// Allocation guards for the paper's own local rules at smp-sampling size
// (n=4096, q=642): the collision count behind the FMO threshold tester
// and the r-bit quantized tester must not allocate per Message call, and
// neither may a whole SMP scratch round over them. The assertions are
// skipped under the race detector, whose instrumentation allocates on its
// own account.

import (
	"context"
	"math/rand/v2"
	"testing"

	"github.com/distributed-uniformity/dut/internal/dist"
	"github.com/distributed-uniformity/dut/internal/engine"
)

const (
	allocN    = 4096
	allocK    = 16
	allocQ    = 642
	allocSeed = 1
)

func allocSampler(t *testing.T) dist.Sampler {
	t.Helper()
	u, err := dist.Uniform(allocN)
	if err != nil {
		t.Fatal(err)
	}
	s, err := dist.NewAliasSampler(u)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// ruleAllocs measures allocations per Message call.
func ruleAllocs(t *testing.T, rule LocalRule) float64 {
	t.Helper()
	rng := rand.New(rand.NewPCG(allocSeed, 2))
	samples := make([]int, allocQ)
	dist.SampleInto(allocSampler(t), samples, rng)
	return testing.AllocsPerRun(200, func() {
		if _, err := rule.Message(0, samples, allocSeed, rng); err != nil {
			t.Fatal(err)
		}
	})
}

func TestCollisionVoteRuleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rule, err := newCollisionVoteRule(allocN, allocQ, LocalAlphaForThreshold(allocK, DefaultThresholdT(allocK)))
	if err != nil {
		t.Fatal(err)
	}
	if allocs := ruleAllocs(t, rule); allocs > 0 {
		t.Fatalf("collision vote rule allocates %.2f per call, want 0", allocs)
	}
}

func TestQuantizedCollisionRuleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rule, err := NewQuantizedCollisionRule(allocN, allocQ, 3)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := ruleAllocs(t, rule); allocs > 0 {
		t.Fatalf("quantized collision rule allocates %.2f per call, want 0", allocs)
	}
}

// TestThresholdTesterScratchRoundAllocs holds a whole SMP scratch round
// — k players sampling and counting collisions, then the referee — to
// zero allocations, for the FMO threshold tester and for the r-bit
// quantized sum tester at r=3, whose SumThresholdReferee sums the
// messages in its Decide.
func TestThresholdTesterScratchRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	threshold, err := NewThresholdTester(ThresholdTesterConfig{N: allocN, K: allocK, Q: allocQ, Eps: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	quantized, err := NewQuantizedSumTester(allocN, allocK, allocQ, 3)
	if err != nil {
		t.Fatal(err)
	}
	sampler := allocSampler(t)
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		p    *SMP
	}{{"threshold tester", threshold}, {"quantized sum tester r=3", quantized}} {
		b, err := BackendFor(tc.p)
		if err != nil {
			t.Fatal(err)
		}
		sb, ok := b.(engine.BatchBackend)
		if !ok {
			t.Fatal("SMP backend does not implement engine.BatchBackend")
		}
		scratch := sb.NewScratch()
		trial := 0
		allocs := testing.AllocsPerRun(100, func() {
			spec := engine.RoundSpec{Trial: trial, Seed: allocSeed, Sampler: sampler}
			trial++
			if _, err := sb.RunRoundScratch(ctx, spec, scratch); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("%s scratch round allocates %.2f per round, want 0", tc.name, allocs)
		}
	}
}

// TestCollisionRefereeDecideAllocs holds the ACT referee's decide to
// zero allocations at l=4, the width cluster-short runs, where the
// cluster's opaque per-trial decide calls it once per trial. Its counts
// live on the stack up to 64 buckets; a 128-bucket referee takes the
// heap path and must decide the same collision pattern alike.
func TestCollisionRefereeDecideAllocs(t *testing.T) {
	msgs := make([]Message, 514)
	for i := range msgs {
		msgs[i] = Message(i * 7 % 16)
	}
	// The 514 messages fill 16 buckets with 32 or 33 each: 8,000
	// colliding pairs, under the 16-bucket threshold (about 8,498) and
	// over the 128-bucket one (about 1,288).
	for _, tc := range []struct {
		buckets int
		accept  bool
	}{{16, true}, {128, false}} {
		r, err := NewCollisionReferee(64, tc.buckets, len(msgs), 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if accept, err := r.Decide(msgs); err != nil || accept != tc.accept {
			t.Errorf("%d buckets: Decide = (%v, %v), want %v (threshold %.1f)", tc.buckets, accept, err, tc.accept, r.Threshold())
		}
	}
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	r, err := NewCollisionReferee(64, 16, len(msgs), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := r.Decide(msgs); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("collision referee decide allocates %.2f per call at 16 buckets, want 0", allocs)
	}
}
