package core

import (
	"math/rand/v2"
	"testing"
)

// TestCollisionRuleInstanceMatchesShared: the instance of a collision
// rule (Instancer), which counts into a counter of its own, derives the
// shared pooled rule's message and error on every call. Domains, sample
// counts, message widths, false-alarm rates, private coins and samples
// are random; now and then one sample mid-slice is out of the domain.
// Domains run past maxOwnedDomain, so some instances own a counter and
// the others count through the pool. Each instance serves a run of
// calls, so the calls after an error check that the slots the failed
// call counted into read as zero.
func TestCollisionRuleInstanceMatchesShared(t *testing.T) {
	rng := rand.New(rand.NewPCG(26, 1))
	errors := 0
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.IntN(64<<(trial%3*3))
		q := rng.IntN(64)
		var shared LocalRule
		var err error
		if trial%2 == 0 {
			shared, err = newCollisionVoteRule(n, q, 0.01+0.5*rng.Float64())
		} else {
			shared, err = NewQuantizedCollisionRule(n, q, 1+rng.IntN(60))
		}
		if err != nil {
			t.Fatal(err)
		}
		inst := Instance(shared)
		if inst == shared {
			t.Fatalf("%T: Instance returned the shared rule", shared)
		}
		if inst.Bits() != shared.Bits() {
			t.Fatalf("%T: instance uses %d bits, the shared rule %d", shared, inst.Bits(), shared.Bits())
		}
		samples := make([]int, q)
		for call := 0; call < 8; call++ {
			for i := range samples {
				samples[i] = rng.IntN(n)
			}
			if q > 2 && rng.IntN(3) == 0 {
				samples[1+rng.IntN(q-2)] = [...]int{-1, n, n + 1 + rng.IntN(1000)}[rng.IntN(3)]
			}
			coin := rng.Uint64()
			want, wantErr := shared.Message(trial, samples, coin, rand.New(rand.NewPCG(coin, 5)))
			got, gotErr := inst.Message(trial, samples, coin, rand.New(rand.NewPCG(coin, 5)))
			if got != want || (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Fatalf("%T n=%d q=%d call %d: instance (%#x, %v), shared rule (%#x, %v)",
					shared, n, q, call, uint64(got), gotErr, uint64(want), wantErr)
			}
			if wantErr != nil {
				errors++
			}
		}
	}
	if errors == 0 {
		t.Fatal("no out-of-domain sample reached the rules")
	}
}

// TestRuleWithoutInstancerIsItsOwnInstance: Instance falls back to the
// rule itself when it keeps no scratch.
func TestRuleWithoutInstancerIsItsOwnInstance(t *testing.T) {
	rule := &StatRule{Stat: func([]int) (float64, error) { return 0, nil }}
	if got := Instance(rule); got != LocalRule(rule) {
		t.Errorf("Instance(%T) = %v, want the rule itself", rule, got)
	}
}

// TestInstanceOwnsCounterUpToMaxOwnedDomain: an instance of either
// collision rule owns a counter over a domain of at most maxOwnedDomain
// and keeps the shared pooled statistic over a wider one, so a node's
// counter is never wider than maxOwnedDomain words.
func TestInstanceOwnsCounterUpToMaxOwnedDomain(t *testing.T) {
	for _, n := range []int{1, 64, maxOwnedDomain, maxOwnedDomain + 1, 4096} {
		vote, err := newCollisionVoteRule(n, 4, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		quant, err := NewQuantizedCollisionRule(n, 4, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, coll := range []collisions{
			Instance(vote).(*collisionVoteRule).coll,
			Instance(quant).(*QuantizedCollisionRule).coll,
		} {
			if owns := coll.pooled == nil; owns != (n <= maxOwnedDomain) {
				t.Errorf("n=%d: instance owns a counter %v, want %v", n, owns, n <= maxOwnedDomain)
			}
		}
	}
}
