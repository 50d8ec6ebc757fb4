package core

import (
	"fmt"
	"math"
	"math/rand/v2"

	"github.com/distributed-uniformity/dut/internal/dist"
	"github.com/distributed-uniformity/dut/internal/engine"
)

// GroupLearner is a distributed learning protocol for the task of the
// paper's Theorem 1.4: k players with q samples each send one bit, and the
// referee reconstructs an estimate of the unknown distribution.
//
// The players are partitioned into n groups; every player in group e sends
// the indicator "element e appeared among my q samples", an event of
// probability 1 - (1 - mu(e))^q. The referee inverts the per-group
// empirical frequency to an estimate of mu(e) and normalizes. With g
// players per group the per-element standard error is about
// sqrt(q mu(e)) / (q sqrt(g)), giving L1 error ~ n / sqrt(q k) overall —
// an upper bound of k = O(n^2/(q delta^2)) players for delta accuracy,
// to be compared against the Theorem 1.4 lower bound k = Omega(n^2/q^2).
type GroupLearner struct {
	n int
	k int
	q int
}

// NewGroupLearner validates the configuration; k should be a multiple of n
// (the remainder players join the first groups and only sharpen them).
func NewGroupLearner(n, k, q int) (*GroupLearner, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: learner over domain %d", n)
	}
	if k < n {
		return nil, fmt.Errorf("core: learner needs at least one player per element, got k=%d < n=%d", k, n)
	}
	if q < 1 {
		return nil, fmt.Errorf("core: learner with %d samples per player", q)
	}
	return &GroupLearner{n: n, k: k, q: q}, nil
}

// Players returns k.
func (g *GroupLearner) Players() int { return g.k }

// SamplesPerPlayer returns q.
func (g *GroupLearner) SamplesPerPlayer() int { return g.q }

// rule returns the indicator local rule.
func (g *GroupLearner) rule() LocalRule {
	return RuleFunc(func(player int, samples []int, _ uint64, _ *rand.Rand) (Message, error) {
		e := player % g.n
		for _, s := range samples {
			if s == e {
				return 1, nil
			}
		}
		return 0, nil
	})
}

// Learn runs the protocol once and returns the referee's estimate.
func (g *GroupLearner) Learn(sampler dist.Sampler, rng *rand.Rand) (dist.Dist, error) {
	smp, err := NewSMP(g.k, g.q, g.rule(), refereeNop{})
	if err != nil {
		return dist.Dist{}, err
	}
	msgs, err := smp.RunMessages(sampler, rng)
	if err != nil {
		return dist.Dist{}, err
	}
	ones := make([]int, g.n)
	sizes := make([]int, g.n)
	for player, m := range msgs {
		e := player % g.n
		sizes[e]++
		if m&1 == 1 {
			ones[e]++
		}
	}
	w := make([]float64, g.n)
	var total float64
	for e := 0; e < g.n; e++ {
		pHat := float64(ones[e]) / float64(sizes[e])
		// Invert p = 1 - (1 - mu)^q; clamp p away from 1 so the estimate
		// stays finite when every player in a group saw the element.
		if pHat > 1-1e-12 {
			pHat = 1 - 1e-12
		}
		mu := 1 - math.Pow(1-pHat, 1/float64(g.q))
		w[e] = mu
		total += mu
	}
	if total <= 0 {
		// Degenerate run (tiny q*k): fall back to the uniform prior rather
		// than failing, mirroring what a deployed learner would report
		// with no evidence.
		return dist.Uniform(g.n)
	}
	return dist.FromWeights(w)
}

// EstimateL1Error measures the expected L1 error of the learner against a
// known truth by Monte-Carlo.
func (g *GroupLearner) EstimateL1Error(truth dist.Dist, trials int, seed uint64) (float64, error) {
	if truth.N() != g.n {
		return 0, fmt.Errorf("core: truth domain %d, learner domain %d", truth.N(), g.n)
	}
	if trials <= 0 {
		return 0, fmt.Errorf("core: estimating with %d trials", trials)
	}
	sampler, err := dist.NewAliasSampler(truth)
	if err != nil {
		return 0, err
	}
	rng := engine.TrialRNG(seed, 0)
	var acc float64
	for i := 0; i < trials; i++ {
		est, err := g.Learn(sampler, rng)
		if err != nil {
			return 0, err
		}
		l1, err := dist.L1(est, truth)
		if err != nil {
			return 0, err
		}
		acc += l1
	}
	return acc / float64(trials), nil
}

// refereeNop satisfies Referee for message-collection runs that never
// decide.
type refereeNop struct{}

// Decide accepts every round: the learner reads the messages, not a verdict.
func (refereeNop) Decide([]Message) (bool, error) { return true, nil }
