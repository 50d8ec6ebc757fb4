package core

import (
	"fmt"
	"math/rand/v2"

	"github.com/distributed-uniformity/dut/internal/centralized"
	"github.com/distributed-uniformity/dut/internal/stats"
)

// collisionVoteRule is the local decision of the threshold-family testers:
// count collisions among the player's q samples and reject when the count
// is high. The rejection boundary is randomized so that, under the Poisson
// approximation of the null collision count (rate lambda = C(q,2)/n), the
// rejection probability equals alpha exactly:
//
//	count >= cut            -> reject,
//	count == cut-1          -> reject with probability gamma,
//	count <  cut-1          -> accept.
//
// Without the randomized boundary, Poisson discreteness would leave the
// realized false-alarm rate anywhere below alpha, and at small lambda that
// quantization gap eats the Theta(1/sqrt(k)) signal margins the
// sample-optimal threshold tester depends on.
type collisionVoteRule struct {
	coll  collisions
	cut   int
	gamma float64
}

var (
	_ LocalRule = (*collisionVoteRule)(nil)
	_ Instancer = (*collisionVoteRule)(nil)
)

// collisions is how the collision rules count: a shared rule through the
// pooled statistic, which any number of callers may use at once, and an
// instance (Instancer) into a counter of its own, with no pool.
type collisions struct {
	n      int
	pooled centralized.Statistic // nil on an instance with its own counter
	own    centralized.CollisionCounter
}

// maxOwnedDomain is the widest domain an instance owns a counter for:
// 256 words, 2 KiB, the size a goroutine's stack starts at, so a node's
// counter stays small next to what the node already holds. An instance
// over a wider domain keeps counting through the pooled statistic, and a
// session's counters never grow as k·n.
const maxOwnedDomain = 256

// sharedCollisions is the counting state of a shared rule over domain n.
func sharedCollisions(n int) collisions {
	return collisions{n: n, pooled: centralized.CollisionStatistic(n)}
}

// instance is counting state for one caller: a counter of its own, whose
// slice is its one allocation, or over a domain wider than
// maxOwnedDomain the shared pooled state.
func (c *collisions) instance() collisions {
	if c.n > maxOwnedDomain {
		return *c
	}
	return collisions{n: c.n, own: centralized.NewCollisionCounter(c.n)}
}

// count returns the number of colliding pairs among samples.
//
//dut:hotpath
func (c *collisions) count(samples []int) (int64, error) {
	if c.pooled != nil {
		v, err := c.pooled(samples)
		return int64(v), err
	}
	return c.own.Count(samples)
}

// newCollisionVoteRule builds the rule for domain size n, per-player sample
// count q and target local false-alarm probability alpha.
func newCollisionVoteRule(n, q int, alpha float64) (*collisionVoteRule, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: vote rule over domain %d", n)
	}
	if q < 0 {
		return nil, fmt.Errorf("core: vote rule with %d samples", q)
	}
	if alpha <= 0 || alpha >= 1 {
		return nil, fmt.Errorf("core: vote rule false-alarm rate %v outside (0,1)", alpha)
	}
	lambda := float64(q) * float64(q-1) / 2 / float64(n)
	cut, err := stats.PoissonUpperTailThreshold(lambda, alpha)
	if err != nil {
		return nil, err
	}
	gamma := 0.0
	if cut > 0 {
		tailAtCut, err := stats.PoissonUpperTail(cut, lambda)
		if err != nil {
			return nil, err
		}
		pmfBelow, err := stats.PoissonPMF(cut-1, lambda)
		if err != nil {
			return nil, err
		}
		if pmfBelow > 0 {
			gamma = (alpha - tailAtCut) / pmfBelow
		}
		if gamma < 0 {
			gamma = 0
		}
		if gamma > 1 {
			gamma = 1
		}
	}
	return &collisionVoteRule{
		coll:  sharedCollisions(n),
		cut:   cut,
		gamma: gamma,
	}, nil
}

// Message implements LocalRule.
func (r *collisionVoteRule) Message(_ int, samples []int, _ uint64, private *rand.Rand) (Message, error) {
	c, err := r.coll.count(samples)
	if err != nil {
		return Reject, err
	}
	count := int(c)
	switch {
	case count >= r.cut:
		return Reject, nil
	case count == r.cut-1 && r.gamma > 0:
		if private.Float64() < r.gamma {
			return Reject, nil
		}
		return Accept, nil
	default:
		return Accept, nil
	}
}

// Bits implements LocalRule.
func (r *collisionVoteRule) Bits() int { return 1 }

// Instance implements Instancer: the same rule counting into a counter
// of its own.
func (r *collisionVoteRule) Instance() LocalRule {
	in := *r
	in.coll = r.coll.instance()
	return &in
}
