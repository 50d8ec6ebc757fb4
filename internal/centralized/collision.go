package centralized

import (
	"fmt"
	"math"
	"sync"
)

// CollisionCount returns the number of colliding sample pairs,
// sum_i C(c_i, 2) over the histogram counts c_i. It runs the collision
// kernel over a fresh counter; a CollisionCounter reuses its own.
func CollisionCount(samples []int, n int) (int64, error) {
	c := NewCollisionCounter(n)
	return c.Count(samples)
}

// CollisionCounter is the package's one collision kernel, over an
// n-wide slice of slots it owns: the per-player memory of a
// collision-based local rule. A slot holds a call's epoch in its high 32
// bits and a count in its low 32. Each Count call takes the next epoch
// e, and a slot from an older call holds less than e·2^32, so it reads
// as count 0 through max(slot, e·2^32): no call clears a slot, the
// out-of-domain error included. The slice is cleared once, when the
// epoch wraps after 2^32−1 calls. One counter serves all of its owner's
// calls without a pool. It is not safe for concurrent use;
// CollisionStatistic pools counters for callers that share one value.
type CollisionCounter struct {
	slots []uint64
	epoch uint32
}

// NewCollisionCounter returns a counter over the domain [0, n). It is a
// value, so a rule that owns one embeds it and allocates only the slice.
func NewCollisionCounter(n int) CollisionCounter {
	return CollisionCounter{slots: make([]uint64, n)}
}

// Count returns the number of colliding sample pairs, as CollisionCount
// does, without allocating: O(q) time. Each sample adds the count
// already in its slot before incrementing it, so a slot that ends at c
// contributes 0 + 1 + ... + (c-1) = C(c, 2), the histogram sum, exactly,
// without visiting untouched slots. A count must fit a slot's low 32
// bits, so a call of 2^32 or more samples is an error.
//
//dut:hotpath
func (c *CollisionCounter) Count(samples []int) (int64, error) {
	if uint64(len(samples)) > math.MaxUint32 {
		return 0, fmt.Errorf("centralized: %d samples in one collision count, above 2^32-1", len(samples))
	}
	c.epoch++
	if c.epoch == 0 {
		clear(c.slots)
		c.epoch = 1
	}
	epoch := uint64(c.epoch) << 32
	slots := c.slots
	var coll uint64
	for _, s := range samples {
		if uint(s) >= uint(len(slots)) {
			return 0, fmt.Errorf("centralized: dist: sample %d outside domain of size %d", s, len(slots))
		}
		v := max(slots[s], epoch)
		coll += v - epoch
		slots[s] = v + 1
	}
	return int64(coll), nil
}

// collisionStat is the pooled CollisionStatistic: one rule value can be
// shared by many goroutines at once (the engine workers of the SMP
// backend), so each call takes a counter from the pool and puts it
// back.
type collisionStat struct {
	n    int
	pool sync.Pool // of *CollisionCounter
}

// CollisionStatistic adapts the collision count to the Statistic type for
// a fixed domain size. The returned statistic is safe for concurrent use:
// it is a pool of CollisionCounters. It is built holding one counter, so
// the set-up pays the first allocation; a call allocates only when the
// pool has no counter at hand (another goroutine holds it, the caller
// moved to another processor, or garbage collection emptied the pool).
func CollisionStatistic(n int) Statistic {
	s := &collisionStat{n: n}
	s.pool.Put(s.newCounter())
	return s.count
}

// count implements Statistic.
//
//dut:hotpath
func (s *collisionStat) count(samples []int) (float64, error) {
	c, _ := s.pool.Get().(*CollisionCounter)
	if c == nil {
		c = s.newCounter()
	}
	coll, err := c.Count(samples)
	s.pool.Put(c)
	return float64(coll), err
}

//dut:coldpath pool miss: one counter per concurrent caller, reused by every later call
func (s *collisionStat) newCounter() *CollisionCounter {
	c := NewCollisionCounter(s.n)
	return &c
}

// CollisionTester is the Goldreich-Ron collision-based uniformity tester:
// accept iff the number of colliding pairs among q samples is at most a
// threshold. Under U_n the expected count is C(q,2)/n; under any
// distribution eps-far from uniform in L1 it is at least C(q,2)(1+eps^2)/n,
// because ||mu||_2^2 >= (1 + eps^2)/n by Cauchy-Schwarz. With
// q = Theta(sqrt(n)/eps^2) samples the two cases separate with constant
// probability [Paninski 2008].
type CollisionTester struct {
	n         int
	q         int
	eps       float64
	threshold float64
}

var _ Tester = (*CollisionTester)(nil)

// NewCollisionTester builds the tester with its closed-form threshold,
// halfway between the uniform and eps-far expected collision counts.
func NewCollisionTester(n, q int, eps float64) (*CollisionTester, error) {
	if n <= 0 {
		return nil, fmt.Errorf("centralized: collision tester over domain %d", n)
	}
	if q < 2 {
		return nil, fmt.Errorf("centralized: collision tester needs q >= 2, got %d", q)
	}
	if eps <= 0 || eps > 2 {
		return nil, fmt.Errorf("centralized: collision tester eps %v outside (0,2]", eps)
	}
	pairs := float64(q) * float64(q-1) / 2
	threshold := pairs / float64(n) * (1 + eps*eps/2)
	return &CollisionTester{n: n, q: q, eps: eps, threshold: threshold}, nil
}

// NewCollisionTesterWithThreshold builds the tester with an explicitly
// calibrated threshold (see CalibrateThreshold).
func NewCollisionTesterWithThreshold(n, q int, eps, threshold float64) (*CollisionTester, error) {
	t, err := NewCollisionTester(n, q, eps)
	if err != nil {
		return nil, err
	}
	if threshold < 0 {
		return nil, fmt.Errorf("centralized: negative collision threshold %v", threshold)
	}
	t.threshold = threshold
	return t, nil
}

// RecommendedSamples returns the sample size at which the collision tester
// separates uniform from eps-far with probability at least 2/3:
// c * sqrt(n)/eps^2 with a constant validated by the E5 experiment.
func RecommendedSamples(n int, eps float64) int {
	return int(6*math.Sqrt(float64(n))/(eps*eps)) + 2
}

// N returns the domain size.
func (t *CollisionTester) N() int { return t.n }

// SampleSize returns the sample count q the tester was built for.
func (t *CollisionTester) SampleSize() int { return t.q }

// Eps returns the proximity parameter.
func (t *CollisionTester) Eps() float64 { return t.eps }

// Threshold returns the acceptance threshold on the collision count.
func (t *CollisionTester) Threshold() float64 { return t.threshold }

// Test accepts iff the collision count is at most the threshold.
func (t *CollisionTester) Test(samples []int) (bool, error) {
	c, err := CollisionCount(samples, t.n)
	if err != nil {
		return false, err
	}
	return float64(c) <= t.threshold, nil
}
