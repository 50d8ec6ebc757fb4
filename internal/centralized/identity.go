package centralized

import (
	"fmt"
	"math/rand/v2"
	"sync"

	"github.com/distributed-uniformity/dut/internal/dist"
)

// IdentityTester tests identity to an arbitrary fixed known distribution by
// Goldreich's reduction: samples are filtered into a larger domain on which
// the question becomes uniformity testing, then judged by a collision
// tester. This is the "uniformity testing is complete" construction that
// makes the paper's lower bounds meaningful beyond the uniform case.
//
// The collision threshold is computed from the reduction's *exact* yes-case
// pushforward (available in closed form), not from an idealized uniform
// yes case, so the granularity slack of the reduction is absorbed
// automatically.
type IdentityTester struct {
	reduction *dist.IdentityReduction
	q         int
	eps       float64
	threshold float64

	mu  sync.Mutex // guards rng: Test may be called concurrently
	rng *rand.Rand
}

var _ Tester = (*IdentityTester)(nil)

// NewIdentityTester builds the tester. The seed drives the filter's
// internal randomness (bucket choices and mixing).
func NewIdentityTester(target dist.Dist, q int, eps float64, seed uint64) (*IdentityTester, error) {
	if q < 2 {
		return nil, fmt.Errorf("centralized: identity tester needs q >= 2, got %d", q)
	}
	r, err := dist.NewIdentityReduction(target, eps)
	if err != nil {
		return nil, err
	}
	yes, err := r.Pushforward(target)
	if err != nil {
		return nil, err
	}
	m := float64(r.OutputDomain())
	yesColl := dist.CollisionProb(yes)
	farG := r.FarGuarantee()
	farColl := (1 + farG*farG) / m
	if farColl <= yesColl {
		return nil, fmt.Errorf("centralized: reduction gap collapsed (yes %v >= far %v); eps too small for this target", yesColl, farColl)
	}
	pairs := float64(q) * float64(q-1) / 2
	threshold := pairs * (yesColl + farColl) / 2
	return &IdentityTester{
		reduction: r,
		q:         q,
		eps:       eps,
		threshold: threshold,
		rng:       rand.New(rand.NewPCG(seed, seed^0x5bd1e995)),
	}, nil
}

// SampleSize returns the sample count the tester was built for.
func (t *IdentityTester) SampleSize() int { return t.q }

// OutputDomain returns the reduced uniformity domain size m.
func (t *IdentityTester) OutputDomain() int { return t.reduction.OutputDomain() }

// Threshold returns the collision-count acceptance threshold on the reduced
// domain.
func (t *IdentityTester) Threshold() float64 { return t.threshold }

// Test filters the samples through the reduction and accepts iff the
// collision count on the reduced domain is at most the threshold.
func (t *IdentityTester) Test(samples []int) (bool, error) {
	t.mu.Lock()
	mapped, err := t.reduction.MapAll(samples, t.rng)
	t.mu.Unlock()
	if err != nil {
		return false, err
	}
	c, err := CollisionCount(mapped, t.reduction.OutputDomain())
	if err != nil {
		return false, err
	}
	return float64(c) <= t.threshold, nil
}
