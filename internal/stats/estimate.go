package stats

import (
	"fmt"
	"math/rand/v2"
)

// TrialFunc runs one randomized trial and reports success. Implementations
// must take all randomness from the supplied generator so that estimation is
// reproducible given a seed.
type TrialFunc func(rng *rand.Rand) bool

// SuccessEstimate is the result of a Monte-Carlo success-probability
// estimation.
type SuccessEstimate struct {
	Successes int
	Trials    int
	P         float64  // point estimate Successes/Trials
	CI        Interval // Wilson interval at the requested confidence
}

// EstimateOptions configures EstimateSuccess. The zero value requests
// 95% confidence and seed 0.
type EstimateOptions struct {
	// Confidence is the Wilson interval confidence level; 0 means 0.95.
	Confidence float64
	// Seed derives the trial generator; runs with equal seeds produce
	// identical counts.
	Seed uint64
}

// EstimateSuccess runs the trial function the requested number of times and
// returns the empirical success probability with a Wilson confidence
// interval. The trials run in order on one generator seeded from
// opts.Seed, so the estimate is a function of the seed alone, whatever
// machine runs it.
func EstimateSuccess(trials int, f TrialFunc, opts EstimateOptions) (SuccessEstimate, error) {
	if trials <= 0 {
		return SuccessEstimate{}, fmt.Errorf("stats: estimating with %d trials", trials)
	}
	if f == nil {
		return SuccessEstimate{}, fmt.Errorf("stats: nil trial function")
	}
	confidence := opts.Confidence
	//lint:ignore dut/floateq exact zero-value Options sentinel, never a computed float
	if confidence == 0 {
		confidence = 0.95
	}
	rng := rand.New(rand.NewPCG(opts.Seed, 1))
	successes := 0
	for i := 0; i < trials; i++ {
		if f(rng) {
			successes++
		}
	}
	ci, err := WilsonInterval(successes, trials, confidence)
	if err != nil {
		return SuccessEstimate{}, err
	}
	return SuccessEstimate{
		Successes: successes,
		Trials:    trials,
		P:         float64(successes) / float64(trials),
		CI:        ci,
	}, nil
}
