package centralized

import (
	"fmt"
	"math/rand/v2"

	"github.com/distributed-uniformity/dut/internal/dist"
	"github.com/distributed-uniformity/dut/internal/stats"
)

// Tester is a centralized distribution tester: it inspects a batch of iid
// samples and accepts or rejects the null hypothesis it was built for.
type Tester interface {
	// Test returns true to accept. It errors on malformed samples (out of
	// domain) rather than guessing. It may be called concurrently from
	// several goroutines.
	Test(samples []int) (bool, error)
	// SampleSize returns the number of samples the tester expects; Test
	// accepts any count but its guarantees are stated at this size.
	SampleSize() int
}

// Statistic maps a sample batch to a real test statistic. Statistics are
// shared with the distributed local rules in internal/core.
type Statistic func(samples []int) (float64, error)

// CalibrateThreshold estimates the (1 - alpha) quantile of a statistic
// under iid sampling from the given null distribution: the returned
// threshold is exceeded by the null with probability about alpha. Use
// alpha <= 1/3 to build a tester with the paper's 2/3 acceptance guarantee.
func CalibrateThreshold(stat Statistic, null dist.Dist, q, trials int, alpha float64, seed uint64) (float64, error) {
	if stat == nil {
		return 0, fmt.Errorf("centralized: nil statistic")
	}
	if q <= 0 {
		return 0, fmt.Errorf("centralized: calibrating with q=%d samples", q)
	}
	if trials <= 0 {
		return 0, fmt.Errorf("centralized: calibrating with %d trials", trials)
	}
	if alpha <= 0 || alpha >= 1 {
		return 0, fmt.Errorf("centralized: calibration tail mass %v outside (0,1)", alpha)
	}
	sampler, err := dist.NewAliasSampler(null)
	if err != nil {
		return 0, err
	}
	src := rand.NewPCG(seed, seed^0xa5a5a5a5a5a5a5a5)
	vals := make([]float64, trials)
	buf := make([]int, q)
	for t := range vals {
		sampler.SampleInto(buf, src)
		v, err := stat(buf)
		if err != nil {
			return 0, err
		}
		vals[t] = v
	}
	return stats.Quantile(vals, 1-alpha)
}

func checkSamples(samples []int, n int) error {
	for _, s := range samples {
		if s < 0 || s >= n {
			return fmt.Errorf("centralized: sample %d outside domain of size %d", s, n)
		}
	}
	return nil
}
