package stats

import (
	"fmt"
)

// Predicate evaluates an integer parameter (e.g. a per-player sample count
// q) and reports whether it is "sufficient". For empirical
// sample-complexity search it must be monotone in expectation: if q works,
// q' > q works too.
type Predicate func(v int) (bool, error)

// MinimalSufficient finds the smallest v in [lo, hi] with pred(v) true,
// assuming monotonicity, by binary search. It returns an error when even hi
// is insufficient.
func MinimalSufficient(lo, hi int, pred Predicate) (int, error) {
	if lo < 0 || hi < lo {
		return 0, fmt.Errorf("stats: search over invalid range [%d, %d]", lo, hi)
	}
	if pred == nil {
		return 0, fmt.Errorf("stats: nil predicate")
	}
	okHi, err := pred(hi)
	if err != nil {
		return 0, err
	}
	if !okHi {
		return 0, fmt.Errorf("stats: no sufficient value in [%d, %d]", lo, hi)
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		ok, err := pred(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}

// GrowThenShrink finds a minimal sufficient value with no a-priori upper
// bound: it doubles from start until the predicate holds (capped at max),
// then binary-searches the bracketed range. This is the workhorse of the
// empirical sample-complexity measurements, where q* is unknown.
func GrowThenShrink(start, max int, pred Predicate) (int, error) {
	if start <= 0 {
		return 0, fmt.Errorf("stats: growth search from %d", start)
	}
	if max < start {
		return 0, fmt.Errorf("stats: growth cap %d below start %d", max, start)
	}
	if pred == nil {
		return 0, fmt.Errorf("stats: nil predicate")
	}
	lo := start
	hi := start
	for {
		ok, err := pred(hi)
		if err != nil {
			return 0, err
		}
		if ok {
			break
		}
		if hi == max {
			return 0, fmt.Errorf("stats: no sufficient value up to cap %d", max)
		}
		lo = hi + 1
		hi *= 2
		if hi > max {
			hi = max
		}
	}
	if hi == start {
		return start, nil
	}
	return MinimalSufficient(lo, hi, pred)
}
