package stats

import (
	"errors"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestWilsonIntervalBasics(t *testing.T) {
	iv, err := WilsonInterval(50, 100, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if !iv.Contains(0.5) {
		t.Errorf("interval %v does not contain the point estimate", iv)
	}
	if iv.Low < 0 || iv.High > 1 {
		t.Errorf("interval %v outside [0,1]", iv)
	}
	if iv.Width() <= 0 || iv.Width() > 0.25 {
		t.Errorf("implausible width %v", iv.Width())
	}
	// Extremes stay in range.
	iv0, err := WilsonInterval(0, 20, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if iv0.Low != 0 || iv0.High <= 0 {
		t.Errorf("zero-success interval %v", iv0)
	}
	ivAll, err := WilsonInterval(20, 20, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if ivAll.High != 1 || ivAll.Low >= 1 {
		t.Errorf("all-success interval %v", ivAll)
	}
}

func TestWilsonIntervalValidation(t *testing.T) {
	cases := []struct {
		name              string
		successes, trials int
		confidence        float64
	}{
		{"zero trials", 0, 0, 0.95},
		{"negative successes", -1, 10, 0.95},
		{"successes above trials", 11, 10, 0.95},
		{"confidence zero", 5, 10, 0},
		{"confidence one", 5, 10, 1},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := WilsonInterval(tt.successes, tt.trials, tt.confidence); err == nil {
				t.Fatal("want error")
			}
		})
	}
}

func TestWilsonIntervalShrinksWithTrials(t *testing.T) {
	prev := 1.0
	for _, trials := range []int{10, 100, 1000, 10000} {
		iv, err := WilsonInterval(trials/2, trials, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if iv.Width() >= prev {
			t.Errorf("width did not shrink at %d trials: %v", trials, iv.Width())
		}
		prev = iv.Width()
	}
}

func TestHoeffding(t *testing.T) {
	r, err := HoeffdingRadius(1000, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	n, err := HoeffdingTrials(r, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1000 {
		t.Errorf("round trip gave %d trials", n)
	}
	if _, err := HoeffdingRadius(0, 0.95); err == nil {
		t.Error("zero trials accepted")
	}
	if _, err := HoeffdingTrials(0, 0.95); err == nil {
		t.Error("zero radius accepted")
	}
	if _, err := HoeffdingTrials(0.1, 1); err == nil {
		t.Error("confidence 1 accepted")
	}
}

func TestEstimateSuccessUnbiased(t *testing.T) {
	est, err := EstimateSuccess(40000, func(rng *rand.Rand) bool {
		return rng.Float64() < 0.3
	}, EstimateOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !est.CI.Contains(0.3) && (est.P < 0.28 || est.P > 0.32) {
		t.Errorf("estimate %v with CI %v far from 0.3", est.P, est.CI)
	}
	if est.Trials != 40000 {
		t.Errorf("trials = %d", est.Trials)
	}
}

// TestEstimateSuccessDeterministic: the estimate is a function of the
// seed alone, and each trial runs exactly once.
func TestEstimateSuccessDeterministic(t *testing.T) {
	calls := 0
	f := func(rng *rand.Rand) bool { calls++; return rng.Float64() < 0.5 }
	a, err := EstimateSuccess(9999, f, EstimateOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 9999 {
		t.Errorf("%d calls for 9999 trials", calls)
	}
	b, err := EstimateSuccess(9999, f, EstimateOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.Successes != b.Successes {
		t.Errorf("same seed produced %d and %d successes", a.Successes, b.Successes)
	}
}

func TestEstimateSuccessValidation(t *testing.T) {
	if _, err := EstimateSuccess(0, func(*rand.Rand) bool { return true }, EstimateOptions{}); err == nil {
		t.Error("zero trials accepted")
	}
	if _, err := EstimateSuccess(10, nil, EstimateOptions{}); err == nil {
		t.Error("nil trial accepted")
	}
}

func TestMinimalSufficient(t *testing.T) {
	pred := func(v int) (bool, error) { return v >= 37, nil }
	got, err := MinimalSufficient(0, 100, pred)
	if err != nil {
		t.Fatal(err)
	}
	if got != 37 {
		t.Errorf("minimal = %d, want 37", got)
	}
	if _, err := MinimalSufficient(0, 10, pred); err == nil {
		t.Error("insufficient range accepted")
	}
	if _, err := MinimalSufficient(5, 2, pred); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := MinimalSufficient(0, 10, nil); err == nil {
		t.Error("nil predicate accepted")
	}
}

func TestMinimalSufficientError(t *testing.T) {
	sentinel := errors.New("boom")
	_, err := MinimalSufficient(0, 10, func(int) (bool, error) { return false, sentinel })
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v", err)
	}
}

func TestGrowThenShrink(t *testing.T) {
	calls := 0
	pred := func(v int) (bool, error) { calls++; return v >= 1234, nil }
	got, err := GrowThenShrink(1, 1<<20, pred)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1234 {
		t.Errorf("minimal = %d, want 1234", got)
	}
	if calls > 40 {
		t.Errorf("used %d evaluations, want logarithmic", calls)
	}
	// Start already sufficient.
	got, err = GrowThenShrink(5000, 1<<20, pred)
	if err != nil {
		t.Fatal(err)
	}
	if got != 5000 {
		t.Errorf("start-sufficient returned %d", got)
	}
	if _, err := GrowThenShrink(0, 10, pred); err == nil {
		t.Error("zero start accepted")
	}
	if _, err := GrowThenShrink(4, 2, pred); err == nil {
		t.Error("cap below start accepted")
	}
	if _, err := GrowThenShrink(1, 100, func(int) (bool, error) { return false, nil }); err == nil {
		t.Error("unreachable target accepted")
	}
	if _, err := GrowThenShrink(1, 10, nil); err == nil {
		t.Error("nil predicate accepted")
	}
}

func TestQuickMinimalSufficientFindsBoundary(t *testing.T) {
	prop := func(boundaryRaw uint16) bool {
		boundary := int(boundaryRaw%5000) + 1
		pred := func(v int) (bool, error) { return v >= boundary, nil }
		got, err := GrowThenShrink(1, 1<<16, pred)
		return err == nil && got == boundary
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
