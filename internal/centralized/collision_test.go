package centralized

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"github.com/distributed-uniformity/dut/internal/dist"
	"github.com/distributed-uniformity/dut/internal/stats"
)

func testRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed+0x1234))
}

// acceptRate estimates how often tester accepts q iid samples from d.
func acceptRate(t *testing.T, tester Tester, d dist.Dist, q, trials int, seed uint64) float64 {
	t.Helper()
	sampler, err := dist.NewAliasSampler(d)
	if err != nil {
		t.Fatal(err)
	}
	est, err := stats.EstimateSuccess(trials, func(rng *rand.Rand) bool {
		buf := make([]int, q)
		dist.SampleInto(sampler, buf, rng)
		ok, err := tester.Test(buf)
		if err != nil {
			t.Error(err)
			return false
		}
		return ok
	}, stats.EstimateOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return est.P
}

func TestCollisionCountKnownValues(t *testing.T) {
	tests := []struct {
		name    string
		samples []int
		n       int
		want    int64
	}{
		{name: "no samples", samples: nil, n: 4, want: 0},
		{name: "distinct", samples: []int{0, 1, 2, 3}, n: 4, want: 0},
		{name: "one pair", samples: []int{0, 1, 0}, n: 4, want: 1},
		{name: "triple", samples: []int{2, 2, 2}, n: 4, want: 3},
		{name: "two pairs", samples: []int{0, 0, 1, 1}, n: 4, want: 2},
		{name: "all same", samples: []int{1, 1, 1, 1}, n: 4, want: 6},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := CollisionCount(tt.samples, tt.n)
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Errorf("collisions = %d, want %d", got, tt.want)
			}
		})
	}
	if _, err := CollisionCount([]int{5}, 4); err == nil {
		t.Error("out-of-range sample accepted")
	}
}

func TestCollisionCountMatchesQuadratic(t *testing.T) {
	rng := testRand(1)
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.IntN(20)
		q := rng.IntN(50)
		samples := make([]int, q)
		for i := range samples {
			samples[i] = rng.IntN(n)
		}
		want := int64(0)
		for i := 0; i < q; i++ {
			for j := i + 1; j < q; j++ {
				if samples[i] == samples[j] {
					want++
				}
			}
		}
		got, err := CollisionCount(samples, n)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("histogram count %d, quadratic count %d", got, want)
		}
	}
}

// referenceCollisions is the obviously-correct slow reference the
// collision kernel is checked against: the full n-wide histogram, then
// sum_i C(c_i, 2) over every slot.
func referenceCollisions(samples []int, n int) (int64, error) {
	h, err := dist.Histogram(samples, n)
	if err != nil {
		return 0, err
	}
	var coll int64
	for _, c := range h {
		coll += c * (c - 1) / 2
	}
	return coll, nil
}

func randomSamples(rng *rand.Rand, n, q int) []int {
	samples := make([]int, q)
	for i := range samples {
		samples[i] = rng.IntN(n)
	}
	return samples
}

// checkKernel compares the one-shot count and the pooled statistic with
// the reference on one sample slice.
func checkKernel(t *testing.T, stat Statistic, samples []int, n int) {
	t.Helper()
	want, err := referenceCollisions(samples, n)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CollisionCount(samples, n)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("n=%d q=%d: CollisionCount = %d, reference %d", n, len(samples), got, want)
	}
	v, err := stat(samples)
	if err != nil {
		t.Fatal(err)
	}
	if v != float64(want) {
		t.Fatalf("n=%d q=%d: CollisionStatistic = %v, reference %d", n, len(samples), v, want)
	}
}

func TestCollisionKernelMatchesHistogramReference(t *testing.T) {
	rng := testRand(3)
	for _, n := range []int{1, 2, 64, 4096} {
		stat := CollisionStatistic(n)
		for _, q := range []int{0, 1, 2, 642} {
			for rep := 0; rep < 5; rep++ {
				checkKernel(t, stat, randomSamples(rng, n, q), n)
			}
		}
	}
}

func TestCollisionKernelAllEqualSamples(t *testing.T) {
	const n, q = 64, 642
	stat := CollisionStatistic(n)
	for _, s := range []int{0, 17, n - 1} {
		samples := make([]int, q)
		for i := range samples {
			samples[i] = s
		}
		checkKernel(t, stat, samples, n)
		if got, _ := CollisionCount(samples, n); got != q*(q-1)/2 {
			t.Errorf("all-%d: %d collisions, want C(%d,2) = %d", s, got, q, q*(q-1)/2)
		}
	}
}

// TestCollisionKernelCleanAfterOutOfDomain pins the error path: a call
// that fails midway returns the reference's error, and a later call on
// the same pooled statistic, whose counter the failed call left
// partly counted, still returns the reference count.
func TestCollisionKernelCleanAfterOutOfDomain(t *testing.T) {
	const n = 64
	rng := testRand(4)
	stat := CollisionStatistic(n)
	for _, badValue := range []int{n, -1} {
		bad := randomSamples(rng, n, 200)
		bad[100] = badValue
		_, herr := dist.Histogram(bad, n)
		if herr == nil {
			t.Fatal("reference accepted an out-of-domain sample")
		}
		wantErr := "centralized: " + herr.Error()
		if _, err := CollisionCount(bad, n); err == nil || err.Error() != wantErr {
			t.Errorf("CollisionCount error %v, want %q", err, wantErr)
		}
		if _, err := stat(bad); err == nil || err.Error() != wantErr {
			t.Errorf("CollisionStatistic error %v, want %q", err, wantErr)
		}
		checkKernel(t, stat, randomSamples(rng, n, 200), n)
	}
}

// TestCollisionCounterEpochWrap runs one counter across the wrap of its
// 32-bit epoch: the first call counts at the last epoch before the wrap,
// the second clears the slice and restarts at epoch 1, and the third
// fails out of domain midway. Every call draws from 16 of 64 slots, so
// each one lands on slots the calls before it counted into, and each
// must return what CollisionCount's fresh slice returns.
func TestCollisionCounterEpochWrap(t *testing.T) {
	const n = 64
	rng := testRand(5)
	c := NewCollisionCounter(n)
	c.epoch = math.MaxUint32 - 1
	for call, wantEpoch := range []uint32{math.MaxUint32, 1, 2, 3, 4} {
		samples := randomSamples(rng, 16, 200)
		if call == 2 {
			samples[100] = n
		}
		want, wantErr := CollisionCount(samples, n)
		got, err := c.Count(samples)
		if got != want || (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("call %d: counter (%d, %v), fresh slice (%d, %v)", call, got, err, want, wantErr)
		}
		if call == 2 && err == nil {
			t.Fatal("call 2 accepted an out-of-domain sample")
		}
		if c.epoch != wantEpoch {
			t.Fatalf("call %d ran at epoch %d, want %d", call, c.epoch, wantEpoch)
		}
	}
}

// TestCollisionStatisticConcurrent shares one pooled statistic across
// goroutines, as one rule value is shared by every player goroutine and
// engine worker; run it under -race.
func TestCollisionStatisticConcurrent(t *testing.T) {
	const (
		n       = 256
		workers = 8
		calls   = 50
	)
	stat := CollisionStatistic(n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := testRand(seed)
			for i := 0; i < calls; i++ {
				samples := randomSamples(rng, n, 1+rng.IntN(100))
				want, _ := referenceCollisions(samples, n)
				v, err := stat(samples)
				if err != nil || v != float64(want) {
					t.Errorf("worker %d call %d: got %v (%v), want %d", seed, i, v, err, want)
					return
				}
			}
		}(uint64(100 + w))
	}
	wg.Wait()
}

// FuzzCollisionCounter runs one reused CollisionCounter against
// CollisionCount's fresh slice over arbitrary sample sequences: each
// byte is a sample in [-128, 127], so negative and too-large values land
// anywhere in a slice. The data is counted in runs of a fuzzed length,
// all on the same counter, and then whole; every call must return the
// fresh slice's count and error, which holds only if the slots every
// earlier call counted into, through the error path too, read as zero.
func FuzzCollisionCounter(f *testing.F) {
	f.Add(uint8(16), uint8(3), []byte{1, 2, 1, 3, 3, 3})
	f.Add(uint8(4), uint8(2), []byte{0, 0, 9, 0, 1, 1})
	f.Add(uint8(8), uint8(5), []byte{2, 0xff, 2, 2, 7, 7})
	f.Add(uint8(1), uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, n, run uint8, data []byte) {
		domain := int(n%64) + 1
		samples := make([]int, len(data))
		for i, b := range data {
			samples[i] = int(int8(b))
		}
		c := NewCollisionCounter(domain)
		check := func(part []int) {
			want, wantErr := CollisionCount(part, domain)
			got, err := c.Count(part)
			if got != want || (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("domain %d, samples %v: counter (%d, %v), fresh slice (%d, %v)", domain, part, got, err, want, wantErr)
			}
		}
		step := int(run%16) + 1
		for lo := 0; lo < len(samples); lo += step {
			check(samples[lo:min(lo+step, len(samples))])
		}
		check(samples)
	})
}

func TestNewCollisionTesterValidation(t *testing.T) {
	if _, err := NewCollisionTester(0, 10, 0.5); err == nil {
		t.Error("empty domain accepted")
	}
	if _, err := NewCollisionTester(16, 1, 0.5); err == nil {
		t.Error("q=1 accepted")
	}
	if _, err := NewCollisionTester(16, 10, 0); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := NewCollisionTester(16, 10, 3); err == nil {
		t.Error("eps=3 accepted")
	}
	if _, err := NewCollisionTesterWithThreshold(16, 10, 0.5, -1); err == nil {
		t.Error("negative threshold accepted")
	}
}

func TestCollisionTesterSeparates(t *testing.T) {
	const (
		n   = 256
		eps = 0.5
	)
	q := RecommendedSamples(n, eps)
	tester, err := NewCollisionTester(n, q, eps)
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := dist.Uniform(n)
	if err != nil {
		t.Fatal(err)
	}
	far, err := dist.PairedBump(n, eps)
	if err != nil {
		t.Fatal(err)
	}
	if p := acceptRate(t, tester, uniform, q, 300, 10); p < 0.75 {
		t.Errorf("accepts uniform with probability %v, want >= 0.75", p)
	}
	if p := acceptRate(t, tester, far, q, 300, 11); p > 0.25 {
		t.Errorf("accepts eps-far with probability %v, want <= 0.25", p)
	}
}

func TestCollisionTesterAgainstHardFamily(t *testing.T) {
	// The paper's own hard family must also be rejected at the recommended
	// sample size (the family is hard in the constant, not asymptotically).
	h, err := dist.NewHardInstance(7, 0.5) // n = 256
	if err != nil {
		t.Fatal(err)
	}
	q := RecommendedSamples(h.N(), 0.5)
	tester, err := NewCollisionTester(h.N(), q, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rng := testRand(12)
	nu, _, err := h.RandomPerturbed(rng)
	if err != nil {
		t.Fatal(err)
	}
	if p := acceptRate(t, tester, nu, q, 300, 13); p > 0.25 {
		t.Errorf("accepts nu_z with probability %v, want <= 0.25", p)
	}
}

func TestCollisionTesterFailsWithFewSamples(t *testing.T) {
	// With q far below sqrt(n)/eps^2 the two cases are indistinguishable:
	// acceptance probabilities nearly coincide.
	const n = 4096
	const eps = 0.25
	q := 20 // << 6*64/0.0625 ≈ 6144
	tester, err := NewCollisionTester(n, q, eps)
	if err != nil {
		t.Fatal(err)
	}
	uniform, _ := dist.Uniform(n)
	far, _ := dist.PairedBump(n, eps)
	pu := acceptRate(t, tester, uniform, q, 400, 14)
	pf := acceptRate(t, tester, far, q, 400, 15)
	if math.Abs(pu-pf) > 0.15 {
		t.Errorf("starved tester still separates: uniform %v vs far %v", pu, pf)
	}
}

func TestCollisionTesterAccessors(t *testing.T) {
	tester, err := NewCollisionTester(64, 100, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if tester.N() != 64 || tester.SampleSize() != 100 || tester.Eps() != 0.5 {
		t.Errorf("accessors: %d %d %v", tester.N(), tester.SampleSize(), tester.Eps())
	}
	wantThreshold := 100 * 99 / 2.0 / 64 * (1 + 0.125)
	if math.Abs(tester.Threshold()-wantThreshold) > 1e-9 {
		t.Errorf("threshold = %v, want %v", tester.Threshold(), wantThreshold)
	}
}

func TestRecommendedSamplesScaling(t *testing.T) {
	// Doubling n multiplies q by ~sqrt(2); halving eps quadruples it.
	q1 := RecommendedSamples(1024, 0.5)
	q2 := RecommendedSamples(4096, 0.5)
	if ratio := float64(q2) / float64(q1); ratio < 1.8 || ratio > 2.2 {
		t.Errorf("4x n gave q ratio %v, want ~2", ratio)
	}
	q3 := RecommendedSamples(1024, 0.25)
	if ratio := float64(q3) / float64(q1); ratio < 3.6 || ratio > 4.4 {
		t.Errorf("eps/2 gave q ratio %v, want ~4", ratio)
	}
}

func TestCalibrateThreshold(t *testing.T) {
	const n = 64
	uniform, _ := dist.Uniform(n)
	stat := CollisionStatistic(n)
	threshold, err := CalibrateThreshold(stat, uniform, 200, 2000, 0.2, 99)
	if err != nil {
		t.Fatal(err)
	}
	// A threshold at the 80th percentile must be rejected by uniform about
	// 20% of the time.
	tester, err := NewCollisionTesterWithThreshold(n, 200, 0.5, threshold)
	if err != nil {
		t.Fatal(err)
	}
	p := acceptRate(t, tester, uniform, 200, 2000, 100)
	if p < 0.72 || p > 0.88 {
		t.Errorf("calibrated acceptance %v, want ~0.8", p)
	}
}

func TestCalibrateThresholdValidation(t *testing.T) {
	u, _ := dist.Uniform(4)
	stat := CollisionStatistic(4)
	if _, err := CalibrateThreshold(nil, u, 10, 10, 0.1, 0); err == nil {
		t.Error("nil statistic accepted")
	}
	if _, err := CalibrateThreshold(stat, u, 0, 10, 0.1, 0); err == nil {
		t.Error("q=0 accepted")
	}
	if _, err := CalibrateThreshold(stat, u, 10, 0, 0.1, 0); err == nil {
		t.Error("zero trials accepted")
	}
	if _, err := CalibrateThreshold(stat, u, 10, 10, 0, 0); err == nil {
		t.Error("alpha=0 accepted")
	}
	if _, err := CalibrateThreshold(stat, u, 10, 10, 1, 0); err == nil {
		t.Error("alpha=1 accepted")
	}
}

// BenchmarkCollisionCounter times one reused counter at the workloads'
// geometries: smp-sampling's n=4096 q=642, and n=64 with q=22 and q=4
// (congest-grid and cluster-flat, and cluster-tree). The samples are
// drawn once, uniformly, before the timer starts.
func BenchmarkCollisionCounter(b *testing.B) {
	for _, g := range []struct{ n, q int }{{4096, 642}, {64, 22}, {64, 4}} {
		b.Run(fmt.Sprintf("n=%d/q=%d", g.n, g.q), func(b *testing.B) {
			samples := randomSamples(testRand(6), g.n, g.q)
			c := NewCollisionCounter(g.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Count(samples); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
