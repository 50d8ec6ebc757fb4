package dist

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// cdfSampler draws samples by binary search over the cumulative
// distribution in O(log n) time. It shares no code with AliasSampler,
// which makes it the independent reference the alias sampler's
// distribution tests hold it against.
type cdfSampler struct {
	cdf []float64
}

// newCDFSampler precomputes the cumulative distribution of d, which must
// not be empty.
func newCDFSampler(d Dist) *cdfSampler {
	n := d.N()
	cdf := make([]float64, n)
	var acc float64
	for i, v := range d.p {
		acc += v
		cdf[i] = acc
	}
	cdf[n-1] = 1 // absorb rounding drift so search never falls off the end
	return &cdfSampler{cdf: cdf}
}

// Sample draws one element in O(log n).
func (c *cdfSampler) Sample(rng *rand.Rand) int {
	return sort.SearchFloat64s(c.cdf, rng.Float64())
}

func TestAliasSamplerMatchesDistribution(t *testing.T) {
	rng := testRand(10)
	d, err := FromProbs([]float64{0.5, 0.3, 0.15, 0.05})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewAliasSampler(d)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 200000
	counts := make([]int, d.N())
	for i := 0; i < trials; i++ {
		counts[s.Sample(rng)]++
	}
	for i := 0; i < d.N(); i++ {
		got := float64(counts[i]) / trials
		// 6-sigma tolerance for a Bernoulli mean estimate.
		sigma := math.Sqrt(d.Prob(i) * (1 - d.Prob(i)) / trials)
		if math.Abs(got-d.Prob(i)) > 6*sigma+1e-9 {
			t.Errorf("element %d: frequency %v, want %v (±%v)", i, got, d.Prob(i), 6*sigma)
		}
	}
}

func TestCDFSamplerMatchesDistribution(t *testing.T) {
	rng := testRand(11)
	d, err := FromProbs([]float64{0.05, 0.05, 0.4, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	s := newCDFSampler(d)
	const trials = 200000
	counts := make([]int, d.N())
	for i := 0; i < trials; i++ {
		counts[s.Sample(rng)]++
	}
	for i := 0; i < d.N(); i++ {
		got := float64(counts[i]) / trials
		sigma := math.Sqrt(d.Prob(i) * (1 - d.Prob(i)) / trials)
		if math.Abs(got-d.Prob(i)) > 6*sigma+1e-9 {
			t.Errorf("element %d: frequency %v, want %v", i, got, d.Prob(i))
		}
	}
}

func TestSamplersAgreeOnSkewedDistributions(t *testing.T) {
	rng := testRand(12)
	zipf, err := Zipf(64, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	alias, err := NewAliasSampler(zipf)
	if err != nil {
		t.Fatal(err)
	}
	cdf := newCDFSampler(zipf)
	const trials = 100000
	ha := make([]float64, 64)
	hc := make([]float64, 64)
	for i := 0; i < trials; i++ {
		ha[alias.Sample(rng)]++
		hc[cdf.Sample(rng)]++
	}
	var l1 float64
	for i := range ha {
		l1 += math.Abs(ha[i]-hc[i]) / trials
	}
	if l1 > 0.03 {
		t.Errorf("alias and CDF samplers disagree, empirical L1 %v", l1)
	}
}

func TestSamplerNeverSamplesZeroMass(t *testing.T) {
	rng := testRand(13)
	d, err := FromProbs([]float64{0.5, 0, 0.5, 0})
	if err != nil {
		t.Fatal(err)
	}
	alias, _ := NewAliasSampler(d)
	cdf := newCDFSampler(d)
	for i := 0; i < 10000; i++ {
		if s := alias.Sample(rng); s == 1 || s == 3 {
			t.Fatalf("alias sampler produced zero-mass element %d", s)
		}
		if s := cdf.Sample(rng); s == 1 || s == 3 {
			t.Fatalf("CDF sampler produced zero-mass element %d", s)
		}
	}
}

func TestSamplerPointMass(t *testing.T) {
	rng := testRand(14)
	d, _ := PointMass(7, 4)
	alias, _ := NewAliasSampler(d)
	cdf := newCDFSampler(d)
	for i := 0; i < 1000; i++ {
		if s := alias.Sample(rng); s != 4 {
			t.Fatalf("alias sampled %d from a point mass", s)
		}
		if s := cdf.Sample(rng); s != 4 {
			t.Fatalf("CDF sampled %d from a point mass", s)
		}
	}
}

func TestSampleNAndInto(t *testing.T) {
	rng := testRand(15)
	u := mustUniform(t, 5)
	s, _ := NewAliasSampler(u)
	out := SampleN(s, 100, rng)
	if len(out) != 100 {
		t.Fatalf("SampleN returned %d samples", len(out))
	}
	buf := make([]int, 50)
	SampleInto(s, buf, rng)
	for _, v := range append(out, buf...) {
		if v < 0 || v >= 5 {
			t.Fatalf("sample %d out of range", v)
		}
	}
}

func TestHistogramAndEmpirical(t *testing.T) {
	h, err := Histogram([]int{0, 1, 1, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if h[0] != 1 || h[1] != 2 || h[2] != 0 || h[3] != 1 {
		t.Errorf("histogram = %v", h)
	}
	if _, err := Histogram([]int{4}, 4); err == nil {
		t.Error("out-of-range sample accepted")
	}
	e, err := Empirical([]int{0, 1, 1, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(e.Prob(1), 0.5, tol) {
		t.Errorf("empirical = %v", e.Probs())
	}
	if _, err := Empirical(nil, 4); err == nil {
		t.Error("empty sample set accepted")
	}
}

func TestEmptyDomainSamplers(t *testing.T) {
	if _, err := NewAliasSampler(Dist{}); err == nil {
		t.Error("alias over empty domain accepted")
	}
}

func TestFamilies(t *testing.T) {
	t.Run("zipf", func(t *testing.T) {
		z, err := Zipf(10, 1)
		if err != nil {
			t.Fatal(err)
		}
		if z.Prob(0) < z.Prob(9) {
			t.Error("zipf not decreasing")
		}
		z0, err := Zipf(10, 0)
		if err != nil {
			t.Fatal(err)
		}
		if DistanceFromUniform(z0) > tol {
			t.Error("zipf with s=0 not uniform")
		}
		if _, err := Zipf(0, 1); err == nil {
			t.Error("empty zipf accepted")
		}
		if _, err := Zipf(10, -1); err == nil {
			t.Error("negative exponent accepted")
		}
	})
	t.Run("paired bump", func(t *testing.T) {
		d, err := PairedBump(8, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(DistanceFromUniform(d), 0.3, tol) {
			t.Errorf("distance = %v", DistanceFromUniform(d))
		}
		if _, err := PairedBump(7, 0.3); err == nil {
			t.Error("odd domain accepted")
		}
	})
	t.Run("sparse support", func(t *testing.T) {
		d, err := SparseSupport(10, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(DistanceFromUniform(d), 1, tol) { // 2*(1 - 5/10)
			t.Errorf("distance = %v", DistanceFromUniform(d))
		}
		if d.Support() != 5 {
			t.Errorf("support = %d", d.Support())
		}
		if _, err := SparseSupport(10, 11); err == nil {
			t.Error("oversized support accepted")
		}
	})
	t.Run("heavy hitter", func(t *testing.T) {
		d, err := HeavyHitter(10, 3, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(DistanceFromUniform(d), 0.1, tol) {
			t.Errorf("distance = %v", DistanceFromUniform(d))
		}
		if !almostEqual(d.Prob(3), 0.15, tol) {
			t.Errorf("hot mass = %v", d.Prob(3))
		}
		if _, err := HeavyHitter(10, 3, 0.95); err == nil {
			t.Error("infeasible delta accepted")
		}
		if _, err := HeavyHitter(10, 3, -0.1); err == nil {
			t.Error("negative delta accepted")
		}
	})
}
