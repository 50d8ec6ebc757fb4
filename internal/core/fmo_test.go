package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"github.com/distributed-uniformity/dut/internal/dist"
	"github.com/distributed-uniformity/dut/internal/stats"
)

func TestLocalAlphaForThreshold(t *testing.T) {
	// AND regime: alpha = T/(4k).
	if got := LocalAlphaForThreshold(100, 1); math.Abs(got-1.0/400) > 1e-12 {
		t.Errorf("alpha(k=100,T=1) = %v", got)
	}
	// Balanced regime: alpha approaches 1/2 from below as T -> k/2.
	got := LocalAlphaForThreshold(1000, 500)
	if got <= 0.4 || got >= 0.5 {
		t.Errorf("alpha(k=1000,T=500) = %v, want in (0.4, 0.5)", got)
	}
	// Never exceeds 1/2 and never collapses to zero.
	for _, k := range []int{1, 2, 10, 1000000} {
		for _, T := range []int{1, 2, k/2 + 1, k} {
			if T < 1 {
				continue
			}
			a := LocalAlphaForThreshold(k, T)
			if a <= 0 || a > 0.5 {
				t.Errorf("alpha(k=%d,T=%d) = %v out of range", k, T, a)
			}
		}
	}
}

func TestCollisionVoteRuleFalseAlarmRate(t *testing.T) {
	// Under uniform, the randomized boundary makes the per-player rejection
	// probability track alpha closely.
	const n = 256
	const q = 60 // lambda = 60*59/2/256 ≈ 6.9
	for _, alpha := range []float64{0.05, 0.2, 0.45} {
		rule, err := newCollisionVoteRule(n, q, alpha)
		if err != nil {
			t.Fatal(err)
		}
		u, _ := dist.Uniform(n)
		sampler, _ := dist.NewAliasSampler(u)
		est, err := stats.EstimateSuccess(30000, func(rng *rand.Rand) bool {
			samples := dist.SampleN(sampler, q, rng)
			m, err := rule.Message(0, samples, 0, rng)
			if err != nil {
				t.Error(err)
			}
			return !m.Bit() // count rejections
		}, stats.EstimateOptions{Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		// The collision count is only approximately Poisson, so allow a
		// modest relative error.
		if math.Abs(est.P-alpha) > 0.25*alpha+0.01 {
			t.Errorf("alpha=%v: measured rejection rate %v", alpha, est.P)
		}
	}
}

func TestCollisionVoteRuleValidation(t *testing.T) {
	if _, err := newCollisionVoteRule(0, 5, 0.1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := newCollisionVoteRule(4, -1, 0.1); err == nil {
		t.Error("negative q accepted")
	}
	if _, err := newCollisionVoteRule(4, 5, 0); err == nil {
		t.Error("alpha=0 accepted")
	}
	if _, err := newCollisionVoteRule(4, 5, 1); err == nil {
		t.Error("alpha=1 accepted")
	}
	rule, err := newCollisionVoteRule(4, 5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if rule.Bits() != 1 {
		t.Errorf("bits = %d", rule.Bits())
	}
	if _, err := rule.Message(0, []int{7}, 0, testRand(0)); err == nil {
		t.Error("out-of-domain sample accepted")
	}
}

func TestNewThresholdTesterValidation(t *testing.T) {
	base := ThresholdTesterConfig{N: 64, K: 8, Q: 10, Eps: 0.5}
	bad := []ThresholdTesterConfig{
		{N: 0, K: 8, Q: 10, Eps: 0.5},
		{N: 64, K: 0, Q: 10, Eps: 0.5},
		{N: 64, K: 8, Q: 1, Eps: 0.5},
		{N: 64, K: 8, Q: 10, Eps: 0},
		{N: 64, K: 8, Q: 10, Eps: 0.5, T: 9},
		{N: 64, K: 8, Q: 10, Eps: 0.5, T: -1},
	}
	for i, cfg := range bad {
		if _, err := NewThresholdTester(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	p, err := NewThresholdTester(base)
	if err != nil {
		t.Fatal(err)
	}
	if p.Players() != 8 || p.MaxSamplesPerPlayer() != 10 {
		t.Errorf("accessors: %d %d", p.Players(), p.MaxSamplesPerPlayer())
	}
}

func TestThresholdTesterSeparatesAtRecommendedQ(t *testing.T) {
	const (
		n   = 1024
		k   = 16
		eps = 0.5
	)
	q := RecommendedThresholdSamples(n, k, eps)
	p, err := NewThresholdTester(ThresholdTesterConfig{N: n, K: k, Q: q, Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	uniform, _ := dist.Uniform(n)
	h, err := dist.NewHardInstance(9, eps) // n = 1024
	if err != nil {
		t.Fatal(err)
	}
	far, _, err := h.RandomPerturbed(testRand(31))
	if err != nil {
		t.Fatal(err)
	}
	ok, pNull, pFar, err := separates(p, uniform, far, 2.0/3, 300, 32)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("threshold tester fails at recommended q=%d: accept(U)=%v accept(far)=%v", q, pNull, pFar)
	}
}

func TestThresholdTesterParallelGain(t *testing.T) {
	// With k=64 players the recommended per-player q is about 1/8 of the
	// k=1 cost; check the k=64 protocol still separates at that reduced q.
	const (
		n   = 4096
		eps = 0.5
	)
	k := 64
	q := RecommendedThresholdSamples(n, k, eps)
	if q64, q1 := q, RecommendedThresholdSamples(n, 1, eps); float64(q64) > float64(q1)/6 {
		t.Fatalf("recommended q did not drop with k: %d vs %d", q64, q1)
	}
	p, err := NewThresholdTester(ThresholdTesterConfig{N: n, K: k, Q: q, Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	uniform, _ := dist.Uniform(n)
	h, _ := dist.NewHardInstance(11, eps) // n = 4096
	far, _, err := h.RandomPerturbed(testRand(41))
	if err != nil {
		t.Fatal(err)
	}
	ok, pNull, pFar, err := separates(p, uniform, far, 2.0/3, 300, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("k=64 tester fails at q=%d: accept(U)=%v accept(far)=%v", q, pNull, pFar)
	}
}

func TestANDTesterWorksAtCentralizedScale(t *testing.T) {
	// With q at the centralized scale sqrt(n)/eps^2 the AND tester
	// separates; the quantitative comparison against the threshold rule
	// (Theorem 1.2's locality gap) is measured by experiment E2.
	const (
		n   = 1024
		k   = 16
		eps = 0.5
	)
	uniform, _ := dist.Uniform(n)
	h, _ := dist.NewHardInstance(9, eps)
	far, _, err := h.RandomPerturbed(testRand(51))
	if err != nil {
		t.Fatal(err)
	}
	qBig := 5 * int(math.Sqrt(n)/(eps*eps)) // centralized scale with margin
	big, err := NewANDTester(n, k, qBig, eps)
	if err != nil {
		t.Fatal(err)
	}
	ok, pNull, pFar, err := separates(big, uniform, far, 2.0/3, 300, 53)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("AND tester fails even at centralized q=%d: accept(U)=%v accept(far)=%v", qBig, pNull, pFar)
	}
}

func TestANDTesterStarvedNeverRejects(t *testing.T) {
	// A single sample per player carries zero collision mass, so under the
	// AND rule the network accepts everything — the Section 6.3 remark
	// that q = 1 makes AND-rule uniformity testing impossible. (Our local
	// rule family needs q >= 2; q = 2 with a large domain is equally
	// starved: lambda = 1/n.)
	const (
		n   = 4096
		eps = 0.5
	)
	uniform, _ := dist.Uniform(n)
	for _, k := range []int{4, 64, 512} {
		p, err := NewANDTester(n, k, 2, eps)
		if err != nil {
			t.Fatal(err)
		}
		h, _ := dist.NewHardInstance(11, eps)
		far, _, err := h.RandomPerturbed(testRand(uint64(k)))
		if err != nil {
			t.Fatal(err)
		}
		estU, err := estimate(p, uniform, 400, uint64(54+k))
		if err != nil {
			t.Fatal(err)
		}
		estF, err := estimate(p, far, 400, uint64(55+k))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(estU.P-estF.P) > 0.12 {
			t.Errorf("k=%d: starved AND tester separates (accept U=%v, far=%v); it should be blind", k, estU.P, estF.P)
		}
	}
}

func TestAsymmetricThresholdTester(t *testing.T) {
	// Heterogeneous rates: a few fast players and many slow ones. The
	// protocol must still separate when the fast players carry enough
	// collision mass.
	const (
		n   = 1024
		eps = 0.5
	)
	// Four fast sensors carry most of the collision mass; twelve slow ones
	// contribute weak votes. The referee threshold T = 4 is reachable by
	// the fast minority, unlike the default T = k/2.
	qs := make([]int, 16)
	for i := range qs {
		if i < 4 {
			qs[i] = 600 // fast sensors
		} else {
			qs[i] = 50 // slow sensors
		}
	}
	p, err := NewAsymmetricThresholdTester(n, qs, eps, 4)
	if err != nil {
		t.Fatal(err)
	}
	uniform, _ := dist.Uniform(n)
	h, _ := dist.NewHardInstance(9, eps)
	far, _, err := h.RandomPerturbed(testRand(61))
	if err != nil {
		t.Fatal(err)
	}
	ok, pNull, pFar, err := separates(p, uniform, far, 2.0/3, 300, 62)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("asymmetric tester fails: accept(U)=%v accept(far)=%v", pNull, pFar)
	}
}

func TestAsymmetricThresholdTesterValidation(t *testing.T) {
	if _, err := NewAsymmetricThresholdTester(0, []int{2}, 0.5, 1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewAsymmetricThresholdTester(16, nil, 0.5, 1); err == nil {
		t.Error("zero players accepted")
	}
	if _, err := NewAsymmetricThresholdTester(16, []int{2}, 0, 1); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := NewAsymmetricThresholdTester(16, []int{2, -1}, 0.5, 1); err == nil {
		t.Error("negative q accepted")
	}
	if _, err := NewAsymmetricThresholdTester(16, []int{2, 2}, 0.5, 3); err == nil {
		t.Error("T > k accepted")
	}
}

func TestRecommendedThresholdSamplesScaling(t *testing.T) {
	// q ~ sqrt(n/k)/eps^2.
	base := RecommendedThresholdSamples(4096, 4, 0.5)
	quadK := RecommendedThresholdSamples(4096, 16, 0.5)
	if ratio := float64(base) / float64(quadK); ratio < 1.8 || ratio > 2.2 {
		t.Errorf("4x players gave q ratio %v, want ~2", ratio)
	}
	halfEps := RecommendedThresholdSamples(4096, 4, 0.25)
	if ratio := float64(halfEps) / float64(base); ratio < 3.6 || ratio > 4.4 {
		t.Errorf("eps/2 gave q ratio %v, want ~4", ratio)
	}
}

func TestDefaultThresholdT(t *testing.T) {
	if DefaultThresholdT(1) != 1 || DefaultThresholdT(2) != 1 || DefaultThresholdT(100) != 50 {
		t.Error("default T wrong")
	}
}
