package core

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"

	"github.com/distributed-uniformity/dut/internal/dist"
	"github.com/distributed-uniformity/dut/internal/engine"
	"github.com/distributed-uniformity/dut/internal/stats"
)

func testRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0xabcdef))
}

func constRule(m Message) LocalRule {
	return RuleFunc(func(int, []int, uint64, *rand.Rand) (Message, error) {
		return m, nil
	})
}

func uniformSampler(t *testing.T, n int) dist.Sampler {
	t.Helper()
	u, err := dist.Uniform(n)
	if err != nil {
		t.Fatal(err)
	}
	s, err := dist.NewAliasSampler(u)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSMPValidation(t *testing.T) {
	rule := constRule(Accept)
	ref := BitReferee{Rule: ANDRule{}}
	if _, err := NewSMP(0, 1, rule, ref); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewSMP(2, -1, rule, ref); err == nil {
		t.Error("negative q accepted")
	}
	if _, err := NewSMP(2, 1, nil, ref); err == nil {
		t.Error("nil rule accepted")
	}
	if _, err := NewSMP(2, 1, rule, nil); err == nil {
		t.Error("nil referee accepted")
	}
	if _, err := NewAsymmetricSMP(nil, rule, ref); err == nil {
		t.Error("zero players accepted")
	}
	if _, err := NewAsymmetricSMP([]int{1, -2}, rule, ref); err == nil {
		t.Error("negative per-player q accepted")
	}
	for _, bits := range []int{0, 65} {
		if _, err := NewSMP(2, 1, widthRule{rule, bits}, ref); err == nil {
			t.Errorf("a rule of %d message bits accepted", bits)
		}
	}
}

// widthRule is a rule that declares the given message width.
type widthRule struct {
	LocalRule
	bits int
}

func (r widthRule) Bits() int { return r.bits }

func TestSMPAccessors(t *testing.T) {
	p, err := NewAsymmetricSMP([]int{3, 5, 2}, constRule(Accept), BitReferee{Rule: ANDRule{}})
	if err != nil {
		t.Fatal(err)
	}
	if p.Players() != 3 || p.MaxSamplesPerPlayer() != 5 || p.TotalSamples() != 10 {
		t.Errorf("accessors: %d %d %d", p.Players(), p.MaxSamplesPerPlayer(), p.TotalSamples())
	}
	if p.Local() == nil {
		t.Error("Local returned nil")
	}
}

func TestSMPDoesNotAliasQs(t *testing.T) {
	qs := []int{1, 2}
	p, err := NewAsymmetricSMP(qs, constRule(Accept), BitReferee{Rule: ANDRule{}})
	if err != nil {
		t.Fatal(err)
	}
	qs[0] = 99
	if p.MaxSamplesPerPlayer() != 2 {
		t.Error("SMP aliased the qs slice")
	}
}

func TestSMPRunsRuleAndReferee(t *testing.T) {
	// Players 0 and 2 accept, player 1 rejects; AND must reject, OR accept,
	// threshold T=2 accept.
	rule := RuleFunc(func(player int, _ []int, _ uint64, _ *rand.Rand) (Message, error) {
		if player == 1 {
			return Reject, nil
		}
		return Accept, nil
	})
	s := uniformSampler(t, 4)
	for _, tt := range []struct {
		rule DecisionRule
		want bool
	}{
		{rule: ANDRule{}, want: false},
		{rule: ORRule{}, want: true},
		{rule: ThresholdRule{T: 2}, want: true},
	} {
		p, err := NewSMP(3, 2, rule, BitReferee{Rule: tt.rule})
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Run(s, testRand(1))
		if err != nil {
			t.Fatal(err)
		}
		if got != tt.want {
			t.Errorf("%s: got %v, want %v", tt.rule.Name(), got, tt.want)
		}
	}
}

func TestSMPSampleCountsPerPlayer(t *testing.T) {
	var seen []int
	rule := RuleFunc(func(_ int, samples []int, _ uint64, _ *rand.Rand) (Message, error) {
		seen = append(seen, len(samples))
		return Accept, nil
	})
	p, err := NewAsymmetricSMP([]int{4, 0, 7}, rule, BitReferee{Rule: ANDRule{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(uniformSampler(t, 8), testRand(2)); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 || seen[0] != 4 || seen[1] != 0 || seen[2] != 7 {
		t.Errorf("per-player sample counts: %v", seen)
	}
}

func TestSMPSharedSeedConsistentWithinRun(t *testing.T) {
	var seeds []uint64
	rule := RuleFunc(func(_ int, _ []int, shared uint64, _ *rand.Rand) (Message, error) {
		seeds = append(seeds, shared)
		return Accept, nil
	})
	p, err := NewSMP(5, 1, rule, BitReferee{Rule: ANDRule{}})
	if err != nil {
		t.Fatal(err)
	}
	rng := testRand(3)
	if _, err := p.Run(uniformSampler(t, 4), rng); err != nil {
		t.Fatal(err)
	}
	first := seeds
	seeds = nil
	if _, err := p.Run(uniformSampler(t, 4), rng); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(first); i++ {
		if first[i] != first[0] {
			t.Fatalf("players saw different shared seeds within a run: %v", first)
		}
	}
	if len(seeds) == 0 || seeds[0] == first[0] {
		t.Error("shared seed did not refresh across runs")
	}
}

func TestSMPRunValidation(t *testing.T) {
	p, err := NewSMP(1, 1, constRule(Accept), BitReferee{Rule: ANDRule{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(nil, testRand(1)); err == nil {
		t.Error("nil sampler accepted")
	}
	if _, err := p.Run(uniformSampler(t, 2), nil); err == nil {
		t.Error("nil rng accepted")
	}
}

func TestSMPDeterministicGivenRng(t *testing.T) {
	p, err := NewSMP(4, 3, RuleFunc(func(_ int, samples []int, _ uint64, _ *rand.Rand) (Message, error) {
		if samples[0]%2 == 0 {
			return Accept, nil
		}
		return Reject, nil
	}), BitReferee{Rule: MajorityRule{}})
	if err != nil {
		t.Fatal(err)
	}
	s := uniformSampler(t, 16)
	var a, b []bool
	rng := testRand(5)
	for i := 0; i < 20; i++ {
		v, err := p.Run(s, rng)
		if err != nil {
			t.Fatal(err)
		}
		a = append(a, v)
	}
	rng = testRand(5)
	for i := 0; i < 20; i++ {
		v, err := p.Run(s, rng)
		if err != nil {
			t.Fatal(err)
		}
		b = append(b, v)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d", i)
		}
	}
}

// estimate measures p's acceptance probability on d: engine.Estimate
// over trials trials of the seed, on the backend BackendFor builds.
func estimate(p Protocol, d dist.Dist, trials int, seed uint64) (stats.SuccessEstimate, error) {
	b, err := BackendFor(p)
	if err != nil {
		return stats.SuccessEstimate{}, err
	}
	src, err := engine.FromDist(d)
	if err != nil {
		return stats.SuccessEstimate{}, err
	}
	res, err := engine.Estimate(context.Background(), b, src, trials, engine.Options{Seed: seed})
	return res.Estimate, err
}

// separates runs engine.Separates for p on null and far, as estimate
// does, and reports whether it separated and both acceptance rates.
func separates(p Protocol, null, far dist.Dist, target float64, trials int, seed uint64) (ok bool, acceptNull, acceptFar float64, err error) {
	b, err := BackendFor(p)
	if err != nil {
		return false, 0, 0, err
	}
	nullSrc, err := engine.FromDist(null)
	if err != nil {
		return false, 0, 0, err
	}
	farSrc, err := engine.FromDist(far)
	if err != nil {
		return false, 0, 0, err
	}
	sep, err := engine.Separates(context.Background(), b, nullSrc, farSrc, target, trials, engine.Options{Seed: seed})
	if err != nil {
		return false, 0, 0, err
	}
	return sep.Outcome == engine.Separated, sep.Null.Estimate.P, sep.Far.Estimate.P, nil
}

func TestEstimateAcceptance(t *testing.T) {
	// A rule accepting iff its single sample is even: over uniform [4],
	// each player accepts w.p. 1/2; with one player and the AND rule the
	// protocol accepts w.p. 1/2.
	rule := RuleFunc(func(_ int, samples []int, _ uint64, _ *rand.Rand) (Message, error) {
		if samples[0]%2 == 0 {
			return Accept, nil
		}
		return Reject, nil
	})
	p, err := NewSMP(1, 1, rule, BitReferee{Rule: ANDRule{}})
	if err != nil {
		t.Fatal(err)
	}
	u, _ := dist.Uniform(4)
	est, err := estimate(p, u, 20000, 9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.P-0.5) > 0.02 {
		t.Errorf("acceptance %v, want ~0.5", est.P)
	}
	if _, err := estimate(nil, u, 10, 0); err == nil {
		t.Error("nil protocol accepted")
	}
}

func TestEstimateAcceptanceSurfacesRunErrors(t *testing.T) {
	bad := RuleFunc(func(int, []int, uint64, *rand.Rand) (Message, error) {
		return Reject, errBoom
	})
	p, err := NewSMP(1, 1, bad, BitReferee{Rule: ANDRule{}})
	if err != nil {
		t.Fatal(err)
	}
	u, _ := dist.Uniform(2)
	if _, err := estimate(p, u, 100, 0); err == nil {
		t.Error("run error swallowed")
	}
}

var errBoom = errString("boom")

type errString string

func (e errString) Error() string { return string(e) }

func TestSeparates(t *testing.T) {
	// Accept iff sample < n/2: distinguishes uniform-on-lower-half from
	// uniform-on-upper-half perfectly.
	rule := RuleFunc(func(_ int, samples []int, _ uint64, _ *rand.Rand) (Message, error) {
		if samples[0] < 8 {
			return Accept, nil
		}
		return Reject, nil
	})
	p, err := NewSMP(1, 1, rule, BitReferee{Rule: ANDRule{}})
	if err != nil {
		t.Fatal(err)
	}
	lower, _ := dist.SparseSupport(16, 8)
	upperProbs := make([]float64, 16)
	for i := 8; i < 16; i++ {
		upperProbs[i] = 0.125
	}
	upper, _ := dist.FromProbs(upperProbs)
	ok, pNull, pFar, err := separates(p, lower, upper, 0.99, 500, 13)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || pNull < 0.99 || pFar > 0.01 {
		t.Errorf("separation failed: %v %v %v", ok, pNull, pFar)
	}
	// And the reverse orientation must fail.
	ok, _, _, err = separates(p, upper, lower, 0.99, 500, 14)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("inverted separation reported success")
	}
}
