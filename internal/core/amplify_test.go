package core

import (
	"context"
	"math/rand/v2"
	"testing"

	"github.com/distributed-uniformity/dut/internal/dist"
	"github.com/distributed-uniformity/dut/internal/engine"
)

// coinProtocol accepts with a fixed probability, independent of samples.
type coinProtocol struct{ p float64 }

func (c coinProtocol) Run(_ dist.Sampler, rng *rand.Rand) (bool, error) {
	return rng.Float64() < c.p, nil
}
func (c coinProtocol) Players() int             { return 1 }
func (c coinProtocol) MaxSamplesPerPlayer() int { return 1 }

// wordProtocol records the first word of its generator on each run.
type wordProtocol struct{ words []uint64 }

func (w *wordProtocol) Run(_ dist.Sampler, rng *rand.Rand) (bool, error) {
	w.words = append(w.words, rng.Uint64())
	return true, nil
}
func (w *wordProtocol) Players() int             { return 1 }
func (w *wordProtocol) MaxSamplesPerPlayer() int { return 1 }

// TestForeignProtocolHasItsOwnCoin: BackendFor runs a foreign Protocol
// on the trial's public-coin stream at player index k, not on the stream
// the engine hands the trial's Source.
func TestForeignProtocolHasItsOwnCoin(t *testing.T) {
	const seed, trials = 5, 4
	p := &wordProtocol{}
	b, err := BackendFor(p)
	if err != nil {
		t.Fatal(err)
	}
	u, _ := dist.Uniform(4)
	s, err := dist.NewAliasSampler(u)
	if err != nil {
		t.Fatal(err)
	}
	var drawn []uint64
	src := func(_ int, rng *rand.Rand) (dist.Sampler, error) {
		drawn = append(drawn, rng.Uint64())
		return s, nil
	}
	if _, err := engine.Run(context.Background(), b, src, trials, engine.Options{Seed: seed, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if len(p.words) != trials || len(drawn) != trials {
		t.Fatalf("%d runs and %d draws, want %d of each", len(p.words), len(drawn), trials)
	}
	for i, w := range p.words {
		if w == drawn[i] {
			t.Errorf("trial %d: the Protocol's first word %#x is the Source's", i, w)
		}
		if want := engine.PlayerRNG(seed, i, p.Players()).Uint64(); w != want {
			t.Errorf("trial %d: the Protocol's first word %#x, want %#x from player lane %d", i, w, want, p.Players())
		}
	}
}

// TestAmplifyValidation: amplification through BackendFor refuses a nil
// protocol and an even or zero round count, and an amplified run of r
// rounds draws r times a round's samples, for a generic Protocol and for
// the SMP's own backend alike.
func TestAmplifyValidation(t *testing.T) {
	if _, err := BackendFor(nil); err == nil {
		t.Error("nil protocol accepted")
	}
	b, err := BackendFor(coinProtocol{p: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	u, _ := dist.Uniform(4)
	src, err := engine.FromDist(u)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, rounds := range []int{0, 4} {
		if _, _, err := engine.Amplify(ctx, b, src, rounds, engine.Options{}); err == nil {
			t.Errorf("%d rounds accepted", rounds)
		}
	}
	smp, err := NewThresholdTester(ThresholdTesterConfig{N: 4, K: 3, Q: 2, Eps: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Protocol{coinProtocol{p: 0.7}, smp} {
		b, err := BackendFor(p)
		if err != nil {
			t.Fatal(err)
		}
		_, results, err := engine.Amplify(ctx, b, src, 5, engine.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		samples := 0
		for _, r := range results {
			samples += r.Samples
		}
		if want := 5 * p.Players() * p.MaxSamplesPerPlayer(); len(results) != 5 || samples != want {
			t.Errorf("%T: %d rounds drew %d samples, want 5 rounds and %d", p, len(results), samples, want)
		}
	}
}

// amplifiedAcceptance is the share of seeds 0..seeds-1 on which
// engine.Amplify, rounds rounds of p's BackendFor backend on d, accepts.
func amplifiedAcceptance(t *testing.T, p Protocol, d dist.Dist, rounds, seeds int) float64 {
	t.Helper()
	b, err := BackendFor(p)
	if err != nil {
		t.Fatal(err)
	}
	src, err := engine.FromDist(d)
	if err != nil {
		t.Fatal(err)
	}
	accepts := 0
	for seed := 0; seed < seeds; seed++ {
		accept, results, err := engine.Amplify(context.Background(), b, src, rounds, engine.Options{Seed: uint64(seed)})
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != rounds {
			t.Fatalf("seed %d: %d round results, want %d", seed, len(results), rounds)
		}
		if accept {
			accepts++
		}
	}
	return float64(accepts) / float64(seeds)
}

func TestAmplifyDrivesErrorDown(t *testing.T) {
	// A coin backend accepting with p = 0.7 (should accept): single-round
	// error 0.3; 15 rounds of majority push it below ~3%.
	u, _ := dist.Uniform(4)
	single, err := estimate(coinProtocol{p: 0.7}, u, 4000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if single.P > 0.75 {
		t.Fatalf("single-round baseline off: %v", single.P)
	}
	if boosted := amplifiedAcceptance(t, coinProtocol{p: 0.7}, u, 15, 4000); boosted < 0.94 {
		t.Errorf("amplified acceptance %v, want > 0.94", boosted)
	}
	// Symmetric on the reject side.
	if rejected := amplifiedAcceptance(t, coinProtocol{p: 0.3}, u, 15, 4000); rejected > 0.06 {
		t.Errorf("amplified rejection leaks %v acceptance", rejected)
	}
}

func TestRoundsForFailure(t *testing.T) {
	r, err := RoundsForFailure(1.0 / 3)
	if err != nil {
		t.Fatal(err)
	}
	if r%2 == 0 || r < 1 {
		t.Errorf("rounds = %d", r)
	}
	r2, err := RoundsForFailure(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if r2 <= r {
		t.Errorf("smaller delta gave fewer rounds: %d vs %d", r2, r)
	}
	if _, err := RoundsForFailure(0); err == nil {
		t.Error("delta=0 accepted")
	}
	if _, err := RoundsForFailure(1); err == nil {
		t.Error("delta=1 accepted")
	}
}

func TestAmplifyEndToEnd(t *testing.T) {
	// Amplify the real threshold tester, through BackendFor, and watch the
	// uniform-side acceptance climb.
	const (
		n   = 256
		k   = 8
		eps = 0.5
	)
	q := RecommendedThresholdSamples(n, k, eps)
	inner, err := NewThresholdTester(ThresholdTesterConfig{N: n, K: k, Q: q, Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	uniform, _ := dist.Uniform(n)
	base, err := estimate(inner, uniform, 300, 4)
	if err != nil {
		t.Fatal(err)
	}
	boosted := amplifiedAcceptance(t, inner, uniform, 9, 300)
	if boosted < base.P {
		t.Errorf("amplification hurt: %v -> %v", base.P, boosted)
	}
	if boosted < 0.95 {
		t.Errorf("amplified acceptance %v", boosted)
	}
	far, _ := dist.PairedBump(n, eps)
	if farAccept := amplifiedAcceptance(t, inner, far, 9, 300); farAccept > 0.05 {
		t.Errorf("amplified far acceptance %v", farAccept)
	}
}
