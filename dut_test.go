package dut

import (
	"context"
	"testing"
)

func TestTestUniformityAcceptsUniform(t *testing.T) {
	const (
		n   = 256
		eps = 0.5
	)
	u, err := Uniform(n)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSampler(u)
	if err != nil {
		t.Fatal(err)
	}
	rng := NewRand(1)
	q := RecommendedSamples(n, eps)
	accepts := 0
	const runs = 30
	for i := 0; i < runs; i++ {
		samples := make([]int, q)
		for j := range samples {
			samples[j] = s.Sample(rng)
		}
		ok, err := TestUniformity(samples, n, eps)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			accepts++
		}
	}
	if accepts < runs*2/3 {
		t.Errorf("accepted uniform only %d/%d times", accepts, runs)
	}
}

func TestTestUniformityRejectsFar(t *testing.T) {
	const (
		n   = 256
		eps = 0.5
	)
	far, err := PairedBump(n, eps)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSampler(far)
	if err != nil {
		t.Fatal(err)
	}
	rng := NewRand(2)
	q := RecommendedSamples(n, eps)
	rejects := 0
	const runs = 30
	for i := 0; i < runs; i++ {
		samples := make([]int, q)
		for j := range samples {
			samples[j] = s.Sample(rng)
		}
		ok, err := TestUniformity(samples, n, eps)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			rejects++
		}
	}
	if rejects < runs*2/3 {
		t.Errorf("rejected far distribution only %d/%d times", rejects, runs)
	}
}

func TestTestUniformityValidation(t *testing.T) {
	if _, err := TestUniformity(nil, 4, 0.5); err == nil {
		t.Error("empty sample batch accepted")
	}
	if _, err := TestUniformity([]int{0, 9}, 4, 0.5); err == nil {
		t.Error("out-of-domain sample accepted")
	}
}

func TestFacadeDistributedRound(t *testing.T) {
	// End-to-end through the public API only: build a tester, check the
	// separation on the engine, compare to the theorem floor.
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
	u, err := Uniform(n)
	if err != nil {
		t.Fatal(err)
	}
	far, err := PairedBump(n, eps)
	if err != nil {
		t.Fatal(err)
	}
	backend, err := BackendFor(p)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(backend, EngineOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	nullSrc, err := DistSource(u)
	if err != nil {
		t.Fatal(err)
	}
	farSrc, err := DistSource(far)
	if err != nil {
		t.Fatal(err)
	}
	sep, err := eng.Separates(context.Background(), nullSrc, farSrc, 2.0/3, 200)
	if err != nil {
		t.Fatal(err)
	}
	if sep.Outcome != Separated {
		t.Errorf("threshold tester failed to separate: accept(U)=%v accept(far)=%v",
			sep.Null.Estimate.P, sep.Far.Estimate.P)
	}
	floor, err := LowerBoundSamples(n, k, eps, 1)
	if err != nil {
		t.Fatal(err)
	}
	if float64(q) < floor {
		t.Errorf("recommended q=%d below the Theorem 6.1 floor %v", q, floor)
	}
}

func TestFacadeNetworkedCluster(t *testing.T) {
	const (
		n   = 256
		k   = 4
		eps = 0.5
	)
	q := RecommendedThresholdSamples(n, k, eps)
	smp, err := NewThresholdTester(ThresholdTesterConfig{N: n, K: k, Q: q, Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := NewCluster(ClusterConfig{
		K: k, Q: q,
		Rule:    smp.Local(),
		Referee: BitReferee{Rule: ThresholdRule{T: DefaultThresholdT(k)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	u, err := Uniform(n)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSampler(u)
	if err != nil {
		t.Fatal(err)
	}
	accepts := 0
	rng := NewRand(4)
	for i := 0; i < 10; i++ {
		ok, err := cluster.Run(s, rng)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			accepts++
		}
	}
	if accepts < 7 {
		t.Errorf("networked cluster accepted uniform only %d/10 rounds", accepts)
	}
}

func TestFacadeHardFamily(t *testing.T) {
	h, err := NewHardFamily(5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	nu, z, err := h.RandomPerturbed(NewRand(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(z) != h.CubeSize() {
		t.Errorf("perturbation length %d", len(z))
	}
	if d := DistanceFromUniform(nu); d < 0.499 || d > 0.501 {
		t.Errorf("hard instance distance %v, want 0.5", d)
	}
}

func TestFacadeIdentityTester(t *testing.T) {
	target, err := Zipf(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := RecommendedSamples(256, 0.25)
	tester, err := NewIdentityTester(target, q, 0.5, 6)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSampler(target)
	if err != nil {
		t.Fatal(err)
	}
	rng := NewRand(7)
	accepts := 0
	for i := 0; i < 20; i++ {
		samples := make([]int, q)
		for j := range samples {
			samples[j] = s.Sample(rng)
		}
		ok, err := tester.Test(samples)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			accepts++
		}
	}
	if accepts < 13 {
		t.Errorf("identity tester accepted its own target only %d/20 times", accepts)
	}
}

func TestNewRandDeterministic(t *testing.T) {
	a, b := NewRand(9), NewRand(9)
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("equal seeds diverged")
		}
	}
}

func TestLowerBoundFormulasExposed(t *testing.T) {
	if v, err := ANDRuleLowerBound(1<<12, 64, 0.5, 1); err != nil || v <= 0 {
		t.Errorf("ANDRuleLowerBound: %v, %v", v, err)
	}
	if v, err := ThresholdRuleLowerBound(1<<12, 64, 4, 0.5, 1); err != nil || v <= 0 {
		t.Errorf("ThresholdRuleLowerBound: %v, %v", v, err)
	}
	if v, err := LearningLowerBound(100, 10, 1); err != nil || v != 100 {
		t.Errorf("LearningLowerBound: %v, %v", v, err)
	}
	if v, err := MultiBitLowerBound(1<<12, 64, 2, 0.5, 1); err != nil || v <= 0 {
		t.Errorf("MultiBitLowerBound: %v, %v", v, err)
	}
	if v, err := AsymmetricDeadlineLowerBound(1<<12, []float64{1, 2}, 0.5, 1); err != nil || v <= 0 {
		t.Errorf("AsymmetricDeadlineLowerBound: %v, %v", v, err)
	}
}

func TestFacadeCONGESTTester(t *testing.T) {
	const (
		n   = 256
		k   = 9
		eps = 0.5
	)
	grid, err := GridGraph(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := RecommendedThresholdSamples(n, k, eps)
	smp, err := NewThresholdTester(ThresholdTesterConfig{N: n, K: k, Q: q, Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	tester, err := NewCONGESTTester(CONGESTTesterConfig{
		Graph: grid, Root: 0, Q: q, Rule: smp.Local(), Referee: smp.RefereeFunc(),
	})
	if err != nil {
		t.Fatal(err)
	}
	u, err := Uniform(n)
	if err != nil {
		t.Fatal(err)
	}
	src, err := DistSource(u)
	if err != nil {
		t.Fatal(err)
	}
	// BackendFor hands the tester its CONGEST backend, whose trials
	// report their communication rounds.
	backend, err := BackendFor(tester)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(backend, EngineOptions{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	results, err := eng.Run(context.Background(), src, 10)
	if err != nil {
		t.Fatal(err)
	}
	accepts := 0
	for i, r := range results {
		if r.Verdict {
			accepts++
		}
		if r.CommRounds < grid.Diameter() {
			t.Errorf("trial %d: rounds %d below diameter %d", i, r.CommRounds, grid.Diameter())
		}
	}
	if accepts < 7 {
		t.Errorf("CONGEST tester accepted uniform only %d/10 rounds", accepts)
	}
	rng := NewRand(31)
	tree, err := RandomTreeGraph(12, rng)
	if err != nil {
		t.Fatal(err)
	}
	if tree.N() != 12 || !tree.Connected() {
		t.Error("random tree builder broken through the facade")
	}
}

func TestFacadeSession(t *testing.T) {
	// A multi-round amplification session over a networked cluster: an
	// Engine on one worker over the cluster's backend, closed when done.
	const (
		n   = 256
		k   = 4
		eps = 0.5
	)
	q := RecommendedThresholdSamples(n, k, eps)
	smp, err := NewThresholdTester(ThresholdTesterConfig{N: n, K: k, Q: q, Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := NewCluster(ClusterConfig{
		K: k, Q: q,
		Rule:    smp.Local(),
		Referee: BitReferee{Rule: ThresholdRule{T: DefaultThresholdT(k)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	u, err := Uniform(n)
	if err != nil {
		t.Fatal(err)
	}
	src, err := DistSource(u)
	if err != nil {
		t.Fatal(err)
	}
	backend, err := NewClusterBackend(cluster)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(backend, EngineOptions{Workers: 1, Seed: NewRand(41).Uint64()})
	if err != nil {
		t.Fatal(err)
	}
	maj, rounds, err := eng.Amplify(context.Background(), src, 9)
	if closeErr := eng.Close(); err == nil {
		err = closeErr
	}
	if err != nil {
		t.Fatal(err)
	}
	if !maj {
		t.Errorf("majority rejected uniform input: %v", rounds)
	}
}

func TestFacadeEngine(t *testing.T) {
	const (
		n   = 256
		k   = 8
		eps = 0.5
	)
	tester, err := NewThresholdTester(ThresholdTesterConfig{
		N: n, K: k, Q: RecommendedThresholdSamples(n, k, eps), Eps: eps,
	})
	if err != nil {
		t.Fatal(err)
	}
	backend, err := BackendFor(tester)
	if err != nil {
		t.Fatal(err)
	}
	if backend.Players() != k {
		t.Fatalf("Players() = %d, want %d", backend.Players(), k)
	}
	eng, err := NewEngine(backend, EngineOptions{Seed: 17, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	u, err := Uniform(n)
	if err != nil {
		t.Fatal(err)
	}
	far, err := PairedBump(n, eps)
	if err != nil {
		t.Fatal(err)
	}
	nullSrc, err := DistSource(u)
	if err != nil {
		t.Fatal(err)
	}
	farSrc, err := DistSource(far)
	if err != nil {
		t.Fatal(err)
	}
	sep, err := eng.Separates(context.Background(), nullSrc, farSrc, 2.0/3, 300)
	if err != nil {
		t.Fatal(err)
	}
	if sep.Outcome != Separated {
		t.Fatalf("threshold tester at recommended q: outcome %v (null %.3f, far %.3f)",
			sep.Outcome, sep.Null.Estimate.P, sep.Far.Estimate.P)
	}
	// The same seed through the engine twice must reproduce the verdict
	// sequence exactly.
	r1, err := eng.Run(context.Background(), nullSrc, 20)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := eng.Run(context.Background(), nullSrc, 20)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1 {
		if r1[i].Verdict != r2[i].Verdict {
			t.Fatalf("trial %d: verdicts differ across identical runs", i)
		}
	}
}
