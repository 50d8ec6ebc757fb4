package dut_test

import (
	"context"
	"fmt"

	dut "github.com/distributed-uniformity/dut"
)

// The simplest entry point: feed samples to the collision-based uniformity
// test.
func ExampleTestUniformity() {
	const n, eps = 256, 0.5
	far, _ := dut.PairedBump(n, eps) // an eps-far distribution
	sampler, _ := dut.NewSampler(far)
	rng := dut.NewRand(2)

	samples := make([]int, dut.RecommendedSamples(n, eps))
	for i := range samples {
		samples[i] = sampler.Sample(rng)
	}
	uniform, _ := dut.TestUniformity(samples, n, eps)
	fmt.Println("looks uniform:", uniform)
	// Output: looks uniform: false
}

// A distributed tester: k players, each with sqrt(k)x fewer samples than a
// centralized tester would need, and a threshold-rule referee.
func ExampleNewThresholdTester() {
	const n, k, eps = 1024, 16, 0.5
	q := dut.RecommendedThresholdSamples(n, k, eps)
	tester, _ := dut.NewThresholdTester(dut.ThresholdTesterConfig{
		N: n, K: k, Q: q, Eps: eps,
	})

	uniform, _ := dut.Uniform(n)
	sampler, _ := dut.NewSampler(uniform)
	accept, _ := tester.Run(sampler, dut.NewRand(7))
	fmt.Printf("%d players x %d samples, verdict on uniform input: %v\n", k, q, accept)
	// Output: 16 players x 322 samples, verdict on uniform input: true
}

// The paper's hard family: every nu_z is exactly eps-far from uniform, yet
// their average is exactly uniform.
func ExampleNewHardFamily() {
	family, _ := dut.NewHardFamily(5, 0.5) // universe size 2^6 = 64
	nu, _, _ := family.RandomPerturbed(dut.NewRand(3))
	fmt.Printf("universe %d, distance from uniform %.2f\n",
		family.N(), dut.DistanceFromUniform(nu))
	// Output: universe 64, distance from uniform 0.50
}

// Evaluating the paper's lower bounds at concrete parameters.
func ExampleLowerBoundSamples() {
	floor, _ := dut.LowerBoundSamples(4096, 64, 0.5, 1)
	fmt.Printf("any-rule floor at n=4096, k=64, eps=0.5: %.0f samples/player\n", floor)
	// Output: any-rule floor at n=4096, k=64, eps=0.5: 32 samples/player
}

// Majority-vote amplification turns the model's 2/3 guarantee into any
// target confidence: Engine.Amplify runs an odd number of rounds, each
// with fresh samples, and returns their majority verdict.
func ExampleEngine_Amplify() {
	const n, k, eps = 256, 8, 0.5
	q := dut.RecommendedThresholdSamples(n, k, eps)
	tester, _ := dut.NewThresholdTester(dut.ThresholdTesterConfig{N: n, K: k, Q: q, Eps: eps})
	backend, _ := dut.BackendFor(tester)
	engine, _ := dut.NewEngine(backend, dut.EngineOptions{Seed: 1})
	defer engine.Close()
	uniform, _ := dut.Uniform(n)
	source, _ := dut.DistSource(uniform)
	rounds, _ := dut.RoundsForFailure(0.01)
	accept, results, _ := engine.Amplify(context.Background(), source, rounds)
	fmt.Printf("%d rounds for 1%% failure; per-player samples %d\n", len(results), q*len(results))
	fmt.Println("majority verdict on uniform input:", accept)
	// Output:
	// 83 rounds for 1% failure; per-player samples 19007
	// majority verdict on uniform input: true
}
