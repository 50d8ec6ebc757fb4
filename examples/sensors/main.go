// Sensors: the paper's motivating scenario — a sensor network that raises
// an alarm when its measurements drift from the expected (uniform)
// profile. The network runs as a real cluster: a referee server plus k
// sensor nodes exchanging frames over TCP loopback. The deployment uses the
// fully local AND rule (any one alarmed sensor alarms the network), so each
// sensor must sample at near-centralized rates — the locality cost
// quantified by Theorem 1.2.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	dut "github.com/distributed-uniformity/dut"
)

func main() {
	const (
		n       = 1024 // measurement buckets
		eps     = 0.5  // alarm sensitivity
		sensors = 8
	)
	rng := dut.NewRand(99)

	// The AND rule forces centralized-scale sampling per sensor
	// (Theorem 1.2); the threshold rule would need only sqrt(k)x less.
	qAND := dut.RecommendedSamples(n, eps)
	andTester, err := dut.NewANDTester(n, sensors, qAND, eps)
	if err != nil {
		log.Fatal(err)
	}
	cluster, err := dut.NewCluster(dut.ClusterConfig{
		K: sensors, Q: qAND,
		Rule:      andTester.Local(),
		Referee:   dut.BitReferee{Rule: dut.ANDRule{}},
		Transport: dut.TCPTransport{},
		Timeout:   30 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Each protocol round is only 2/3-confident, as the model requires
	// (the healthy-side false-alarm rate is ~1/4 by design); a deployment
	// amplifies by running independent rounds and alerting when at least
	// two thirds of them alarm. The execution engine drives the rounds —
	// each engine trial is one full networked round over TCP loopback —
	// and its (seed, trial, sensor) streams make the session reproducible.
	backend, err := dut.NewClusterBackend(cluster)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := dut.NewEngine(backend, dut.EngineOptions{Seed: 99, Workers: 4})
	if err != nil {
		log.Fatal(err)
	}
	// The backend keeps its sessions open between runs; Close ends them.
	defer func() {
		if err := eng.Close(); err != nil {
			log.Fatal(err)
		}
	}()
	const rounds = 15
	scenario := func(name string, d dut.Distribution) {
		sampler, err := dut.NewSampler(d)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		results, err := eng.Run(context.Background(), dut.FixedSource(sampler), rounds)
		if err != nil {
			log.Fatal(err)
		}
		alarms := 0
		for _, r := range results {
			if !r.Verdict {
				alarms++
			}
		}
		verdict := "ALL CLEAR"
		if 3*alarms >= 2*rounds {
			verdict = "ALARM RAISED"
		}
		fmt.Printf("%-28s -> %-12s (%d/%d rounds alarmed, %v total, %d sensors x %d readings)\n",
			name, verdict, alarms, rounds, time.Since(start).Round(time.Millisecond), sensors, qAND)
	}

	healthy, err := dut.Uniform(n)
	if err != nil {
		log.Fatal(err)
	}
	scenario("healthy environment", healthy)

	// A stuck sensor cluster: one measurement bucket absorbs extra mass.
	stuck, err := dut.HeavyHitter(n, 17, 0.3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("(stuck-bucket distance from uniform: %.2f)\n", dut.DistanceFromUniform(stuck))
	scenario("stuck measurement bucket", stuck)

	// Adversarial drift: the paper's hard family, the worst case for any
	// tester at this eps.
	family, err := dut.NewHardFamily(9, eps) // n = 2^10
	if err != nil {
		log.Fatal(err)
	}
	nu, _, err := family.RandomPerturbed(rng)
	if err != nil {
		log.Fatal(err)
	}
	scenario("adversarial eps-far drift", nu)

	fmt.Printf("\nlocality tax: AND rule needs %d readings/sensor; the threshold rule would need %d\n",
		qAND, dut.RecommendedThresholdSamples(n, sensors, eps))
}
