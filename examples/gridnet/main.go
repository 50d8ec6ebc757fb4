// Gridnet: distributed uniformity testing in the CONGEST model — the
// graph-network setting the lower bounds transfer to via the paper's
// Section 6.2 reduction. A 6x6 sensor grid aggregates its votes up a BFS
// tree; no referee exists, yet the verdict (and its statistics) match the
// referee model exactly, while rounds track the grid's diameter and every
// message fits in a CONGEST-sized payload.
package main

import (
	"context"
	"fmt"
	"log"

	dut "github.com/distributed-uniformity/dut"
)

func main() {
	const (
		rows, cols = 6, 6
		k          = rows * cols
		n          = 1024
		eps        = 0.5
	)
	grid, err := dut.GridGraph(rows, cols)
	if err != nil {
		log.Fatal(err)
	}
	q := dut.RecommendedThresholdSamples(n, k, eps)

	// Reuse the SMP threshold tester's local rule and referee; the grid
	// evaluates the referee by BFS-tree aggregation rooted at a corner
	// node.
	smp, err := dut.NewThresholdTester(dut.ThresholdTesterConfig{N: n, K: k, Q: q, Eps: eps})
	if err != nil {
		log.Fatal(err)
	}
	tester, err := dut.NewCONGESTTester(dut.CONGESTTesterConfig{
		Graph:   grid,
		Root:    0,
		Q:       q,
		Rule:    smp.Local(),
		Referee: smp.RefereeFunc(),
	})
	if err != nil {
		log.Fatal(err)
	}

	// The execution engine drives the grid like any other backend; each
	// trial's RoundResult additionally reports the CONGEST accounting
	// (communication rounds, edge messages).
	backend, err := dut.NewCONGESTBackend(tester)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := dut.NewEngine(backend, dut.EngineOptions{Seed: 21})
	if err != nil {
		log.Fatal(err)
	}
	scenario := func(name string, d dut.Distribution) {
		sampler, err := dut.NewSampler(d)
		if err != nil {
			log.Fatal(err)
		}
		results, err := eng.Run(context.Background(), dut.FixedSource(sampler), 1)
		if err != nil {
			log.Fatal(err)
		}
		r := results[0]
		verdict := "uniform"
		if !r.Verdict {
			verdict = "FAR FROM UNIFORM"
		}
		fmt.Printf("%-22s -> %-17s (%d rounds, %d messages)\n",
			name, verdict, r.CommRounds, r.Messages)
	}

	fmt.Printf("%dx%d grid (diameter %d), %d sensors x %d samples, n=%d, eps=%v\n\n",
		rows, cols, grid.Diameter(), k, q, n, eps)

	uniform, err := dut.Uniform(n)
	if err != nil {
		log.Fatal(err)
	}
	scenario("uniform input", uniform)

	family, err := dut.NewHardFamily(9, eps) // n = 2^10
	if err != nil {
		log.Fatal(err)
	}
	nu, _, err := family.RandomPerturbed(dut.NewRand(21))
	if err != nil {
		log.Fatal(err)
	}
	scenario("adversarial nu_z", nu)

	fmt.Printf("\nCONGEST budget: every message fits well under the model's O(log n) bits;\n")
	fmt.Printf("round count ~ diameter (%d); the verdict statistics equal the referee model's.\n", grid.Diameter())
}
