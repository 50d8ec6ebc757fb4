package congest

import "testing"

// BenchmarkSimulatorGrid times the simulator alone — the node steps and
// message delivery of one run — on dutbench's congest-grid topology: the
// 16x16 grid from root 0, with TestEventDrivenStepCount's fixed 0/1
// scores and T = 64. No sampling and no local rule run; each iteration
// resets the nodes to the same scores (O(nodes + edges) of clearing)
// and runs the tree aggregation to its verdict. It is hand-run:
//
//	go test ./internal/congest -run '^$' -bench SimulatorGrid -cpu 1
func BenchmarkSimulatorGrid(b *testing.B) {
	g, err := Grid(16, 16)
	if err != nil {
		b.Fatal(err)
	}
	rng := testRand(16)
	scores := make([]uint64, g.N())
	for u := range scores {
		scores[u] = rng.Uint64N(2)
	}
	top := newTopology(g)
	nodes := newUniformityNodes(top, 0, 64)
	programs := make([]NodeProgram, len(nodes))
	for u := range nodes {
		programs[u] = &nodes[u]
	}
	sim := newSimulator(top, programs)
	var verdict bool
	maxRounds := 8*g.N() + 16
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for u := range nodes {
			nodes[u].reset(scores[u], &verdict)
		}
		if err := sim.Run(maxRounds); err != nil {
			b.Fatal(err)
		}
	}
	if sim.Rounds() != 92 {
		b.Fatalf("%d rounds, want 92", sim.Rounds())
	}
}
