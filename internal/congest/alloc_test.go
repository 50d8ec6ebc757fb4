package congest

import (
	"context"
	"math/rand/v2"
	"testing"

	"github.com/distributed-uniformity/dut/internal/core"
	"github.com/distributed-uniformity/dut/internal/dist"
	"github.com/distributed-uniformity/dut/internal/engine"
)

// Allocation guards for the CONGEST scratch path: a steady-state trial —
// sampling, voting, BFS-tree aggregation on the simulator, verdict
// broadcast — must not touch the allocator at all. Every piece of
// per-trial state (node status slices, outbox/inbox slots, step sets, the
// verdict sink) lives on the worker's reusable scratch. Each guard runs
// on K5, where every node has mail in every round, and on the
// benchmark's 16x16 grid, where most nodes sleep through most rounds.

// allocGraphs are the topologies the allocation guards run on.
var allocGraphs = []struct {
	name  string
	build func() (*Graph, error)
}{
	{"complete5", func() (*Graph, error) { return Complete(5) }},
	{"grid16x16", func() (*Graph, error) { return Grid(16, 16) }},
}

func allocTester(t *testing.T, build func() (*Graph, error)) *Tester {
	t.Helper()
	g, err := build()
	if err != nil {
		t.Fatal(err)
	}
	rule := core.RuleFunc(func(player int, samples []int, shared uint64, private *rand.Rand) (core.Message, error) {
		h := shared ^ uint64(player)*0x9e3779b97f4a7c15
		for _, s := range samples {
			h = h*1099511628211 + uint64(s)
		}
		h ^= private.Uint64()
		if h&1 == 0 {
			return core.Accept, nil
		}
		return core.Reject, nil
	})
	tester, err := NewTester(TesterConfig{Graph: g, Root: 0, Q: 3, Rule: rule, Referee: thresholdReferee(2)})
	if err != nil {
		t.Fatal(err)
	}
	return tester
}

func allocSampler(t *testing.T) dist.Sampler {
	t.Helper()
	u, err := dist.Uniform(16)
	if err != nil {
		t.Fatal(err)
	}
	s, err := dist.NewAliasSampler(u)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCONGESTScratchRunAllocs holds the steady-state seeded run to zero
// allocations (the pre-position-indexed simulator spent 17 per trial on
// status maps, explorer slices and the escaping verdict).
func TestCONGESTScratchRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	sampler := allocSampler(t)
	for _, ag := range allocGraphs {
		t.Run(ag.name, func(t *testing.T) {
			tester := allocTester(t, ag.build)
			sc := tester.newScratch()
			shared := uint64(0)
			allocs := testing.AllocsPerRun(200, func() {
				shared++
				if _, _, err := tester.runSeededScratch(sampler, shared, sc); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 0 {
				t.Fatalf("CONGEST scratch run allocates %.2f per trial, want 0", allocs)
			}
		})
	}
}

// TestCONGESTBatchChunkAllocs holds the full batched backend chunk to
// zero steady-state allocations per trial.
func TestCONGESTBatchChunkAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	sampler := allocSampler(t)
	for _, ag := range allocGraphs {
		t.Run(ag.name, func(t *testing.T) {
			b, err := NewBackend(allocTester(t, ag.build))
			if err != nil {
				t.Fatal(err)
			}
			bb, ok := b.(engine.BatchBackend)
			if !ok {
				t.Fatal("CONGEST backend does not implement engine.BatchBackend")
			}
			const chunk = 16
			specs := make([]engine.RoundSpec, chunk)
			out := make([]engine.RoundResult, chunk)
			for i := range specs {
				specs[i] = engine.RoundSpec{Trial: i, Seed: 0xfeedface, Sampler: sampler}
			}
			scratch := bb.NewScratch()
			ctx := context.Background()
			allocs := testing.AllocsPerRun(50, func() {
				if err := bb.RunRoundsScratch(ctx, scratch, specs, chunk, out); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 0 {
				t.Fatalf("CONGEST batched chunk allocates %.2f per chunk, want 0", allocs)
			}
		})
	}
}

// TestCONGESTScratchBuildAllocs holds a worker's scratch to a constant
// number of allocations: building it and running its first trial costs
// the same on a 16-node grid as on a 256-node one, because the sorted
// adjacency is shared from the Tester and all per-node and per-edge
// state is carved from flat slices.
func TestCONGESTScratchBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	sampler := allocSampler(t)
	build := func(side int) float64 {
		b, err := NewBackend(allocTester(t, func() (*Graph, error) { return Grid(side, side) }))
		if err != nil {
			t.Fatal(err)
		}
		bb := b.(engine.BatchBackend)
		specs := []engine.RoundSpec{{Trial: 0, Seed: 0xfeedface, Sampler: sampler}}
		out := make([]engine.RoundResult, 1)
		ctx := context.Background()
		return testing.AllocsPerRun(20, func() {
			if err := bb.RunRoundsScratch(ctx, bb.NewScratch(), specs, 1, out); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := build(4), build(16)
	if small != large {
		t.Fatalf("NewScratch plus first run: %.0f allocations on a 4x4 grid, %.0f on 16x16; want equal", small, large)
	}
	t.Logf("NewScratch plus first run: %.0f allocations", small)
}
