package engine_test

// Batch determinism: Options.Batch/Window change only how trials are
// scheduled and carried on the wire, never what any trial computes. For
// every backend and every batch/window combination — including batch
// sizes that leave partial final batches and windows larger than the
// trial count — the verdict sequence must be bit-identical to the
// unbatched run with the same seed.

import (
	"context"
	"testing"
	"time"

	"github.com/distributed-uniformity/dut/internal/congest"
	"github.com/distributed-uniformity/dut/internal/core"
	"github.com/distributed-uniformity/dut/internal/engine"
	"github.com/distributed-uniformity/dut/internal/network"
)

var batchGrid = []struct {
	batch, window int
}{
	{1, 1}, {1, 4}, {7, 1}, {7, 4}, {256, 1}, {256, 4},
}

func runBatchVerdicts(t *testing.T, b engine.Backend, batch, window int) []bool {
	t.Helper()
	results, err := engine.Run(context.Background(), b, xbSource(t), xbTrials,
		engine.Options{Seed: xbSeed, Workers: xbWorkers, Batch: batch, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	verdicts := make([]bool, len(results))
	for i, r := range results {
		verdicts[i] = r.Verdict
	}
	return verdicts
}

func batchCluster(t *testing.T, referee core.Referee, minVotes int) engine.Backend {
	t.Helper()
	c, err := network.NewCluster(network.ClusterConfig{
		K: xbPlayers, Q: xbSamples,
		Rule:      xbRule(),
		Referee:   referee,
		Transport: network.NewMemTransport(),
		Timeout:   10 * time.Second,
		MinVotes:  minVotes,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := clusterBackend(t, c)
	return b
}

func TestClusterBatchMatchesUnbatched(t *testing.T) {
	rules := []struct {
		name string
		rule core.DecisionRule
	}{
		{"AND", core.ANDRule{}},
		{"Majority", core.MajorityRule{}},
	}
	for _, tc := range rules {
		referee := core.BitReferee{Rule: tc.rule}
		want := clusterVerdicts(t, referee, 0, core.AbsenteeDefault)
		for _, g := range batchGrid {
			g := g
			t.Run(tc.name, func(t *testing.T) {
				t.Parallel()
				got := runBatchVerdicts(t, batchCluster(t, referee, 0), g.batch, g.window)
				assertSameVerdicts(t, tc.name, want, got)
			})
		}
	}
}

func TestClusterBatchOpaqueRefereeMatchesUnbatched(t *testing.T) {
	// A FuncRule has no threshold shape, forcing the referee's per-trial
	// fallback evaluation; its batched verdicts must still match the
	// unbatched run of the same referee.
	referee := core.BitReferee{Rule: core.FuncRule{
		Label: "inverted-majority",
		F: func(bits []bool) bool {
			rejections := 0
			for _, b := range bits {
				if !b {
					rejections++
				}
			}
			return rejections >= (len(bits)+1)/2
		},
	}}
	want := clusterVerdicts(t, referee, 0, core.AbsenteeDefault)
	for _, g := range batchGrid {
		g := g
		t.Run("grid", func(t *testing.T) {
			t.Parallel()
			got := runBatchVerdicts(t, batchCluster(t, referee, 0), g.batch, g.window)
			assertSameVerdicts(t, "opaque", want, got)
		})
	}
}

func TestQuorumClusterBatchMatchesUnbatched(t *testing.T) {
	// Quorum mode without faults still receives all k votes, so the
	// batched pipeline must reproduce the strict verdicts bit for bit.
	referee := core.BitReferee{Rule: core.ThresholdRule{T: 2}}
	want := smpVerdicts(t, referee)
	for _, g := range batchGrid {
		g := g
		t.Run("grid", func(t *testing.T) {
			t.Parallel()
			got := runBatchVerdicts(t, batchCluster(t, referee, xbPlayers-1), g.batch, g.window)
			assertSameVerdicts(t, "quorum", want, got)
		})
	}
}

func TestSMPBatchMatchesUnbatched(t *testing.T) {
	referee := core.BitReferee{Rule: core.MajorityRule{}}
	want := smpVerdicts(t, referee)
	for _, g := range batchGrid {
		g := g
		t.Run("grid", func(t *testing.T) {
			t.Parallel()
			p, err := core.NewSMP(xbPlayers, xbSamples, xbRule(), referee)
			if err != nil {
				t.Fatal(err)
			}
			b, err := core.BackendFor(p)
			if err != nil {
				t.Fatal(err)
			}
			assertSameVerdicts(t, "smp", want, runBatchVerdicts(t, b, g.batch, g.window))
		})
	}
}

func TestCONGESTBatchMatchesUnbatched(t *testing.T) {
	const threshold = 2
	referee := core.BitReferee{Rule: core.ThresholdRule{T: threshold}}
	want := smpVerdicts(t, referee)
	for _, g := range batchGrid {
		g := g
		t.Run("grid", func(t *testing.T) {
			t.Parallel()
			graph, err := congest.Complete(xbPlayers)
			if err != nil {
				t.Fatal(err)
			}
			tester, err := congest.NewTester(congest.TesterConfig{
				Graph: graph, Root: 0, Q: xbSamples, Rule: xbRule(), Referee: referee,
			})
			if err != nil {
				t.Fatal(err)
			}
			b, err := congest.NewBackend(tester)
			if err != nil {
				t.Fatal(err)
			}
			assertSameVerdicts(t, "congest", want, runBatchVerdicts(t, b, g.batch, g.window))
		})
	}
}

func TestClusterBatchMultiChunk(t *testing.T) {
	// More trials than one chunk holds: several workers each run several
	// chunks through their persistent sessions, with partial batches at
	// the tail. Verdicts must match the unbatched run trial for trial.
	const trials = 100
	referee := core.BitReferee{Rule: core.MajorityRule{}}
	run := func(t *testing.T, batch, window int) []bool {
		t.Helper()
		results, err := engine.Run(context.Background(), batchCluster(t, referee, 0), xbSource(t), trials,
			engine.Options{Seed: xbSeed, Workers: xbWorkers, Batch: batch, Window: window})
		if err != nil {
			t.Fatal(err)
		}
		verdicts := make([]bool, len(results))
		for i, r := range results {
			verdicts[i] = r.Verdict
		}
		return verdicts
	}
	want := run(t, 0, 0) // unbatched
	assertSameVerdicts(t, "multichunk", want, run(t, 7, 2))
	assertSameVerdicts(t, "multichunk", want, run(t, 16, 3))
}
