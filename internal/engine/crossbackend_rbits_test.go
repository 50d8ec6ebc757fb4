package engine_test

// Cross-backend determinism at r > 1: the engine's seed contract is not
// a single-bit artifact. An r-bit message derived from (seed, trial,
// player) must be the same uint64 whether it rides an in-process slate,
// the VOTE_BATCH planes, or a CONGEST convergecast — and the verdict
// sequence must survive every batch/window shape the cluster backend
// offers. These tests sweep r over {1, 2, 4, 8, 9, 33} with both a
// twitchy private-coin rule and the Theorem 6.4 quantized collision
// rule, demanding bit-identical verdicts everywhere; the batch-shape
// sweep adds the widths where the session's sum decide changes method.

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"github.com/distributed-uniformity/dut/internal/congest"
	"github.com/distributed-uniformity/dut/internal/core"
	"github.com/distributed-uniformity/dut/internal/engine"
	"github.com/distributed-uniformity/dut/internal/network"
)

// rbitWidths are the message widths every r-bit determinism test sweeps:
// the byte-aligned widths, and two that straddle a byte and a 32-bit
// word.
var rbitWidths = []int{1, 2, 4, 8, 9, 33}

// rbitCounterEdge are the widths at which the cluster's sum decide
// changes method at k = xbPlayers: r = 59 is the widest the bit-sliced
// sum counter covers (59 + Len(5) = 62 planes), and r = 60 the narrowest
// that falls back to per-trial decode. r = 64 is left out because the
// sum referee's lane sums overflow there, and CONGEST because its 64-bit
// edge bandwidth rejects sums this wide; both are limits of the model,
// not of the session.
var rbitCounterEdge = []int{59, 60}

// rbitTestRule is the r-bit analogue of xbRule: it folds the samples,
// the shared seed and a private coin into an r-bit value, so any
// divergence in any stream — or any dropped or permuted message bit in
// transit — moves the referee's sum and flips verdicts.
type rbitTestRule struct {
	bits int
}

func (r rbitTestRule) Message(player int, samples []int, shared uint64, private *rand.Rand) (core.Message, error) {
	h := shared ^ uint64(player)*0x9e3779b97f4a7c15
	for _, s := range samples {
		h = h*1099511628211 + uint64(s)
	}
	h ^= private.Uint64()
	return core.Message(h & (1<<r.bits - 1)), nil
}

func (r rbitTestRule) Bits() int { return r.bits }

// rbitT centers the rejection threshold on the expected sum of k
// uniform r-bit values, so verdicts flip trial to trial instead of
// collapsing to a constant sequence.
func rbitT(r int) int {
	t := xbPlayers * ((1 << r) - 1) / 2
	if t < 1 {
		t = 1
	}
	return t
}

// rbitVerdicts runs xbTrials through a backend with the shared seed and
// an explicit batch/window shape (0,0 keeps the one-trial-per-round
// path).
func rbitVerdicts(t *testing.T, b engine.Backend, batch, window int) []bool {
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

func rbitSMPVerdicts(t *testing.T, rule core.LocalRule, referee core.Referee) []bool {
	t.Helper()
	p, err := core.NewSMP(xbPlayers, xbSamples, rule, referee)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.BackendFor(p)
	if err != nil {
		t.Fatal(err)
	}
	return rbitVerdicts(t, b, 0, 0)
}

func rbitClusterBackend(t *testing.T, rule core.LocalRule, referee core.Referee) engine.Backend {
	t.Helper()
	c, err := network.NewCluster(network.ClusterConfig{
		K: xbPlayers, Q: xbSamples,
		Rule:      rule,
		Referee:   referee,
		Transport: network.NewMemTransport(),
		Timeout:   10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := clusterBackend(t, c)
	return b
}

// rbitCongestVerdicts runs the same protocol and sum referee on a
// CONGEST graph: each node's convergecast score is its raw r-bit message
// value and the root rejects iff the total reaches the referee's T, at
// r = 1 too, where a threshold rule would count rejections instead.
func rbitCongestVerdicts(t *testing.T, build func(int) (*congest.Graph, error), rule core.LocalRule, referee core.Referee) []bool {
	t.Helper()
	graph, err := build(xbPlayers)
	if err != nil {
		t.Fatal(err)
	}
	tester, err := congest.NewTester(congest.TesterConfig{
		Graph: graph, Root: 0, Q: xbSamples, Rule: rule, Referee: referee,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := congest.NewBackend(tester)
	if err != nil {
		t.Fatal(err)
	}
	return rbitVerdicts(t, b, 0, 0)
}

func TestRBitBackendsAgree(t *testing.T) {
	graphs := []struct {
		name  string
		build func(int) (*congest.Graph, error)
	}{
		{"complete", congest.Complete},
		{"path", congest.Path},
		{"star", congest.Star},
	}
	for _, r := range rbitWidths {
		t.Run(fmt.Sprintf("r=%d", r), func(t *testing.T) {
			t.Parallel()
			rule := rbitTestRule{bits: r}
			referee := core.SumThresholdReferee{Bits: r, T: rbitT(r)}
			want := rbitSMPVerdicts(t, rule, referee)
			got := rbitVerdicts(t, rbitClusterBackend(t, rule, referee), 0, 0)
			assertSameVerdicts(t, "cluster", want, got)
			for _, g := range graphs {
				assertSameVerdicts(t, "congest/"+g.name, want,
					rbitCongestVerdicts(t, g.build, rule, referee))
			}
		})
	}
}

func TestRBitClusterBatchShapesAgree(t *testing.T) {
	// Batch and window reshape the wire traffic (one VOTE_BATCH plane per
	// message bit), never the verdicts. Shapes cover a degenerate
	// one-trial batch, uneven chunking of the 12 trials, the default
	// window, and a batch larger than the whole run.
	shapes := []struct{ batch, window int }{
		{1, 1}, {3, 2}, {5, 0}, {64, 3},
	}
	for _, r := range slices.Concat(rbitWidths, rbitCounterEdge) {
		t.Run(fmt.Sprintf("r=%d", r), func(t *testing.T) {
			t.Parallel()
			rule := rbitTestRule{bits: r}
			referee := core.SumThresholdReferee{Bits: r, T: rbitT(r)}
			want := rbitSMPVerdicts(t, rule, referee)
			for _, s := range shapes {
				got := rbitVerdicts(t, rbitClusterBackend(t, rule, referee), s.batch, s.window)
				assertSameVerdicts(t, fmt.Sprintf("batch=%d/window=%d", s.batch, s.window), want, got)
			}
		})
	}
}

func TestRBitQuantizedTesterAgreesEverywhere(t *testing.T) {
	// The Theorem 6.4 rule is the production user of the r-bit path:
	// deterministic given the shared samples, so every backend must
	// reproduce the exact saturated collision counts.
	threshold := core.QuantizedSumThreshold(xbDomain, xbPlayers, xbSamples)
	for _, r := range rbitWidths {
		t.Run(fmt.Sprintf("r=%d", r), func(t *testing.T) {
			t.Parallel()
			rule, err := core.NewQuantizedCollisionRule(xbDomain, xbSamples, r)
			if err != nil {
				t.Fatal(err)
			}
			referee := core.SumThresholdReferee{Bits: r, T: threshold}
			want := rbitSMPVerdicts(t, rule, referee)
			got := rbitVerdicts(t, rbitClusterBackend(t, rule, referee), 4, 2)
			assertSameVerdicts(t, "cluster-batched", want, got)
			assertSameVerdicts(t, "congest", want,
				rbitCongestVerdicts(t, congest.Complete, rule, referee))
		})
	}
}
