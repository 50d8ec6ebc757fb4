package engine_test

// Cross-backend determinism: the tentpole guarantee of the unified
// execution engine is that one seed fixes the full verdict sequence —
// independently of which backend runs the rounds (in-process SMP
// simulator, networked cluster, CONGEST graph) and of how many workers
// drive them. These tests run the same protocol on multiple backends
// with the same seed and demand bit-identical verdict sequences.

import (
	"context"
	"io"
	"math/rand/v2"
	"strings"
	"testing"
	"time"

	"github.com/distributed-uniformity/dut/internal/congest"
	"github.com/distributed-uniformity/dut/internal/core"
	"github.com/distributed-uniformity/dut/internal/dist"
	"github.com/distributed-uniformity/dut/internal/engine"
	"github.com/distributed-uniformity/dut/internal/network"
)

// clusterBackend adapts a cluster to the engine and closes the backend,
// with the sessions it keeps between calls, when the test or benchmark
// ends (a benchmark's cleanup runs after each of its passes).
func clusterBackend(tb testing.TB, c *network.Cluster) engine.Backend {
	tb.Helper()
	b, err := network.NewBackend(c)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		if err := b.(io.Closer).Close(); err != nil {
			tb.Errorf("close cluster backend: %v", err)
		}
	})
	return b
}

const (
	xbPlayers = 5
	xbSamples = 3
	xbDomain  = 16
	xbTrials  = 12
	xbSeed    = 0xfeedface
	xbWorkers = 4
)

// xbRule is a deliberately twitchy single-bit rule: it folds the
// samples, the shared seed and a private coin into the vote, so any
// divergence in any of the three streams flips verdicts immediately.
func xbRule() core.LocalRule {
	return core.RuleFunc(func(player int, samples []int, shared uint64, private *rand.Rand) (core.Message, error) {
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
}

func xbSource(tb testing.TB) engine.Source {
	tb.Helper()
	return uniformSource(tb, xbDomain)
}

func runVerdicts(t *testing.T, b engine.Backend) []bool {
	t.Helper()
	results, err := engine.Run(context.Background(), b, xbSource(t), xbTrials,
		engine.Options{Seed: xbSeed, Workers: xbWorkers})
	if err != nil {
		t.Fatal(err)
	}
	verdicts := make([]bool, len(results))
	for i, r := range results {
		verdicts[i] = r.Verdict
	}
	return verdicts
}

func smpVerdicts(t *testing.T, referee core.Referee) []bool {
	t.Helper()
	p, err := core.NewSMP(xbPlayers, xbSamples, xbRule(), referee)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.BackendFor(p)
	if err != nil {
		t.Fatal(err)
	}
	return runVerdicts(t, b)
}

func clusterVerdicts(t *testing.T, referee core.Referee, minVotes int, absentees core.AbsenteePolicy) []bool {
	t.Helper()
	c, err := network.NewCluster(network.ClusterConfig{
		K: xbPlayers, Q: xbSamples,
		Rule:      xbRule(),
		Referee:   referee,
		Transport: network.NewMemTransport(),
		Timeout:   10 * time.Second,
		MinVotes:  minVotes,
		Absentees: absentees,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := clusterBackend(t, c)
	return runVerdicts(t, b)
}

func assertSameVerdicts(t *testing.T, name string, want, got []bool) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d verdicts, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: trial %d verdict %v, want %v (full: got %v want %v)",
				name, i, got[i], want[i], got, want)
		}
	}
}

func TestSMPAndClusterBackendsAgree(t *testing.T) {
	rules := []struct {
		name string
		rule core.DecisionRule
	}{
		{"AND", core.ANDRule{}},
		{"OR", core.ORRule{}},
		{"Threshold", core.ThresholdRule{T: 2}},
		{"Majority", core.MajorityRule{}},
	}
	for _, tc := range rules {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			referee := core.BitReferee{Rule: tc.rule}
			want := smpVerdicts(t, referee)
			got := clusterVerdicts(t, referee, 0, core.AbsenteeDefault)
			assertSameVerdicts(t, tc.name, want, got)
		})
	}
}

func TestQuorumClusterAgreesWithoutFaults(t *testing.T) {
	// A quorum-tolerant deployment with no faults injected receives all
	// k votes, so its verdict sequence must still match the strict
	// in-process run bit for bit.
	referee := core.BitReferee{Rule: core.ThresholdRule{T: 2}}
	want := smpVerdicts(t, referee)
	got := clusterVerdicts(t, referee, xbPlayers-1, core.AbsenteeReject)
	assertSameVerdicts(t, "quorum", want, got)
}

func TestCONGESTBackendAgreesWithSMP(t *testing.T) {
	// The CONGEST tester hard-wires threshold aggregation at the root;
	// the SMP twin is the same rule under a T-threshold referee. The
	// graph topology must not matter — only the votes do. The backend
	// core.BackendFor builds for the tester must be the same backend as
	// congest.NewBackend's, on the engine's coins, and not the tester's
	// per-trial Run.
	const threshold = 2
	referee := core.BitReferee{Rule: core.ThresholdRule{T: threshold}}
	want := smpVerdicts(t, referee)
	graphs := []struct {
		name  string
		build func(int) (*congest.Graph, error)
	}{
		{"complete", congest.Complete},
		{"path", congest.Path},
		{"star", congest.Star},
	}
	for _, g := range graphs {
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			graph, err := g.build(xbPlayers)
			if err != nil {
				t.Fatal(err)
			}
			tester, err := congest.NewTester(congest.TesterConfig{
				Graph: graph, Root: 0, Q: xbSamples, Rule: xbRule(), T: threshold,
			})
			if err != nil {
				t.Fatal(err)
			}
			b, err := congest.NewBackend(tester)
			if err != nil {
				t.Fatal(err)
			}
			assertSameVerdicts(t, g.name, want, runVerdicts(t, b))
			bf, err := core.BackendFor(tester)
			if err != nil {
				t.Fatal(err)
			}
			assertSameVerdicts(t, g.name+" via BackendFor", want, runVerdicts(t, bf))
		})
	}
}

func TestSessionAgreesWithSingleRounds(t *testing.T) {
	// A multi-round session (engine.Run on one worker: one set of
	// connections, a batch of one trial per round) must produce the same
	// verdicts as driving the cluster backend trial by trial, one
	// RunRound per trial with the same seed, and as the SMP reference.
	referee := core.BitReferee{Rule: core.MajorityRule{}}
	c, err := network.NewCluster(network.ClusterConfig{
		K: xbPlayers, Q: xbSamples,
		Rule:      xbRule(),
		Referee:   referee,
		Transport: network.NewMemTransport(),
		Timeout:   10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	u, err := dist.Uniform(xbDomain)
	if err != nil {
		t.Fatal(err)
	}
	sampler, err := dist.NewAliasSampler(u)
	if err != nil {
		t.Fatal(err)
	}
	results, err := engine.Run(context.Background(), clusterBackend(t, c), engine.Fixed(sampler), xbTrials,
		engine.Options{Seed: xbSeed, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	session := make([]bool, len(results))
	for i, r := range results {
		session[i] = r.Verdict
	}
	single := clusterBackend(t, c)
	rounds := make([]bool, xbTrials)
	for trial := range rounds {
		r, err := single.RunRound(context.Background(), engine.RoundSpec{Trial: trial, Seed: xbSeed, Sampler: sampler})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		rounds[trial] = r.Verdict
	}
	assertSameVerdicts(t, "session vs single rounds", rounds, session)
	assertSameVerdicts(t, "session vs the SMP reference", smpVerdicts(t, referee), session)
}

func TestSMPSeededMatchesEngineStreams(t *testing.T) {
	// RunSeeded at SharedSeed(seed, trial) must reproduce exactly what
	// the engine produced for that trial.
	referee := core.BitReferee{Rule: core.ThresholdRule{T: 2}}
	p, err := core.NewSMP(xbPlayers, xbSamples, xbRule(), referee)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.BackendFor(p)
	if err != nil {
		t.Fatal(err)
	}
	verdicts := runVerdicts(t, b)
	u, err := dist.Uniform(xbDomain)
	if err != nil {
		t.Fatal(err)
	}
	sampler, err := dist.NewAliasSampler(u)
	if err != nil {
		t.Fatal(err)
	}
	for trial, want := range verdicts {
		got, err := p.RunSeeded(sampler, engine.SharedSeed(xbSeed, trial))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: RunSeeded %v, engine %v", trial, got, want)
		}
	}
}

// TestWideMessageFailsOnEveryBackend: a message wider than its rule's
// Bits is an error on every backend, the one the cluster's node reports.
func TestWideMessageFailsOnEveryBackend(t *testing.T) {
	const k, q, threshold = 4, 2, 2
	rule := core.RuleFunc(func(int, []int, uint64, *rand.Rand) (core.Message, error) { return 3, nil })
	referee := core.BitReferee{Rule: core.ThresholdRule{T: threshold}}
	smp, err := core.NewSMP(k, q, rule, referee)
	if err != nil {
		t.Fatal(err)
	}
	graph, err := congest.Complete(k)
	if err != nil {
		t.Fatal(err)
	}
	tester, err := congest.NewTester(congest.TesterConfig{Graph: graph, Q: q, Rule: rule, T: threshold})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := network.NewCluster(network.ClusterConfig{
		K: k, Q: q, Rule: rule, Referee: referee,
		Transport: network.NewMemTransport(),
		Timeout:   10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	const want = "message 0x3 wider than the rule's 1 bits"
	for _, tc := range []struct {
		name string
		p    core.Protocol
	}{{"SMP", smp}, {"CONGEST", tester}, {"cluster", cluster}} {
		b, err := core.BackendFor(tc.p)
		if err != nil {
			t.Fatal(err)
		}
		if c, ok := b.(io.Closer); ok {
			t.Cleanup(func() { _ = c.Close() })
		}
		_, err = engine.Run(context.Background(), b, xbSource(t), 2, engine.Options{Seed: xbSeed, Workers: 1})
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want one naming the %s", tc.name, err, want)
		}
	}
}
