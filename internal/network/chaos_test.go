package network

import (
	"context"
	"math/rand/v2"
	"strings"
	"testing"
	"time"

	"github.com/distributed-uniformity/dut/internal/core"
	"github.com/distributed-uniformity/dut/internal/dist"
)

// The chaos suite drives a quorum-mode cluster through a FaultTransport
// with a mix of injected faults — crashes, dropped dials, delays and
// payload corruption — and checks that every round still reaches the
// correct verdict with the damage accounted for in its RoundResult.

// paritySampler samples a distribution whose support is all-even (accept
// under parityRule) or all-odd (reject) outcomes of [0, 4).
func paritySampler(t *testing.T, even bool) dist.Sampler {
	t.Helper()
	w := []float64{0, 1, 0, 1}
	if even {
		w = []float64{1, 0, 1, 0}
	}
	d, err := dist.FromWeights(w)
	if err != nil {
		t.Fatal(err)
	}
	s, err := dist.NewAliasSampler(d)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// parityRule accepts iff the player's first sample is even, making the
// verdict deterministic for the parity samplers above.
func parityRule() core.LocalRule {
	return core.RuleFunc(func(_ int, samples []int, _ uint64, _ *rand.Rand) (core.Message, error) {
		if samples[0]%2 == 0 {
			return core.Accept, nil
		}
		return core.Reject, nil
	})
}

// chaosPlans injects, against k=16 players, every fault kind at once:
//   - player 1 crashes before its first vote (straggler from round 0 on),
//   - player 2 crashes before its second vote (straggler from round 1 on),
//   - player 3 is slowed on every frame but completes,
//   - player 4's second vote is corrupted on the wire, tripping the bits
//     check (dead from round 1 on),
//   - player 5's first dial is dropped and recovered by one retry,
//   - player 6 never manages to connect at all.
//
// Worst case that leaves 4 stragglers per round — strictly below the
// ThresholdRule{T: 6} rejection threshold, so verdicts stay correct.
func chaosPlans() map[uint32]FaultPlan {
	return map[uint32]FaultPlan{
		1: {CrashAtRound: 1},
		2: {CrashAtRound: 2},
		3: {Delay: 2 * time.Millisecond},
		4: {CorruptFrame: 3}, // frames: HELLO=1, vote r1=2, vote r2=3
		5: {DropDials: 1},
		6: {DropDials: 100},
	}
}

func chaosCluster(t *testing.T, ft *FaultTransport) *Cluster {
	t.Helper()
	c, err := NewCluster(ClusterConfig{
		K:         16,
		Q:         2,
		Rule:      parityRule(),
		Referee:   core.BitReferee{Rule: core.ThresholdRule{T: 6}},
		Transport: ft,
		Timeout:   500 * time.Millisecond,
		MinVotes:  11,
		// Absentees left at core.AbsenteeDefault: the ThresholdRule advises
		// AbsenteeAccept (a straggler cannot push rejections over T).
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClusterSurvivesChaos(t *testing.T) {
	checkGoroutines(t)
	const rounds = 3
	for _, tt := range []struct {
		name string
		even bool
		want bool
	}{
		{name: "all-even accepts", even: true, want: true},
		{name: "all-odd rejects", even: false, want: false},
	} {
		t.Run(tt.name, func(t *testing.T) {
			ft, err := NewFaultTransport(NewMemTransport(), FaultConfig{
				Seed:  99,
				Plans: chaosPlans(),
			})
			if err != nil {
				t.Fatal(err)
			}
			c := chaosCluster(t, ft)
			stats, err := runSession(context.Background(), c, paritySampler(t, tt.even), testRand(31), rounds)
			if err != nil {
				t.Fatalf("chaos session failed: %v", err)
			}
			if len(stats) != rounds {
				t.Fatalf("got %d results, want %d", len(stats), rounds)
			}
			// Round 0: players 1 (crashed) and 6 (never connected) are out.
			// Round 1 on: players 2 (crashed) and 4 (corrupted) drop too.
			wantStragglers := []int{2, 4, 4}
			for i, s := range stats {
				if s.Trial != i {
					t.Errorf("stats[%d].Trial = %d", i, s.Trial)
				}
				if s.Stragglers != wantStragglers[i] {
					t.Errorf("round %d stragglers = %d, want %d", i, s.Stragglers, wantStragglers[i])
				}
				if s.Votes != 16-wantStragglers[i] {
					t.Errorf("round %d votes = %d, want %d", i, s.Votes, 16-wantStragglers[i])
				}
				if s.Verdict != tt.want {
					t.Errorf("round %d verdict = %v, want %v", i, s.Verdict, tt.want)
				}
				if s.Wall <= 0 {
					t.Errorf("round %d wall time not recorded", i)
				}
			}
			// Player 5 burned one retry recovering its dropped dial; player 6
			// exhausted its default budget of two retries in vain.
			if stats[0].Retries != 3 {
				t.Errorf("Retries = %d, want 3", stats[0].Retries)
			}
			fs := ft.Stats()
			if fs.Crashes != 2 || fs.FramesCorrupted != 1 || fs.DialsDropped != 4 {
				t.Errorf("fault stats = %+v, want 2 crashes, 1 corruption, 4 dropped dials", fs)
			}
		})
	}
}

func TestClusterChaosSingleRound(t *testing.T) {
	checkGoroutines(t)
	// The single-round path tolerates the same chaos.
	ft, err := NewFaultTransport(NewMemTransport(), FaultConfig{
		Seed:  7,
		Plans: chaosPlans(),
	})
	if err != nil {
		t.Fatal(err)
	}
	c := chaosCluster(t, ft)
	results, err := runSession(context.Background(), c, paritySampler(t, true), testRand(32), 1)
	if err != nil {
		t.Fatalf("chaos round failed: %v", err)
	}
	stats := results[0]
	if !stats.Verdict {
		t.Error("all-even chaos round rejected")
	}
	if stats.Votes != 14 || stats.Stragglers != 2 {
		t.Errorf("stats = %+v, want 14 votes, 2 stragglers", stats)
	}
}

func TestClusterQuorumNotMet(t *testing.T) {
	checkGoroutines(t)
	// Too many players never connect: the round fails with a quorum error
	// instead of a hang or a silent verdict.
	plans := make(map[uint32]FaultPlan)
	for p := uint32(0); p < 8; p++ {
		plans[p] = FaultPlan{DropDials: 100}
	}
	ft, err := NewFaultTransport(NewMemTransport(), FaultConfig{Plans: plans})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(ClusterConfig{
		K:         16,
		Q:         1,
		Rule:      acceptAllRule(),
		Referee:   core.BitReferee{Rule: core.ThresholdRule{T: 6}},
		Transport: ft,
		Timeout:   300 * time.Millisecond,
		MinVotes:  11,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = runSession(context.Background(), c, uniformSampler(t, 4), testRand(33), 1)
	if err == nil || !strings.Contains(err.Error(), "quorum not met") {
		t.Errorf("err = %v, want quorum-not-met error", err)
	}
}

func TestClusterStrictModeStillFailsOnCrash(t *testing.T) {
	checkGoroutines(t)
	// Without MinVotes the seed semantics stand: any crash aborts.
	ft, err := NewFaultTransport(NewMemTransport(), FaultConfig{
		Plans: map[uint32]FaultPlan{0: {CrashAtRound: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(ClusterConfig{
		K:         4,
		Q:         1,
		Rule:      acceptAllRule(),
		Referee:   andReferee(),
		Transport: ft,
		Timeout:   time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(uniformSampler(t, 4), testRand(34)); err == nil {
		t.Error("strict cluster tolerated a crash")
	}
}
