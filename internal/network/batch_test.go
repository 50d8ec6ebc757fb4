package network

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/distributed-uniformity/dut/internal/engine"
)

// Chaos over the batch pipeline: the fault invariant — every injected
// fault surfaces as a validated protocol error or a tolerated straggler,
// never a silent wrong verdict — must hold when votes travel as packed
// VOTE_BATCH bitsets, and the per-trial quorum accounting must stay
// accurate within partially-delivered batches.

// batchChaosPlans adapts the chaos mix to batch framing with batch=4:
// each VOTE_BATCH covers four rounds, so CrashAtRound and CorruptFrame
// land on whole batches.
//   - player 1 crashes writing its first VOTE_BATCH (absent throughout),
//   - player 2 crashes writing its second VOTE_BATCH (absent from trial 4),
//   - player 3 is slowed on every frame but completes,
//   - player 4's second VOTE_BATCH has its batch id corrupted, tripping
//     the referee's echo check (absent from trial 4),
//   - player 5 recovers a dropped dial with one retry,
//   - player 6 never connects at all.
func batchChaosPlans() map[uint32]FaultPlan {
	return map[uint32]FaultPlan{
		1: {CrashAtRound: 1},
		2: {CrashAtRound: 6},
		3: {Delay: 2 * time.Millisecond},
		4: {CorruptFrame: 3}, // frames: HELLO=1, VOTE_BATCH b0=2, b1=3
		5: {DropDials: 1},
		6: {DropDials: 100},
	}
}

func TestBatchSessionSurvivesChaos(t *testing.T) {
	const (
		trials = 10 // batches of 4, 4 and a partial 2
		batch  = 4
	)
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
				Plans: batchChaosPlans(),
			})
			if err != nil {
				t.Fatal(err)
			}
			c := chaosCluster(t, ft)
			b := testBackend(t, c)
			// One worker keeps a single session alive across all chunks, so
			// the per-connection fault plans fire exactly once.
			results, err := engine.Run(context.Background(), b, engine.Fixed(paritySampler(t, tt.even)), trials,
				engine.Options{Seed: 5, Workers: 1, Batch: batch, Window: 1})
			if err != nil {
				t.Fatalf("batch chaos run failed: %v", err)
			}
			if len(results) != trials {
				t.Fatalf("got %d results, want %d", len(results), trials)
			}
			retries := 0
			for i, r := range results {
				// Trials 0..3: players 1 (crashed on batch 0) and 6 (never
				// connected) are out. Trial 4 on: players 2 (crashed) and 4
				// (corrupted batch id) drop too — including the partial
				// final batch.
				wantStragglers := 2
				if i >= 4 {
					wantStragglers = 4
				}
				if r.Stragglers != wantStragglers {
					t.Errorf("trial %d stragglers = %d, want %d", i, r.Stragglers, wantStragglers)
				}
				if r.Votes != 16-wantStragglers {
					t.Errorf("trial %d votes = %d, want %d", i, r.Votes, 16-wantStragglers)
				}
				if r.Verdict != tt.want {
					t.Errorf("trial %d verdict = %v, want %v", i, r.Verdict, tt.want)
				}
				retries += r.Retries
			}
			// Player 5 burned one retry recovering its dropped dial; player 6
			// exhausted its default budget of two retries in vain.
			if retries != 3 {
				t.Errorf("total retries = %d, want 3", retries)
			}
			fs := ft.Stats()
			if fs.Crashes != 2 || fs.FramesCorrupted != 1 || fs.DialsDropped != 4 {
				t.Errorf("fault stats = %+v, want 2 crashes, 1 corruption, 4 dropped dials", fs)
			}
		})
	}
}

func TestBatchStrictModeFailsOnCrash(t *testing.T) {
	// Without MinVotes the seed semantics stand: a crash inside any batch
	// aborts the run instead of shading the verdict.
	ft, err := NewFaultTransport(NewMemTransport(), FaultConfig{
		Plans: map[uint32]FaultPlan{0: {CrashAtRound: 3}},
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
	b := testBackend(t, c)
	_, err = engine.Run(context.Background(), b, engine.Fixed(uniformSampler(t, 4)), 8,
		engine.Options{Seed: 5, Workers: 1, Batch: 4, Window: 2})
	if err == nil {
		t.Error("strict batch run tolerated a crash")
	}
}

func TestBatchCorruptionDetectedStrict(t *testing.T) {
	// A corrupted VOTE_BATCH id must surface as a validated echo-check
	// error, never as silently misrouted votes.
	ft, err := NewFaultTransport(NewMemTransport(), FaultConfig{
		Seed:  3,
		Plans: map[uint32]FaultPlan{1: {CorruptFrame: 2}},
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
	b := testBackend(t, c)
	_, err = engine.Run(context.Background(), b, engine.Fixed(uniformSampler(t, 4)), 4,
		engine.Options{Seed: 5, Workers: 1, Batch: 4, Window: 1})
	if err == nil || !strings.Contains(err.Error(), "batch") {
		t.Errorf("err = %v, want a batch echo-check error", err)
	}
}
