package network

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/distributed-uniformity/dut/internal/core"
	"github.com/distributed-uniformity/dut/internal/dist"
	"github.com/distributed-uniformity/dut/internal/engine"
)

// The sharded suite pins the tree's one contract: for every rule shape,
// shard count, batch/window shape and message width, the two-tier
// referee tree decides bit-identically to the flat star — including
// quorum rounds with absentees and rounds where a whole aggregator
// dies.

// treeTestRule votes a value folded from every determinism-relevant
// input — player id, samples, shared seed and the private coin — so any
// stream divergence between topologies flips verdicts. skew > 0 votes
// Reject with probability 1/skew (exercises AND without collapsing it
// to a constant); skew < 0 votes Accept with probability 1/-skew (same
// for OR); skew = 0 votes a uniform bits-wide value.
type treeTestRule struct {
	bits int
	skew int
}

func (r treeTestRule) Message(player int, samples []int, shared uint64, private *rand.Rand) (core.Message, error) {
	h := shared ^ uint64(player)*0x9e3779b97f4a7c15
	for _, s := range samples {
		h = h*1099511628211 + uint64(s)
	}
	h ^= private.Uint64()
	switch {
	case r.skew > 0:
		if h%uint64(r.skew) == 0 {
			return core.Reject, nil
		}
		return core.Accept, nil
	case r.skew < 0:
		if h%uint64(-r.skew) == 0 {
			return core.Accept, nil
		}
		return core.Reject, nil
	}
	return core.Message(h & (1<<r.bits - 1)), nil
}

func (r treeTestRule) Bits() int { return r.bits }

const (
	treePlayers = 13
	treeSamples = 3
	treeTrials  = 12
	treeSeed    = 0x7ee5eed
)

// treeResults runs trials through a backend and keeps the fields the
// determinism contract covers: verdicts and vote accounting.
type treeResult struct {
	verdict    bool
	votes      int
	stragglers int
}

func treeResults(t *testing.T, b engine.Backend, sampler dist.Sampler, trials, batch, window int) []treeResult {
	t.Helper()
	results, err := engine.Run(context.Background(), b, engine.Fixed(sampler), trials,
		engine.Options{Seed: treeSeed, Workers: 1, Batch: batch, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]treeResult, len(results))
	for i, r := range results {
		out[i] = treeResult{verdict: r.Verdict, votes: r.Votes, stragglers: r.Stragglers}
	}
	return out
}

func assertSameResults(t *testing.T, name string, want, got []treeResult) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results, want %d", name, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("%s: trial %d = %+v, flat decided %+v", name, i, got[i], want[i])
		}
	}
}

// topologyBackend is testBackend over cfg with its topology replaced:
// shards L1 aggregators (0 and 1 are the flat star), with weights and a
// shuffle seed.
func topologyBackend(t *testing.T, cfg ClusterConfig, shards int, weights []int, seed uint64) engine.Backend {
	t.Helper()
	cfg.Shards, cfg.AggregatorWeights, cfg.ShardSeed = shards, weights, seed
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return testBackend(t, c)
}

// TestShardedMatchesFlat is the determinism matrix of the referee tree:
// every rule shape the root can decide — AND, OR, Majority, fixed
// threshold, an opaque decision function (the AGG_PLANES forwarding
// path) and r-bit sums for r in {2, 4, 8} — across shard counts
// {1, 2, 4, 8} and batch/window shapes, against the flat star's
// unbatched verdicts.
func TestShardedMatchesFlat(t *testing.T) {
	parity := core.FuncRule{F: func(votes []bool) bool {
		odd := false
		for _, v := range votes {
			if !v {
				odd = !odd
			}
		}
		return !odd
	}, Label: "even-rejections"}
	cases := []struct {
		name    string
		rule    core.LocalRule
		referee core.Referee
	}{
		{"and", treeTestRule{bits: 1, skew: 16}, core.BitReferee{Rule: core.ANDRule{}}},
		{"or", treeTestRule{bits: 1, skew: -16}, core.BitReferee{Rule: core.ORRule{}}},
		{"majority", treeTestRule{bits: 1}, core.BitReferee{Rule: core.MajorityRule{}}},
		{"threshold", treeTestRule{bits: 1}, core.BitReferee{Rule: core.ThresholdRule{T: 6}}},
		{"opaque", treeTestRule{bits: 1}, core.BitReferee{Rule: parity}},
		{"sum-r2", treeTestRule{bits: 2}, core.SumThresholdReferee{Bits: 2, T: treePlayers * 3 / 2}},
		{"sum-r4", treeTestRule{bits: 4}, core.SumThresholdReferee{Bits: 4, T: treePlayers * 15 / 2}},
		{"sum-r8", treeTestRule{bits: 8}, core.SumThresholdReferee{Bits: 8, T: treePlayers * 255 / 2}},
	}
	shapes := []struct{ batch, window int }{
		{1, 1}, {3, 2}, {64, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := ClusterConfig{
				K: treePlayers, Q: treeSamples,
				Rule:    tc.rule,
				Referee: tc.referee,
				Timeout: 10 * time.Second,
			}
			sampler := uniformSampler(t, 16)
			want := treeResults(t, topologyBackend(t, cfg, 0, nil, 0), sampler, treeTrials, 0, 0)
			varied := false
			for _, r := range want {
				if r.verdict != want[0].verdict {
					varied = true
				}
			}
			if !varied {
				t.Fatalf("flat verdicts are constant; the matrix would not catch a stuck tree")
			}
			// Shards = 1 keeps the flat star byte-for-byte: topology
			// disabled, same code path, same results.
			assertSameResults(t, "s=1", want,
				treeResults(t, topologyBackend(t, cfg, 1, nil, 0), sampler, treeTrials, 3, 2))
			for _, s := range []int{2, 4, 8} {
				for _, shape := range shapes {
					name := fmt.Sprintf("s=%d/batch=%d/window=%d", s, shape.batch, shape.window)
					got := treeResults(t, topologyBackend(t, cfg, s, nil, 0), sampler,
						treeTrials, shape.batch, shape.window)
					assertSameResults(t, name, want, got)
				}
			}
			// A shuffled placement moves players between aggregators but
			// must never move a verdict.
			assertSameResults(t, "s=4/shuffled", want,
				treeResults(t, topologyBackend(t, cfg, 4, nil, 0xdea1), sampler, treeTrials, 5, 2))
			// A lopsided placement (one big aggregator, small siblings)
			// must not either.
			assertSameResults(t, "s=3/weighted", want,
				treeResults(t, topologyBackend(t, cfg, 3, []int{4, 1, 1}, 0), sampler, treeTrials, 4, 2))
		})
	}
}

// TestShardedAbsenteePoliciesMatchFlat drives quorum rounds with two
// players that never connect, under every absentee policy and both
// decidable shapes: the tree's presence-adjusted thresholds must
// reproduce the flat referee's absentee accounting exactly.
func TestShardedAbsenteePoliciesMatchFlat(t *testing.T) {
	const k, trials = 12, 4
	referees := []struct {
		name    string
		rule    core.LocalRule
		referee core.Referee
	}{
		{"threshold", treeTestRule{bits: 1}, core.BitReferee{Rule: core.ThresholdRule{T: 5}}},
		{"majority", treeTestRule{bits: 1}, core.BitReferee{Rule: core.MajorityRule{}}},
		{"sum", treeTestRule{bits: 2}, core.SumThresholdReferee{Bits: 2, T: k * 3 / 2}},
	}
	policies := []struct {
		name   string
		policy core.AbsenteePolicy
	}{
		{"accept", core.AbsenteeAccept},
		{"reject", core.AbsenteeReject},
		{"omit", core.AbsenteeOmit},
	}
	absent := func() map[uint32]FaultPlan {
		return map[uint32]FaultPlan{
			3: {DropDials: 1},
			9: {DropDials: 1},
		}
	}
	for _, ref := range referees {
		for _, pol := range policies {
			t.Run(ref.name+"/"+pol.name, func(t *testing.T) {
				t.Parallel()
				cluster := func(s int) *Cluster {
					ft, err := NewFaultTransport(NewMemTransport(), FaultConfig{Plans: absent()})
					if err != nil {
						t.Fatal(err)
					}
					c, err := NewCluster(ClusterConfig{
						K: k, Q: 2,
						Rule:        ref.rule,
						Referee:     ref.referee,
						Transport:   ft,
						Timeout:     250 * time.Millisecond,
						MinVotes:    8,
						Absentees:   pol.policy,
						DialRetries: -1,
						Shards:      s,
					})
					if err != nil {
						t.Fatal(err)
					}
					return c
				}
				sampler := uniformSampler(t, 16)
				want := treeResults(t, testBackend(t, cluster(0)), sampler, trials, 3, 2)
				for _, r := range want {
					if r.stragglers != 2 || r.votes != k-2 {
						t.Fatalf("flat run counted %+v, want 2 stragglers of %d players", r, k)
					}
				}
				for _, s := range []int{2, 4} {
					got := treeResults(t, testBackend(t, cluster(s)), sampler, trials, 3, 2)
					assertSameResults(t, fmt.Sprintf("s=%d", s), want, got)
				}
			})
		}
	}
}

// TestShardedKillAggregatorEqualsShardAbsent is the failure-domain
// contract: crashing one aggregator mid-session yields the same
// verdicts and RoundResults as every player of its shard crashing at the
// same round — on the tree and on the flat star alike.
func TestShardedKillAggregatorEqualsShardAbsent(t *testing.T) {
	checkGoroutines(t)
	const (
		k      = 8
		shards = 2
		rounds = 6
		crash  = 4 // 1-based round of the first missing vote
	)
	run := func(t *testing.T, s int, cfg FaultConfig) ([]bool, []engine.RoundResult) {
		t.Helper()
		ft, err := NewFaultTransport(NewMemTransport(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewCluster(ClusterConfig{
			K: k, Q: 2,
			Rule:      parityRule(),
			Referee:   core.BitReferee{Rule: core.ThresholdRule{T: 3}},
			Transport: ft,
			Timeout:   500 * time.Millisecond,
			MinVotes:  2,
			Shards:    s,
		})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := runSession(context.Background(), c, paritySampler(t, true), testRand(77), rounds)
		if err != nil {
			t.Fatal(err)
		}
		return poolVerdicts(stats), stats
	}
	// Shard 1 of the contiguous 2-way partition owns players 4..7.
	shardPlans := func() map[uint32]FaultPlan {
		plans := make(map[uint32]FaultPlan)
		for _, p := range (Topology{Shards: shards}).Partition(k)[1] {
			plans[p] = FaultPlan{CrashAtRound: crash}
		}
		return plans
	}
	aggVerdicts, aggStats := run(t, shards, FaultConfig{
		AggPlans: map[uint32]FaultPlan{1: {CrashAtRound: crash}},
	})
	treeVerdicts, treeStats := run(t, shards, FaultConfig{Plans: shardPlans()})
	flatVerdicts, flatStats := run(t, 0, FaultConfig{Plans: shardPlans()})

	check := func(name string, verdicts []bool, stats []engine.RoundResult) {
		t.Helper()
		for i := 0; i < rounds; i++ {
			if verdicts[i] != flatVerdicts[i] || verdicts[i] != stats[i].Verdict {
				t.Errorf("%s: round %d verdict %v, flat decided %v", name, i, verdicts[i], flatVerdicts[i])
			}
			if stats[i].Votes != flatStats[i].Votes || stats[i].Stragglers != flatStats[i].Stragglers {
				t.Errorf("%s: round %d votes/stragglers = %d/%d, flat counted %d/%d",
					name, i, stats[i].Votes, stats[i].Stragglers, flatStats[i].Votes, flatStats[i].Stragglers)
			}
		}
	}
	check("killed aggregator", aggVerdicts, aggStats)
	check("killed shard", treeVerdicts, treeStats)
	// And the baseline itself is what the plan says: full house before
	// the crash round, half the players gone from it onward.
	for i, s := range flatStats {
		wantVotes := k
		if i >= crash-1 {
			wantVotes = k / 2
		}
		if s.Votes != wantVotes || s.Stragglers != k-wantVotes {
			t.Errorf("flat round %d votes/stragglers = %d/%d, want %d/%d",
				i, s.Votes, s.Stragglers, wantVotes, k-wantVotes)
		}
	}
}

// TestShardedAggregatorNeverConnectsMatchesFlat: an aggregator that
// never reaches the root costs the tree its shard, not the session. The
// root's accept phase waits two timeouts for the missing aggregator, so
// the live aggregator and its players must still be listening when the
// first ROUND_BATCH arrives; the tree then decides every round exactly
// as the flat star does with that shard's players absent, under every
// absentee policy. Retries differ by construction (the tree retries one
// aggregator dial, the flat star four player dials) and are not
// compared.
func TestShardedAggregatorNeverConnectsMatchesFlat(t *testing.T) {
	checkGoroutines(t)
	const (
		k      = 8
		shards = 2
		rounds = 3
	)
	policies := []struct {
		name   string
		policy core.AbsenteePolicy
	}{
		{"default", core.AbsenteeDefault},
		{"accept", core.AbsenteeAccept},
		{"reject", core.AbsenteeReject},
		{"omit", core.AbsenteeOmit},
	}
	for _, pol := range policies {
		t.Run(pol.name, func(t *testing.T) {
			t.Parallel()
			run := func(s int, cfg FaultConfig) ([]bool, []engine.RoundResult) {
				t.Helper()
				ft, err := NewFaultTransport(NewMemTransport(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				c, err := NewCluster(ClusterConfig{
					K: k, Q: 2,
					Rule:      parityRule(),
					Referee:   core.BitReferee{Rule: core.ThresholdRule{T: 3}},
					Transport: ft,
					Timeout:   200 * time.Millisecond,
					MinVotes:  4,
					Absentees: pol.policy,
					Shards:    s,
				})
				if err != nil {
					t.Fatal(err)
				}
				stats, err := runSession(context.Background(), c, uniformSampler(t, 4), testRand(88), rounds)
				if err != nil {
					t.Fatalf("shards=%d: %v", s, err)
				}
				return poolVerdicts(stats), stats
			}
			// Shard 1 of the contiguous 2-way partition owns players 4..7.
			absent := make(map[uint32]FaultPlan)
			for _, p := range (Topology{Shards: shards}).Partition(k)[1] {
				absent[p] = FaultPlan{DropDials: 100}
			}
			flatVerdicts, flatStats := run(0, FaultConfig{Plans: absent})
			treeVerdicts, treeStats := run(shards, FaultConfig{AggPlans: map[uint32]FaultPlan{1: {DropDials: 100}}})
			for i := 0; i < rounds; i++ {
				if flatStats[i].Votes != k/2 || flatStats[i].Stragglers != k/2 {
					t.Errorf("flat round %d votes/stragglers = %d/%d, want %d/%d",
						i, flatStats[i].Votes, flatStats[i].Stragglers, k/2, k/2)
				}
				if treeVerdicts[i] != flatVerdicts[i] {
					t.Errorf("round %d: tree verdict %v, flat decided %v", i, treeVerdicts[i], flatVerdicts[i])
				}
				if treeStats[i].Votes != flatStats[i].Votes || treeStats[i].Stragglers != flatStats[i].Stragglers {
					t.Errorf("round %d: tree votes/stragglers = %d/%d, flat counted %d/%d",
						i, treeStats[i].Votes, treeStats[i].Stragglers, flatStats[i].Votes, flatStats[i].Stragglers)
				}
			}
		})
	}
}

// TestShardedMemberViolationSurfaces pins strict-mode error reporting
// through the tree: a protocol violation on a player -> aggregator hop
// must fail the session with the player named, not vanish behind the
// aggregator.
func TestShardedMemberViolationSurfaces(t *testing.T) {
	checkGoroutines(t)
	ft, err := NewFaultTransport(NewMemTransport(), FaultConfig{
		Seed:  3,
		Plans: map[uint32]FaultPlan{2: {CorruptFrame: 2}}, // frames: HELLO=1, VOTE_BATCH b0=2
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(ClusterConfig{
		K: 8, Q: 1,
		Rule:      acceptAllRule(),
		Referee:   core.BitReferee{Rule: core.ANDRule{}},
		Transport: ft,
		Timeout:   500 * time.Millisecond,
		Shards:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = runSession(context.Background(), c, uniformSampler(t, 4), testRand(55), 3)
	if err == nil || !strings.Contains(err.Error(), "player 2") {
		t.Errorf("err = %v, want a violation naming player 2", err)
	}
}

// TestAggregatorRejectsHostileDownlink: after relaying a batch, an
// aggregator's root reader fails with an error naming the aggregator
// and the cause on the first frame no version-4 root sends it, and
// fails on that frame, not at its read deadline. The failure tears the
// strict session down and closes the upstream connection, so the root
// sees the loss. It also closes the reduction queue behind the relayed
// batch, so the reduce loop ends too.
func TestAggregatorRejectsHostileDownlink(t *testing.T) {
	checkGoroutines(t)
	c := fakeCluster(t, 2, acceptAllRule(), 10*time.Second)
	for _, tc := range hostileDownlink(t) {
		t.Run(tc.name, func(t *testing.T) {
			life, cancel := context.WithCancel(context.Background())
			defer cancel()
			bs := &batchSession{c: c, cancel: cancel, work: newWorkCount()}
			a := newAggregator(bs, 1, []uint32{0, 1}, nil)
			root, upstream := net.Pipe()
			defer func() { _ = root.Close() }()
			a.root = upstream
			go a.readRoot()
			_ = root.SetDeadline(time.Now().Add(5 * time.Second))
			if err := send(root, RoundBatch{Batch: 1, Count: 1, Base: 1}); err != nil {
				t.Fatal(err)
			}
			// The reader may stop mid-frame, so the write can fail.
			_ = writeCoalesced(root, tc.frame)
			if tc.eof {
				_ = root.Close()
			}
			select {
			case <-a.readerDone:
			case <-time.After(5 * time.Second):
				t.Fatal("aggregator still reading 5 s after the frame")
			}
			if err := bs.peekAggErr(); err == nil || !strings.Contains(err.Error(), "aggregator 1") || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("aggregator error = %v, want one naming aggregator 1 and %q", err, tc.want)
			}
			if life.Err() == nil {
				t.Error("the strict session outlived its aggregator's failure")
			}
			if !tc.eof {
				if _, err := root.Read(make([]byte, 1)); err == nil {
					t.Error("the upstream connection is still open")
				}
			}
			if b, ok := a.pending.pop(); !ok || b != (aggBatch{id: 1, count: 1}) {
				t.Errorf("pending reduction = (%+v, %v), want the relayed batch 1", b, ok)
			}
			if b, ok := a.pending.pop(); ok {
				t.Errorf("reduction queue still open after the reader failed: popped %+v", b)
			}
		})
	}
}

// shardLossCluster is an 8-player quorum cluster needing 5 votes whose
// players 4..7 — shard 1 of a 2-way tree — never connect, over a
// CountingTransport.
func shardLossCluster(t *testing.T, shards int) (*Cluster, *CountingTransport) {
	t.Helper()
	plans := make(map[uint32]FaultPlan)
	for p := uint32(4); p < 8; p++ {
		plans[p] = FaultPlan{DropDials: 1}
	}
	ft, err := NewFaultTransport(NewMemTransport(), FaultConfig{Plans: plans})
	if err != nil {
		t.Fatal(err)
	}
	ct, err := NewCountingTransport(ft)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(ClusterConfig{
		K: 8, Q: 1,
		Rule:        acceptAllRule(),
		Referee:     core.BitReferee{Rule: core.ThresholdRule{T: 3}},
		Transport:   ct,
		Timeout:     250 * time.Millisecond,
		MinVotes:    5,
		DialRetries: -1,
		Shards:      shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, ct
}

// TestShardedQuorumNotMet: losing a whole shard's worth of players
// below MinVotes fails the session with the flat referee's quorum
// error, not a hang.
func TestShardedQuorumNotMet(t *testing.T) {
	checkGoroutines(t)
	c, _ := shardLossCluster(t, 2)
	_, err := runSession(context.Background(), c, uniformSampler(t, 4), testRand(56), 2)
	if err == nil || !strings.Contains(err.Error(), "quorum not met") {
		t.Errorf("err = %v, want quorum-not-met error", err)
	}
}

// TestShardedQuorumFailsInAcceptPhase: when every aggregator connects
// but together they speak for fewer than MinVotes players, the tree
// fails in its accept phase, exactly as the flat star does, instead of
// opening a session it cannot finish — neither tier sends a single
// ROUND_BATCH.
func TestShardedQuorumFailsInAcceptPhase(t *testing.T) {
	checkGoroutines(t)
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c, ct := shardLossCluster(t, shards)
			_, err := runSession(context.Background(), c, uniformSampler(t, 4), testRand(56), 2)
			if err == nil || !strings.Contains(err.Error(), "accept deadline") {
				t.Errorf("err = %v, want the accept phase's quorum error", err)
			}
			root, agg := ct.Snapshot()
			if n := root.Down[FrameRoundBatch] + agg.Down[FrameRoundBatch]; n != 0 {
				t.Errorf("root and aggregators wrote %d + %d ROUND_BATCH frames, want none",
					root.Down[FrameRoundBatch], agg.Down[FrameRoundBatch])
			}
		})
	}
}

// TestBackendOptionValidation: the backend's topology is the cluster's
// own, so a bad shard count or weight vector fails in NewCluster, and
// NewBackend rejects only a nil cluster.
func TestBackendOptionValidation(t *testing.T) {
	base := ClusterConfig{
		K: 4, Q: 1, Rule: acceptAllRule(), Referee: core.BitReferee{Rule: core.ANDRule{}},
	}
	for _, tc := range []struct {
		name    string
		shards  int
		weights []int
	}{
		{"more shards than players", 5, nil},
		{"short weight vector", 2, []int{1}},
		{"zero aggregator weight", 2, []int{0, 1}},
	} {
		cfg := base
		cfg.Shards, cfg.AggregatorWeights = tc.shards, tc.weights
		if _, err := NewCluster(cfg); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	if _, err := NewBackend(nil); err == nil {
		t.Error("nil cluster accepted")
	}
}

// TestAggBatchQueueSettledZeroAllocs guards the aggregator's reduction
// queue: once settled, a push/pop cycle allocates nothing at any window,
// because the queue pops from a head index and compacts when it drains
// instead of re-slicing away its capacity.
func TestAggBatchQueueSettledZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	for _, window := range []int{1, 4} {
		q := newAggBatchQueue()
		cycle := func() {
			for i := 0; i < window; i++ {
				q.push(aggBatch{id: uint32(i), count: 64})
			}
			for i := 0; i < window; i++ {
				if b, ok := q.pop(); !ok || b.id != uint32(i) {
					t.Fatalf("window %d: pop %d = (%+v, %v)", window, i, b, ok)
				}
			}
		}
		cycle()
		if n := testing.AllocsPerRun(100, cycle); n != 0 {
			t.Errorf("window %d: a settled push/pop cycle allocates %.2f per run", window, n)
		}
	}
}

// TestShardedReduceZeroAllocs guards the hot path of the tree: the L1
// reduction kernel, over rejections and over values, and the root's
// combine-and-decide must not allocate per batch. Skipped under the race
// detector, whose instrumentation allocates.
func TestShardedReduceZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const (
		members = 64
		count   = 256
		msgBits = 4
	)
	words := batchWords(count)
	planeCount := bits.Len(uint(members * (1<<msgBits - 1)))
	deliv := make([][]uint64, members)
	for i := range deliv {
		planes := make([]uint64, msgBits*words)
		for j := range planes {
			planes[j] = 0xdeadbeefcafef00d * uint64(i+j+1)
		}
		deliv[i] = planes
	}
	col := make([]uint64, planeCount)
	sums := make([]uint64, planeCount*words)
	if n := testing.AllocsPerRun(100, func() {
		reduceSums(deliv, count, 1, true, col[:bits.Len(members)], sums[:bits.Len(members)*words])
	}); n != 0 {
		t.Errorf("reduceSums over rejections allocates %.1f per run", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		reduceSums(deliv, count, msgBits, false, col, sums)
	}); n != 0 {
		t.Errorf("reduceSums over values allocates %.1f per run", n)
	}
	acc := make([]uint64, planeCount*words)
	if n := testing.AllocsPerRun(100, func() {
		if combineShardSums(acc, sums, planeCount, words) {
			clear(acc) // keep repeated runs from saturating into overflow
		}
	}); n != 0 {
		t.Errorf("combineShardSums allocates %.1f per run", n)
	}
}

// BenchmarkReduceSums times reduceSums over one 256-trial batch, run by
// hand:
//
//	go test -run '^$' -bench ReduceSums -cpu 1 ./internal/network
//
// "rejections" is cluster-flat's decide: 256 voters' 1-bit votes,
// flipped, into 9 counter planes of rejections. "values" is one
// cluster-tree shard: 512 members' 3-bit values into 16 counter planes.
// The vote words are uniform random bits.
func BenchmarkReduceSums(b *testing.B) {
	const count = 256
	words := batchWords(count)
	rng := rand.New(rand.NewPCG(28, 0x5e5))
	for _, tc := range []struct {
		name      string
		members   int
		valueBits int
		planes    int
		flip      bool
	}{
		{"rejections", 256, 1, 9, true},
		{"values", 512, 3, 16, false},
	} {
		deliv := make([][]uint64, tc.members)
		for i := range deliv {
			d := make([]uint64, tc.valueBits*words)
			for j := range d {
				d[j] = rng.Uint64()
			}
			deliv[i] = d
		}
		col := make([]uint64, tc.planes)
		sums := make([]uint64, tc.planes*words)
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				reduceSums(deliv, count, tc.valueBits, tc.flip, col, sums)
			}
		})
	}
}

// TestShardedDecideZeroAllocs drives decideBatch — the root's whole
// per-batch decision — over a synthetic session on both topologies and
// demands zero allocations once its scratch is warm: the tree combining
// its shards' partial sums, and the flat star reducing its delivered
// votes as one shard, with absentees under quorum included.
func TestShardedDecideZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const count = 256
	words := batchWords(count)
	cases := []struct {
		name     string
		k        int
		shards   int // 0 = flat star
		absent   int
		minVotes int
		policy   core.AbsenteePolicy
	}{
		{name: "tree", k: 128, shards: 4, minVotes: 100},
		{name: "tree/absentees", k: 128, shards: 4, absent: 8, minVotes: 100},
		{name: "flat/absentees-accept", k: 256, absent: 5, minVotes: 200, policy: core.AbsenteeAccept},
		{name: "flat/absentees-reject", k: 256, absent: 5, minVotes: 200, policy: core.AbsenteeReject},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewCluster(ClusterConfig{
				K: tc.k, Q: 1,
				Rule:      treeTestRule{bits: 1},
				Referee:   core.BitReferee{Rule: core.ThresholdRule{T: 40}},
				MinVotes:  tc.minVotes,
				Absentees: tc.policy,
			})
			if err != nil {
				t.Fatal(err)
			}
			bs := &batchSession{c: c}
			bs.initDecide()
			if !bs.flip {
				t.Fatal("threshold referee lost its shape")
			}
			if tc.shards > 0 {
				bs.aggs = make([]*aggregator, tc.shards)
				bs.shardGot = make([]bool, tc.shards)
				bs.shardSums = make([][]uint64, tc.shards)
				bs.shardPresent = make([]uint32, tc.shards)
				for i := range bs.shardSums {
					bs.shardGot[i] = true
					bs.shardPresent[i] = uint32(tc.k / tc.shards)
					sums := make([]uint64, len(bs.planes)*words)
					for j := 0; j < words; j++ {
						sums[j] = 0x5555555555555555 // plane 0: 1 rejection per shard per lane
					}
					bs.shardSums[i] = sums
				}
			} else {
				for p := range bs.deliv {
					if p%50 == 3 && p/50 < tc.absent {
						continue // players 3, 53, 103, ...: absent
					}
					planes := make([]uint64, words)
					for j := range planes {
						planes[j] = 0xdeadbeefcafef00d * uint64(p+j+1)
					}
					bs.deliv[p] = planes
				}
			}
			received := tc.k - tc.absent
			out := make([]engine.RoundResult, count)
			decide := func() {
				if err := bs.decideBatch(count, received, out); err != nil {
					t.Fatal(err)
				}
			}
			// The warm run grows the counter scratch once; after that the
			// decision is pure arithmetic on the session's scratch.
			decide()
			if n := testing.AllocsPerRun(100, decide); n != 0 {
				t.Errorf("decideBatch allocates %.1f per run", n)
			}
		})
	}
}
