package network

import (
	"testing"
	"time"

	"github.com/distributed-uniformity/dut/internal/core"
)

// countingRun drives trials through a sharded (or flat, shards <= 1)
// cluster over a fresh CountingTransport and returns the per-tier
// snapshot after the session closed (treeResults runs the engine to
// completion, so every queued frame has drained by then).
func countingRun(t *testing.T, k, shards, trials, batch, window int) (root, agg TierCounts) {
	t.Helper()
	ct, err := NewCountingTransport(NewMemTransport())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(ClusterConfig{
		K: k, Q: treeSamples,
		Rule:      treeTestRule{bits: 1},
		Referee:   core.BitReferee{Rule: core.MajorityRule{}},
		Transport: ct,
		Timeout:   10 * time.Second,
		Shards:    shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	treeResults(t, testBackend(t, c), uniformSampler(t, 16), trials, batch, window)
	root, agg = ct.Snapshot()
	return root, agg
}

// TestCountingRootWritesScaleWithAggregators is the tentpole's load-
// bearing claim as a test: on the tree the root's downstream verdict
// traffic is one AGG_VERDICT per aggregator per batch — no
// VERDICT_BATCH leaves the root at all — while the full per-player
// VERDICT_BATCH fan-out happens one tier down. Doubling the player
// count at a fixed aggregator count must leave the root's downstream
// frame counts exactly unchanged.
func TestCountingRootWritesScaleWithAggregators(t *testing.T) {
	const (
		k      = 24
		shards = 4
		trials = 12
		batch  = 4
		window = 2
	)
	batches := uint64((trials + batch - 1) / batch)

	root, agg := countingRun(t, k, shards, trials, batch, window)
	if got := root.Down[FrameAggVerdict]; got != batches*shards {
		t.Errorf("root wrote %d AGG_VERDICT frames, want %d (one per aggregator per batch)", got, batches*shards)
	}
	if got := root.Down[FrameVerdictBatch]; got != 0 {
		t.Errorf("root wrote %d VERDICT_BATCH frames, want 0 (verdicts fan out via the aggregators)", got)
	}
	if got := root.Down[FrameRoundBatch]; got != batches*shards {
		t.Errorf("root wrote %d ROUND_BATCH frames, want %d", got, batches*shards)
	}
	if got := agg.Down[FrameVerdictBatch]; got != batches*k {
		t.Errorf("aggregators wrote %d VERDICT_BATCH frames, want %d (one per player per batch)", got, batches*k)
	}
	if got := root.Up[FrameAggSum]; got != batches*shards {
		t.Errorf("root read %d AGG_SUM frames, want %d", got, batches*shards)
	}

	// The O(aggregators) statement itself: the root's downstream traffic
	// must not move when the player count doubles.
	root2, agg2 := countingRun(t, 2*k, shards, trials, batch, window)
	if root.DownTotal() != root2.DownTotal() {
		t.Errorf("root wrote %d downstream frames at k=%d but %d at k=%d; want identical at a fixed aggregator count",
			root.DownTotal(), k, root2.DownTotal(), 2*k)
	}
	if got := agg2.Down[FrameVerdictBatch]; got != batches*2*k {
		t.Errorf("aggregators wrote %d VERDICT_BATCH frames at k=%d, want %d", got, 2*k, batches*2*k)
	}
}

// TestCountingFlatStarBroadcastsPerPlayer pins the baseline the tree
// beats: on the flat star every batch costs the root one VERDICT_BATCH
// per player, and no aggregator frames exist.
func TestCountingFlatStarBroadcastsPerPlayer(t *testing.T) {
	const (
		k      = 12
		trials = 8
		batch  = 4
		window = 2
	)
	batches := uint64((trials + batch - 1) / batch)
	root, agg := countingRun(t, k, 1, trials, batch, window)
	if got := root.Down[FrameVerdictBatch]; got != batches*k {
		t.Errorf("flat root wrote %d VERDICT_BATCH frames, want %d", got, batches*k)
	}
	if got := root.Down[FrameAggVerdict]; got != 0 {
		t.Errorf("flat root wrote %d AGG_VERDICT frames, want 0", got)
	}
	if got := agg.DownTotal() + agg.UpTotal(); got != 0 {
		t.Errorf("flat star counted %d aggregator-tier frames, want 0", got)
	}
}

// TestFormatFrameCounts pins the netdemo rendering: frame-type order,
// zero entries skipped, totals up front, and a stable empty form.
func TestFormatFrameCounts(t *testing.T) {
	got := FormatFrameCounts(map[FrameType]uint64{
		FrameAggVerdict: 6,
		FrameRoundBatch: 6,
		FrameFinish:     3,
		FrameHello:      0,
	})
	want := "15 frames (FINISH:3 ROUND_BATCH:6 AGG_VERDICT:6)"
	if got != want {
		t.Errorf("FormatFrameCounts = %q, want %q", got, want)
	}
	if got := FormatFrameCounts(nil); got != "0 frames" {
		t.Errorf("FormatFrameCounts(nil) = %q, want \"0 frames\"", got)
	}
}
