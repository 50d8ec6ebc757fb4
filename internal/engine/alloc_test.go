package engine_test

// Allocation gates of the engine driver, run by every `go test`. A warm
// engine call — its backend, source and worker geometry already run
// once — allocates a fixed count whatever its trial count, on every
// backend: nothing per trial, per batch or per chunk. A cold call on the
// referee tree, which opens its session and closes it, stays within a
// committed budget. Both count every goroutine's allocations
// (testing.AllocsPerRun reads the process-wide malloc count), so the
// cluster's node, aggregator and slot goroutines count too. The gates
// skip under the race detector, whose instrumentation allocates on its
// own account.

import (
	"context"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"github.com/distributed-uniformity/dut/internal/core"
	"github.com/distributed-uniformity/dut/internal/engine"
	"github.com/distributed-uniformity/dut/internal/network"
)

// Geometry of the referee tree the gates run: k players under 8
// aggregators over uniform input on n elements.
const (
	allocTreeK      = 1024
	allocTreeShards = 8
	allocTreeN      = 64
)

// maxColdTreeAllocs bounds a cold engine.Run plus Close on the tree with
// one worker: every node, aggregator and slot built, dialled, served and
// torn down. Measured at 45,626 to 47,486 (about 46 per player; the count
// depends a little on what the process ran before), plus 10%.
const maxColdTreeAllocs = 52_200

// treeCluster is the referee tree the gates run: the quantized sum
// tester of dutbench's cluster-tree workload at a quarter of its k.
func treeCluster(tb testing.TB) *network.Cluster {
	tb.Helper()
	p, err := core.NewQuantizedSumTester(allocTreeN, allocTreeK, 4, 3)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := network.NewCluster(network.ClusterConfig{
		K: p.Players(), Q: p.MaxSamplesPerPlayer(), Rule: p.Local(), Referee: p.RefereeFunc(),
		Transport: network.NewMemTransport(),
		Timeout:   time.Minute,
		Shards:    allocTreeShards,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// treeBackend is treeCluster's backend, closed when the test ends.
func treeBackend(tb testing.TB) (engine.Backend, engine.Source) {
	tb.Helper()
	return clusterBackend(tb, treeCluster(tb)), uniformSource(tb, allocTreeN)
}

// warmCallSlack is how many more allocations the bigger warm call may
// make. The in-memory connections' buffers grow to a high-water mark
// that depends on how the goroutines interleave, so a warm call on the
// tree still grows one now and then. An allocation per batch adds 8 to
// the batched rows' difference, one per trial or chunk over 1,500 to
// the one-trial rows'.
const warmCallSlack = 4

// warmCallAllocs runs one engine call of the big trial count, so that
// every session is open and every buffer has grown, then returns the
// fewest allocations of two more calls of each count. It counts as
// testing.AllocsPerRun does, process-wide and on one P, with the
// collector off: a collection empties every sync.Pool and wakes the
// runtime's own cleanup goroutines, whose allocations would land in
// whichever call it interrupts.
func warmCallAllocs(t *testing.T, b engine.Backend, src engine.Source, opts engine.Options, small, big int) (uint64, uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	call := func(trials int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := engine.Run(context.Background(), b, src, trials, opts); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	call(big)
	s, l := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for range 2 {
		s = min(s, call(small))
		l = min(l, call(big))
	}
	return s, l
}

// TestWarmCallAllocsFixed: a warm engine call allocates a fixed count
// whatever its trial count, on every backend. With 256-trial batches
// four to a chunk on two workers, four chunks allocate as much as two;
// with one trial per chunk on one worker, where a chunk is cheap, 2,048
// trials allocate as much as 512. An allocation per trial, per batch or
// per chunk anywhere on the path — the source, the driver's worker
// loop, a backend's round, the cluster's frame I/O, gather and decide —
// makes the bigger call allocate more.
func TestWarmCallAllocsFixed(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	batched := engine.Options{Seed: xbSeed, Workers: 2, Batch: 256, Window: 4}
	perTrial := engine.Options{Seed: xbSeed, Workers: 1}
	for _, tc := range []struct {
		name string
		make func(testing.TB) (engine.Backend, engine.Source)
		// perTrial also runs the backend one trial per chunk.
		perTrial bool
	}{
		{"SMP", smpBackend, true},
		{"flat cluster", flatClusterBackend, true},
		{"CONGEST K5", k5Backend, true},
		{"CONGEST grid 16x16", gridBackend, false},
		{"tree k=1024 under 8 aggregators", treeBackend, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, src := tc.make(t)
			check := func(geometry string, opts engine.Options, small, big int) {
				s, l := warmCallAllocs(t, b, src, opts, small, big)
				t.Logf("%s: %d allocations at %d trials, %d at %d", geometry, s, small, l, big)
				if l > s+warmCallSlack {
					t.Errorf("%s: a warm call allocates %d at %d trials and %d at %d", geometry, s, small, l, big)
				}
			}
			check("batch 256 window 4 on 2 workers", batched, 2048, 4096)
			if tc.perTrial {
				check("batch 0 on 1 worker", perTrial, 512, 2048)
			}
		})
	}
}

// TestColdTreeCallAllocs holds a cold engine call on the referee tree —
// a fresh backend, one worker, one 256-trial batch, then Close — to
// maxColdTreeAllocs: the session's setup and teardown, which a warm call
// never pays.
func TestColdTreeCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c := treeCluster(t)
	src := uniformSource(t, allocTreeN)
	allocs := testing.AllocsPerRun(1, func() {
		b, err := network.NewBackend(c)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := engine.Run(context.Background(), b, src, 256,
			engine.Options{Seed: xbSeed, Workers: 1, Batch: 256, Window: 4}); err != nil {
			t.Fatal(err)
		}
		if err := b.(io.Closer).Close(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("cold call on a k=%d tree: %.0f allocations, %.1f per player", allocTreeK, allocs, allocs/allocTreeK)
	if allocs > maxColdTreeAllocs {
		t.Errorf("a cold call on a k=%d tree allocates %.0f, budget %d", allocTreeK, allocs, maxColdTreeAllocs)
	}
}

// TestSMPScratchRoundAllocs holds the steady-state scratch round itself
// to zero allocations: buffers, votes and generators all come from the
// per-worker scratch.
func TestSMPScratchRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	b, src := smpBackend(t)
	sb, ok := b.(engine.BatchBackend)
	if !ok {
		t.Fatal("SMP backend does not implement engine.BatchBackend")
	}
	sampler, err := src(0, engine.TrialRNG(xbSeed, 0))
	if err != nil {
		t.Fatal(err)
	}
	scratch := sb.NewScratch()
	ctx := context.Background()
	trial := 0
	allocs := testing.AllocsPerRun(200, func() {
		spec := engine.RoundSpec{Trial: trial, Seed: xbSeed, Sampler: sampler}
		trial++
		if _, err := sb.RunRoundScratch(ctx, spec, scratch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("scratch round allocates %.2f per round, want 0", allocs)
	}
}
