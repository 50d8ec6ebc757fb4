package engine_test

// Micro-benchmarks of trial throughput across the three backends under
// the same engine driver, run by hand:
//
//	go test -run '^$' -bench Engine -benchmem ./internal/engine
//
// They are not a gate: TestWarmCallAllocsFixed and
// TestColdTreeCallAllocs hold the allocation counts, and the bench/
// module measures the end-to-end workloads.

import (
	"context"
	"testing"
	"time"

	"github.com/distributed-uniformity/dut/internal/congest"
	"github.com/distributed-uniformity/dut/internal/core"
	"github.com/distributed-uniformity/dut/internal/dist"
	"github.com/distributed-uniformity/dut/internal/engine"
	"github.com/distributed-uniformity/dut/internal/network"
)

// Batch geometry of the benchmarks: trials per batch frame and batches in
// flight per worker.
const (
	benchBatch  = 256
	benchWindow = 4
)

// uniformSource serves the alias sampler of the uniform distribution on
// n elements.
func uniformSource(tb testing.TB, n int) engine.Source {
	tb.Helper()
	u, err := dist.Uniform(n)
	if err != nil {
		tb.Fatal(err)
	}
	src, err := engine.FromDist(u)
	if err != nil {
		tb.Fatal(err)
	}
	return src
}

// smpBackend is the in-process SMP row: xbRule on xbPlayers players
// under a threshold referee.
func smpBackend(tb testing.TB) (engine.Backend, engine.Source) {
	tb.Helper()
	p, err := core.NewSMP(xbPlayers, xbSamples, xbRule(), core.BitReferee{Rule: core.ThresholdRule{T: 2}})
	if err != nil {
		tb.Fatal(err)
	}
	b, err := core.BackendFor(p)
	if err != nil {
		tb.Fatal(err)
	}
	return b, xbSource(tb)
}

// flatClusterBackend is smpBackend's protocol on a flat cluster star.
func flatClusterBackend(tb testing.TB) (engine.Backend, engine.Source) {
	tb.Helper()
	c, err := network.NewCluster(network.ClusterConfig{
		K: xbPlayers, Q: xbSamples,
		Rule:      xbRule(),
		Referee:   core.BitReferee{Rule: core.ThresholdRule{T: 2}},
		Transport: network.NewMemTransport(),
		Timeout:   10 * time.Second,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return clusterBackend(tb, c), xbSource(tb)
}

// congestBackend runs a CONGEST tester on the graph over uniform input
// on n elements.
func congestBackend(tb testing.TB, graph *congest.Graph, q int, rule core.LocalRule, referee core.Referee, n int) (engine.Backend, engine.Source) {
	tb.Helper()
	tester, err := congest.NewTester(congest.TesterConfig{Graph: graph, Root: 0, Q: q, Rule: rule, Referee: referee})
	if err != nil {
		tb.Fatal(err)
	}
	b, err := congest.NewBackend(tester)
	if err != nil {
		tb.Fatal(err)
	}
	return b, uniformSource(tb, n)
}

// k5Backend is smpBackend's protocol on CONGEST's complete graph K5,
// where every node has mail in every round.
func k5Backend(tb testing.TB) (engine.Backend, engine.Source) {
	tb.Helper()
	graph, err := congest.Complete(xbPlayers)
	if err != nil {
		tb.Fatal(err)
	}
	return congestBackend(tb, graph, xbSamples, xbRule(), core.BitReferee{Rule: core.ThresholdRule{T: 2}}, xbDomain)
}

// gridBackend is dutbench's congest-grid: FMO's threshold tester at
// n=64, eps=0.5 on a 16x16 grid (k=256, q=22) over uniform input. A
// trial runs 92 rounds, and in most of them most nodes have no mail.
func gridBackend(tb testing.TB) (engine.Backend, engine.Source) {
	tb.Helper()
	const (
		n    = 64
		side = 16
		eps  = 0.5
	)
	k := side * side
	q := core.RecommendedThresholdSamples(n, k, eps)
	fmo, err := core.NewThresholdTester(core.ThresholdTesterConfig{N: n, K: k, Q: q, Eps: eps})
	if err != nil {
		tb.Fatal(err)
	}
	graph, err := congest.Grid(side, side)
	if err != nil {
		tb.Fatal(err)
	}
	return congestBackend(tb, graph, q, fmo.Local(), nil, n)
}

func benchRun(b *testing.B, backend engine.Backend, src engine.Source, workers int) {
	b.Helper()
	opts := engine.Options{
		Seed:    xbSeed,
		Workers: workers,
		Batch:   benchBatch,
		Window:  benchWindow,
	}
	b.ResetTimer()
	if _, err := engine.Run(context.Background(), backend, src, b.N, opts); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkEngineSMP(b *testing.B) {
	backend, src := smpBackend(b)
	benchRun(b, backend, src, 0)
}

func BenchmarkEngineCluster(b *testing.B) {
	backend, src := flatClusterBackend(b)
	benchRun(b, backend, src, 0)
}

// shardedBackend is xbRule on a referee tree of k players under aggs L1
// aggregators.
func shardedBackend(b *testing.B, k, aggs int, timeout time.Duration) engine.Backend {
	b.Helper()
	c, err := network.NewCluster(network.ClusterConfig{
		K: k, Q: xbSamples,
		Rule:      xbRule(),
		Referee:   core.BitReferee{Rule: core.ThresholdRule{T: 2 * k / 5}},
		Transport: network.NewMemTransport(),
		Timeout:   timeout,
		Shards:    aggs,
	})
	if err != nil {
		b.Fatal(err)
	}
	return clusterBackend(b, c)
}

// BenchmarkEngineClusterSharded is the large-k row: the same driver
// pushed through the two-tier referee tree at 10,000 players and 16 L1
// aggregators — the regime the flat accept loop cannot reach with one
// aggregation point. Each engine worker owns a full 10k-node session, so
// the worker count is pinned: it bounds the goroutine count on wide
// hosts, and it keeps allocs/op (dominated here by per-session setup
// amortized over the trial count) host-independent.
func BenchmarkEngineClusterSharded(b *testing.B) {
	benchRun(b, shardedBackend(b, 10_000, 16, 60*time.Second), xbSource(b), 2)
}

// BenchmarkEngineClusterSharded100k is the widest row: 100,000 players
// behind 32 L1 aggregators. Per batch the root writes one ROUND_BATCH to
// each aggregator, 32 frames where a flat star would write 100k, and
// reads one AGG_SUM back from each; the aggregators relay the ROUND_BATCH
// to their shards and reduce the votes in parallel. A single pinned
// worker owns the whole 100k-node session: the session's goroutine
// count already saturates the host, and pinning keeps allocs/op
// host-independent.
func BenchmarkEngineClusterSharded100k(b *testing.B) {
	benchRun(b, shardedBackend(b, 100_000, 32, 120*time.Second), xbSource(b), 1)
}

func BenchmarkEngineCONGEST(b *testing.B) {
	backend, src := k5Backend(b)
	benchRun(b, backend, src, 0)
}

// BenchmarkEngineCONGESTGrid is the CONGEST row at dutbench's
// congest-grid size (gridBackend). It measures the event-driven
// simulator; EngineCONGEST on K5 is the control. Each engine worker
// builds its scratch (256 node programs and the simulator's round
// buffers) once per run.
func BenchmarkEngineCONGESTGrid(b *testing.B) {
	backend, src := gridBackend(b)
	benchRun(b, backend, src, 0)
}
