package engine_test

// Benchmarks comparing trial throughput across the three backends under
// the same engine driver. `make bench` runs these and distills them into
// BENCH_engine.json (trials/sec per backend).

import (
	"context"
	"os"
	"strconv"
	"testing"
	"time"

	"github.com/distributed-uniformity/dut/internal/congest"
	"github.com/distributed-uniformity/dut/internal/core"
	"github.com/distributed-uniformity/dut/internal/dist"
	"github.com/distributed-uniformity/dut/internal/engine"
	"github.com/distributed-uniformity/dut/internal/network"
)

// Batch geometry of the benchmarks, overridable via BENCH_BATCH /
// BENCH_WINDOW (0 disables batching). The defaults are the headline
// configuration BENCH_engine.json records.
const (
	benchDefaultBatch  = 256
	benchDefaultWindow = 4
)

func benchEnvInt(b *testing.B, name string, def int) int {
	b.Helper()
	v := os.Getenv(name)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		b.Fatalf("%s=%q: want a non-negative integer", name, v)
	}
	return n
}

func benchSource(b *testing.B) engine.Source {
	b.Helper()
	u, err := dist.Uniform(xbDomain)
	if err != nil {
		b.Fatal(err)
	}
	src, err := engine.FromDist(u)
	if err != nil {
		b.Fatal(err)
	}
	return src
}

func benchRun(b *testing.B, backend engine.Backend) {
	b.Helper()
	benchRunWorkers(b, backend, 0)
}

func benchRunWorkers(b *testing.B, backend engine.Backend, workers int) {
	b.Helper()
	benchRunSource(b, backend, benchSource(b), workers)
}

func benchRunSource(b *testing.B, backend engine.Backend, src engine.Source, workers int) {
	b.Helper()
	opts := engine.Options{
		Seed:    xbSeed,
		Workers: workers,
		Batch:   benchEnvInt(b, "BENCH_BATCH", benchDefaultBatch),
		Window:  benchEnvInt(b, "BENCH_WINDOW", benchDefaultWindow),
	}
	b.ResetTimer()
	if _, err := engine.Run(context.Background(), backend, src, b.N, opts); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkEngineSMP(b *testing.B) {
	p, err := core.NewSMP(xbPlayers, xbSamples, xbRule(), core.BitReferee{Rule: core.ThresholdRule{T: 2}})
	if err != nil {
		b.Fatal(err)
	}
	backend, err := core.BackendFor(p)
	if err != nil {
		b.Fatal(err)
	}
	benchRun(b, backend)
}

func BenchmarkEngineCluster(b *testing.B) {
	c, err := network.NewCluster(network.ClusterConfig{
		K: xbPlayers, Q: xbSamples,
		Rule:      xbRule(),
		Referee:   core.BitReferee{Rule: core.ThresholdRule{T: 2}},
		Transport: network.NewMemTransport(),
		Timeout:   10 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	backend := clusterBackend(b, c)
	benchRun(b, backend)
}

// BenchmarkEngineClusterSharded is the committed large-k row: the same
// driver pushed through the two-tier referee tree at 10,000 players and
// 16 L1 aggregators — the regime the flat accept loop cannot reach with
// one aggregation point. Each engine worker owns a full 10k-node
// session, so the worker count is pinned: it bounds the goroutine count
// on wide hosts, and it keeps allocs/op (the CI-gated metric, dominated
// here by per-session setup amortized over the fixed trial budget)
// host-independent.
func BenchmarkEngineClusterSharded(b *testing.B) {
	const (
		shardedK    = 10000
		shardedAggs = 16
	)
	c, err := network.NewCluster(network.ClusterConfig{
		K: shardedK, Q: xbSamples,
		Rule:      xbRule(),
		Referee:   core.BitReferee{Rule: core.ThresholdRule{T: 2 * shardedK / 5}},
		Transport: network.NewMemTransport(),
		Timeout:   60 * time.Second,
		Shards:    shardedAggs,
	})
	if err != nil {
		b.Fatal(err)
	}
	backend := clusterBackend(b, c)
	benchRunWorkers(b, backend, 2)
}

// BenchmarkEngineClusterSharded100k is the broadcast-wall row: 100,000
// players behind 32 L1 aggregators. At this width the root's verdict
// fan-out is the line the tree either breaks or holds — with the
// AGG_VERDICT relay the root writes 32 frames per batch (one per
// aggregator, encoded once) while the aggregators re-expand them to the
// 100k per-player VERDICT_BATCHes in parallel. A single pinned worker
// owns the whole 100k-node session: the session's goroutine count
// already saturates the host, and pinning keeps allocs/op — the
// CI-gated metric, archived per commit in results/bench/<sha>.json —
// host-independent.
func BenchmarkEngineClusterSharded100k(b *testing.B) {
	const (
		shardedK    = 100_000
		shardedAggs = 32
	)
	c, err := network.NewCluster(network.ClusterConfig{
		K: shardedK, Q: xbSamples,
		Rule:      xbRule(),
		Referee:   core.BitReferee{Rule: core.ThresholdRule{T: 2 * shardedK / 5}},
		Transport: network.NewMemTransport(),
		Timeout:   120 * time.Second,
		Shards:    shardedAggs,
	})
	if err != nil {
		b.Fatal(err)
	}
	backend := clusterBackend(b, c)
	benchRunWorkers(b, backend, 1)
}

func BenchmarkEngineCONGEST(b *testing.B) {
	graph, err := congest.Complete(xbPlayers)
	if err != nil {
		b.Fatal(err)
	}
	tester, err := congest.NewTester(congest.TesterConfig{
		Graph: graph, Root: 0, Q: xbSamples, Rule: xbRule(), T: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	backend, err := congest.NewBackend(tester)
	if err != nil {
		b.Fatal(err)
	}
	benchRun(b, backend)
}

// BenchmarkEngineCONGESTGrid is the CONGEST row at dutbench's
// congest-grid size: FMO's threshold tester at n=64, eps=0.5 on a 16x16
// grid (k=256, q=22) over uniform input. A trial runs 92 rounds, and in
// most of them most nodes have no mail, so this row measures the
// event-driven simulator; EngineCONGEST on K5, where every node has mail
// in every round, is the control. Each engine worker builds its scratch
// (256 node programs and the simulator's round buffers) once per run.
func BenchmarkEngineCONGESTGrid(b *testing.B) {
	const (
		n    = 64
		side = 16
		eps  = 0.5
	)
	k := side * side
	q := core.RecommendedThresholdSamples(n, k, eps)
	fmo, err := core.NewThresholdTester(core.ThresholdTesterConfig{N: n, K: k, Q: q, Eps: eps})
	if err != nil {
		b.Fatal(err)
	}
	graph, err := congest.Grid(side, side)
	if err != nil {
		b.Fatal(err)
	}
	tester, err := congest.NewTester(congest.TesterConfig{Graph: graph, Root: 0, Q: q, Rule: fmo.Local()})
	if err != nil {
		b.Fatal(err)
	}
	backend, err := congest.NewBackend(tester)
	if err != nil {
		b.Fatal(err)
	}
	u, err := dist.Uniform(n)
	if err != nil {
		b.Fatal(err)
	}
	src, err := engine.FromDist(u)
	if err != nil {
		b.Fatal(err)
	}
	benchRunSource(b, backend, src, 0)
}
