package dut

// The benchmark harness: one testing.B benchmark per experiment of the
// reproduction (DESIGN.md section 3), each regenerating its table at a
// reduced scale per iteration, plus micro-benchmarks of the load-bearing
// primitives (Walsh-Hadamard transform, samplers, the Lemma 4.1
// evaluator, a full networked round). The collision counter's benchmark
// is BenchmarkCollisionCounter in internal/centralized. Run
//
//	go test -bench=. -benchmem
//
// for the harness, and `dut exp -out` for the full-scale tables written to
// results/ and quoted in EXPERIMENTS.md.

import (
	"context"
	"testing"

	"github.com/distributed-uniformity/dut/internal/boolfn"
	"github.com/distributed-uniformity/dut/internal/congest"
	"github.com/distributed-uniformity/dut/internal/core"
	"github.com/distributed-uniformity/dut/internal/dist"
	"github.com/distributed-uniformity/dut/internal/experiments"
	"github.com/distributed-uniformity/dut/internal/lowerbound"
	"github.com/distributed-uniformity/dut/internal/network"
)

// benchScale keeps per-iteration experiment runs short; the shapes the
// experiments report are unaffected, only the Monte-Carlo noise grows.
const benchScale = 0.05

func benchmarkExperiment(b *testing.B, id string) {
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	cfg := experiments.Config{Scale: benchScale, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table, err := e.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(table.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// One benchmark per experiment (tables/figures stand-ins; see DESIGN.md).

func BenchmarkE1ArbitraryRule(b *testing.B)  { benchmarkExperiment(b, "E1") }
func BenchmarkE2ANDRule(b *testing.B)        { benchmarkExperiment(b, "E2") }
func BenchmarkE3SmallThreshold(b *testing.B) { benchmarkExperiment(b, "E3") }
func BenchmarkE4Learning(b *testing.B)       { benchmarkExperiment(b, "E4") }
func BenchmarkE5Centralized(b *testing.B)    { benchmarkExperiment(b, "E5") }
func BenchmarkE6Lemma42(b *testing.B)        { benchmarkExperiment(b, "E6") }
func BenchmarkE7Lemma43(b *testing.B)        { benchmarkExperiment(b, "E7") }
func BenchmarkE8Lemma44(b *testing.B)        { benchmarkExperiment(b, "E8") }
func BenchmarkE9EvenCover(b *testing.B)      { benchmarkExperiment(b, "E9") }
func BenchmarkE10FourierForm(b *testing.B)   { benchmarkExperiment(b, "E10") }
func BenchmarkE11BitLength(b *testing.B)     { benchmarkExperiment(b, "E11") }
func BenchmarkE12Asymmetric(b *testing.B)    { benchmarkExperiment(b, "E12") }
func BenchmarkE13ANDOneSample(b *testing.B)  { benchmarkExperiment(b, "E13") }
func BenchmarkE14Divergence(b *testing.B)    { benchmarkExperiment(b, "E14") }
func BenchmarkE15KKL(b *testing.B)           { benchmarkExperiment(b, "E15") }

// Micro-benchmarks: the primitives the experiments spend their time in,
// and the ablation comparisons called out in DESIGN.md section 4.

func BenchmarkWHT(b *testing.B) {
	for _, m := range []int{10, 16, 20} {
		b.Run(benchName("m", m), func(b *testing.B) {
			f, err := boolfn.RandomReal(m, NewRand(1))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				spec := boolfn.Transform(f)
				if spec.Len() != f.Len() {
					b.Fatal("bad transform")
				}
			}
		})
	}
}

func BenchmarkCoeffNaiveVsWHT(b *testing.B) {
	// The ablation oracle: naive character inner products, per coefficient.
	const m = 12
	f, err := boolfn.RandomReal(m, NewRand(2))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := boolfn.CoeffNaive(f, uint64(i)%uint64(f.Len())); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSamplers(b *testing.B) {
	zipf, err := dist.Zipf(1<<14, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("alias", func(b *testing.B) {
		s, err := dist.NewAliasSampler(zipf)
		if err != nil {
			b.Fatal(err)
		}
		rng := NewRand(3)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = s.Sample(rng)
		}
	})
	b.Run("cdf", func(b *testing.B) {
		s, err := dist.NewCDFSampler(zipf)
		if err != nil {
			b.Fatal(err)
		}
		rng := NewRand(3)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = s.Sample(rng)
		}
	})
}

func BenchmarkDiffEvaluator(b *testing.B) {
	in, err := lowerbound.NewInstance(3, 4, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	g, err := lowerbound.RandomStrategy(in, 0.4, NewRand(5))
	if err != nil {
		b.Fatal(err)
	}
	e, err := lowerbound.NewDiffEvaluator(in, g)
	if err != nil {
		b.Fatal(err)
	}
	z, err := dist.RandomPerturbation(in.Ell, NewRand(6))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fourier", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := e.Diff(z); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := in.NuZDirect(g, z); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkSMPRound(b *testing.B) {
	const (
		n   = 1 << 12
		k   = 16
		eps = 0.5
	)
	q := core.RecommendedThresholdSamples(n, k, eps)
	p, err := core.NewThresholdTester(core.ThresholdTesterConfig{N: n, K: k, Q: q, Eps: eps})
	if err != nil {
		b.Fatal(err)
	}
	u, err := dist.Uniform(n)
	if err != nil {
		b.Fatal(err)
	}
	s, err := dist.NewAliasSampler(u)
	if err != nil {
		b.Fatal(err)
	}
	rng := NewRand(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Run(s, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNetworkedRound(b *testing.B) {
	const (
		n   = 1 << 10
		k   = 8
		eps = 0.5
	)
	q := core.RecommendedThresholdSamples(n, k, eps)
	smp, err := core.NewThresholdTester(core.ThresholdTesterConfig{N: n, K: k, Q: q, Eps: eps})
	if err != nil {
		b.Fatal(err)
	}
	cluster, err := network.NewCluster(network.ClusterConfig{
		K: k, Q: q,
		Rule:    smp.Local(),
		Referee: core.BitReferee{Rule: core.ThresholdRule{T: core.DefaultThresholdT(k)}},
	})
	if err != nil {
		b.Fatal(err)
	}
	u, err := dist.Uniform(n)
	if err != nil {
		b.Fatal(err)
	}
	s, err := dist.NewAliasSampler(u)
	if err != nil {
		b.Fatal(err)
	}
	rng := NewRand(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.Run(s, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func benchName(prefix string, v int) string {
	return prefix + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func BenchmarkE16MultiBit(b *testing.B) { benchmarkExperiment(b, "E16") }
func BenchmarkE17Ablation(b *testing.B) { benchmarkExperiment(b, "E17") }
func BenchmarkE18CONGEST(b *testing.B)  { benchmarkExperiment(b, "E18") }

func BenchmarkCONGESTRound(b *testing.B) {
	const (
		n   = 1 << 10
		k   = 16
		eps = 0.5
	)
	q := core.RecommendedThresholdSamples(n, k, eps)
	smp, err := core.NewThresholdTester(core.ThresholdTesterConfig{N: n, K: k, Q: q, Eps: eps})
	if err != nil {
		b.Fatal(err)
	}
	g, err := congest.Grid(4, 4)
	if err != nil {
		b.Fatal(err)
	}
	tester, err := congest.NewTester(congest.TesterConfig{
		Graph: g, Root: 0, Q: q, Rule: smp.Local(), T: core.DefaultThresholdT(k),
	})
	if err != nil {
		b.Fatal(err)
	}
	u, err := dist.Uniform(n)
	if err != nil {
		b.Fatal(err)
	}
	s, err := dist.NewAliasSampler(u)
	if err != nil {
		b.Fatal(err)
	}
	rng := NewRand(9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tester.Run(s, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSessionAmortization(b *testing.B) {
	// Single-round clusters pay connection setup per verdict; sessions
	// amortize it over many rounds.
	const (
		n      = 1 << 10
		k      = 8
		eps    = 0.5
		rounds = 16
	)
	q := core.RecommendedThresholdSamples(n, k, eps)
	smp, err := core.NewThresholdTester(core.ThresholdTesterConfig{N: n, K: k, Q: q, Eps: eps})
	if err != nil {
		b.Fatal(err)
	}
	u, err := dist.Uniform(n)
	if err != nil {
		b.Fatal(err)
	}
	s, err := dist.NewAliasSampler(u)
	if err != nil {
		b.Fatal(err)
	}
	mkCluster := func() *network.Cluster {
		c, err := network.NewCluster(network.ClusterConfig{
			K: k, Q: q,
			Rule:    smp.Local(),
			Referee: core.BitReferee{Rule: core.ThresholdRule{T: core.DefaultThresholdT(k)}},
		})
		if err != nil {
			b.Fatal(err)
		}
		return c
	}
	b.Run("single-rounds", func(b *testing.B) {
		c := mkCluster()
		rng := NewRand(10)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for r := 0; r < rounds; r++ {
				if _, err := c.Run(s, rng); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("session", func(b *testing.B) {
		c := mkCluster()
		rng := NewRand(10)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.RunMany(context.Background(), s, rng, rounds); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkE19Transfer(b *testing.B)       { benchmarkExperiment(b, "E19") }
func BenchmarkE20ExactProtocols(b *testing.B) { benchmarkExperiment(b, "E20") }
func BenchmarkE21RBitDecay(b *testing.B)      { benchmarkExperiment(b, "E21") }
func BenchmarkE22ShardedScale(b *testing.B)   { benchmarkExperiment(b, "E22") }
