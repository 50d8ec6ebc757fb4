// Command dut is the command-line front end of the distributed uniformity
// testing library.
//
// Subcommands:
//
//	dut test    — run a uniformity tester (centralized or distributed,
//	              simulated in-process) against a synthetic source or a
//	              whitespace-separated sample stream on stdin.
//	dut netdemo — run one full referee/players round over TCP loopback
//	              (or in-memory pipes) and print the verdict.
//	dut bounds  — print the paper's lower-bound formulas evaluated at the
//	              given parameters, next to the matching upper-bound
//	              recommendations.
//	dut exp     — run experiments from the registry and print their
//	              tables (default E21, the Theorem 6.4 r-bit decay sweep);
//	              with -out, also write them as the EXPERIMENTS.md files.
//	dut verify  — numerically verify every lemma and identity of the
//	              paper on exhaustive small instances.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/distributed-uniformity/dut/internal/centralized"
	"github.com/distributed-uniformity/dut/internal/core"
	"github.com/distributed-uniformity/dut/internal/dist"
	"github.com/distributed-uniformity/dut/internal/engine"
	"github.com/distributed-uniformity/dut/internal/lowerbound"
	"github.com/distributed-uniformity/dut/internal/network"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) == 0 {
		usage()
		return 2
	}
	switch args[0] {
	case "test":
		return cmdTest(args[1:])
	case "netdemo":
		return cmdNetDemo(args[1:])
	case "bounds":
		return cmdBounds(args[1:])
	case "exp":
		return cmdExp(args[1:])
	case "verify":
		return cmdVerify(args[1:])
	case "-h", "--help", "help":
		usage()
		return 0
	default:
		fmt.Fprintf(os.Stderr, "dut: unknown subcommand %q\n", args[0])
		usage()
		return 2
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  dut test    [-n N] [-eps E] [-mode collision|chisq|threshold|and] [-k K] [-q Q] [-source uniform|zipf|hard|stdin] [-trials T] [-seed S]
  dut netdemo [-n N] [-eps E] [-k K] [-q Q] [-bits R] [-tcp] [-seed S] [-rounds R] [-minvotes M] [-crash C] [-delay D] [-batch B] [-window W] [-shards S | -aggregators A] [-aggweights W1,W2,...] [-shardseed S]
  dut bounds  [-n N] [-eps E] [-k K] [-T T] [-r R] [-q Q]
  dut exp     [-run E21|E1,E2,...|all] [-scale S] [-seed S] [-par P] [-out DIR [-csv]] [-list]
  dut verify  [-seed S] [-v]
`)
}

func cmdTest(args []string) int {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var (
		n      = fs.Int("n", 1024, "domain size (power of two for -source hard)")
		eps    = fs.Float64("eps", 0.5, "proximity parameter")
		mode   = fs.String("mode", "collision", "tester: collision | chisq | threshold | and")
		k      = fs.Int("k", 16, "players (distributed modes)")
		q      = fs.Int("q", 0, "samples per player / total samples (0 = recommended)")
		source = fs.String("source", "uniform", "sample source: uniform | zipf | hard | stdin")
		trials = fs.Int("trials", 1, "repeat the test this many times and report the acceptance rate")
		seed   = fs.Uint64("seed", uint64(time.Now().UnixNano()), "random seed")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rng := rand.New(rand.NewPCG(*seed, *seed^0x1f3d5b79))

	if *source == "stdin" {
		return testStdin(*n, *eps, *mode, *q, rng)
	}

	sampler, desc, err := buildSource(*source, *n, *eps, rng)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dut test: %v\n", err)
		return 1
	}

	accept, err := runTester(*mode, *n, *eps, *k, *q, *trials, sampler, rng)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dut test: %v\n", err)
		return 1
	}
	fmt.Printf("source: %s\nmode:   %s\naccept rate: %.3f over %d trial(s)\n", desc, *mode, accept, *trials)
	if accept >= 0.5 {
		fmt.Println("verdict: ACCEPT (looks uniform)")
	} else {
		fmt.Println("verdict: REJECT (far from uniform)")
	}
	return 0
}

func buildSource(source string, n int, eps float64, rng *rand.Rand) (dist.Sampler, string, error) {
	var (
		d    dist.Dist
		desc string
		err  error
	)
	switch source {
	case "uniform":
		d, err = dist.Uniform(n)
		desc = fmt.Sprintf("uniform over [%d]", n)
	case "zipf":
		d, err = dist.Zipf(n, 1)
		desc = fmt.Sprintf("zipf(1) over [%d]", n)
	case "hard":
		var h dist.HardInstance
		h, err = hardFor(n, eps)
		if err == nil {
			d, _, err = h.RandomPerturbed(rng)
		}
		desc = fmt.Sprintf("hard family nu_z over [%d], eps=%v", n, eps)
	default:
		return nil, "", fmt.Errorf("unknown source %q", source)
	}
	if err != nil {
		return nil, "", err
	}
	s, err := dist.NewAliasSampler(d)
	if err != nil {
		return nil, "", err
	}
	return s, desc, nil
}

func hardFor(n int, eps float64) (dist.HardInstance, error) {
	ell := 0
	for 1<<(ell+1) < n {
		ell++
	}
	if 1<<(ell+1) != n {
		return dist.HardInstance{}, fmt.Errorf("-source hard needs a power-of-two domain, got %d", n)
	}
	return dist.NewHardInstance(ell, eps)
}

func runTester(mode string, n int, eps float64, k, q, trials int, sampler dist.Sampler, rng *rand.Rand) (float64, error) {
	switch mode {
	case "collision", "chisq":
		if q == 0 {
			q = centralized.RecommendedSamples(n, eps)
		}
		var tester centralized.Tester
		var err error
		if mode == "collision" {
			tester, err = centralized.NewCollisionTester(n, q, eps)
		} else {
			var u dist.Dist
			u, err = dist.Uniform(n)
			if err == nil {
				tester, err = centralized.NewChiSquaredTester(u, q, eps)
			}
		}
		if err != nil {
			return 0, err
		}
		accepts := 0
		buf := make([]int, q)
		for i := 0; i < trials; i++ {
			dist.SampleInto(sampler, buf, rng)
			ok, err := tester.Test(buf)
			if err != nil {
				return 0, err
			}
			if ok {
				accepts++
			}
		}
		return float64(accepts) / float64(trials), nil
	case "threshold", "and":
		if q == 0 {
			if mode == "threshold" {
				q = core.RecommendedThresholdSamples(n, k, eps)
			} else {
				q = centralized.RecommendedSamples(n, eps)
			}
		}
		var p core.Protocol
		var err error
		if mode == "threshold" {
			p, err = core.NewThresholdTester(core.ThresholdTesterConfig{N: n, K: k, Q: q, Eps: eps})
		} else {
			p, err = core.NewANDTester(n, k, q, eps)
		}
		if err != nil {
			return 0, err
		}
		b, err := core.BackendFor(p)
		if err != nil {
			return 0, err
		}
		res, err := engine.Estimate(context.Background(), b, engine.Fixed(sampler), trials,
			engine.Options{Seed: rng.Uint64()})
		if err != nil {
			return 0, err
		}
		return res.Estimate.P, nil
	default:
		return 0, fmt.Errorf("unknown mode %q", mode)
	}
}

func testStdin(n int, eps float64, mode string, q int, rng *rand.Rand) int {
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Split(bufio.ScanWords)
	var samples []int
	for scanner.Scan() {
		v, err := strconv.Atoi(scanner.Text())
		if err != nil {
			fmt.Fprintf(os.Stderr, "dut test: bad sample %q: %v\n", scanner.Text(), err)
			return 1
		}
		samples = append(samples, v)
	}
	if err := scanner.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "dut test: reading stdin: %v\n", err)
		return 1
	}
	if len(samples) < 2 {
		fmt.Fprintln(os.Stderr, "dut test: need at least 2 samples on stdin")
		return 1
	}
	_ = q
	_ = rng
	var tester centralized.Tester
	var err error
	switch mode {
	case "collision":
		tester, err = centralized.NewCollisionTester(n, len(samples), eps)
	case "chisq":
		var u dist.Dist
		u, err = dist.Uniform(n)
		if err == nil {
			tester, err = centralized.NewChiSquaredTester(u, len(samples), eps)
		}
	default:
		fmt.Fprintf(os.Stderr, "dut test: stdin supports -mode collision|chisq, got %q\n", mode)
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dut test: %v\n", err)
		return 1
	}
	ok, err := tester.Test(samples)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dut test: %v\n", err)
		return 1
	}
	recommended := centralized.RecommendedSamples(n, eps)
	fmt.Printf("samples: %d (recommended for n=%d, eps=%v: %d)\n", len(samples), n, eps, recommended)
	if len(samples) < recommended {
		fmt.Println("warning: sample count below the recommended size; the verdict is weak")
	}
	if ok {
		fmt.Println("verdict: ACCEPT (looks uniform)")
	} else {
		fmt.Println("verdict: REJECT (far from uniform)")
	}
	return 0
}

func cmdNetDemo(args []string) int {
	fs := flag.NewFlagSet("netdemo", flag.ContinueOnError)
	var (
		n        = fs.Int("n", 1024, "domain size (power of two)")
		eps      = fs.Float64("eps", 0.5, "proximity parameter")
		k        = fs.Int("k", 8, "player nodes")
		q        = fs.Int("q", 0, "samples per node (0 = recommended)")
		bits     = fs.Int("bits", 1, "message width r: 1 runs the classic threshold tester, 2..60 the quantized r-bit sum tester")
		tcp      = fs.Bool("tcp", false, "use TCP loopback instead of in-memory pipes")
		far      = fs.Bool("far", false, "feed the nodes an eps-far distribution instead of uniform")
		seed     = fs.Uint64("seed", uint64(time.Now().UnixNano()), "random seed")
		rounds   = fs.Int("rounds", 1, "amplification rounds over one session")
		minVotes = fs.Int("minvotes", 0, "quorum: tolerate stragglers down to this many votes (0 = strict)")
		crash    = fs.Int("crash", 0, "chaos: crash this many nodes at their first vote")
		delay    = fs.Duration("delay", 0, "chaos: per-frame write delay injected on one node")
		batch    = fs.Int("batch", 0, "trials per ROUND_BATCH wire frame (0 = one trial per frame)")
		window   = fs.Int("window", 1, "batches kept in flight per session (needs -batch)")
		shards   = fs.Int("shards", 0, "L1 aggregator shards between players and root (0 or 1 = flat star)")
		aggs     = fs.Int("aggregators", 0, "alias for -shards: number of L1 aggregators in the referee tree")
		aggW     = fs.String("aggweights", "", "comma-separated relative aggregator capacities, one per shard (empty = uniform)")
		shardS   = fs.Uint64("shardseed", 0, "shuffle players across shards with this seed (0 = contiguous ranges)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rng := rand.New(rand.NewPCG(*seed, *seed+1))
	if *q == 0 {
		*q = core.RecommendedThresholdSamples(*n, *k, *eps)
	}
	if *rounds < 1 {
		fmt.Fprintln(os.Stderr, "dut netdemo: -rounds must be at least 1")
		return 2
	}
	if *crash < 0 || *crash >= *k {
		if *crash != 0 {
			fmt.Fprintf(os.Stderr, "dut netdemo: -crash must be in [0, k); got %d with k=%d\n", *crash, *k)
			return 2
		}
	}
	if (*crash > 0 || *delay > 0) && *minVotes == 0 {
		fmt.Fprintln(os.Stderr, "dut netdemo: chaos flags need a quorum; set -minvotes below k")
		return 2
	}
	if *batch < 0 || *window < 1 {
		fmt.Fprintln(os.Stderr, "dut netdemo: -batch must be non-negative and -window at least 1")
		return 2
	}
	if *batch == 0 && *window > 1 {
		fmt.Fprintln(os.Stderr, "dut netdemo: -window needs -batch")
		return 2
	}

	if *bits < 1 {
		fmt.Fprintln(os.Stderr, "dut netdemo: -bits must be at least 1")
		return 2
	}
	if *aggs != 0 {
		if *shards != 0 && *shards != *aggs {
			fmt.Fprintf(os.Stderr, "dut netdemo: -shards %d and -aggregators %d disagree; they name the same tier\n", *shards, *aggs)
			return 2
		}
		*shards = *aggs
	}
	var weights []int
	if *aggW != "" {
		for _, field := range strings.Split(*aggW, ",") {
			w, err := strconv.Atoi(strings.TrimSpace(field))
			if err != nil {
				fmt.Fprintf(os.Stderr, "dut netdemo: -aggweights %q: %v\n", *aggW, err)
				return 2
			}
			weights = append(weights, w)
		}
	}
	// The rule's width is pinned on the referee server, so a node
	// announcing a different width in HELLO fails by name at handshake
	// time; here both sides are built from the same rule, so the
	// negotiation always succeeds.
	var rule core.LocalRule
	var referee core.Referee
	if *bits == 1 {
		smp, err := core.NewThresholdTester(core.ThresholdTesterConfig{N: *n, K: *k, Q: *q, Eps: *eps})
		if err != nil {
			fmt.Fprintf(os.Stderr, "dut netdemo: %v\n", err)
			return 1
		}
		rule = smp.Local()
		referee = core.BitReferee{Rule: core.ThresholdRule{T: core.DefaultThresholdT(*k)}}
	} else {
		qrule, err := core.NewQuantizedCollisionRule(*n, *q, *bits)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dut netdemo: %v\n", err)
			return 1
		}
		rule = qrule
		referee = core.SumThresholdReferee{Bits: *bits, T: core.QuantizedSumThreshold(*n, *k, *q)}
	}
	var tr network.Transport = network.NewMemTransport()
	trName := "in-memory pipes"
	if *tcp {
		tr = network.TCPTransport{}
		trName = "TCP loopback"
	}
	if *crash > 0 || *delay > 0 {
		plans := make(map[uint32]network.FaultPlan)
		for p := 0; p < *crash; p++ {
			plans[uint32(p)] = network.FaultPlan{CrashAtRound: 1}
		}
		if *delay > 0 {
			// Slow down the last node: it is never one of the crashed ones.
			plans[uint32(*k-1)] = network.FaultPlan{Delay: *delay}
		}
		ft, err := network.NewFaultTransport(tr, network.FaultConfig{Seed: *seed, Plans: plans})
		if err != nil {
			fmt.Fprintf(os.Stderr, "dut netdemo: %v\n", err)
			return 1
		}
		tr = ft
		trName += " + fault injection"
	}
	// The counter is the outermost decorator so it sees exactly the
	// bytes that cross the (possibly fault-injected) transport; netdemo
	// runs a single worker, so its tier attribution is valid.
	counter, err := network.NewCountingTransport(tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dut netdemo: %v\n", err)
		return 1
	}
	tr = counter
	cluster, err := network.NewCluster(network.ClusterConfig{
		K: *k, Q: *q,
		Rule:              rule,
		Referee:           referee,
		Transport:         tr,
		Timeout:           30 * time.Second,
		MinVotes:          *minVotes,
		Shards:            *shards,
		AggregatorWeights: weights,
		ShardSeed:         *shardS,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "dut netdemo: %v\n", err)
		return 1
	}

	source := "uniform"
	var sampler dist.Sampler
	if *far {
		source = "eps-far hard family"
		h, err := hardFor(*n, *eps)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dut netdemo: %v\n", err)
			return 1
		}
		nu, _, err := h.RandomPerturbed(rng)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dut netdemo: %v\n", err)
			return 1
		}
		sampler, err = dist.NewAliasSampler(nu)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dut netdemo: %v\n", err)
			return 1
		}
	} else {
		u, err := dist.Uniform(*n)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dut netdemo: %v\n", err)
			return 1
		}
		sampler, err = dist.NewAliasSampler(u)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dut netdemo: %v\n", err)
			return 1
		}
	}

	fmt.Printf("referee + %d nodes over %s; n=%d eps=%v q=%d per node; input: %s\n",
		*k, trName, *n, *eps, *q, source)
	if *bits > 1 {
		fmt.Printf("message width: %d bits per vote (quantized collision sum, T=%d)\n",
			*bits, core.QuantizedSumThreshold(*n, *k, *q))
	}
	if *minVotes > 0 {
		fmt.Printf("quorum: %d of %d votes\n", *minVotes, *k)
	}
	if *shards > 1 {
		layout := "contiguous shards"
		if *shardS != 0 {
			layout = fmt.Sprintf("shuffled shards (seed %d)", *shardS)
		}
		if len(weights) > 0 {
			layout += fmt.Sprintf(", weights %v", weights)
		}
		fmt.Printf("referee tree: %d L1 aggregators, %s\n", *shards, layout)
	}
	if *batch > 0 {
		fmt.Printf("batched wire protocol: %d trials per frame, %d batches in flight\n", *batch, *window)
	}
	start := time.Now()
	// One session regardless of the round count: the engine drives the
	// cluster backend's batch session (ROUND_BATCH/VOTE_BATCH frames),
	// one trial per batch unless -batch says otherwise, so a 1-round demo
	// and a full amplification session exercise the same path.
	results, err := runDemo(cluster, sampler, rng, *rounds, *batch, *window)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dut netdemo: round failed: %v\n", err)
		return 1
	}
	accepts := 0
	for i, r := range results {
		verdict := "REJECT"
		if r.Verdict {
			verdict = "ACCEPT"
			accepts++
		}
		fmt.Printf("round %d: verdict=%s votes=%d/%d stragglers=%d retries=%d\n",
			i, verdict, r.Votes, *k, r.Stragglers, r.Retries)
	}
	accept := 2*accepts > len(results)
	rootC, aggC := counter.Snapshot()
	if *shards > 1 {
		fmt.Printf("frames root -> aggregators:    %s\n", network.FormatFrameCounts(rootC.Down))
		fmt.Printf("frames aggregators -> root:    %s\n", network.FormatFrameCounts(rootC.Up))
		fmt.Printf("frames aggregators -> players: %s\n", network.FormatFrameCounts(aggC.Down))
		fmt.Printf("frames players -> aggregators: %s\n", network.FormatFrameCounts(aggC.Up))
	} else {
		fmt.Printf("frames root -> players: %s\n", network.FormatFrameCounts(rootC.Down))
		fmt.Printf("frames players -> root: %s\n", network.FormatFrameCounts(rootC.Up))
	}
	fmt.Printf("session completed in %v\n", time.Since(start).Round(time.Microsecond))
	if accept {
		fmt.Println("verdict: ACCEPT (network believes the input is uniform)")
	} else {
		fmt.Println("verdict: REJECT (network raised the alarm)")
	}
	return 0
}

// runDemo drives the cluster through the engine's trial driver on one
// worker (so the frame counter's tier attribution holds) and returns the
// per-trial results. It closes the engine's backend before returning, so
// the session's FINISH frames are on the wire when the caller reads the
// frame counts.
func runDemo(cluster *network.Cluster, sampler dist.Sampler, rng *rand.Rand, rounds, batch, window int) ([]engine.RoundResult, error) {
	backend, err := network.NewBackend(cluster)
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(backend, engine.Options{
		Workers: 1,
		Seed:    rng.Uint64(),
		Batch:   batch,
		Window:  window,
	})
	if err != nil {
		return nil, err
	}
	results, err := eng.Run(context.Background(), engine.Fixed(sampler), rounds)
	if closeErr := eng.Close(); err == nil {
		err = closeErr
	}
	if err != nil {
		return nil, err
	}
	return results, nil
}

func cmdBounds(args []string) int {
	fs := flag.NewFlagSet("bounds", flag.ContinueOnError)
	var (
		n   = fs.Int("n", 4096, "domain size")
		eps = fs.Float64("eps", 0.5, "proximity parameter")
		k   = fs.Int("k", 64, "players")
		t   = fs.Int("T", 4, "referee threshold for the Theorem 1.3 row")
		r   = fs.Int("r", 4, "message bits for the Theorem 6.4 row")
		q   = fs.Int("q", 8, "samples per player for the Theorem 1.4 row")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	type row struct {
		name  string
		eval  func() (float64, error)
		match string
	}
	rows := []row{
		{
			name:  "Thm 6.1  any rule:      q >= (C/eps^2) min(sqrt(n/k), n/k)",
			eval:  func() (float64, error) { return lowerbound.Theorem61Q(*n, *k, *eps, 1) },
			match: fmt.Sprintf("threshold tester recommends q = %d", core.RecommendedThresholdSamples(*n, *k, *eps)),
		},
		{
			name:  "Thm 6.5  AND rule:      q >= C sqrt(n)/(log^2 k eps^2)",
			eval:  func() (float64, error) { return lowerbound.Theorem65Q(*n, *k, *eps, 0.25) },
			match: fmt.Sprintf("centralized scale is q = %d", centralized.RecommendedSamples(*n, *eps)),
		},
		{
			name:  fmt.Sprintf("Thm 1.3  T=%d threshold: q >= C sqrt(n)/(T log^2(k/eps) eps^2)", *t),
			eval:  func() (float64, error) { return lowerbound.Theorem13Q(*n, *k, *t, *eps, 0.25) },
			match: "",
		},
		{
			name:  fmt.Sprintf("Thm 6.4  r=%d bits:      q >= (C/eps^2) min(sqrt(n/(2^r k)), n/(2^r k))", *r),
			eval:  func() (float64, error) { return lowerbound.Theorem64Q(*n, *k, *r, *eps, 1) },
			match: "",
		},
		{
			name:  fmt.Sprintf("Thm 1.4  learning, q=%d: k >= C n^2/q^2", *q),
			eval:  func() (float64, error) { return lowerbound.Theorem14K(*n, *q, 1) },
			match: "",
		},
	}
	fmt.Printf("paper lower bounds at n=%d, k=%d, eps=%v (C = 1 or 1/4 as printed):\n\n", *n, *k, *eps)
	for _, r := range rows {
		v, err := r.eval()
		if err != nil {
			fmt.Fprintf(os.Stderr, "dut bounds: %v\n", err)
			return 1
		}
		fmt.Printf("  %-68s = %10.1f", r.name, v)
		if r.match != "" {
			fmt.Printf("   (%s)", r.match)
		}
		fmt.Println()
	}
	return 0
}
