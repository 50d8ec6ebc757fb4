package bench

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"time"

	"github.com/distributed-uniformity/dut/internal/congest"
	"github.com/distributed-uniformity/dut/internal/core"
	"github.com/distributed-uniformity/dut/internal/dist"
	"github.com/distributed-uniformity/dut/internal/engine"
	"github.com/distributed-uniformity/dut/internal/network"
)

// eps is the proximity parameter of every workload's tester and of its far
// input.
const eps = 0.5

// clusterTimeout is the cluster's per-frame wait. An in-memory pipe stays
// reachable until its last deadline fires, so the retained heap is the
// connection churn times this window; the 10 s default would keep the
// heap growing through a whole 10 s run instead of reaching its steady
// state during set-up.
const clusterTimeout = 2 * time.Second

// kind names the backend and tester a workload runs.
type kind int

const (
	kindSMP     kind = iota // in-process SMP, FMO threshold tester
	kindCongest             // CONGEST grid, FMO threshold tester
	kindFlat                // cluster flat star, FMO threshold tester
	kindTree                // cluster two-tier tree, r-bit quantized tester
	kindShort               // cluster flat star, ACT tester, short calls
)

// Workload is one benchmark input set: a tester, a backend, its geometry,
// and how the closed loop calls the engine. Each call is one
// engine.Estimate of CallTrials trials on a fresh seed; CallsPerRep calls
// are timed together as one repetition, and a run repeats until its time
// is spent.
type Workload struct {
	// Name is the workload's name on the command line and in results.
	Name string
	// Why is the reason the workload exists, as BENCHMARK.json states it.
	Why string

	kind           kind
	n, k, q, r     int // domain, players, samples per player, message bits
	rows           int // CONGEST grid rows; k/rows columns
	shards         int // cluster aggregators; 0 or 1 is the flat star
	batch, window  int
	workers        int
	callTrials     int
	callsPerRep    int
	checkPower     bool // the tester must separate at this size
	setupRepeats   int
	minReps        int
	gateTrials     int
	isolatedRepeat int // draws of the isolated dist and rule replays
}

// workloads returns the five benchmark workloads in run order.
func workloads() []Workload {
	base := Workload{batch: 256, window: 4, workers: 2, callsPerRep: 1, checkPower: true,
		setupRepeats: 5, minReps: 3, gateTrials: 2048, isolatedRepeat: 1 << 14}
	smp := base
	smp.Name, smp.kind = "smp-sampling", kindSMP
	smp.Why = "in-process SMP, FMO tester at n=4096 k=16 q=642: sampling and the local collision count dominate and no wire is involved"
	smp.n, smp.k, smp.r = 4096, 16, 1
	smp.q = core.RecommendedThresholdSamples(smp.n, smp.k, eps)
	smp.callTrials = 8192

	cg := base
	cg.Name, cg.kind = "congest-grid", kindCongest
	cg.Why = "CONGEST on a 16x16 grid, FMO at n=64 k=256 q=22: simulator convergecast rounds dominate; shares parameters with cluster-flat"
	cg.n, cg.k, cg.r, cg.rows = 64, 256, 1, 16
	cg.q = core.RecommendedThresholdSamples(cg.n, cg.k, eps)
	cg.callTrials = 2048

	flat := cg
	flat.Name, flat.kind = "cluster-flat", kindFlat
	flat.Why = "flat cluster star, FMO at n=64 k=256 q=22: the steady-state 1-bit wire path (frames, coalesced writes, batch decide) dominates"
	flat.rows = 0
	flat.callTrials = 16384

	tree := base
	tree.Name, tree.kind = "cluster-tree", kindTree
	tree.Why = "two-tier tree, 4096 players under 8 aggregators, 3-bit quantized tester: VOTE_BATCH_R, AGG_SUM reduce and verdict relay at large k"
	tree.n, tree.k, tree.q, tree.r, tree.shards = 64, 4096, 4, 3, 8
	tree.workers = 1
	tree.callTrials = 1024

	short := base
	short.Name, short.kind = "cluster-short", kindShort
	short.Why = "sequential 64-trial Estimate calls on a k=514 ACT star: session open and teardown and the opaque per-trial decide dominate"
	short.n, short.q, short.r = 64, 1, 4
	short.k = core.RecommendedACTPlayers(short.n, short.r, eps)
	short.batch, short.window, short.workers = 64, 1, 1
	short.callTrials, short.callsPerRep = 64, 25

	return []Workload{smp, cg, flat, tree, short}
}

// smoke returns the workload shrunk to a size that runs in well under a
// second: same backend, topology and code paths, smaller k and calls. The
// shrunk testers need not separate, so the power check is off.
func (w Workload) smoke() Workload {
	s := w
	s.checkPower = false
	s.setupRepeats, s.minReps, s.gateTrials, s.isolatedRepeat = 2, 2, 256, 256
	switch w.kind {
	case kindSMP:
		s.n, s.k, s.q, s.callTrials = 256, 8, 32, 512
	case kindCongest:
		s.k, s.rows, s.q, s.callTrials = 16, 4, 16, 512
	case kindFlat:
		s.k, s.q, s.callTrials = 16, 16, 512
	case kindTree:
		s.k, s.shards, s.callTrials = 64, 4, 512
	case kindShort:
		s.k, s.callsPerRep = 32, 2
	}
	return s
}

// Lookup finds a workload by name.
func Lookup(name string) (Workload, error) {
	for _, w := range workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("bench: unknown workload %q", name)
}

// inputs are the generated inputs of one run: the uniform distribution
// and one far distribution from the Section 3 hard family, both behind
// alias samplers. Even trials sample the uniform one, odd trials the far
// one, so the program only ever receives these generated inputs.
type inputs struct {
	null, far dist.Sampler
}

func newInputs(n int, seed uint64) (*inputs, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("bench: domain %d is not a power of two", n)
	}
	h, err := dist.NewHardInstance(bits.Len(uint(n))-2, eps)
	if err != nil {
		return nil, err
	}
	z, err := dist.RandomPerturbation(h.Ell, rand.New(rand.NewPCG(seed, 0xd1b54a32d192ed03)))
	if err != nil {
		return nil, err
	}
	nu, err := h.Perturbed(z)
	if err != nil {
		return nil, err
	}
	far, err := dist.NewAliasSampler(nu)
	if err != nil {
		return nil, err
	}
	u, err := dist.Uniform(n)
	if err != nil {
		return nil, err
	}
	null, err := dist.NewAliasSampler(u)
	if err != nil {
		return nil, err
	}
	return &inputs{null: null, far: far}, nil
}

// source serves the uniform sampler on even trials and the far one on odd.
func (in *inputs) source(trial int, _ *rand.Rand) (dist.Sampler, error) {
	if trial%2 == 0 {
		return in.null, nil
	}
	return in.far, nil
}

// protocol builds the workload's tester as an in-process SMP protocol: the
// rule and referee every backend runs, and the gate's reference.
func (w Workload) protocol() (*core.SMP, error) {
	switch w.kind {
	case kindSMP, kindCongest, kindFlat:
		return core.NewThresholdTester(core.ThresholdTesterConfig{N: w.n, K: w.k, Q: w.q, Eps: eps})
	case kindTree:
		return core.NewQuantizedSumTester(w.n, w.k, w.q, w.r)
	case kindShort:
		return core.NewACTTester(w.n, w.k, w.r, eps)
	}
	return nil, fmt.Errorf("bench: unknown workload kind %d", w.kind)
}

// reference builds the in-process SMP backend of the same tester; the
// cross-backend determinism contract makes its verdicts bit-identical.
func (w Workload) reference() (engine.Backend, error) {
	p, err := w.protocol()
	if err != nil {
		return nil, err
	}
	return core.BackendFor(p)
}

// build constructs the backend under test. With a tracer the local rule,
// the transport and the backend are wrapped; without one the backend is
// exactly what a user of the package would build.
func (w Workload) build(t *tracer) (engine.Backend, error) {
	p, err := w.protocol()
	if err != nil {
		return nil, err
	}
	rule := p.Local()
	if t != nil {
		t.rule = newCountingRule(rule, w.k)
		rule = t.rule
	}
	var b engine.Backend
	switch w.kind {
	case kindSMP:
		smp, err := core.NewSMP(w.k, w.q, rule, p.RefereeFunc())
		if err != nil {
			return nil, err
		}
		b, err = core.BackendFor(smp)
		if err != nil {
			return nil, err
		}
	case kindCongest:
		g, err := congest.Grid(w.rows, w.k/w.rows)
		if err != nil {
			return nil, err
		}
		tester, err := congest.NewTester(congest.TesterConfig{Graph: g, Root: 0, Q: w.q, Rule: rule})
		if err != nil {
			return nil, err
		}
		b, err = congest.NewBackend(tester)
		if err != nil {
			return nil, err
		}
	default:
		cfg := network.ClusterConfig{K: w.k, Q: w.q, Rule: rule, Referee: p.RefereeFunc(), Shards: w.shards, Timeout: clusterTimeout}
		if t != nil {
			cfg.Transport = &tracedTransport{t: t}
		}
		c, err := network.NewCluster(cfg)
		if err != nil {
			return nil, err
		}
		b, err = network.NewBackend(c)
		if err != nil {
			return nil, err
		}
	}
	if t == nil {
		return b, nil
	}
	return newTracedBackend(b, t)
}

// options are the engine options of one call.
func (w Workload) options(seed uint64) engine.Options {
	return engine.Options{Workers: w.workers, Seed: seed, Batch: w.batch, Window: w.window}
}

// commBytesPerTrial is the communication a trial costs where no wire is
// counted: k messages of r bits on the SMP backend, and every CONGEST
// message at the model's B-bit edge bandwidth.
func (w Workload) commBytesPerTrial(messagesPerTrial float64) float64 {
	switch w.kind {
	case kindSMP:
		return float64(w.k*w.r) / 8
	case kindCongest:
		return messagesPerTrial * congest.MessageBits / 8
	}
	return 0
}

// clustered reports whether the workload runs on the networked cluster.
func (w Workload) clustered() bool {
	return w.kind == kindFlat || w.kind == kindTree || w.kind == kindShort
}
