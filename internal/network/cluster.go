package network

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"github.com/distributed-uniformity/dut/internal/core"
	"github.com/distributed-uniformity/dut/internal/dist"
	"github.com/distributed-uniformity/dut/internal/engine"
)

// Cluster runs a full SMP tester as a networked system: a referee server
// plus k player nodes over a Transport. It implements core.Protocol, so a
// networked deployment plugs into the same measurement harness as the
// in-process SMP simulator. With MinVotes set it runs in quorum mode:
// stragglers, crashed nodes and protocol violators are tolerated down to
// the quorum and reported in each trial's engine.RoundResult instead of
// failing the round.
type Cluster struct {
	k         int
	q         int
	rule      core.LocalRule
	referee   core.Referee
	tr        Transport
	timeout   time.Duration
	minVotes  int
	absentees core.AbsenteePolicy
	retries   int
	backoff   time.Duration
	topo      Topology
}

var _ core.Protocol = (*Cluster)(nil)

// ClusterConfig configures NewCluster.
type ClusterConfig struct {
	// K is the number of player nodes.
	K int
	// Q is the per-node sample count.
	Q int
	// Rule is the shared local rule.
	Rule core.LocalRule
	// Referee is the decision function.
	Referee core.Referee
	// Transport carries the frames; nil selects a fresh MemTransport.
	Transport Transport
	// Timeout bounds every per-frame wait and, in quorum mode, the accept
	// phase; zero means 10 seconds.
	Timeout time.Duration
	// MinVotes enables straggler tolerance: a round succeeds once at
	// least MinVotes valid votes arrive, absentees entering the decision
	// per Absentees. Zero (or K) keeps the strict all-K-votes semantics.
	MinVotes int
	// Absentees is how missing votes enter the decision in quorum mode;
	// core.AbsenteeDefault defers to the referee rule's advice.
	Absentees core.AbsenteePolicy
	// DialRetries is each node's retry budget for dial+HELLO after the
	// first attempt; zero selects DefaultDialRetries, negative disables
	// retries.
	DialRetries int
	// RetryBackoff is the initial node-side backoff between connect
	// attempts, doubled per retry; zero selects DefaultRetryBackoff.
	RetryBackoff time.Duration
	// Shards is the number of L1 aggregators in the referee tree; 0 and
	// 1 both keep the flat star. Every entry point (Run, RunManyStats
	// and the engine backend) runs the configured topology; verdicts are
	// bit-identical to the flat referee by contract.
	Shards int
	// AggregatorWeights are relative aggregator capacities for
	// heterogeneous placements; nil means uniform. Must be len Shards
	// when set, each weight >= 1.
	AggregatorWeights []int
	// ShardSeed, when non-zero, deals players to shards in a
	// deterministically shuffled order instead of contiguous ranges.
	ShardSeed uint64
}

// NewCluster validates the configuration.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.K <= 0 {
		return nil, fmt.Errorf("network: cluster with %d players", cfg.K)
	}
	if cfg.Q < 0 {
		return nil, fmt.Errorf("network: cluster with %d samples per player", cfg.Q)
	}
	if cfg.Rule == nil {
		return nil, fmt.Errorf("network: cluster with nil rule")
	}
	if cfg.Referee == nil {
		return nil, fmt.Errorf("network: cluster with nil referee")
	}
	if cfg.Timeout < 0 {
		return nil, fmt.Errorf("network: negative timeout %v", cfg.Timeout)
	}
	if cfg.MinVotes < 0 || cfg.MinVotes > cfg.K {
		return nil, fmt.Errorf("network: quorum of %d votes for %d players", cfg.MinVotes, cfg.K)
	}
	if !cfg.Absentees.Valid() {
		return nil, fmt.Errorf("network: unknown absentee policy %d", int(cfg.Absentees))
	}
	if cfg.RetryBackoff < 0 {
		return nil, fmt.Errorf("network: negative retry backoff %v", cfg.RetryBackoff)
	}
	topo := Topology{Shards: cfg.Shards, Weights: cfg.AggregatorWeights, Seed: cfg.ShardSeed}
	if err := topo.validate(cfg.K); err != nil {
		return nil, err
	}
	tr := cfg.Transport
	if tr == nil {
		tr = NewMemTransport()
	}
	minVotes := cfg.MinVotes
	if minVotes == 0 {
		minVotes = cfg.K
	}
	retries := cfg.DialRetries
	if retries == 0 {
		retries = DefaultDialRetries
	} else if retries < 0 {
		retries = 0
	}
	backoff := cfg.RetryBackoff
	if backoff == 0 {
		backoff = DefaultRetryBackoff
	}
	timeout := cfg.Timeout
	if timeout == 0 {
		timeout = 10 * time.Second
	}
	return &Cluster{
		k:         cfg.K,
		q:         cfg.Q,
		rule:      cfg.Rule,
		referee:   cfg.Referee,
		tr:        tr,
		timeout:   timeout,
		minVotes:  minVotes,
		absentees: cfg.Absentees,
		retries:   retries,
		backoff:   backoff,
		topo:      topo,
	}, nil
}

// Players implements core.Protocol.
func (c *Cluster) Players() int { return c.k }

// MaxSamplesPerPlayer implements core.Protocol.
func (c *Cluster) MaxSamplesPerPlayer() int { return c.q }

// tolerant reports whether the cluster runs in quorum mode, where node
// failures are tolerated down to MinVotes; otherwise it is strict: all k
// votes are required, exactly the paper's model, and any failure aborts
// the round.
func (c *Cluster) tolerant() bool { return c.minVotes < c.k }

// buildNodes constructs all k player nodes before any goroutine is
// spawned: a construction error must not leave already-spawned nodes
// running against a live listener. Nodes carry no generator — each derives
// its randomness per trial from the ROUND_BATCH trial range and its id —
// and no sampler: the session stages each batch's samplers (samplerStage).
func (c *Cluster) buildNodes() ([]*PlayerNode, error) {
	nodes := make([]*PlayerNode, c.k)
	for i := 0; i < c.k; i++ {
		node, err := NewPlayerNode(uint32(i), c.q, c.rule, c.timeout)
		if err != nil {
			return nil, err
		}
		node.SetRetryPolicy(c.retries, c.backoff)
		nodes[i] = node
	}
	return nodes, nil
}

// Run implements core.Protocol: it executes one networked trial against
// the sampler and returns the referee's verdict. The trial is trial 0 of
// a base seed drawn from rng, so its public coin is
// engine.SharedSeed(rng.Uint64(), 0); every node derives its private
// stream from that coin and its id, so runs are reproducible for a fixed
// rng state even though nodes execute concurrently.
func (c *Cluster) Run(sampler dist.Sampler, rng *rand.Rand) (bool, error) {
	return c.RunContext(context.Background(), sampler, rng)
}

// RunContext is Run with cancellation.
func (c *Cluster) RunContext(ctx context.Context, sampler dist.Sampler, rng *rand.Rand) (bool, error) {
	accept, _, err := c.RunStats(ctx, sampler, rng)
	return accept, err
}

// RunStats is RunContext with the trial's accounting: votes received,
// stragglers tolerated, node-side connect retries, and wall time. It is
// RunManyStats with one round.
func (c *Cluster) RunStats(ctx context.Context, sampler dist.Sampler, rng *rand.Rand) (bool, engine.RoundResult, error) {
	verdicts, results, err := c.RunManyStats(ctx, sampler, rng, 1)
	if err != nil {
		return false, engine.RoundResult{}, err
	}
	return verdicts[0], results[0], nil
}

// RunManyStats runs a multi-round session end to end: one connection per
// node for all rounds, one verdict and one engine.RoundResult per round.
// The majority of the verdicts is the amplified decision (see
// core.Amplify). It is one engine call on a cluster backend of its own,
// which it closes before it returns, so a Cluster holds nothing between
// calls. Round i is engine trial i of a base seed drawn from rng, so its
// public coin is engine.SharedSeed(base, i) and a session's verdict
// sequence reproduces the in-process SMP backend's. Rounds run
// lock-step on one worker, each a batch of one trial decided before the
// next is issued, so a fault injected in one round (a crash, a
// corrupted vote, a delay past the deadline) has settled its player's
// slot before the next round's ROUND_BATCH goes out. With
// ClusterConfig.MinVotes set, node failures injected by faults are
// tolerated down to the quorum and a failed player stays absent for the
// rest of the session.
func (c *Cluster) RunManyStats(ctx context.Context, sampler dist.Sampler, rng *rand.Rand, rounds int) ([]bool, []engine.RoundResult, error) {
	if sampler == nil {
		return nil, nil, fmt.Errorf("network: nil sampler")
	}
	if rng == nil {
		return nil, nil, fmt.Errorf("network: nil rng")
	}
	if rounds < 1 {
		return nil, nil, fmt.Errorf("network: session with %d rounds", rounds)
	}
	b := &clusterBackend{c: c}
	results, err := engine.Run(ctx, b, engine.Fixed(sampler), rounds, engine.Options{Workers: 1, Seed: rng.Uint64()})
	if closeErr := b.Close(); err == nil {
		err = closeErr
	}
	if err != nil {
		return nil, nil, err
	}
	verdicts := make([]bool, rounds)
	for i, r := range results {
		verdicts[i] = r.Verdict
	}
	return verdicts, results, nil
}

// RunMany is RunManyStats without the statistics.
func (c *Cluster) RunMany(ctx context.Context, sampler dist.Sampler, rng *rand.Rand, rounds int) ([]bool, error) {
	verdicts, _, err := c.RunManyStats(ctx, sampler, rng, rounds)
	return verdicts, err
}

// MajorityVerdict reduces a session's verdicts to the amplified decision.
func MajorityVerdict(verdicts []bool) (bool, error) {
	if len(verdicts) == 0 {
		return false, fmt.Errorf("network: majority of zero verdicts")
	}
	accepts := 0
	for _, v := range verdicts {
		if v {
			accepts++
		}
	}
	return 2*accepts > len(verdicts), nil
}
