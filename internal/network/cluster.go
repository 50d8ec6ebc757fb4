package network

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
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
// the quorum and reported in RoundStats instead of failing the round.
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

// RunStats is RunContext with the trial's statistics: votes received,
// stragglers tolerated, node-side connect retries, and wall time.
func (c *Cluster) RunStats(ctx context.Context, sampler dist.Sampler, rng *rand.Rand) (bool, RoundStats, error) {
	if rng == nil {
		return false, RoundStats{}, fmt.Errorf("network: nil rng")
	}
	return c.RunRoundSeeded(ctx, sampler, rng.Uint64(), 0)
}

// RunRoundSeeded executes engine trial trial of base seed base: a session
// carrying a single batch of one trial. The ROUND_BATCH frame names the
// trial, and every node's samples and private coins derive from its
// public coin engine.SharedSeed(base, trial) and the node's id, making
// the verdict bit-identical to the in-process SMP simulator's for that
// coin.
func (c *Cluster) RunRoundSeeded(ctx context.Context, sampler dist.Sampler, base uint64, trial int) (bool, RoundStats, error) {
	if sampler == nil {
		return false, RoundStats{}, fmt.Errorf("network: nil sampler")
	}
	var out [1]engine.RoundResult
	if err := c.runSeeds(ctx, base, trial, []dist.Sampler{sampler}, out[:]); err != nil {
		return false, RoundStats{}, err
	}
	return out[0].Verdict, roundStats(0, out[0]), nil
}

// RunManyStats runs a multi-round session end to end: one connection per
// node for all rounds, one verdict and one RoundStats per round. The
// majority of the verdicts is the amplified decision (see core.Amplify).
// Round i's public coin is engine.SharedSeed(base, i) for a base seed
// drawn from rng, exactly as the engine derives trial seeds, so a
// session's verdict sequence reproduces the in-process SMP backend's.
// Rounds run lock-step, each a batch of one trial decided and answered
// before the next is issued, so a fault in one round's verdict relay
// lands before the next round's votes. With ClusterConfig.MinVotes set,
// node failures injected by faults are tolerated down to the quorum and
// a failed player stays absent for the rest of the session.
func (c *Cluster) RunManyStats(ctx context.Context, sampler dist.Sampler, rng *rand.Rand, rounds int) ([]bool, []RoundStats, error) {
	if sampler == nil {
		return nil, nil, fmt.Errorf("network: nil sampler")
	}
	if rng == nil {
		return nil, nil, fmt.Errorf("network: nil rng")
	}
	if rounds < 1 {
		return nil, nil, fmt.Errorf("network: session with %d rounds", rounds)
	}
	base := rng.Uint64()
	samplers := make([]dist.Sampler, rounds)
	for i := range samplers {
		samplers[i] = sampler
	}
	out := make([]engine.RoundResult, rounds)
	if err := c.runSeeds(ctx, base, 0, samplers, out); err != nil {
		return nil, nil, err
	}
	verdicts := make([]bool, rounds)
	stats := make([]RoundStats, rounds)
	for i, r := range out {
		verdicts[i] = r.Verdict
		stats[i] = roundStats(i, r)
	}
	return verdicts, stats, nil
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

// roundStats maps one trial's engine accounting onto the cluster's
// per-round stats.
func roundStats(round int, r engine.RoundResult) RoundStats {
	return RoundStats{
		Round:      round,
		Votes:      r.Votes,
		Stragglers: r.Stragglers,
		Retries:    r.Retries,
		Wall:       r.Wall,
		Verdict:    r.Verdict,
	}
}

// runSeeds runs one session of len(samplers) lock-step trials, engine
// trials first, first+1, ... of base seed base, with the cluster's own
// nodes over a fresh listener; see runSession.
func (c *Cluster) runSeeds(ctx context.Context, base uint64, first int, samplers []dist.Sampler, out []engine.RoundResult) error {
	nodes, err := c.buildNodes()
	if err != nil {
		return err
	}
	l, err := c.tr.Listen()
	if err != nil {
		return fmt.Errorf("network: listen: %w", err)
	}
	return c.runSession(ctx, l, nodes, base, first, samplers, out)
}

// runSession opens a session on l with the given nodes (nil when the
// players dial in from elsewhere), runs engine trial first+i of base
// seed base with samplers[i] as its own batch of one trial, lock-step,
// and closes the session. The session's accept phase is charged to the
// first trial's wall time, and every node connect retry lands on the
// first trial's Retries.
func (c *Cluster) runSession(ctx context.Context, l net.Listener, nodes []*PlayerNode, base uint64, first int, samplers []dist.Sampler, out []engine.RoundResult) error {
	sw := engine.StartStopwatch()
	bs, err := openBatchSession(ctx, c, l, nodes)
	if err != nil {
		return err
	}
	openWall := sw.Elapsed()
	var runErr error
	for i := range samplers {
		if runErr = bs.runChunk(ctx, base, first+i, samplers[i:i+1], 1, out[i:i+1]); runErr != nil {
			break
		}
	}
	closeErr := bs.Close()
	if runErr != nil {
		return runErr
	}
	if closeErr != nil {
		return closeErr
	}
	out[0].Wall += openWall
	retries := bs.takeRetries()
	for i := 1; i < len(out); i++ {
		retries += out[i].Retries
		out[i].Retries = 0
	}
	out[0].Retries += retries
	return nil
}
