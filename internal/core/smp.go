package core

import (
	"context"
	"fmt"
	"math/rand/v2"

	"github.com/distributed-uniformity/dut/internal/dist"
	"github.com/distributed-uniformity/dut/internal/engine"
	"github.com/distributed-uniformity/dut/internal/stats"
)

// Protocol is a complete distributed tester: one Run draws fresh samples
// for every player and returns the referee's verdict.
type Protocol interface {
	// Run executes the protocol once against the unknown distribution
	// represented by the sampler; true means accept.
	Run(sampler dist.Sampler, rng *rand.Rand) (bool, error)
	// Players returns k.
	Players() int
	// MaxSamplesPerPlayer returns the largest per-player sample count.
	MaxSamplesPerPlayer() int
}

// SMP is the simultaneous-message protocol runner: k players with
// (possibly heterogeneous) sample counts, one LocalRule, one Referee, and a
// fresh public-coin seed per run.
type SMP struct {
	qs      []int
	local   LocalRule
	referee Referee
}

var _ Protocol = (*SMP)(nil)

// NewSMP builds a protocol with k players of q samples each.
func NewSMP(k, q int, local LocalRule, referee Referee) (*SMP, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: protocol with %d players", k)
	}
	if q < 0 {
		return nil, fmt.Errorf("core: protocol with %d samples per player", q)
	}
	qs := make([]int, k)
	for i := range qs {
		qs[i] = q
	}
	return NewAsymmetricSMP(qs, local, referee)
}

// NewAsymmetricSMP builds a protocol where player i draws qs[i] samples —
// the asymmetric-cost model of the paper's Section 6.2.
func NewAsymmetricSMP(qs []int, local LocalRule, referee Referee) (*SMP, error) {
	if len(qs) == 0 {
		return nil, fmt.Errorf("core: protocol with zero players")
	}
	for i, q := range qs {
		if q < 0 {
			return nil, fmt.Errorf("core: player %d with %d samples", i, q)
		}
	}
	if local == nil {
		return nil, fmt.Errorf("core: nil local rule")
	}
	if referee == nil {
		return nil, fmt.Errorf("core: nil referee")
	}
	cp := make([]int, len(qs))
	copy(cp, qs)
	return &SMP{qs: cp, local: local, referee: referee}, nil
}

// Players returns k.
func (p *SMP) Players() int { return len(p.qs) }

// MaxSamplesPerPlayer returns max_i q_i.
func (p *SMP) MaxSamplesPerPlayer() int {
	m := 0
	for _, q := range p.qs {
		if q > m {
			m = q
		}
	}
	return m
}

// TotalSamples returns sum_i q_i.
func (p *SMP) TotalSamples() int {
	total := 0
	for _, q := range p.qs {
		total += q
	}
	return total
}

// Local returns the protocol's local rule.
func (p *SMP) Local() LocalRule { return p.local }

// RefereeFunc returns the protocol's referee.
func (p *SMP) RefereeFunc() Referee { return p.referee }

// RunMessages executes one round and returns the raw messages, for
// referees that need more than a verdict (e.g. learning). The public-coin
// seed is drawn from rng; everything else derives from that seed via
// RunMessagesSeeded.
func (p *SMP) RunMessages(sampler dist.Sampler, rng *rand.Rand) ([]Message, error) {
	if rng == nil {
		return nil, fmt.Errorf("core: nil rng")
	}
	return p.RunMessagesSeeded(sampler, rng.Uint64())
}

// RunMessagesSeeded executes one round with an explicit public-coin seed.
// Player i draws its samples and private coins from engine.NodeRNG(shared,
// i) — the same derivation a networked node applies to the ROUND frame
// and a CONGEST node to the broadcast seed — so rounds with equal shared
// seeds produce identical messages on every backend.
func (p *SMP) RunMessagesSeeded(sampler dist.Sampler, shared uint64) ([]Message, error) {
	msgs := make([]Message, len(p.qs))
	if err := p.runMessagesScratch(sampler, shared, msgs, p.NewScratch()); err != nil {
		return nil, err
	}
	return msgs, nil
}

// Scratch is one worker's reusable per-round state for the batch vote
// path: the sample buffer every player's batch lands in and the
// reseedable per-player generator. One Scratch serves any number of
// sequential rounds; it must not be shared across goroutines.
type Scratch struct {
	buf []int
	rng *engine.ReusableRNG
}

// NewScratch sizes a Scratch for this protocol.
func (p *SMP) NewScratch() *Scratch {
	return &Scratch{
		buf: make([]int, p.MaxSamplesPerPlayer()),
		rng: engine.NewReusableRNG(),
	}
}

// runMessagesScratch is the batch vote path behind RunMessagesSeeded:
// every player's samples are drawn in one ReusableRNG.SampleInto batch
// into the scratch buffer, and the per-player stream comes from the
// scratch's reseeded generator — the exact stream engine.NodeRNG would
// allocate, so scratch rounds are bit-identical to allocating ones.
func (p *SMP) runMessagesScratch(sampler dist.Sampler, shared uint64, msgs []Message, sc *Scratch) error {
	if sampler == nil {
		return fmt.Errorf("core: nil sampler")
	}
	for i, q := range p.qs {
		rng := sc.rng.SeedNode(shared, i)
		samples := sc.buf[:q]
		sc.rng.SampleInto(sampler, samples)
		m, err := p.local.Message(i, samples, shared, rng)
		if err != nil {
			return fmt.Errorf("core: player %d: %w", i, err)
		}
		msgs[i] = m
	}
	return nil
}

// runSeededScratch is RunSeeded over a reusable Scratch and message
// slice: zero allocations per round for the stock referees, whose Decide
// counts over the messages.
func (p *SMP) runSeededScratch(sampler dist.Sampler, shared uint64, msgs []Message, sc *Scratch) (bool, error) {
	if err := p.runMessagesScratch(sampler, shared, msgs, sc); err != nil {
		return false, err
	}
	return p.referee.Decide(msgs)
}

// Run executes one round end to end.
func (p *SMP) Run(sampler dist.Sampler, rng *rand.Rand) (bool, error) {
	msgs, err := p.RunMessages(sampler, rng)
	if err != nil {
		return false, err
	}
	return p.referee.Decide(msgs)
}

// RunSeeded executes one round end to end with an explicit public-coin
// seed; see RunMessagesSeeded for the derivation contract.
func (p *SMP) RunSeeded(sampler dist.Sampler, shared uint64) (bool, error) {
	msgs, err := p.RunMessagesSeeded(sampler, shared)
	if err != nil {
		return false, err
	}
	return p.referee.Decide(msgs)
}

// EstimateAcceptance measures Pr[protocol accepts] against the given
// distribution by Monte Carlo, with a Wilson confidence interval.
//
// This is a compatibility wrapper over the unified trial driver
// (internal/engine): trials run on the engine's worker pool, abort as
// soon as any trial errors, and take their randomness from the engine's
// (seed, trial, player) streams, so results no longer depend on
// Parallelism. New code should build a backend with BackendFor and call
// engine.Estimate (or dut.NewEngine) directly.
func EstimateAcceptance(p Protocol, d dist.Dist, trials int, opts stats.EstimateOptions) (stats.SuccessEstimate, error) {
	var est stats.SuccessEstimate
	err := runEngine(p, engine.FromEstimateOptions(opts), func(e *engine.Engine) error {
		src, err := engine.FromDist(d)
		if err != nil {
			return err
		}
		res, err := e.Estimate(context.Background(), src, trials)
		est = res.Estimate
		return err
	})
	if err != nil {
		return stats.SuccessEstimate{}, err
	}
	return est, nil
}

// Separates reports whether the protocol both accepts `null` and rejects
// `far` with probability at least target (e.g. 2/3), with the measured
// acceptance probabilities. The decision uses the Wilson interval bounds
// rather than the raw point estimates, so a borderline configuration
// whose intervals straddle the target reports ok=false (inconclusive)
// instead of flapping with the seed; engine.Separates exposes the full
// three-valued outcome.
//
// This is a compatibility wrapper over the unified trial driver; new
// code should use engine.Separates via BackendFor (or dut.NewEngine).
func Separates(p Protocol, null, far dist.Dist, target float64, trials int, opts stats.EstimateOptions) (ok bool, acceptNull, acceptFar float64, err error) {
	var sep engine.Separation
	err = runEngine(p, engine.FromEstimateOptions(opts), func(e *engine.Engine) error {
		nullSrc, err := engine.FromDist(null)
		if err != nil {
			return err
		}
		farSrc, err := engine.FromDist(far)
		if err != nil {
			return err
		}
		sep, err = e.Separates(context.Background(), nullSrc, farSrc, target, trials)
		return err
	})
	if err != nil {
		return false, 0, 0, err
	}
	return sep.Outcome == engine.Separated, sep.Null.Estimate.P, sep.Far.Estimate.P, nil
}
