package core

import (
	"fmt"
	"math/rand/v2"

	"github.com/distributed-uniformity/dut/internal/dist"
	"github.com/distributed-uniformity/dut/internal/engine"
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
	// total is sum_i q_i and bits the rule's message width, both read
	// once at construction.
	total int
	bits  int
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
	bits := local.Bits()
	if bits < 1 || bits > 64 {
		return nil, fmt.Errorf("core: rule uses %d message bits, want 1..64", bits)
	}
	cp := make([]int, len(qs))
	total := 0
	for i, q := range qs {
		cp[i] = q
		total += q
	}
	return &SMP{qs: cp, local: local, referee: referee, total: total, bits: bits}, nil
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
func (p *SMP) TotalSamples() int { return p.total }

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
// seeds produce identical messages on every backend. A message wider
// than the rule's Bits is an error, as it is on every backend.
func (p *SMP) RunMessagesSeeded(sampler dist.Sampler, shared uint64) ([]Message, error) {
	rs := p.newRoundScratch()
	if err := p.runMessagesScratch(sampler, shared, rs); err != nil {
		return nil, err
	}
	return rs.msgs, nil
}

// roundScratch is one worker's reusable round state: the sample buffer
// every player's batch lands in, the reseedable per-player generator and
// the message slice the referee decides over. One roundScratch serves
// any number of sequential rounds; it must not be shared across
// goroutines.
type roundScratch struct {
	buf  []int
	rng  *engine.ReusableRNG
	msgs []Message
}

// newRoundScratch sizes a roundScratch for this protocol.
func (p *SMP) newRoundScratch() *roundScratch {
	return &roundScratch{
		buf:  make([]int, p.MaxSamplesPerPlayer()),
		rng:  engine.NewReusableRNG(),
		msgs: make([]Message, len(p.qs)),
	}
}

// runMessagesScratch is the batch vote path behind RunMessagesSeeded:
// every player's samples are drawn in one ReusableRNG.SampleInto batch
// into the scratch buffer, and the per-player stream comes from the
// scratch's reseeded generator — the exact stream engine.NodeRNG would
// allocate, so scratch rounds are bit-identical to allocating ones.
func (p *SMP) runMessagesScratch(sampler dist.Sampler, shared uint64, rs *roundScratch) error {
	if sampler == nil {
		return fmt.Errorf("core: nil sampler")
	}
	for i, q := range p.qs {
		rng := rs.rng.SeedNode(shared, i)
		samples := rs.buf[:q]
		rs.rng.SampleInto(sampler, samples)
		m, err := p.local.Message(i, samples, shared, rng)
		if err != nil {
			return fmt.Errorf("core: player %d: %w", i, err)
		}
		if p.bits < 64 && m >= 1<<p.bits {
			return fmt.Errorf("core: player %d message %#x wider than the rule's %d bits", i, uint64(m), p.bits)
		}
		rs.msgs[i] = m
	}
	return nil
}

// runSeededScratch is RunSeeded over a reusable roundScratch: zero
// allocations per round for the stock referees, whose Decide counts over
// the messages.
func (p *SMP) runSeededScratch(sampler dist.Sampler, shared uint64, rs *roundScratch) (bool, error) {
	if err := p.runMessagesScratch(sampler, shared, rs); err != nil {
		return false, err
	}
	return p.referee.Decide(rs.msgs)
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
	return p.runSeededScratch(sampler, shared, p.newRoundScratch())
}
