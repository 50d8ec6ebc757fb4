package engine

import (
	"math/rand/v2"

	"github.com/distributed-uniformity/dut/internal/dist"
)

// splitmix64 is the finalizer of the SplitMix64 generator (Steele, Lea,
// Flood 2014): a bijective avalanche mix used to derive independent
// PCG streams from structured (seed, trial, player) coordinates.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SharedSeed derives the public-coin seed of one trial from the engine's
// base seed. Every player of the trial observes this value (a networked
// node derives it from the base seed and trial its ROUND_BATCH frame
// names), and all per-player streams derive from it.
func SharedSeed(seed uint64, trial int) uint64 {
	return splitmix64(seed ^ splitmix64(uint64(trial)))
}

// nodeSeeds is the PCG seed pair of a player's private stream for a round
// with the given public-coin seed; NodeRNG and ReusableRNG.SeedNode share
// it so the reseeding path reproduces the allocating one bit for bit.
func nodeSeeds(shared uint64, player int) (uint64, uint64) {
	a := splitmix64(shared ^ (uint64(player)+1)*0x9e3779b97f4a7c15)
	b := splitmix64(a ^ 0xd6e8feb86659fd93)
	return a, b
}

// PCGSeed is the seed pair of one player's private PCG stream in one
// trial: the state NodeRNG(shared, player) starts from. Only
// NodeSeedBlock derives one, and ReusableRNG.SeedPCG seats it.
type PCGSeed struct{ a, b uint64 }

// NodeSeedBlock derives, for the len(coins) consecutive trials first,
// first+1, ..., each trial's public coin and player's PCG seed pair under
// it: coins[i] = SharedSeed(seed, first+i), and seeds[i] seats the
// stream NodeRNG(coins[i], player) would allocate. seeds must hold at
// least len(coins) pairs. The trials' splitmix64 chains are independent,
// so one pass over a block lets the CPU overlap them, where a
// SharedSeed then SeedNode per trial runs four dependent mixes in line
// with that trial's sampling and vote.
func NodeSeedBlock(coins []uint64, seeds []PCGSeed, seed uint64, first, player int) {
	seeds = seeds[:len(coins)]
	for i := range coins {
		shared := SharedSeed(seed, first+i)
		coins[i] = shared
		seeds[i].a, seeds[i].b = nodeSeeds(shared, player)
	}
}

// trialSeeds is the PCG seed pair of the per-trial stream; TrialRNG and
// ReusableRNG.SeedTrial share it.
func trialSeeds(seed uint64, trial int) (uint64, uint64) {
	s := SharedSeed(seed, trial)
	a := splitmix64(s ^ 0xa0761d6478bd642f)
	b := splitmix64(a ^ 0xe7037ed1a0b428db)
	return a, b
}

// farSeedSalt decorrelates the far-side estimate stream from the null
// side. Recorded results depend on its value, which must not change.
const farSeedSalt = 0x517cc1b727220a95

// FarSeed derives the base seed of a far-source estimate from the null
// side's base seed, keeping both sides of a Separates run on disjoint
// stream families. This is the only sanctioned seed-vs-seed derivation
// outside the splitmix64 helpers above.
func FarSeed(seed uint64) uint64 {
	return seed ^ farSeedSalt
}

// NodeRNG derives a player's private generator for a round with the given
// public-coin seed. The stream is a pure function of (shared, player), so
// an in-process simulator and a remote node reconstruct identical streams
// from the round seed alone. The player draws its samples and any private
// coins from this generator, in that order.
func NodeRNG(shared uint64, player int) *rand.Rand {
	a, b := nodeSeeds(shared, player)
	return rand.New(rand.NewPCG(a, b))
}

// PlayerRNG is the composed derivation NodeRNG(SharedSeed(seed, trial),
// player): the canonical per-(seed, trial, player) stream of the engine.
func PlayerRNG(seed uint64, trial, player int) *rand.Rand {
	return NodeRNG(SharedSeed(seed, trial), player)
}

// TrialRNG derives the per-trial generator handed to a Source, used for
// randomness above the protocol (e.g. drawing a fresh perturbed
// distribution for the averaged adversary). Its lane is disjoint from
// every player stream of the same trial.
func TrialRNG(seed uint64, trial int) *rand.Rand {
	a, b := trialSeeds(seed, trial)
	return rand.New(rand.NewPCG(a, b))
}

// ReusableRNG is an allocation-free stand-in for NodeRNG/TrialRNG on hot
// paths: it holds one dist.PCG by value and one rand.Rand over it, both
// allocated at construction, and reseeds the PCG in place per (trial) or
// per (round, player). dist.PCG is math/rand/v2's
// PCG word for word, so each Seed* call returns the same *rand.Rand
// positioned at the start of exactly the stream the allocating
// derivation would produce, and batch paths that reuse one ReusableRNG
// stay bit-identical to per-call NodeRNG/TrialRNG users. SampleInto
// draws from the PCG behind that view, so a player's samples and its
// later private coins read one stream, in that order. Not safe for
// concurrent use; give each worker its own.
type ReusableRNG struct {
	pcg  dist.PCG
	rand *rand.Rand
}

// NewReusableRNG allocates the generator and its rand.Rand view once.
func NewReusableRNG() *ReusableRNG {
	r := &ReusableRNG{}
	r.rand = rand.New(&r.pcg)
	return r
}

// SeedNode repositions the generator at the start of NodeRNG(shared,
// player)'s stream and returns it.
func (r *ReusableRNG) SeedNode(shared uint64, player int) *rand.Rand {
	r.pcg.Seed(nodeSeeds(shared, player))
	return r.rand
}

// SeedPCG repositions the generator at the start of the stream a
// NodeSeedBlock pair seats, NodeRNG(coins[i], player)'s, and returns the
// same *rand.Rand SeedNode returns.
func (r *ReusableRNG) SeedPCG(s PCGSeed) *rand.Rand {
	r.pcg.Seed(s.a, s.b)
	return r.rand
}

// SeedTrial repositions the generator at the start of TrialRNG(seed,
// trial)'s stream and returns it.
func (r *ReusableRNG) SeedTrial(seed uint64, trial int) *rand.Rand {
	r.pcg.Seed(trialSeeds(seed, trial))
	return r.rand
}

// SampleInto fills dst with samples from s, continuing the stream the
// last Seed* call positioned. The sampler's kernel draws straight from
// the PCG behind the *rand.Rand view and consumes exactly the draws
// len(dst) Sample calls on that view would, so the rule's coins that
// follow read the same words.
//
//dut:hotpath
func (r *ReusableRNG) SampleInto(s dist.Sampler, dst []int) {
	s.SampleInto(dst, &r.pcg)
}
