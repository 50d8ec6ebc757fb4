package core

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"

	"github.com/distributed-uniformity/dut/internal/dist"
	"github.com/distributed-uniformity/dut/internal/engine"
)

// AmplifiedProtocol runs an inner 2/3-correct protocol an odd number of
// times and outputs the majority verdict, driving the error probability
// down exponentially (Chernoff): rounds = O(log(1/delta)) reaches failure
// probability delta. This is the standard amplification the paper's
// inequality (10) prices in its log(1/delta) term — and the referee-side
// counterpart of what the sensors example does by hand.
type AmplifiedProtocol struct {
	inner  Protocol
	rounds int
}

var _ Protocol = (*AmplifiedProtocol)(nil)

// Amplify wraps a protocol with majority voting over an odd number of
// rounds.
func Amplify(inner Protocol, rounds int) (*AmplifiedProtocol, error) {
	if inner == nil {
		return nil, fmt.Errorf("core: amplifying a nil protocol")
	}
	if rounds < 1 || rounds%2 == 0 {
		return nil, fmt.Errorf("core: amplification needs an odd positive round count, got %d", rounds)
	}
	return &AmplifiedProtocol{inner: inner, rounds: rounds}, nil
}

// RoundsForFailure returns the odd round count sufficient for a
// 2/3-correct protocol to reach failure probability delta under majority
// voting, via the Chernoff bound exp(-rounds/18) on a mean-2/3 Binomial
// dipping below 1/2.
func RoundsForFailure(delta float64) (int, error) {
	if delta <= 0 || delta >= 1 {
		return 0, fmt.Errorf("core: target failure probability %v outside (0,1)", delta)
	}
	rounds := int(math.Ceil(18 * math.Log(1/delta)))
	if rounds%2 == 0 {
		rounds++
	}
	if rounds < 1 {
		rounds = 1
	}
	return rounds, nil
}

// Players implements Protocol.
func (a *AmplifiedProtocol) Players() int { return a.inner.Players() }

// MaxSamplesPerPlayer implements Protocol: per-player cost scales with the
// round count (fresh samples each round).
func (a *AmplifiedProtocol) MaxSamplesPerPlayer() int {
	return a.inner.MaxSamplesPerPlayer() * a.rounds
}

// Rounds returns the amplification factor.
func (a *AmplifiedProtocol) Rounds() int { return a.rounds }

// Run implements Protocol by majority vote over the inner rounds. The
// rounds execute on the engine's trial driver (one engine trial per
// amplification round), deriving their seeds from one draw of rng and
// aborting on the first error.
func (a *AmplifiedProtocol) Run(sampler dist.Sampler, rng *rand.Rand) (bool, error) {
	if rng == nil {
		return false, fmt.Errorf("core: nil rng")
	}
	return a.RunContext(context.Background(), sampler, rng)
}

// RunContext is Run with cancellation: a cancelled context aborts the
// remaining amplification rounds.
func (a *AmplifiedProtocol) RunContext(ctx context.Context, sampler dist.Sampler, rng *rand.Rand) (bool, error) {
	if rng == nil {
		return false, fmt.Errorf("core: nil rng")
	}
	var accept bool
	err := runEngine(a.inner, engine.Options{Seed: rng.Uint64()}, func(e *engine.Engine) error {
		var err error
		accept, _, err = e.Amplify(ctx, engine.Fixed(sampler), a.rounds)
		return err
	})
	if err != nil {
		return false, err
	}
	return accept, nil
}
