package core

import (
	"context"
	"fmt"

	"github.com/distributed-uniformity/dut/internal/engine"
)

// BackendFor adapts a Protocol to the engine's Backend interface. A
// *SMP gets the fully deterministic treatment — per-player streams
// derived from the round's public coin, so its verdicts are
// bit-reproducible against the networked and CONGEST backends. A
// Protocol that builds its own backend gets it: a *network.Cluster gets
// network.NewBackend, which keeps sessions open until it is closed
// (engine.Engine.Close), and a *congest.Tester gets congest.NewBackend;
// both decide as the *SMP backend does, trial for trial. Any other
// Protocol runs each trial on a coin of its own: the trial's public-coin
// stream at player index k, a lane that no player and no Source draws
// from (deterministic in (seed, trial), but with no cross-backend vote
// identity). Its Run must not retain that generator, which the worker
// reseeds for its next trial.
func BackendFor(p Protocol) (engine.Backend, error) {
	if p == nil {
		return nil, fmt.Errorf("core: nil protocol")
	}
	if smp, ok := p.(*SMP); ok {
		return &engine.Loop[*roundScratch]{K: smp.Players(), Scratch: smp.newRoundScratch, Trial: smp.runTrial}, nil
	}
	if bp, ok := p.(backendProvider); ok {
		return bp.NewBackend()
	}
	k := p.Players()
	samples := k * p.MaxSamplesPerPlayer()
	return &engine.Loop[*engine.ReusableRNG]{K: k, Scratch: engine.NewReusableRNG,
		Trial: func(_ context.Context, rng *engine.ReusableRNG, spec engine.RoundSpec) (engine.RoundResult, error) {
			accept, err := p.Run(spec.Sampler, rng.SeedNode(engine.SharedSeed(spec.Seed, spec.Trial), k))
			if err != nil {
				return engine.RoundResult{}, err
			}
			return engine.RoundResult{Verdict: accept, Votes: k, Samples: samples}, nil
		}}, nil
}

// backendProvider is a Protocol that builds its own engine backend
// (network.Cluster and congest.Tester do). It is an interface because
// core cannot import the packages that implement it.
type backendProvider interface {
	NewBackend() (engine.Backend, error)
}

// runTrial is the SMP's engine trial: one referee-model round on the
// worker's scratch, with the canonical engine RNG streams of the trial's
// public coin.
//
//dut:hotpath
func (p *SMP) runTrial(_ context.Context, rs *roundScratch, spec engine.RoundSpec) (engine.RoundResult, error) {
	accept, err := p.runSeededScratch(spec.Sampler, engine.SharedSeed(spec.Seed, spec.Trial), rs)
	if err != nil {
		return engine.RoundResult{}, err
	}
	k := len(p.qs)
	return engine.RoundResult{Verdict: accept, Votes: k, Messages: k, Samples: p.total}, nil
}
