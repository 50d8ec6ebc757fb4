package congest

import (
	"context"
	"fmt"

	"github.com/distributed-uniformity/dut/internal/engine"
)

// NewBackend adapts a Tester to the engine's Backend interface: each
// engine trial is one CONGEST execution on the worker's runScratch —
// votes derived from engine.NodeRNG(shared, node), then BFS-tree
// aggregation on the worker's own simulator, so concurrent trials on
// the engine's worker pool share no state.
func NewBackend(t *Tester) (engine.Backend, error) {
	if t == nil {
		return nil, fmt.Errorf("congest: nil tester")
	}
	return &engine.Loop[*runScratch]{K: t.Players(), Scratch: t.newScratch, Trial: t.runTrial}, nil
}

// NewBackend is NewBackend(t): the backend core.BackendFor builds for
// the tester, so its trials take the engine's coins and decide as the
// SMP backend's do.
func (t *Tester) NewBackend() (engine.Backend, error) { return NewBackend(t) }

// runTrial is the tester's engine trial: one CONGEST round on the trial's
// public coin, reporting the rounds and messages of its own execution.
//
//dut:hotpath
func (t *Tester) runTrial(_ context.Context, sc *runScratch, spec engine.RoundSpec) (engine.RoundResult, error) {
	accept, sim, err := t.runSeededScratch(spec.Sampler, engine.SharedSeed(spec.Seed, spec.Trial), sc)
	if err != nil {
		return engine.RoundResult{}, err
	}
	n := t.Players()
	return engine.RoundResult{
		Verdict:    accept,
		Votes:      n,
		Samples:    n * t.q,
		Messages:   sim.MessagesSent(),
		CommRounds: sim.Rounds(),
	}, nil
}
