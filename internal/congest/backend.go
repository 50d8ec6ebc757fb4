package congest

import (
	"context"
	"fmt"

	"github.com/distributed-uniformity/dut/internal/engine"
)

// testerBackend runs each engine trial as one CONGEST execution: votes
// derived from engine.NodeRNG(shared, node), then BFS-tree aggregation
// on the simulator. Each trial reads its rounds and messages from its
// worker's own simulator, so concurrent trials on the engine's worker
// pool share no state.
type testerBackend struct {
	t *Tester
}

var (
	_ engine.ScratchBackend = (*testerBackend)(nil)
	_ engine.BatchBackend   = (*testerBackend)(nil)
)

// NewBackend adapts a Tester to the engine's Backend interface.
func NewBackend(t *Tester) (engine.Backend, error) {
	if t == nil {
		return nil, fmt.Errorf("congest: nil tester")
	}
	return &testerBackend{t: t}, nil
}

// NewBackend is NewBackend(t): the backend core.BackendFor builds for
// the tester, so its trials take the engine's coins and decide as the
// SMP backend's do.
func (t *Tester) NewBackend() (engine.Backend, error) { return NewBackend(t) }

// Players implements engine.Backend.
func (b *testerBackend) Players() int { return b.t.Players() }

// NewScratch implements engine.ScratchBackend: per-worker sample buffer,
// reseedable node generator, node state machines and simulator, built in
// a constant number of allocations over the Tester's shared topology.
func (b *testerBackend) NewScratch() any { return b.t.newScratch() }

// RunRound implements engine.Backend.
func (b *testerBackend) RunRound(ctx context.Context, spec engine.RoundSpec) (engine.RoundResult, error) {
	return b.RunRoundScratch(ctx, spec, b.t.newScratch())
}

// RunRoundScratch implements engine.ScratchBackend: a chunk of one
// trial through RunRoundsScratch.
//
//dut:hotpath
func (b *testerBackend) RunRoundScratch(ctx context.Context, spec engine.RoundSpec, scratch any) (engine.RoundResult, error) {
	specs := [1]engine.RoundSpec{spec}
	var out [1]engine.RoundResult
	if err := b.RunRoundsScratch(ctx, scratch, specs[:], 1, out[:]); err != nil {
		return engine.RoundResult{}, err
	}
	return out[0], nil
}

// RunRoundsScratch implements engine.BatchBackend: the scratch path
// looped, with the per-trial node-program construction and the
// simulator's round buffers amortized across the whole batch (the
// scratch holds reset-able node state machines and a reusable
// simulator), and the per-trial overheads (context check, clock reads)
// hoisted to one per chunk — the chunk's elapsed time is spread over
// its trials remainder-exactly by engine.SpreadWall. Verdicts are
// bit-identical to the unbatched path — the per-trial derivations are
// unchanged, only the allocations moved.
//
//dut:hotpath
func (b *testerBackend) RunRoundsScratch(ctx context.Context, scratch any, specs []engine.RoundSpec, _ int, out []engine.RoundResult) error {
	if len(out) != len(specs) {
		return fmt.Errorf("congest: %d results for %d specs", len(out), len(specs))
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	sc, ok := scratch.(*runScratch)
	if !ok {
		return fmt.Errorf("congest: foreign scratch %T", scratch)
	}
	n := b.t.Players()
	sw := engine.StartStopwatch()
	for i, spec := range specs {
		shared := engine.SharedSeed(spec.Seed, spec.Trial)
		accept, sim, err := b.t.runSeededScratch(spec.Sampler, shared, sc)
		if err != nil {
			return err
		}
		out[i] = engine.RoundResult{
			Verdict:    accept,
			Votes:      n,
			Samples:    n * b.t.q,
			Messages:   sim.MessagesSent(),
			CommRounds: sim.Rounds(),
		}
	}
	engine.SpreadWall(out, sw.Elapsed())
	return nil
}
