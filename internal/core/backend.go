package core

import (
	"context"
	"fmt"
	"math/rand/v2"

	"github.com/distributed-uniformity/dut/internal/dist"
	"github.com/distributed-uniformity/dut/internal/engine"
)

// BackendFor adapts a Protocol to the engine's Backend interface. A
// *SMP gets the fully deterministic treatment — per-player streams
// derived from the round's public coin, so its verdicts are
// bit-reproducible against the networked and CONGEST backends. A
// Protocol that builds its own backend gets it: a *network.Cluster gets
// network.NewBackend, whose verdicts equal the *SMP backend's and which
// keeps sessions open until it is closed (engine.Engine.Close). Any
// other Protocol runs against the per-trial stream (deterministic in
// (seed, trial), but with no cross-backend vote identity).
func BackendFor(p Protocol) (engine.Backend, error) {
	if p == nil {
		return nil, fmt.Errorf("core: nil protocol")
	}
	if smp, ok := p.(*SMP); ok {
		return &smpBackend{p: smp, totalSamples: smp.TotalSamples()}, nil
	}
	if bp, ok := p.(backendProvider); ok {
		return bp.NewBackend()
	}
	return &protocolBackend{p: p}, nil
}

// backendProvider is a Protocol that builds its own engine backend
// (network.Cluster does). It is an interface because core cannot import
// the packages that implement it.
type backendProvider interface {
	NewBackend() (engine.Backend, error)
}

// runEngine runs fn on an engine over p's backend and closes the engine
// before it returns, so no session the backend keeps between calls
// outlives the call. A close error is reported when fn succeeded.
func runEngine(p Protocol, opts engine.Options, fn func(*engine.Engine) error) error {
	b, err := BackendFor(p)
	if err != nil {
		return err
	}
	e, err := engine.New(b, opts)
	if err != nil {
		return err
	}
	err = fn(e)
	if closeErr := e.Close(); err == nil {
		err = closeErr
	}
	return err
}

// smpBackend is the in-process SMP execution backend: one RunRound is one
// referee-model round with canonical engine RNG streams. It implements
// engine.ScratchBackend, so driver workers run the zero-allocation batch
// vote path with per-worker reusable buffers.
type smpBackend struct {
	p *SMP
	// totalSamples is precomputed so the hot path reports accounting
	// without re-summing per round.
	totalSamples int
}

var (
	_ engine.ScratchBackend = (*smpBackend)(nil)
	_ engine.BatchBackend   = (*smpBackend)(nil)
)

// smpRoundScratch is one worker's reusable round state: the protocol
// Scratch (sample buffer, reseedable RNG) plus the message
// slice the referee decides over.
type smpRoundScratch struct {
	sc   *Scratch
	msgs []Message
}

// Players implements engine.Backend.
func (b *smpBackend) Players() int { return b.p.Players() }

// NewScratch implements engine.ScratchBackend.
func (b *smpBackend) NewScratch() any {
	return &smpRoundScratch{sc: b.p.NewScratch(), msgs: make([]Message, b.p.Players())}
}

// RunRound implements engine.Backend.
func (b *smpBackend) RunRound(ctx context.Context, spec engine.RoundSpec) (engine.RoundResult, error) {
	return b.RunRoundScratch(ctx, spec, b.NewScratch())
}

// RunRoundScratch implements engine.ScratchBackend: a chunk of one
// trial through RunRoundsScratch.
//
//dut:hotpath
func (b *smpBackend) RunRoundScratch(ctx context.Context, spec engine.RoundSpec, scratch any) (engine.RoundResult, error) {
	specs := [1]engine.RoundSpec{spec}
	var out [1]engine.RoundResult
	if err := b.RunRoundsScratch(ctx, scratch, specs[:], 1, out[:]); err != nil {
		return engine.RoundResult{}, err
	}
	return out[0], nil
}

// RunRoundsScratch implements engine.BatchBackend. In-process rounds
// have no per-round synchronization to amortize, so the batch is the
// scratch path looped — same buffers, same per-trial derivations,
// bit-identical verdicts — with the per-trial overheads (context check,
// clock reads) hoisted to one per chunk; the chunk's elapsed time is
// spread over its trials remainder-exactly by engine.SpreadWall.
//
//dut:hotpath
func (b *smpBackend) RunRoundsScratch(ctx context.Context, scratch any, specs []engine.RoundSpec, _ int, out []engine.RoundResult) error {
	if len(out) != len(specs) {
		return fmt.Errorf("core: %d results for %d specs", len(out), len(specs))
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	rs, ok := scratch.(*smpRoundScratch)
	if !ok {
		return fmt.Errorf("core: foreign scratch %T", scratch)
	}
	k := b.p.Players()
	sw := engine.StartStopwatch()
	for i, spec := range specs {
		shared := engine.SharedSeed(spec.Seed, spec.Trial)
		accept, err := b.p.runSeededScratch(spec.Sampler, shared, rs.msgs, rs.sc)
		if err != nil {
			return err
		}
		out[i] = engine.RoundResult{
			Verdict:  accept,
			Votes:    k,
			Messages: k,
			Samples:  b.totalSamples,
		}
	}
	engine.SpreadWall(out, sw.Elapsed())
	return nil
}

// contextProtocol is the optional context-aware run surface a Protocol
// may expose (AmplifiedProtocol does); the generic backend prefers it so
// driver cancellation reaches mid-round waits.
type contextProtocol interface {
	RunContext(ctx context.Context, sampler dist.Sampler, rng *rand.Rand) (bool, error)
}

// protocolBackend runs any Protocol against the engine's per-trial
// stream.
type protocolBackend struct {
	p Protocol
}

// Players implements engine.Backend.
func (b *protocolBackend) Players() int { return b.p.Players() }

// RunRound implements engine.Backend.
func (b *protocolBackend) RunRound(ctx context.Context, spec engine.RoundSpec) (engine.RoundResult, error) {
	if err := ctx.Err(); err != nil {
		return engine.RoundResult{}, err
	}
	sw := engine.StartStopwatch()
	rng := engine.TrialRNG(spec.Seed, spec.Trial)
	var (
		accept bool
		err    error
	)
	if cp, ok := b.p.(contextProtocol); ok {
		accept, err = cp.RunContext(ctx, spec.Sampler, rng)
	} else {
		accept, err = b.p.Run(spec.Sampler, rng)
	}
	if err != nil {
		return engine.RoundResult{}, err
	}
	samples := b.p.Players() * b.p.MaxSamplesPerPlayer()
	if ts, ok := b.p.(interface{ TotalSamples() int }); ok {
		samples = ts.TotalSamples()
	}
	return engine.RoundResult{
		Verdict: accept,
		Votes:   b.p.Players(),
		Samples: samples,
		Wall:    sw.Elapsed(),
	}, nil
}
