package network

import (
	"context"
	"errors"
	"fmt"

	"github.com/distributed-uniformity/dut/internal/dist"
	"github.com/distributed-uniformity/dut/internal/engine"
)

// clusterBackend runs engine trials through batch sessions. The trial's
// public coin is engine.SharedSeed(spec.Seed, spec.Trial), which every
// node derives from the chunk's ROUND_BATCH trial range, so verdicts
// are bit-identical to the in-process SMP backend's for the same engine
// seed. It implements engine.BatchBackend: each driver worker keeps one
// live session in its scratch, opened on its first chunk and reused for
// every later one; the per-trial methods are chunks of one trial.
type clusterBackend struct {
	c *Cluster
}

var _ engine.BatchBackend = (*clusterBackend)(nil)

// NewBackend adapts a Cluster to the engine's Backend interface. The
// backend drives the cluster's own topology: ClusterConfig.Shards,
// AggregatorWeights and ShardSeed choose the flat star or the referee
// tree, so a flat and a sharded backend side by side are two clusters.
func NewBackend(c *Cluster) (engine.Backend, error) {
	if c == nil {
		return nil, fmt.Errorf("network: nil cluster")
	}
	return &clusterBackend{c: c}, nil
}

// Players implements engine.Backend.
func (b *clusterBackend) Players() int { return b.c.k }

// ErrChunkNotConsecutive is a chunk that breaks the engine's batch
// contract: spec i must be trial specs[0].Trial+i of seed specs[0].Seed.
// A ROUND_BATCH names a trial range, not a list of coins, so any other
// chunk would have its nodes derive the wrong public coins.
var ErrChunkNotConsecutive = errors.New("network: chunk specs are not consecutive trials of one seed")

// clusterScratch is one engine worker's reusable cluster state: a live
// batch session, created lazily on the worker's first chunk and reused
// across every chunk the worker runs, plus the chunk's sampler buffer.
// The engine closes it (io.Closer) when the worker exits.
type clusterScratch struct {
	batch    *batchSession
	samplers []dist.Sampler
}

// Close implements io.Closer: it finishes the worker's batch session,
// if one was started.
func (s *clusterScratch) Close() error {
	if s.batch == nil {
		return nil
	}
	err := s.batch.Close()
	s.batch = nil
	return err
}

// NewScratch implements engine.ScratchBackend; the session itself opens
// on the first chunk.
func (b *clusterBackend) NewScratch() any { return &clusterScratch{} }

// RunRound implements engine.Backend: one trial on a session of its own.
func (b *clusterBackend) RunRound(ctx context.Context, spec engine.RoundSpec) (engine.RoundResult, error) {
	var cs clusterScratch
	res, err := b.RunRoundScratch(ctx, spec, &cs)
	if closeErr := cs.Close(); err == nil && closeErr != nil {
		return engine.RoundResult{}, closeErr
	}
	return res, err
}

// RunRoundScratch implements engine.ScratchBackend: a chunk of one trial.
func (b *clusterBackend) RunRoundScratch(ctx context.Context, spec engine.RoundSpec, scratch any) (engine.RoundResult, error) {
	specs := [1]engine.RoundSpec{spec}
	var out [1]engine.RoundResult
	if err := b.RunRoundsScratch(ctx, scratch, specs[:], 1, out[:]); err != nil {
		return engine.RoundResult{}, err
	}
	return out[0], nil
}

// RunRoundsScratch implements engine.BatchBackend: the worker's chunk
// of trials runs through its persistent session — ROUND_BATCH frames
// naming up to batch trials, every batch of the chunk in flight at once,
// packed VOTE_BATCH gathering and per-batch verdict evaluation for any
// message width, on the flat star or the configured referee tree. The
// chunk must be the engine's documented len(specs) consecutive trials of
// one seed; any other chunk is ErrChunkNotConsecutive before a session
// opens or a frame is sent.
//
//dut:hotpath
func (b *clusterBackend) RunRoundsScratch(ctx context.Context, scratch any, specs []engine.RoundSpec, batch int, out []engine.RoundResult) error {
	if len(out) != len(specs) {
		return fmt.Errorf("network: %d results for %d specs", len(out), len(specs))
	}
	cs, ok := scratch.(*clusterScratch)
	if !ok {
		return fmt.Errorf("network: foreign scratch %T", scratch)
	}
	if len(specs) == 0 {
		return nil
	}
	batch = min(max(batch, 1), MaxBatchTrials)
	base, first := specs[0].Seed, specs[0].Trial
	samplers := cs.samplers[:0]
	for i, spec := range specs {
		if spec.Sampler == nil {
			return fmt.Errorf("network: nil sampler")
		}
		if spec.Seed != base || spec.Trial != first+i {
			return fmt.Errorf("%w: spec %d is trial %d of seed %#x, want trial %d of seed %#x",
				ErrChunkNotConsecutive, i, spec.Trial, spec.Seed, first+i, base)
		}
		samplers = append(samplers, spec.Sampler)
	}
	cs.samplers = samplers
	if cs.batch == nil {
		sess, err := newBatchSession(ctx, b.c)
		if err != nil {
			return err
		}
		cs.batch = sess
	}
	return cs.batch.runChunk(ctx, base, first, samplers, batch, out)
}
