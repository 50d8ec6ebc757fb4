package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"sync"

	"github.com/distributed-uniformity/dut/internal/dist"
	"github.com/distributed-uniformity/dut/internal/stats"
)

// RoundSpec names one trial for a Backend: the trial index, the engine's
// base seed (backends derive the round's public coin via SharedSeed and
// per-player streams via NodeRNG), and the sampler for the unknown
// distribution. Backends whose samplers are fixed at construction time
// (e.g. a running cluster session) may ignore Sampler.
type RoundSpec struct {
	// Trial is the 0-based trial index within the driver run.
	Trial int
	// Seed is the engine's base seed; never the round seed itself.
	Seed uint64
	// Sampler draws from the unknown distribution for this trial.
	Sampler dist.Sampler
}

// RoundResult is the uniform per-round accounting every backend reports,
// so in-process, networked and CONGEST runs carry the same bookkeeping a
// deployment has.
type RoundResult struct {
	// Verdict is the referee's decision: true means accept.
	Verdict bool
	// Votes is the number of votes that entered the decision.
	Votes int
	// Stragglers is the number of players whose vote never arrived
	// (always 0 for in-process backends).
	Stragglers int
	// Retries is the number of node-side connect retries (networked
	// backends only).
	Retries int
	// Samples is the total number of samples drawn across players.
	Samples int
	// Messages is the number of protocol messages carried (CONGEST
	// edge-messages, or votes for message-counting backends; 0 when the
	// backend does not track it).
	Messages int
	// CommRounds is the number of synchronous communication rounds
	// (CONGEST backends; 0 elsewhere).
	CommRounds int
}

// Backend executes protocol rounds. Implementations must take all
// randomness from the RoundSpec-derived streams (SharedSeed / NodeRNG /
// TrialRNG), so that equal seeds give equal verdicts regardless of which
// backend runs the round or how many workers drive it. RunRound must be
// safe for concurrent use unless the backend also implements
// WorkerLimiter.
type Backend interface {
	// RunRound executes one round and reports its accounting.
	RunRound(ctx context.Context, spec RoundSpec) (RoundResult, error)
	// Players returns the protocol's player count k.
	Players() int
}

// WorkerLimiter is an optional Backend interface bounding driver
// concurrency. A backend serialized over shared state (e.g. one open
// multi-round network session) returns 1 and receives trials in order.
type WorkerLimiter interface {
	// MaxWorkers returns the largest worker count the backend tolerates.
	MaxWorkers() int
}

// BatchBackend is the multi-trial, zero-allocation extension of Backend
// and the driver's one call site. The driver calls NewScratch once per
// worker and threads the returned value through every call on that
// worker, so a backend can reuse sample buffers, vote slices and
// reseedable generators across trials instead of allocating per round.
// The scratch value is owned by exactly one worker at a time —
// implementations need no locking inside it. A scratch that also
// implements io.Closer is closed when its worker retires, so a scratch
// may hold live resources (the cluster batch scratch holds an open
// multi-round session, which its close parks for the backend's next
// call).
//
// The driver hands each worker a contiguous chunk of Batch*Window trials
// and the backend executes them in one RunRoundsScratch call (with Batch
// 0, a chunk of one trial at batch 1). batch is the wire granularity —
// pipelined backends split specs into ceil(len(specs)/batch) sub-batches
// and keep them concurrently in flight (the window), in-process backends
// are a Loop over their trials. out has len(specs) entries, one per spec
// in order. A plain Backend is driven through a Loop over its RunRound.
// The determinism contract is unchanged: the verdict for (seed, trial,
// player) must be bit-identical to RunRound's for any batch size and
// window (the batch path is an optimization, never a semantic fork).
type BatchBackend interface {
	Backend
	// NewScratch allocates one worker's reusable round state.
	NewScratch() any
	// RunRoundScratch is RunRound with the worker's scratch.
	RunRoundScratch(ctx context.Context, spec RoundSpec, scratch any) (RoundResult, error)
	// RunRoundsScratch executes len(specs) consecutive trials with the
	// worker's scratch, writing one RoundResult per spec into out.
	RunRoundsScratch(ctx context.Context, scratch any, specs []RoundSpec, batch int, out []RoundResult) error
}

// Source yields the sampler for one trial. rng is the trial's TrialRNG
// stream, so sources that draw a fresh distribution per trial (the lower
// bound's averaged adversary) stay deterministic in (seed, trial). The
// rng is only valid for the duration of the call: the driver reseeds one
// per-worker generator between trials, so a Source must not retain it.
type Source func(trial int, rng *rand.Rand) (dist.Sampler, error)

// Fixed returns a Source that serves the same sampler on every trial.
func Fixed(s dist.Sampler) Source {
	return func(int, *rand.Rand) (dist.Sampler, error) { return s, nil }
}

// FromDist builds the default (alias-method) sampler for d once and
// serves it on every trial.
func FromDist(d dist.Dist) (Source, error) {
	s, err := dist.NewAliasSampler(d)
	if err != nil {
		return nil, err
	}
	return Fixed(s), nil
}

// Options configures the trial driver. The zero value requests
// GOMAXPROCS workers, 95% confidence and seed 0.
type Options struct {
	// Workers is the worker pool size; 0 or negative means GOMAXPROCS.
	// Results never depend on it: trials, not ranges, are the unit of
	// scheduling and every trial's randomness derives from (Seed, Trial).
	Workers int
	// Confidence is the Wilson interval level for Estimate; 0 means 0.95.
	Confidence float64
	// Seed is the base seed all per-trial streams derive from.
	Seed uint64
	// Batch is the number of trials carried per batch frame; 0 means a
	// batch of one trial with a window of one — one trial per chunk.
	// Batch never changes verdicts — every trial's randomness still
	// derives from (Seed, Trial) alone.
	Batch int
	// Window is the number of batches a pipelined backend keeps in
	// flight per worker (the sliding window); 0 or 1 means no
	// pipelining. Ignored when Batch is 0.
	Window int
}

// Totals aggregates RoundResult accounting over a run.
type Totals struct {
	// Trials is the number of rounds executed.
	Trials int
	// Accepts is the number of accepting verdicts.
	Accepts int
	// Votes, Stragglers, Retries, Samples and Messages sum the per-round
	// fields of the same names.
	Votes, Stragglers, Retries, Samples, Messages int
}

// Result is Estimate's output: the Wilson success estimate plus the
// per-round results and their aggregate accounting.
type Result struct {
	// Estimate is the acceptance-probability estimate.
	Estimate stats.SuccessEstimate
	// Rounds holds one RoundResult per trial, in trial order.
	Rounds []RoundResult
	// Totals aggregates Rounds.
	Totals Totals
}

// workerErrs is one worker's error slot, padded so neighboring workers'
// slots never share a cache line (the previous shared errs slice made
// every failing or cancelled trial a cross-core invalidation). Each
// worker keeps only its lowest-trial genuine error and lowest-trial
// cancellation casualty, which is all the post-run merge ever reads.
type workerErrs struct {
	genuine      error
	genuineTrial int
	cancel       error
	cancelTrial  int
	_            [80]byte // pad the 48 bytes above to two 64-byte lines
}

// record files err under trial t, classifying cancellation casualties
// apart from genuine failures so the merge can prefer the latter.
func (w *workerErrs) record(t int, err error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		if w.cancel == nil || t < w.cancelTrial {
			w.cancel, w.cancelTrial = err, t
		}
		return
	}
	if w.genuine == nil || t < w.genuineTrial {
		w.genuine, w.genuineTrial = err, t
	}
}

// Run executes the given number of trials against the backend over a
// worker pool and returns one RoundResult per trial, in trial order. The
// first error aborts the run: the shared context is cancelled, queued
// trials are skipped, and the error of the lowest-indexed failing trial
// is returned (cancellation casualties of later trials never mask it).
func Run(ctx context.Context, b Backend, src Source, trials int, opts Options) ([]RoundResult, error) {
	if b == nil {
		return nil, fmt.Errorf("engine: nil backend")
	}
	if src == nil {
		return nil, fmt.Errorf("engine: nil source")
	}
	if trials <= 0 {
		return nil, fmt.Errorf("engine: running %d trials", trials)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	bb := batchOf(b)
	// chunk is the scheduling unit: a full window of batches, a single
	// trial when Batch is 0.
	batch, window := 1, 1
	if opts.Batch >= 1 {
		batch, window = opts.Batch, max(opts.Window, 1)
	}
	chunk := batch * window

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if nChunks := (trials + chunk - 1) / chunk; workers > nChunks {
		workers = nChunks
	}
	if lim, ok := b.(WorkerLimiter); ok {
		if m := lim.MaxWorkers(); m >= 1 && workers > m {
			workers = m
		}
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]RoundResult, trials)
	errs := make([]workerErrs, workers)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(werr *workerErrs) {
			defer wg.Done()
			// Per-worker trial state, allocated once and recycled across
			// trials: the source's generator (reseeded per trial) and the
			// backend's scratch (sample buffers, vote slices, node RNGs).
			trialRNG := NewReusableRNG()
			scratch := bb.NewScratch()
			defer closeScratch(scratch)
			specs := make([]RoundSpec, 0, chunk)
			for start := range jobs {
				end := start + chunk
				if end > trials {
					end = trials
				}
				if err := runCtx.Err(); err != nil {
					werr.record(start, err)
					continue
				}
				// Build the chunk's specs with the exact per-trial source
				// derivation of the classic path, so batching can never
				// change which sampler a trial sees.
				specs = specs[:0]
				bad := false
				for t := start; t < end; t++ {
					sampler, err := src(t, trialRNG.SeedTrial(opts.Seed, t))
					if err != nil {
						werr.record(t, fmt.Errorf("engine: trial %d source: %w", t, err))
						cancel()
						bad = true
						break
					}
					if sampler == nil {
						werr.record(t, fmt.Errorf("engine: trial %d source returned a nil sampler", t))
						cancel()
						bad = true
						break
					}
					specs = append(specs, RoundSpec{Trial: t, Seed: opts.Seed, Sampler: sampler})
				}
				if bad {
					continue
				}
				if err := bb.RunRoundsScratch(runCtx, scratch, specs, batch, results[start:end]); err != nil {
					if end-start == 1 {
						err = fmt.Errorf("engine: trial %d: %w", start, err)
					} else {
						err = fmt.Errorf("engine: trials %d..%d: %w", start, end-1, err)
					}
					werr.record(start, err)
					cancel()
				}
			}
		}(&errs[w])
	}
feed:
	for start := 0; start < trials; start += chunk {
		select {
		case jobs <- start:
		case <-runCtx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	// Surface the lowest-indexed genuine failure; trials that merely died
	// of the abort's cancellation are symptoms, not causes.
	var genuine, cancelled error
	genuineTrial, cancelTrial := 0, 0
	for i := range errs {
		w := &errs[i]
		if w.genuine != nil && (genuine == nil || w.genuineTrial < genuineTrial) {
			genuine, genuineTrial = w.genuine, w.genuineTrial
		}
		if w.cancel != nil && (cancelled == nil || w.cancelTrial < cancelTrial) {
			cancelled, cancelTrial = w.cancel, w.cancelTrial
		}
	}
	if genuine != nil {
		return nil, genuine
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cancelled != nil {
		return nil, cancelled
	}
	return results, nil
}

// batchOf returns b's batch path. A plain Backend runs as a Loop over
// its RunRound, so the driver has a single call site.
func batchOf(b Backend) BatchBackend {
	if bb, ok := b.(BatchBackend); ok {
		return bb
	}
	return &Loop[any]{K: b.Players(), Scratch: func() any { return nil },
		Trial: func(ctx context.Context, _ any, spec RoundSpec) (RoundResult, error) {
			return b.RunRound(ctx, spec)
		}}
}

// Loop is the batch path of an in-process protocol: K players, one
// scratch per worker, and one function per trial. Its chunk is the
// chunk's trials in order on the worker's scratch, so the SMP, the
// CONGEST tester, a foreign core.Protocol and a Backend with no batch
// path of its own all run the one chunk loop below. Scratch returns a
// fresh scratch per call; Trial must be safe for concurrent use on
// distinct scratches. The Loop calls Trial through a func value, which
// dut/hotalloc's call graph does not follow, so a Trial on a hot path
// is a named function carrying its own //dut:hotpath marker.
type Loop[S any] struct {
	// K is the protocol's player count.
	K int
	// Scratch allocates one worker's reusable round state.
	Scratch func() S
	// Trial runs one trial on the worker's scratch.
	Trial func(ctx context.Context, scratch S, spec RoundSpec) (RoundResult, error)
}

// Players implements Backend.
func (l *Loop[S]) Players() int { return l.K }

// NewScratch implements BatchBackend.
func (l *Loop[S]) NewScratch() any { return l.Scratch() }

// RunRound implements Backend: one trial on a fresh scratch.
func (l *Loop[S]) RunRound(ctx context.Context, spec RoundSpec) (RoundResult, error) {
	return l.RunRoundScratch(ctx, spec, l.Scratch())
}

// RunRoundScratch implements BatchBackend: a chunk of one trial.
//
//dut:hotpath
func (l *Loop[S]) RunRoundScratch(ctx context.Context, spec RoundSpec, scratch any) (RoundResult, error) {
	specs := [1]RoundSpec{spec}
	var out [1]RoundResult
	if err := l.RunRoundsScratch(ctx, scratch, specs[:], 1, out[:]); err != nil {
		return RoundResult{}, err
	}
	return out[0], nil
}

// RunRoundsScratch implements BatchBackend. In-process trials have no
// per-round synchronization to amortize, so batch and window do not
// matter: the lengths, the context and the scratch are checked once per
// chunk, then the trials run in order.
//
//dut:hotpath
func (l *Loop[S]) RunRoundsScratch(ctx context.Context, scratch any, specs []RoundSpec, _ int, out []RoundResult) error {
	if len(out) != len(specs) {
		return fmt.Errorf("engine: %d results for %d specs", len(out), len(specs))
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// A nil scratch is the zero value of an interface S (a Backend's
	// NewScratch may return nil); for any other S it is foreign.
	sc, ok := scratch.(S)
	if !ok && (scratch != nil || any(sc) != nil) {
		return fmt.Errorf("engine: foreign scratch %T", scratch)
	}
	for i, spec := range specs {
		res, err := l.Trial(ctx, sc, spec)
		if err != nil {
			return err
		}
		out[i] = res
	}
	return nil
}

// closeScratch releases a worker's scratch when it holds live resources
// (io.Closer — e.g. the cluster batch scratch's open session). Release
// runs after every result of the worker has been validated, so a close
// failure is not a round failure and is dropped.
func closeScratch(scratch any) {
	if c, ok := scratch.(io.Closer); ok {
		_ = c.Close()
	}
}

// Estimate measures Pr[backend accepts] over the source by Monte Carlo
// with a Wilson confidence interval, returning the per-round accounting
// alongside.
func Estimate(ctx context.Context, b Backend, src Source, trials int, opts Options) (Result, error) {
	rounds, err := Run(ctx, b, src, trials, opts)
	if err != nil {
		return Result{}, err
	}
	confidence := opts.Confidence
	if confidence == 0 {
		confidence = 0.95
	}
	var totals Totals
	for _, r := range rounds {
		totals.Trials++
		if r.Verdict {
			totals.Accepts++
		}
		totals.Votes += r.Votes
		totals.Stragglers += r.Stragglers
		totals.Retries += r.Retries
		totals.Samples += r.Samples
		totals.Messages += r.Messages
	}
	ci, err := stats.WilsonInterval(totals.Accepts, trials, confidence)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Estimate: stats.SuccessEstimate{
			Successes: totals.Accepts,
			Trials:    trials,
			P:         float64(totals.Accepts) / float64(trials),
			CI:        ci,
		},
		Rounds: rounds,
		Totals: totals,
	}, nil
}

// Outcome is the three-valued verdict of Separates.
type Outcome int

// The three outcomes: the interval evidence confirms the separation,
// refutes it, or straddles the target so the trial budget cannot tell.
const (
	// Inconclusive: at least one Wilson interval straddles the target.
	Inconclusive Outcome = iota
	// Separated: both guarantees hold at the interval bounds.
	Separated
	// NotSeparated: at least one guarantee fails at the interval bounds.
	NotSeparated
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Separated:
		return "separated"
	case NotSeparated:
		return "not separated"
	case Inconclusive:
		return "inconclusive"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Separation is Separates's report: the outcome plus both estimates.
type Separation struct {
	// Outcome is the three-valued decision.
	Outcome Outcome
	// Null is the acceptance estimate under the null source.
	Null Result
	// Far is the acceptance estimate under the far source.
	Far Result
}

// Separates checks the paper's two-sided guarantee — accept null and
// reject far, each with probability at least target — using the Wilson
// interval bounds rather than the raw point estimates: Separated needs
// the null interval's lower bound and the far rejection's lower bound to
// clear the target, NotSeparated needs an upper bound to miss it, and
// anything in between is Inconclusive instead of flapping with the seed.
func Separates(ctx context.Context, b Backend, null, far Source, target float64, trials int, opts Options) (Separation, error) {
	if target <= 0 || target >= 1 {
		return Separation{}, fmt.Errorf("engine: separation target %v outside (0,1)", target)
	}
	en, err := Estimate(ctx, b, null, trials, opts)
	if err != nil {
		return Separation{}, err
	}
	farOpts := opts
	farOpts.Seed = FarSeed(opts.Seed)
	ef, err := Estimate(ctx, b, far, trials, farOpts)
	if err != nil {
		return Separation{}, err
	}
	sep := Separation{Null: en, Far: ef}
	acceptLow, acceptHigh := en.Estimate.CI.Low, en.Estimate.CI.High
	rejectLow, rejectHigh := 1-ef.Estimate.CI.High, 1-ef.Estimate.CI.Low
	switch {
	case acceptLow >= target && rejectLow >= target:
		sep.Outcome = Separated
	case acceptHigh < target || rejectHigh < target:
		sep.Outcome = NotSeparated
	default:
		sep.Outcome = Inconclusive
	}
	return sep, nil
}

// Amplify runs an odd number of rounds and returns the majority verdict
// with the per-round results: majority-vote amplification of a
// 2/3-correct tester, each round a trial with fresh samples
// (core.RoundsForFailure sizes it). With Workers 1 the rounds run in
// trial order, one at a time, as one lock-step session.
func Amplify(ctx context.Context, b Backend, src Source, rounds int, opts Options) (bool, []RoundResult, error) {
	if rounds < 1 || rounds%2 == 0 {
		return false, nil, fmt.Errorf("engine: amplification needs an odd positive round count, got %d", rounds)
	}
	results, err := Run(ctx, b, src, rounds, opts)
	if err != nil {
		return false, nil, err
	}
	accepts := 0
	for _, r := range results {
		if r.Verdict {
			accepts++
		}
	}
	return 2*accepts > rounds, results, nil
}

// Engine bundles a Backend with Options — the facade's handle
// (dut.NewEngine) for running estimates, separations and amplified
// sessions over one deployment.
type Engine struct {
	backend Backend
	opts    Options
}

// New builds an Engine over the backend.
func New(b Backend, opts Options) (*Engine, error) {
	if b == nil {
		return nil, fmt.Errorf("engine: nil backend")
	}
	return &Engine{backend: b, opts: opts}, nil
}

// Backend returns the engine's backend.
func (e *Engine) Backend() Backend { return e.backend }

// Run executes trials; see the package-level Run.
func (e *Engine) Run(ctx context.Context, src Source, trials int) ([]RoundResult, error) {
	return Run(ctx, e.backend, src, trials, e.opts)
}

// Estimate measures the acceptance probability; see the package-level
// Estimate.
func (e *Engine) Estimate(ctx context.Context, src Source, trials int) (Result, error) {
	return Estimate(ctx, e.backend, src, trials, e.opts)
}

// Separates checks the two-sided guarantee; see the package-level
// Separates.
func (e *Engine) Separates(ctx context.Context, null, far Source, target float64, trials int) (Separation, error) {
	return Separates(ctx, e.backend, null, far, target, trials, e.opts)
}

// Amplify majority-votes an odd number of rounds; see the package-level
// Amplify.
func (e *Engine) Amplify(ctx context.Context, src Source, rounds int) (bool, []RoundResult, error) {
	return Amplify(ctx, e.backend, src, rounds, e.opts)
}

// Close closes the backend when it holds resources between calls
// (io.Closer, the convention closeScratch follows for scratches): the
// cluster backend's parked sessions. Other backends hold none, and Close
// returns nil.
func (e *Engine) Close() error {
	if c, ok := e.backend.(io.Closer); ok {
		return c.Close()
	}
	return nil
}
