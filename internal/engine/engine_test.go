package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/distributed-uniformity/dut/internal/dist"
)

// fakeBackend decides each round from the canonical player streams, so
// its verdicts are a pure function of (seed, trial) and any scheduling
// nondeterminism in the driver would show up as verdict flips.
type fakeBackend struct {
	players  int
	failAt   int  // trial index that errors; -1 disables
	block    bool // every other trial blocks until its context is done
	ran      atomic.Int64
	maxConc  atomic.Int64
	curConc  atomic.Int64
	limit    int // MaxWorkers when > 0
	mu       sync.Mutex
	sequence []int // order trials were started in
}

func (b *fakeBackend) Players() int { return b.players }

func (b *fakeBackend) MaxWorkers() int { return b.limit }

func (b *fakeBackend) RunRound(ctx context.Context, spec RoundSpec) (RoundResult, error) {
	cur := b.curConc.Add(1)
	defer b.curConc.Add(-1)
	for {
		old := b.maxConc.Load()
		if cur <= old || b.maxConc.CompareAndSwap(old, cur) {
			break
		}
	}
	b.mu.Lock()
	b.sequence = append(b.sequence, spec.Trial)
	b.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return RoundResult{}, err
	}
	if spec.Trial == b.failAt {
		return RoundResult{}, fmt.Errorf("injected failure at trial %d", spec.Trial)
	}
	if b.block {
		<-ctx.Done()
		return RoundResult{}, ctx.Err()
	}
	b.ran.Add(1)
	accept := PlayerRNG(spec.Seed, spec.Trial, 0).Uint64()&1 == 0
	return RoundResult{Verdict: accept, Votes: b.players, Samples: b.players, Messages: spec.Trial}, nil
}

func uniformSource(t *testing.T, n int) Source {
	t.Helper()
	u, err := dist.Uniform(n)
	if err != nil {
		t.Fatal(err)
	}
	src, err := FromDist(u)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func verdictsOf(results []RoundResult) []bool {
	out := make([]bool, len(results))
	for i, r := range results {
		out[i] = r.Verdict
	}
	return out
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	src := uniformSource(t, 8)
	const trials = 64
	var want []bool
	for _, workers := range []int{1, 2, 4, 9} {
		b := &fakeBackend{players: 3, failAt: -1}
		results, err := Run(context.Background(), b, src, trials, Options{Workers: workers, Seed: 7})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := verdictsOf(results)
		if want == nil {
			want = got
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: verdict %d = %v, want %v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestRunFillsTrialIndices: results[i] is trial i's own result, one
// trial per chunk and in chunks of several; fakeBackend echoes each
// spec's trial in Messages.
func TestRunFillsTrialIndices(t *testing.T) {
	for _, opts := range []Options{{Workers: 3}, {Workers: 3, Batch: 4, Window: 2}} {
		b := &fakeBackend{players: 2, failAt: -1}
		results, err := Run(context.Background(), b, uniformSource(t, 4), 10, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range results {
			if r.Messages != i {
				t.Fatalf("%+v: results[%d] holds trial %d's result", opts, i, r.Messages)
			}
		}
	}
}

// recordingBackend is a BatchBackend whose scratches record the trials
// they ran and how often they were closed.
type recordingBackend struct {
	mu        sync.Mutex
	scratches []*recordingScratch
}

type recordingScratch struct {
	trials []int
	closed int
}

// Close implements io.Closer, so the driver closes it when its worker
// retires.
func (s *recordingScratch) Close() error {
	s.closed++
	return nil
}

func (b *recordingBackend) Players() int { return 1 }

func (b *recordingBackend) NewScratch() any {
	sc := &recordingScratch{}
	b.mu.Lock()
	b.scratches = append(b.scratches, sc)
	b.mu.Unlock()
	return sc
}

func (b *recordingBackend) RunRound(ctx context.Context, spec RoundSpec) (RoundResult, error) {
	return b.RunRoundScratch(ctx, spec, b.NewScratch())
}

func (b *recordingBackend) RunRoundScratch(_ context.Context, spec RoundSpec, scratch any) (RoundResult, error) {
	sc := scratch.(*recordingScratch)
	sc.trials = append(sc.trials, spec.Trial)
	return RoundResult{Messages: spec.Trial}, nil
}

func (b *recordingBackend) RunRoundsScratch(ctx context.Context, scratch any, specs []RoundSpec, _ int, out []RoundResult) error {
	for i, spec := range specs {
		res, err := b.RunRoundScratch(ctx, spec, scratch)
		if err != nil {
			return err
		}
		out[i] = res
	}
	return nil
}

// plainBackend has RunRound alone: no scratch, no batch path, no worker
// limit.
type plainBackend struct{ ran atomic.Int64 }

func (b *plainBackend) Players() int { return 1 }

func (b *plainBackend) RunRound(_ context.Context, spec RoundSpec) (RoundResult, error) {
	b.ran.Add(1)
	return RoundResult{Messages: spec.Trial}, nil
}

// TestRunLoopsBackendsWithoutBatchPath: the driver runs a plain Backend,
// which has no batch path of its own, as a Loop over RunRound. A
// BatchBackend gets one NewScratch per worker per call, every chunk runs
// whole on one of those scratches, and each scratch is closed once.
func TestRunLoopsBackendsWithoutBatchPath(t *testing.T) {
	const trials, chunk = 40, 8
	opts := Options{Workers: 2, Batch: 4, Window: 2}
	src := uniformSource(t, 4)
	check := func(t *testing.T, results []RoundResult) {
		t.Helper()
		for i, r := range results {
			if r.Messages != i {
				t.Fatalf("results[%d] holds trial %d's result", i, r.Messages)
			}
		}
	}
	t.Run("scratch", func(t *testing.T) {
		b := &recordingBackend{}
		for call := 1; call <= 2; call++ {
			results, err := Run(context.Background(), b, src, trials, opts)
			if err != nil {
				t.Fatal(err)
			}
			check(t, results)
			if len(b.scratches) != call*opts.Workers {
				t.Fatalf("call %d: %d scratches in all, want %d: one per worker per call", call, len(b.scratches), call*opts.Workers)
			}
		}
		ran := 0
		for _, sc := range b.scratches {
			if sc.closed != 1 {
				t.Errorf("a scratch was closed %d times, want once", sc.closed)
			}
			for i := 0; i < len(sc.trials); i += chunk {
				for j := 1; j < chunk; j++ {
					if i+j >= len(sc.trials) || sc.trials[i+j] != sc.trials[i]+j {
						t.Fatalf("a scratch ran trials %v, not whole chunks of %d", sc.trials, chunk)
					}
				}
			}
			ran += len(sc.trials)
		}
		if ran != 2*trials {
			t.Errorf("the scratches ran %d trials over two calls, want %d", ran, 2*trials)
		}
	})
	t.Run("plain", func(t *testing.T) {
		b := &plainBackend{}
		results, err := Run(context.Background(), b, src, trials, opts)
		if err != nil {
			t.Fatal(err)
		}
		check(t, results)
		if b.ran.Load() != trials {
			t.Errorf("RunRound ran %d trials, want %d", b.ran.Load(), trials)
		}
	})
}

// TestLoopChecksScratchType: a Loop over a concrete scratch type runs
// on its own scratch and refuses any other, nil included; nil is a
// scratch only for an interface type (the plain-Backend Loop above).
func TestLoopChecksScratchType(t *testing.T) {
	ran := 0
	l := &Loop[*ReusableRNG]{K: 1, Scratch: NewReusableRNG,
		Trial: func(context.Context, *ReusableRNG, RoundSpec) (RoundResult, error) {
			ran++
			return RoundResult{}, nil
		}}
	ctx := context.Background()
	for _, scratch := range []any{nil, 7} {
		if _, err := l.RunRoundScratch(ctx, RoundSpec{}, scratch); err == nil {
			t.Errorf("scratch %#v accepted", scratch)
		}
	}
	if _, err := l.RunRoundScratch(ctx, RoundSpec{}, l.NewScratch()); err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Errorf("the trial ran %d times, want once", ran)
	}
}

// TestRunAbortsOnFirstError: every trial but the failing one blocks
// until the run's context is done, so trials 0..2 hold three of the
// four workers and the fourth must take trial 3, whose failure alone can
// end the run. The abort must surface that failure, not a cancellation,
// and must skip every queued trial: no trial past the first Workers ever
// reaches the backend.
func TestRunAbortsOnFirstError(t *testing.T) {
	const (
		trials  = 2000
		workers = 4
	)
	b := &fakeBackend{players: 2, failAt: 3, block: true}
	_, err := Run(context.Background(), b, uniformSource(t, 4), trials, Options{Workers: workers, Seed: 1})
	if err == nil {
		t.Fatal("expected an error")
	}
	if want := "injected failure at trial 3"; !errorContains(err, want) {
		t.Fatalf("error %q does not mention %q", err, want)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation masked the root cause: %v", err)
	}
	if len(b.sequence) > workers {
		t.Errorf("the backend ran %d trials, want at most %d (one per worker)", len(b.sequence), workers)
	}
	for _, trial := range b.sequence {
		if trial >= workers {
			t.Errorf("queued trial %d reached the backend after the abort", trial)
		}
	}
}

func TestRunReportsLowestIndexedError(t *testing.T) {
	// Every trial fails; the reported error must be a genuine source
	// failure, not a cancellation casualty of a later trial.
	failing := func(int, *rand.Rand) (dist.Sampler, error) { return nil, errors.New("boom") }
	_, err := Run(context.Background(), &fakeBackend{players: 1, failAt: -1}, failing, 50, Options{Workers: 8})
	if err == nil {
		t.Fatal("expected an error")
	}
	if want := "source"; !errorContains(err, want) {
		t.Fatalf("error %q does not mention %q", err, want)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation masked the root cause: %v", err)
	}
}

func TestRunRespectsWorkerLimiter(t *testing.T) {
	b := &fakeBackend{players: 1, failAt: -1, limit: 1}
	results, err := Run(context.Background(), b, uniformSource(t, 4), 20, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := b.maxConc.Load(); got != 1 {
		t.Fatalf("observed concurrency %d with MaxWorkers()=1", got)
	}
	// A single worker consumes the jobs channel in feed order.
	for i, trial := range b.sequence {
		if trial != i {
			t.Fatalf("serialized run started trial %d at position %d", trial, i)
		}
	}
	if len(results) != 20 {
		t.Fatalf("got %d results", len(results))
	}
}

func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, &fakeBackend{players: 1, failAt: -1}, uniformSource(t, 4), 5, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunValidation(t *testing.T) {
	src := uniformSource(t, 4)
	b := &fakeBackend{players: 1, failAt: -1}
	if _, err := Run(context.Background(), nil, src, 1, Options{}); err == nil {
		t.Error("nil backend accepted")
	}
	if _, err := Run(context.Background(), b, nil, 1, Options{}); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := Run(context.Background(), b, src, 0, Options{}); err == nil {
		t.Error("zero trials accepted")
	}
	nilSampler := func(int, *rand.Rand) (dist.Sampler, error) { return nil, nil }
	if _, err := Run(context.Background(), b, nilSampler, 1, Options{}); err == nil {
		t.Error("nil sampler from source accepted")
	}
}

func TestEstimateAggregates(t *testing.T) {
	b := &fakeBackend{players: 3, failAt: -1}
	res, err := Estimate(context.Background(), b, uniformSource(t, 4), 40, Options{Seed: 5, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate.Trials != 40 || len(res.Rounds) != 40 {
		t.Fatalf("trials = %d, rounds = %d", res.Estimate.Trials, len(res.Rounds))
	}
	accepts := 0
	for _, r := range res.Rounds {
		if r.Verdict {
			accepts++
		}
	}
	if res.Totals.Accepts != accepts || res.Estimate.Successes != accepts {
		t.Fatalf("accept accounting: totals %d, estimate %d, recount %d",
			res.Totals.Accepts, res.Estimate.Successes, accepts)
	}
	if res.Totals.Votes != 3*40 || res.Totals.Samples != 3*40 {
		t.Fatalf("totals = %+v", res.Totals)
	}
	if res.Estimate.CI.Low > res.Estimate.P || res.Estimate.CI.High < res.Estimate.P {
		t.Fatalf("interval [%v, %v] excludes the point estimate %v",
			res.Estimate.CI.Low, res.Estimate.CI.High, res.Estimate.P)
	}
}

// acceptBackend accepts or rejects every trial unconditionally.
type acceptBackend struct{ accept bool }

func (b *acceptBackend) Players() int { return 1 }

func (b *acceptBackend) RunRound(_ context.Context, _ RoundSpec) (RoundResult, error) {
	return RoundResult{Verdict: b.accept, Votes: 1}, nil
}

func TestSeparatesOutcomes(t *testing.T) {
	src := uniformSource(t, 4)
	ctx := context.Background()
	const trials = 200

	// A perfect separator: always accept null, always reject far.
	sep, err := Separates(ctx, &acceptBackend{accept: true}, src, src, 2.0/3, trials, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_ = sep // the backend ignores the source, so both estimates are 1.0
	if sep.Outcome != NotSeparated {
		// accept=1 on both sides: null passes, far fails decisively.
		t.Fatalf("always-accept backend: outcome %v, want NotSeparated", sep.Outcome)
	}
	if sep.Null.Estimate.P != 1 || sep.Far.Estimate.P != 1 {
		t.Fatalf("estimates %v / %v", sep.Null.Estimate.P, sep.Far.Estimate.P)
	}

	if _, err := Separates(ctx, &acceptBackend{accept: true}, src, src, 0, trials, Options{}); err == nil {
		t.Error("target 0 accepted")
	}
	if _, err := Separates(ctx, &acceptBackend{accept: true}, src, src, 1, trials, Options{}); err == nil {
		t.Error("target 1 accepted")
	}
}

func TestSeparatesInconclusiveNearTarget(t *testing.T) {
	// With few trials the Wilson interval around even a perfect score
	// still straddles nothing, but a coin-flip backend near the target
	// must come out Inconclusive, not flap between verdicts.
	b := &fakeBackend{players: 1, failAt: -1}
	src := uniformSource(t, 4)
	sep, err := Separates(context.Background(), b, src, src, 0.5, 30, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if sep.Outcome == Separated {
		t.Fatalf("coin-flip backend separated at target 0.5 with 30 trials (null %v, far %v)",
			sep.Null.Estimate.P, sep.Far.Estimate.P)
	}
}

func TestAmplify(t *testing.T) {
	src := uniformSource(t, 4)
	ctx := context.Background()
	accept, rounds, err := Amplify(ctx, &acceptBackend{accept: true}, src, 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !accept || len(rounds) != 5 {
		t.Fatalf("accept=%v rounds=%d", accept, len(rounds))
	}
	accept, _, err = Amplify(ctx, &acceptBackend{accept: false}, src, 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if accept {
		t.Fatal("always-reject backend amplified to accept")
	}
	if _, _, err := Amplify(ctx, &acceptBackend{accept: true}, src, 4, Options{}); err == nil {
		t.Error("even round count accepted")
	}
	if _, _, err := Amplify(ctx, &acceptBackend{accept: true}, src, 0, Options{}); err == nil {
		t.Error("zero rounds accepted")
	}
}

// TestAmplifyMajority: over rounds that disagree, Amplify's verdict is
// the strict majority of the rounds it returns, and those rounds are the
// trials Run gives for the same options. The seeds must reach a split
// vote on each side, or the majority went untested.
func TestAmplifyMajority(t *testing.T) {
	src := uniformSource(t, 4)
	ctx := context.Background()
	splitAccept, splitReject := false, false
	for _, rounds := range []int{3, 5} {
		for seed := uint64(0); seed < 32; seed++ {
			opts := Options{Seed: seed, Workers: 2}
			b := &fakeBackend{players: 1, failAt: -1}
			accept, results, err := Amplify(ctx, b, src, rounds, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Run(ctx, b, src, rounds, opts)
			if err != nil {
				t.Fatal(err)
			}
			accepts := 0
			for i, r := range results {
				if r.Verdict != want[i].Verdict {
					t.Fatalf("rounds=%d seed=%d: round %d verdict %v, Run's %v", rounds, seed, i, r.Verdict, want[i].Verdict)
				}
				if r.Verdict {
					accepts++
				}
			}
			if accept != (2*accepts > rounds) {
				t.Fatalf("rounds=%d seed=%d: %d of %d rounds accepted, majority verdict %v", rounds, seed, accepts, rounds, accept)
			}
			if accepts > 0 && accepts < rounds {
				splitAccept = splitAccept || accept
				splitReject = splitReject || !accept
			}
		}
	}
	if !splitAccept || !splitReject {
		t.Errorf("split votes reached: accepted %v, rejected %v; want both", splitAccept, splitReject)
	}
}

// TestRunMoreWorkersThanTrials: a worker count above the trial count,
// or above the number of chunks, runs each trial exactly once, on no
// more workers than there are chunks.
func TestRunMoreWorkersThanTrials(t *testing.T) {
	src := uniformSource(t, 4)
	for _, c := range []struct {
		name          string
		batch, window int
		maxConc       int64
	}{
		{"unbatched", 0, 0, 3},
		{"one-chunk", 4, 2, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			b := &fakeBackend{players: 1, failAt: -1}
			results, err := Run(context.Background(), b, src, 3, Options{Seed: 4, Workers: 16, Batch: c.batch, Window: c.window})
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != 3 || b.ran.Load() != 3 {
				t.Fatalf("%d results after %d trials ran, want 3 and 3", len(results), b.ran.Load())
			}
			if got := b.maxConc.Load(); got > c.maxConc {
				t.Errorf("%d trials ran at once, want at most %d", got, c.maxConc)
			}
			ref, err := Run(context.Background(), &fakeBackend{players: 1, failAt: -1}, src, 3, Options{Seed: 4, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range results {
				if r.Verdict != ref[i].Verdict {
					t.Errorf("result %d: verdict %v, want %v", i, r.Verdict, ref[i].Verdict)
				}
			}
		})
	}
}

func TestOutcomeString(t *testing.T) {
	cases := map[Outcome]string{
		Separated:    "separated",
		NotSeparated: "not separated",
		Inconclusive: "inconclusive",
		Outcome(42):  "Outcome(42)",
	}
	for o, want := range cases {
		if got := o.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(o), got, want)
		}
	}
}

func TestEngineHandle(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Error("nil backend accepted")
	}
	b := &fakeBackend{players: 2, failAt: -1}
	e, err := New(b, Options{Seed: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if e.Backend() != b {
		t.Error("Backend() does not round-trip")
	}
	src := uniformSource(t, 4)
	res, err := e.Estimate(context.Background(), src, 16)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Estimate(context.Background(), b, src, 16, Options{Seed: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate.P != direct.Estimate.P {
		t.Fatalf("handle estimate %v != direct %v", res.Estimate.P, direct.Estimate.P)
	}
}

// TestEngineHandleSeparatesAndAmplify: the handle's Separates and
// Amplify run with the handle's options, as the package-level calls do.
func TestEngineHandleSeparatesAndAmplify(t *testing.T) {
	opts := Options{Seed: 9, Workers: 3}
	b := &fakeBackend{players: 2, failAt: -1}
	e, err := New(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	src := uniformSource(t, 4)
	sep, err := e.Separates(ctx, src, src, 0.5, 40)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Separates(ctx, b, src, src, 0.5, 40, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sep.Outcome != direct.Outcome || sep.Null.Estimate != direct.Null.Estimate || sep.Far.Estimate != direct.Far.Estimate {
		t.Errorf("handle separation %v (%v, %v), direct %v (%v, %v)", sep.Outcome, sep.Null.Estimate, sep.Far.Estimate,
			direct.Outcome, direct.Null.Estimate, direct.Far.Estimate)
	}
	accept, rounds, err := e.Amplify(ctx, src, 7)
	if err != nil {
		t.Fatal(err)
	}
	directAccept, directRounds, err := Amplify(ctx, b, src, 7, opts)
	if err != nil {
		t.Fatal(err)
	}
	if accept != directAccept || len(rounds) != len(directRounds) {
		t.Fatalf("handle amplify %v over %d rounds, direct %v over %d", accept, len(rounds), directAccept, len(directRounds))
	}
	for i := range rounds {
		if rounds[i].Verdict != directRounds[i].Verdict {
			t.Errorf("round %d: handle verdict %v, direct %v", i, rounds[i].Verdict, directRounds[i].Verdict)
		}
	}
}

// closingBackend is a backend that holds resources between calls.
type closingBackend struct {
	fakeBackend
	closes int
	err    error
}

func (b *closingBackend) Close() error {
	b.closes++
	return b.err
}

// TestEngineClose: Close closes an io.Closer backend, passing its error
// through, and is a no-op for a backend that holds nothing.
func TestEngineClose(t *testing.T) {
	e, err := New(&fakeBackend{players: 1, failAt: -1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Errorf("Close of a backend without resources: %v", err)
	}
	b := &closingBackend{fakeBackend: fakeBackend{players: 1, failAt: -1}, err: errors.New("close failed")}
	if e, err = New(b, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); !errors.Is(err, b.err) || b.closes != 1 {
		t.Errorf("Close = %v after %d backend closes, want the backend's error after 1", err, b.closes)
	}
}

func TestRNGStreamsAreDecorrelated(t *testing.T) {
	// Distinct (seed, trial, player) coordinates must give distinct
	// streams; equal coordinates identical ones.
	a := PlayerRNG(1, 2, 3)
	b := PlayerRNG(1, 2, 3)
	for i := 0; i < 8; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("equal coordinates, different streams")
		}
	}
	seen := map[uint64]string{}
	record := func(name string, v uint64) {
		if prev, dup := seen[v]; dup {
			t.Fatalf("first draw collision between %s and %s", prev, name)
		}
		seen[v] = name
	}
	for trial := 0; trial < 4; trial++ {
		for player := 0; player < 4; player++ {
			record(fmt.Sprintf("player(0,%d,%d)", trial, player), PlayerRNG(0, trial, player).Uint64())
		}
		record(fmt.Sprintf("trial(0,%d)", trial), TrialRNG(0, trial).Uint64())
	}
}

func errorContains(err error, substr string) bool {
	return err != nil && contains(err.Error(), substr)
}

func contains(s, substr string) bool {
	for i := 0; i+len(substr) <= len(s); i++ {
		if s[i:i+len(substr)] == substr {
			return true
		}
	}
	return false
}
