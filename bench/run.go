package bench

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"github.com/distributed-uniformity/dut/internal/dist"
	"github.com/distributed-uniformity/dut/internal/engine"
)

// Config is one invocation of one workload.
type Config struct {
	// Seed fixes the far input and every engine seed of the run.
	Seed uint64
	// Seconds is how long the repetitions run; at least the workload's
	// minimum number of repetitions always runs.
	Seconds float64
	// Trace runs traced repetitions, paired with untraced ones on the same
	// seeds, and reports the per-layer metrics instead of the end-to-end
	// ones.
	Trace bool
	// OutDir receives the traced run's span file; empty writes none.
	OutDir string
	// Log receives progress, digest and gate lines; nil discards them.
	Log io.Writer
}

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is one run's outcome, printed as the last line of the output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// callRecord is one engine.Estimate call: its seed, its verdicts and the
// per-round accounting summed over its trials.
type callRecord struct {
	seed                                               uint64
	trials                                             int
	wall                                               time.Duration
	failed                                             bool
	verdicts                                           []bool
	samples, messages, commRounds, retries, stragglers int
}

// repStat is one timed repetition of CallsPerRep calls.
type repStat struct {
	trials  int
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

func (r repStat) rate() float64 { return ratio(float64(r.trials), r.wall.Seconds()) }

// callSeed derives the engine seed of call i; setup warm-ups use negative i.
func callSeed(seed uint64, i int) uint64 {
	return seed*0x9e3779b97f4a7c15 + uint64(int64(i))
}

// Set-up repeats while under setupBudget, up to maxSetups, so a cheap
// set-up gets more samples behind its median.
const (
	setupBudget = time.Second
	maxSetups   = 25
)

type runner struct {
	w   Workload
	cfg Config
	in  *inputs
	log io.Writer
}

// Run benchmarks one workload and returns its result. An error means the
// harness could not run at all; a run whose outputs are wrong returns a
// Result with Correct false.
func Run(ctx context.Context, w Workload, cfg Config) (Result, error) {
	log := cfg.Log
	if log == nil {
		log = io.Discard
	}
	in, err := newInputs(w.n, cfg.Seed)
	if err != nil {
		return Result{}, err
	}
	r := &runner{w: w, cfg: cfg, in: in, log: log}

	// Set-up is construction plus a warm-up call of one batch; on the
	// cluster that call opens and closes a full session. It is repeated
	// (at least setupRepeats times, more while under setupBudget) so its
	// median is steady, and the last backend built is measured.
	setups, budget := w.setupRepeats, setupBudget
	if cfg.Trace {
		setups, budget = 1, 0
	}
	var plain engine.Backend
	var setupTimes []float64
	setupStart := time.Now()
	for i := 0; i < setups || (i < maxSetups && time.Since(setupStart) < budget); i++ {
		start := time.Now()
		b, err := w.build(nil)
		if err != nil {
			return Result{}, fmt.Errorf("bench: %s: build: %w", w.Name, err)
		}
		if _, err := engine.Estimate(ctx, b, in.source, w.batch, w.options(callSeed(cfg.Seed, -1-i))); err != nil {
			return Result{}, fmt.Errorf("bench: %s: warm-up: %w", w.Name, err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		plain = b
	}

	var t *tracer
	var traced engine.Backend
	if cfg.Trace {
		if t, err = newTracer(w); err != nil {
			return Result{}, err
		}
		if traced, err = w.build(t); err != nil {
			return Result{}, fmt.Errorf("bench: %s: traced build: %w", w.Name, err)
		}
	}

	var reps, tracedReps []repStat
	var calls, tracedCalls []callRecord
	var rt rtDelta
	deadline := time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))
	for rep := 0; rep < w.minReps || time.Now().Before(deadline); rep++ {
		seeds := make([]uint64, w.callsPerRep)
		for j := range seeds {
			seeds[j] = callSeed(cfg.Seed, rep*w.callsPerRep+j)
		}
		st, cs := r.rep(ctx, plain, in.source, seeds, nil, nil)
		reps, calls = append(reps, st), append(calls, cs...)
		fmt.Fprintf(log, "%s: rep %d: %d trials in %.3f s, %.1f trials/s, %.2f us cpu/trial\n",
			w.Name, rep, st.trials, st.wall.Seconds(), st.rate(), ratio(float64(st.cpu.Microseconds()), float64(st.trials)))
		if t != nil {
			st, cs := r.rep(ctx, traced, t.wrapSource(in.source), seeds, t, &rt)
			tracedReps, tracedCalls = append(tracedReps, st), append(tracedCalls, cs...)
		}
	}

	res := Result{Correct: true}
	for _, cs := range [][]callRecord{calls, tracedCalls} {
		for _, c := range cs {
			res.Attempted += c.trials
			if c.failed {
				res.Failed += c.trials
			}
		}
	}
	if err := r.check(ctx, calls, tracedCalls); err != nil {
		fmt.Fprintf(log, "%s: FAIL: %v\n", w.Name, err)
		res.Correct = false
	}

	if cfg.Trace {
		res.Metrics, err = r.layerMetrics(calls, tracedCalls, reps, tracedReps, t, &rt)
		if err != nil {
			return Result{}, err
		}
		if cfg.OutDir != "" {
			path := filepath.Join(cfg.OutDir, fmt.Sprintf("trace-%s-seed%d.json", w.Name, cfg.Seed))
			hdr := map[string]any{"workload": w.Name, "seed": cfg.Seed}
			if err := t.writeFile(path, hdr); err != nil {
				fmt.Fprintf(log, "%s: trace file not written: %v\n", w.Name, err)
			}
		}
		return res, nil
	}
	comm, err := r.commBytes(ctx, calls)
	if err != nil {
		return Result{}, err
	}
	res.Metrics = r.endToEndMetrics(reps, setupTimes, comm)
	return res, nil
}

// rep runs one repetition: CallsPerRep calls on the given seeds, timed
// together. With a tracer it records the run and call spans and the
// runtime deltas.
func (r *runner) rep(ctx context.Context, b engine.Backend, src engine.Source, seeds []uint64, t *tracer, rt *rtDelta) (repStat, []callRecord) {
	var runID, runStart int64
	var rtBefore rtSample
	if t != nil {
		runID, runStart = t.newSpanID(), t.now()
		rtBefore = readRuntime()
	}
	before := readProc()
	calls := make([]callRecord, 0, len(seeds))
	st := repStat{}
	for _, seed := range seeds {
		var callID, callStart int64
		if t != nil {
			callID, callStart = t.newSpanID(), t.now()
			t.curCall.Store(callID)
		}
		c := r.call(ctx, b, src, seed)
		if t != nil {
			t.record(callID, runID, "call", callStart, t.now())
			t.curCall.Store(0)
			if err := t.resetCounting(); err != nil {
				fmt.Fprintf(r.log, "%s: %v\n", r.w.Name, err)
			}
		}
		st.trials += c.trials
		calls = append(calls, c)
	}
	after := readProc()
	if t != nil {
		rt.add(rtBefore, readRuntime())
		t.record(runID, 0, "run", runStart, t.now())
	}
	st.wall = after.at.Sub(before.at)
	st.cpu = after.cpu - before.cpu
	st.mallocs = after.mallocs - before.mallocs
	st.bytes = after.bytes - before.bytes
	return st, calls
}

// call runs one engine.Estimate and keeps its verdicts. A failed call
// counts every one of its trials as failed.
func (r *runner) call(ctx context.Context, b engine.Backend, src engine.Source, seed uint64) callRecord {
	start := time.Now()
	res, err := engine.Estimate(ctx, b, src, r.w.callTrials, r.w.options(seed))
	c := callRecord{seed: seed, trials: r.w.callTrials, wall: time.Since(start)}
	if err != nil {
		fmt.Fprintf(r.log, "%s: call seed %d failed: %v\n", r.w.Name, seed, err)
		c.failed = true
		return c
	}
	c.verdicts = make([]bool, len(res.Rounds))
	for i, rd := range res.Rounds {
		c.verdicts[i] = rd.Verdict
		c.samples += rd.Samples
		c.messages += rd.Messages
		c.commRounds += rd.CommRounds
		c.retries += rd.Retries
		c.stragglers += rd.Stragglers
	}
	return c
}

// check is the correctness gate: the first gateTrials trials replay
// bit-identically on the in-process SMP reference, every traced call
// matches its untraced twin, and (at full size) the tester accepts the
// uniform input and rejects the far one, each with probability at least
// 2/3.
func (r *runner) check(ctx context.Context, calls, tracedCalls []callRecord) error {
	ref, err := r.w.reference()
	if err != nil {
		return err
	}
	digest, checked, err := gate(ctx, ref, r.in.source, r.w, calls, r.w.gateTrials)
	if err != nil {
		return err
	}
	fmt.Fprintf(r.log, "%s: digest %016x over the first %d trials (replayed on the SMP reference)\n", r.w.Name, digest, checked)
	for i, tc := range tracedCalls {
		if tc.failed || calls[i].failed {
			continue
		}
		if !slices.Equal(tc.verdicts, calls[i].verdicts) {
			return fmt.Errorf("traced call seed %d verdicts differ from the untraced call", tc.seed)
		}
	}
	if len(tracedCalls) > 0 {
		fmt.Fprintf(r.log, "%s: %d traced calls match their untraced twins\n", r.w.Name, len(tracedCalls))
	}
	var acc [2]int
	var n [2]int
	for _, c := range calls {
		for i, v := range c.verdicts {
			n[i%2]++
			if v {
				acc[i%2]++
			}
		}
	}
	pNull := ratio(float64(acc[0]), float64(n[0]))
	pFarReject := 1 - ratio(float64(acc[1]), float64(n[1]))
	fmt.Fprintf(r.log, "%s: accept(uniform) %.4f, reject(far) %.4f over %d trials\n", r.w.Name, pNull, pFarReject, n[0]+n[1])
	if r.w.checkPower && (pNull < 2.0/3 || pFarReject < 2.0/3) {
		return fmt.Errorf("tester does not separate: accept(uniform) %.4f, reject(far) %.4f, want both >= 2/3", pNull, pFarReject)
	}
	return nil
}

// gate replays the first n trials of the calls, in order, on the
// reference backend with the same seeds and sources, and returns a digest
// of those verdicts. Any differing verdict is an error.
func gate(ctx context.Context, ref engine.Backend, src engine.Source, w Workload, calls []callRecord, n int) (uint64, int, error) {
	h := fnv.New64a()
	checked := 0
	for _, c := range calls {
		if checked >= n {
			break
		}
		if c.failed {
			continue
		}
		m := min(len(c.verdicts), n-checked)
		// SMP verdicts depend on (seed, trial) alone, not on the batch
		// geometry, so the replay uses the reference's own.
		opts := engine.Options{Workers: 2, Seed: c.seed, Batch: 256, Window: 4}
		want, err := engine.Run(ctx, ref, src, m, opts)
		if err != nil {
			return 0, checked, fmt.Errorf("gate replay of call seed %d: %w", c.seed, err)
		}
		for i := 0; i < m; i++ {
			if c.verdicts[i] != want[i].Verdict {
				return 0, checked, fmt.Errorf("%s trial %d of call seed %d: backend verdict %v, SMP reference %v",
					w.Name, i, c.seed, c.verdicts[i], want[i].Verdict)
			}
		}
		digestCall(h, c.seed, c.verdicts[:m])
		checked += m
	}
	if checked == 0 {
		return 0, 0, fmt.Errorf("%s: no successful call to check", w.Name)
	}
	return h.Sum64(), checked, nil
}

// digestCall hashes a call's seed and packed verdict bits into h.
func digestCall(h hash.Hash64, seed uint64, verdicts []bool) {
	buf := binary.LittleEndian.AppendUint64(nil, seed)
	bits := make([]byte, (len(verdicts)+7)/8)
	for i, v := range verdicts {
		if v {
			bits[i/8] |= 1 << (i % 8)
		}
	}
	_, _ = h.Write(append(buf, bits...))
}

// commBytes is the communication per trial. On the cluster it is the exact
// wire byte count of an untimed call through a counting transport; on the
// SMP and CONGEST backends it is the message volume the model charges.
func (r *runner) commBytes(ctx context.Context, calls []callRecord) (float64, error) {
	if !r.w.clustered() {
		var msgs, trials int
		for _, c := range calls {
			if !c.failed {
				msgs += c.messages
				trials += c.trials
			}
		}
		return r.w.commBytesPerTrial(ratio(float64(msgs), float64(trials))), nil
	}
	t, err := newTracer(r.w)
	if err != nil {
		return 0, err
	}
	b, err := r.w.build(t)
	if err != nil {
		return 0, err
	}
	res, err := engine.Estimate(ctx, b, r.in.source, r.w.callTrials, r.w.options(callSeed(r.cfg.Seed, -100)))
	if err != nil {
		return 0, fmt.Errorf("bench: %s: counting call: %w", r.w.Name, err)
	}
	n := &t.net
	total := n.playerUp.Load() + n.playerDown.Load() + n.aggUp.Load() + n.aggDown.Load()
	return ratio(float64(total), float64(len(res.Rounds))), nil
}

func (r *runner) endToEndMetrics(reps []repStat, setupTimes []float64, comm float64) map[string]Metric {
	var rates, cpu, allocs, bytes []float64
	for _, st := range reps {
		n := float64(st.trials)
		rates = append(rates, st.rate())
		cpu = append(cpu, ratio(float64(st.cpu.Microseconds()), n))
		allocs = append(allocs, ratio(float64(st.mallocs), n))
		bytes = append(bytes, ratio(float64(st.bytes), n))
	}
	return map[string]Metric{
		"trials_per_s":          {median(rates), "trials/s"},
		"cpu_us_per_trial":      {median(cpu), "us"},
		"setup_s":               {median(setupTimes), "s"},
		"allocs_per_trial":      {median(allocs), "count"},
		"alloc_bytes_per_trial": {median(bytes), "B"},
		"comm_bytes_per_trial":  {comm, "B"},
	}
}

// layerMetrics assembles the per-layer metrics of a traced run. Counts and
// times are normalized per traced trial; fractions are shares of the CPU
// the process could have used (GOMAXPROCS times the traced wall time);
// waiter counts are total wait time over wall time, the mean number of
// goroutines waiting at once.
func (r *runner) layerMetrics(calls, tracedCalls []callRecord, reps, tracedReps []repStat, t *tracer, rt *rtDelta) (map[string]Metric, error) {
	w := r.w
	var trials, samples, messages, commRounds, retries, stragglers float64
	for _, c := range tracedCalls {
		trials += float64(c.trials)
		samples += float64(c.samples)
		messages += float64(c.messages)
		commRounds += float64(c.commRounds)
		retries += float64(c.retries)
		stragglers += float64(c.stragglers)
	}
	var wall float64
	var untracedRates, tracedRates []float64
	for _, st := range tracedReps {
		wall += st.wall.Seconds()
		tracedRates = append(tracedRates, st.rate())
	}
	for _, st := range reps {
		untracedRates = append(untracedRates, st.rate())
	}
	var callMs []float64
	for _, c := range calls {
		callMs = append(callMs, float64(c.wall)/1e6)
	}
	capacity := float64(runtime.GOMAXPROCS(0)) * wall

	nsPerDraw := r.drawCost()
	ruleNsPerCall, ruleAllocs, ruleBytes, err := r.ruleCost()
	if err != nil {
		return nil, err
	}
	ruleCalls := t.rule.calls()

	t.mu.Lock()
	chunks := append([]float64(nil), t.chunks...)
	firsts := append([]float64(nil), t.firsts...)
	chunkNs, scratches, goroutines := t.chunkNs, t.scratches, t.goroutines
	t.mu.Unlock()
	// Workers are busy while a chunk runs; each call starts one scratch
	// per worker, so scratches/calls is the workers a call used.
	workers := ratio(float64(scratches), float64(len(tracedCalls)))
	busy := ratio(float64(chunkNs)/1e9, workers*wall)

	distFrac := ratio(samples*nsPerDraw/1e9, capacity)
	ruleFrac := ratio(float64(ruleCalls)*ruleNsPerCall/1e9, capacity)
	sourceFrac := ratio(float64(t.sourceNs.Load())/1e9, capacity)
	gcFrac := ratio(rt.gc, rt.total)
	idleFrac := ratio(rt.idle, rt.total)
	// GC assists run inside allocations, which the timed rule calls and
	// draws already include, so the residual leaves them out of the GC
	// share. Layers timed by wall clock also absorb preemption, so the
	// residual can read below zero when they dominate.
	residual := 1 - idleFrac - (gcFrac - ratio(rt.assist, rt.total)) - ruleFrac - distFrac - sourceFrac
	// RoundResult.Messages counts CONGEST edge messages, but votes on
	// the other backends.
	congestMsgs := 0.0
	if w.kind == kindCongest {
		congestMsgs = messages
	}

	n := &t.net
	playerUp := float64(n.playerUp.Load())
	batches := 0.0
	for _, c := range tracedCalls {
		batches += float64((c.trials + w.batch - 1) / w.batch)
	}
	perTrial := func(x float64) float64 { return ratio(x, trials) }
	m := map[string]Metric{
		"engine.chunk_p50_ms":                 {percentile(chunks, 0.5), "ms"},
		"engine.chunk_p90_ms":                 {percentile(chunks, 0.9), "ms"},
		"engine.busy_frac":                    {busy, "frac"},
		"engine.first_chunk_ms":               {median(firsts), "ms"},
		"engine.source_ns_per_trial":          {perTrial(float64(t.sourceNs.Load())), "ns"},
		"engine.call_p50_ms":                  {percentile(callMs, 0.5), "ms"},
		"engine.call_p90_ms":                  {percentile(callMs, 0.9), "ms"},
		"dist.draws_per_trial":                {perTrial(samples), "count"},
		"dist.ns_per_draw":                    {nsPerDraw, "ns"},
		"dist.cpu_frac":                       {distFrac, "frac"},
		"core.rule_calls_per_trial":           {perTrial(float64(ruleCalls)), "count"},
		"core.rule_ns_per_call":               {ruleNsPerCall, "ns"},
		"core.rule_cpu_frac":                  {ruleFrac, "frac"},
		"core.rule_allocs_per_call":           {ruleAllocs, "count"},
		"core.rule_bytes_per_call":            {ruleBytes, "B"},
		"congest.comm_rounds_per_trial":       {perTrial(commRounds), "count"},
		"congest.messages_per_trial":          {perTrial(congestMsgs), "count"},
		"network.frames_per_trial":            {perTrial(float64(t.frames)), "count"},
		"network.root_frames_per_batch":       {ratio(float64(t.rootFr), batches), "count"},
		"network.player_up_bytes_per_trial":   {perTrial(playerUp), "B"},
		"network.player_down_bytes_per_trial": {perTrial(float64(n.playerDown.Load())), "B"},
		"network.agg_up_bytes_per_trial":      {perTrial(float64(n.aggUp.Load())), "B"},
		"network.agg_down_bytes_per_trial":    {perTrial(float64(n.aggDown.Load())), "B"},
		"network.vote_overhead":               {ratio(perTrial(playerUp)*8, float64(w.k*w.r)), "ratio"},
		"network.referee_writes_per_trial":    {perTrial(float64(n.writes.Load())), "count"},
		"network.bytes_per_write":             {ratio(float64(n.writeBytes.Load()), float64(n.writes.Load())), "B"},
		"network.blocked_writers":             {ratio(float64(n.writeNs.Load())/1e9, wall), "count"},
		"network.dials_per_trial":             {perTrial(float64(n.dials.Load())), "count"},
		"network.retries_per_ktrial":          {1000 * perTrial(retries), "count"},
		"network.stragglers_per_ktrial":       {1000 * perTrial(stragglers), "count"},
		"runtime.gc_cpu_frac":                 {gcFrac, "frac"},
		"runtime.idle_cpu_frac":               {idleFrac, "frac"},
		"runtime.sched_wait_p99_us":           {histPercentile(rt.sched, rt.buckets, 0.99) * 1e6, "us"},
		"runtime.mutex_waiters":               {ratio(rt.mutex, wall), "count"},
		"runtime.goroutines_peak":             {float64(goroutines), "count"},
		"runtime.peak_rss_mb":                 {peakRSSMiB(), "MiB"},
		"residual_cpu_frac":                   {residual, "frac"},
		"trace_overhead_frac":                 {1 - ratio(median(tracedRates), median(untracedRates)), "frac"},
	}
	fmt.Fprintf(r.log, "%s: engine.call_* over %d calls, engine.chunk_* over %d chunks\n", w.Name, len(callMs), len(chunks))
	for _, tail := range []struct {
		name string
		n    int
	}{{"engine.call_p90_ms", len(callMs)}, {"engine.chunk_p90_ms", len(chunks)}} {
		if tailPercentile(tail.n) < 0.9 {
			fmt.Fprintf(r.log, "%s: %s has fewer than ten samples beyond it\n", w.Name, tail.name)
		}
	}
	return m, nil
}

// drawCost times SampleInto(q) on the far sampler in isolation: the
// sampler is shared by every node, so its in-run cost is this replay
// times the exact in-run draw count.
func (r *runner) drawCost() float64 {
	q := max(r.w.q, 1)
	buf := make([]int, q)
	rng := rand.New(rand.NewPCG(r.cfg.Seed, 1))
	iters := max(r.w.isolatedRepeat*64/q, 16)
	start := time.Now()
	for i := 0; i < iters; i++ {
		dist.SampleInto(r.in.far, buf, rng)
	}
	return ratio(float64(time.Since(start).Nanoseconds()), float64(iters*q))
}

// ruleCost replays the bare local rule on far samples in isolation and
// returns its time, heap allocations and bytes per call.
func (r *runner) ruleCost() (ns, allocs, bytes float64, err error) {
	p, err := r.w.protocol()
	if err != nil {
		return 0, 0, 0, err
	}
	rule := p.Local()
	q := max(r.w.q, 1)
	rng := rand.New(rand.NewPCG(r.cfg.Seed, 2))
	iters := max(r.w.isolatedRepeat*16/q, 16)
	samples := make([][]int, 16)
	for i := range samples {
		samples[i] = make([]int, q)
		dist.SampleInto(r.in.far, samples[i], rng)
	}
	before := readProc()
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := rule.Message(i%r.w.k, samples[i%len(samples)], uint64(i), rng); err != nil {
			return 0, 0, 0, fmt.Errorf("bench: %s: rule replay: %w", r.w.Name, err)
		}
	}
	elapsed := time.Since(start)
	after := readProc()
	n := float64(iters)
	return float64(elapsed.Nanoseconds()) / n, float64(after.mallocs-before.mallocs) / n, float64(after.bytes-before.bytes) / n, nil
}
