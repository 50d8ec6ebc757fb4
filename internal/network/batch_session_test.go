package network

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/distributed-uniformity/dut/internal/core"
	"github.com/distributed-uniformity/dut/internal/dist"
	"github.com/distributed-uniformity/dut/internal/engine"
)

// White-box coverage of the batch session's queueing and failure
// accounting: the frame queue's ping-pong buffers must stay at their
// high-water mark instead of growing with throughput, an empty chunk
// must leave accumulated connect retries for the next chunk's stats, and
// a strict-mode window where every slot dies must still surface the
// recorded node failure rather than the gathers' collateral EOFs.

func strictBatchCluster(t *testing.T, tr Transport) *Cluster {
	t.Helper()
	c, err := NewCluster(ClusterConfig{
		K:         4,
		Q:         1,
		Rule:      acceptAllRule(),
		Referee:   andReferee(),
		Transport: tr,
		Timeout:   time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestFrameQueueCapacityBounded cycles far more frames through the queue
// than its backing buffers could hold if consumed bytes were pinned (the
// old items[1:] advance) and checks both buffers stay at the per-cycle
// high-water mark.
func TestFrameQueueCapacityBounded(t *testing.T) {
	q := newFrameQueue()
	frame := AppendFinish(nil)
	const (
		cycles   = 10000
		perCycle = 4
	)
	var spare []byte
	for cycle := 0; cycle < cycles; cycle++ {
		for i := 0; i < perCycle; i++ {
			q.push(frame)
		}
		run, frames, ok := q.drain(spare)
		if !ok || frames != perCycle {
			t.Fatalf("cycle %d: drain = (%d frames, ok=%v), want %d frames", cycle, frames, ok, perCycle)
		}
		if len(run) != perCycle*len(frame) {
			t.Fatalf("cycle %d: drained %d bytes, want %d", cycle, len(run), perCycle*len(frame))
		}
		spare = run
	}
	// The steady state holds one cycle's worth of frames; allow generous
	// append-growth slack. cycles*perCycle*len(frame) = 320000 bytes have
	// passed through, so an unbounded queue would dwarf this.
	const bound = 1024
	if cap(q.buf) > bound || cap(spare) > bound {
		t.Errorf("queue buffers grew to cap %d / %d after %d frames, want <= %d",
			cap(q.buf), cap(spare), cycles*perCycle, bound)
	}
}

// TestFrameQueueCloseSemantics: pending frames drain after close, pushes
// after close are dropped, and a drained closed queue reports done.
func TestFrameQueueCloseSemantics(t *testing.T) {
	q := newFrameQueue()
	frame := AppendFinish(nil)
	q.push(frame)
	q.close()
	q.push(frame) // dropped: the queue is closed
	run, frames, ok := q.drain(nil)
	if !ok || frames != 1 || len(run) != len(frame) {
		t.Fatalf("drain after close = (%d bytes, %d frames, ok=%v), want the one pending frame", len(run), frames, ok)
	}
	if _, _, ok := q.drain(run); ok {
		t.Error("second drain on a closed empty queue reported ok")
	}
}

// TestBatchEmptyChunkPreservesRetries is the regression test for the
// zero-spec accounting bug: runChunk used to claim accumulated connect
// retries before checking whether any flight would carry them, silently
// dropping the count on an empty chunk.
func TestBatchEmptyChunkPreservesRetries(t *testing.T) {
	c := strictBatchCluster(t, NewMemTransport())
	bs, err := newBatchSession(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := bs.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	bs.addRetries(3)
	if err := bs.runChunk(context.Background(), 0, 0, nil, 4, nil); err != nil {
		t.Fatalf("empty chunk: %v", err)
	}
	out := make([]engine.RoundResult, 1)
	if err := bs.runChunk(context.Background(), 5, 0, []dist.Sampler{uniformSampler(t, 4)}, 4, out); err != nil {
		t.Fatalf("chunk: %v", err)
	}
	if out[0].Retries != 3 {
		t.Errorf("retries after an empty chunk = %d, want 3 (empty chunks must not swallow them)", out[0].Retries)
	}
}

// TestBatchChunkClaimsRetriesRecordedInFlight: a chunk claims connect
// retries once its first batch is gathered, so retries a node records
// before it votes on that batch land on the chunk's first trial. A node
// records its retries only after its HELLO is sent, so the referee can
// have registered it and issued the first ROUND_BATCH by then; a
// one-round RunStats would otherwise report none.
func TestBatchChunkClaimsRetriesRecordedInFlight(t *testing.T) {
	rule := &gateRule{treeTestRule: treeTestRule{bits: 1}, entered: make(chan struct{}), release: make(chan struct{})}
	rule.armed.Store(true)
	cfg := poolConfig(NewMemTransport(), 0, 10*time.Second)
	cfg.Rule = rule
	bs, err := newBatchSession(context.Background(), poolCluster(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := bs.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	go func() {
		<-rule.entered
		bs.addRetries(2)
		close(rule.release)
	}()
	out := make([]engine.RoundResult, 1)
	if err := bs.runChunk(context.Background(), 5, 0, []dist.Sampler{uniformSampler(t, 16)}, 1, out); err != nil {
		t.Fatalf("chunk: %v", err)
	}
	if out[0].Retries != 2 {
		t.Errorf("retries recorded while the batch was in flight = %d, want 2", out[0].Retries)
	}
}

// TestClosedSessionReportsTeardownRetries: a player whose every dial is
// dropped spends its retry budget after the quorum accept phase has
// ended, so its retries are recorded after the only trial was gathered.
// The session has an absent player and does not park; its worker's
// scratch closes it, waits for the player, and reports the two retries
// on the trial. Each RunStats opens and closes its own session.
func TestClosedSessionReportsTeardownRetries(t *testing.T) {
	ft, err := NewFaultTransport(NewMemTransport(), FaultConfig{Plans: map[uint32]FaultPlan{3: {DropDials: 100}}})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(ClusterConfig{
		K: 4, Q: 1, Rule: acceptAllRule(), Referee: andReferee(),
		Transport: ft, Timeout: 100 * time.Millisecond, MinVotes: 3,
		DialRetries: 2, RetryBackoff: 80 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := testRand(41)
	for call := 1; call <= 3; call++ {
		_, res, err := c.RunStats(context.Background(), uniformSampler(t, 16), rng)
		if err != nil {
			t.Fatal(err)
		}
		if res.Retries != 2 || res.Votes != 3 {
			t.Errorf("call %d: %d retries, %d votes; want 2 retries, 3 votes", call, res.Retries, res.Votes)
		}
		if got := ft.Stats().DialsDropped; got != 3*call {
			t.Errorf("call %d: %d dials dropped in all, want %d", call, got, 3*call)
		}
	}
}

// listenCounter counts the listeners a session opens on its transport.
type listenCounter struct {
	Transport
	listens atomic.Int32
}

func (l *listenCounter) Listen() (net.Listener, error) {
	l.listens.Add(1)
	return l.Transport.Listen()
}

// TestRunRoundsScratchRejectsNonConsecutiveChunk: a ROUND_BATCH names a
// trial range, so the backend enforces the engine's chunk contract —
// spec i is trial specs[0].Trial+i of seed specs[0].Seed — before it
// opens a session, and no other chunk can reach the wire.
func TestRunRoundsScratchRejectsNonConsecutiveChunk(t *testing.T) {
	s := uniformSampler(t, 4)
	for _, tc := range []struct {
		name  string
		specs []engine.RoundSpec
	}{
		{"gap", []engine.RoundSpec{{Trial: 4, Seed: 1, Sampler: s}, {Trial: 5, Seed: 1, Sampler: s}, {Trial: 7, Seed: 1, Sampler: s}}},
		{"reversed", []engine.RoundSpec{{Trial: 5, Seed: 1, Sampler: s}, {Trial: 4, Seed: 1, Sampler: s}}},
		{"repeated", []engine.RoundSpec{{Trial: 4, Seed: 1, Sampler: s}, {Trial: 4, Seed: 1, Sampler: s}}},
		{"mixed seeds", []engine.RoundSpec{{Trial: 4, Seed: 1, Sampler: s}, {Trial: 5, Seed: 2, Sampler: s}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := &listenCounter{Transport: NewMemTransport()}
			b := testBackend(t, strictBatchCluster(t, tr))
			bb := b.(engine.BatchBackend)
			scratch := bb.NewScratch()
			defer func() { _ = scratch.(io.Closer).Close() }()
			out := make([]engine.RoundResult, len(tc.specs))
			if err := bb.RunRoundsScratch(context.Background(), scratch, tc.specs, 4, out); !errors.Is(err, ErrChunkNotConsecutive) {
				t.Errorf("err = %v, want ErrChunkNotConsecutive", err)
			}
			if scratch.(*clusterScratch).batch != nil || tr.listens.Load() != 0 {
				t.Errorf("a rejected chunk opened a session (%d listeners)", tr.listens.Load())
			}
		})
	}
}

// TestBatchStrictAllSlotsCrash kills every player mid-window and checks
// the strict-mode teardown blames the recorded node crash, not one of
// the EOFs every concurrent gather dies with once the session unwinds.
func TestBatchStrictAllSlotsCrash(t *testing.T) {
	plans := map[uint32]FaultPlan{}
	for p := uint32(0); p < 4; p++ {
		plans[p] = FaultPlan{CrashAtRound: 2}
	}
	ft, err := NewFaultTransport(NewMemTransport(), FaultConfig{Plans: plans})
	if err != nil {
		t.Fatal(err)
	}
	c := strictBatchCluster(t, ft)
	b := testBackend(t, c)
	_, err = engine.Run(context.Background(), b, engine.Fixed(uniformSampler(t, 4)), 8,
		engine.Options{Seed: 5, Workers: 1, Batch: 2, Window: 2})
	if err == nil {
		t.Fatal("strict run with every player crashing succeeded")
	}
	if !strings.Contains(err.Error(), "crashed") {
		t.Errorf("err = %v, want the recorded player crash, not a collateral transport error", err)
	}
	// The first crash tears the strict session down, so how many of the
	// remaining players get to crash before their connections close is a
	// race — at least one must have fired.
	if fs := ft.Stats(); fs.Crashes < 1 {
		t.Errorf("crashes = %d, want at least 1", fs.Crashes)
	}
}

// TestFirstSlotErr exercises the gather-failure triage directly: a
// descriptive protocol violation beats collateral transport errors, the
// first transport error stands when that is all there is, and a gather
// that came up short with nothing recorded gets the explicit fallback.
func TestFirstSlotErr(t *testing.T) {
	eof := fmt.Errorf("network: vote batch from player 0: %w", io.EOF)
	desc := errors.New("network: player 1 answered batch 7, expected 3")
	for _, tc := range []struct {
		name  string
		slots []*batchSlot
		want  string
		exact error
	}{
		{name: "descriptive beats transport", slots: []*batchSlot{{err: eof}, {err: desc}}, exact: desc},
		{name: "transport only", slots: []*batchSlot{{}, {err: eof}}, exact: eof},
		{name: "nothing recorded", slots: []*batchSlot{{}, {}}, want: "no recorded slot failure"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bs := &batchSession{slots: tc.slots}
			got := bs.firstSlotErr()
			if tc.exact != nil && got != tc.exact {
				t.Errorf("firstSlotErr = %v, want %v", got, tc.exact)
			}
			if tc.want != "" && (got == nil || !strings.Contains(got.Error(), tc.want)) {
				t.Errorf("firstSlotErr = %v, want it to mention %q", got, tc.want)
			}
		})
	}
}

// TestRunChunkZeroAllocs guards a settled session's whole batch: one
// warm 256-trial batch through runChunk — the ROUND_BATCH broadcast,
// every node's read, vote and write, the slot readers' gathers, the
// aggregators' relay and reduce, and the decide — allocates nothing,
// counted process-wide so every tier's goroutines count. It covers the
// benchmark's cluster geometries: a k=4096 tree under 8 aggregators
// (AGG_SUM), a k=256 flat star and a k=514 ACT star, whose opaque
// referee decides every trial through decideVotes. Skipped under the
// race detector, whose instrumentation allocates.
func TestRunChunkZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const (
		n     = 64
		eps   = 0.5
		batch = 256
	)
	actPlayers := core.RecommendedACTPlayers(n, 4, eps)
	for _, tc := range []struct {
		name   string
		shards int
		runs   int
		tester func() (*core.SMP, error)
	}{
		{"tree k=4096 under 8 aggregators", 8, 5, func() (*core.SMP, error) {
			return core.NewQuantizedSumTester(n, 4096, 4, 3)
		}},
		{"flat star k=256", 0, 20, func() (*core.SMP, error) {
			return core.NewThresholdTester(core.ThresholdTesterConfig{N: n, K: 256, Q: core.RecommendedThresholdSamples(n, 256, eps), Eps: eps})
		}},
		{fmt.Sprintf("ACT star k=%d", actPlayers), 0, 20, func() (*core.SMP, error) {
			return core.NewACTTester(n, actPlayers, 4, eps)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := tc.tester()
			if err != nil {
				t.Fatal(err)
			}
			c, err := NewCluster(ClusterConfig{K: p.Players(), Q: p.MaxSamplesPerPlayer(), Rule: p.Local(), Referee: p.RefereeFunc(),
				Shards: tc.shards, Timeout: time.Minute})
			if err != nil {
				t.Fatal(err)
			}
			bs, err := newBatchSession(context.Background(), c)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := bs.Close(); err != nil {
					t.Error(err)
				}
			}()
			samplers := make([]dist.Sampler, batch)
			for i := range samplers {
				samplers[i] = uniformSampler(t, n)
			}
			out := make([]engine.RoundResult, batch)
			first := 0
			run := func() {
				if err := bs.runChunk(context.Background(), 1, first, samplers, batch, out); err != nil {
					t.Fatal(err)
				}
				first += batch
			}
			run()
			if allocs := testing.AllocsPerRun(tc.runs, run); allocs != 0 {
				t.Errorf("a warm %d-trial batch allocates %.1f", batch, allocs)
			}
		})
	}
}

// warmHandoffAllocs is what a warm engine call allocates to hand its
// session over: the engine's scratch (NewScratch) and the tie of the
// session to the call's context (hold's context.AfterFunc, two objects).
const warmHandoffAllocs = 3

// TestWarmCallReusesSamplerBuffer: a warm engine call on the cluster
// backend — a fresh scratch, as the engine builds for every call, that
// takes the parked session and releases it again — allocates as much for
// 64 trials as for one. The chunk's sampler buffer lives on the session,
// which outlives the call, so it does not regrow from nil per call. The
// 1-trial call allocates warmHandoffAllocs objects: quiesce waits on the
// session's own timer and park re-arms the session's own eviction timer,
// so neither allocates once the session has parked before. Skipped under
// the race detector, whose instrumentation allocates.
func TestWarmCallReusesSamplerBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	c, err := NewCluster(ClusterConfig{K: 4, Q: 1, Rule: acceptAllRule(), Referee: andReferee(), Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	b := testBackend(t, c).(*clusterBackend)
	const trials = 64
	specs := make([]engine.RoundSpec, trials)
	out := make([]engine.RoundResult, trials)
	sampler := uniformSampler(t, 16)
	first := 0
	call := func(n int) {
		for i := range specs[:n] {
			specs[i] = engine.RoundSpec{Trial: first + i, Seed: 1, Sampler: sampler}
		}
		first += n
		scratch := b.NewScratch()
		if err := b.RunRoundsScratch(context.Background(), scratch, specs[:n], trials, out[:n]); err != nil {
			t.Fatal(err)
		}
		if err := scratch.(io.Closer).Close(); err != nil {
			t.Fatal(err)
		}
	}
	call(trials)
	one := testing.AllocsPerRun(20, func() { call(1) })
	full := testing.AllocsPerRun(20, func() { call(trials) })
	if full != one {
		t.Errorf("a warm %d-trial call allocates %.1f, a 1-trial call %.1f", trials, full, one)
	}
	if one != warmHandoffAllocs {
		t.Errorf("a warm 1-trial call allocates %.1f, want %d", one, warmHandoffAllocs)
	}
}
