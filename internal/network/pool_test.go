package network

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/distributed-uniformity/dut/internal/core"
	"github.com/distributed-uniformity/dut/internal/engine"
)

// The session pool suite: the cluster backend parks each quiesced,
// healthy session when a call ends and the next call takes it, so a
// sequence of calls pays for one set of dials. Reuse must be invisible
// to verdicts and to the frame counts a caller reads after a call;
// unhealthy, failed and cancelled sessions never park; idle sessions
// close on their timer; and Close leaves no goroutine behind.

// goroutineSettle bounds how long the baseline check waits for
// goroutines that are already unwinding when a test ends.
const goroutineSettle = 5 * time.Second

// testBackend adapts c to the engine and closes the backend, with the
// sessions it keeps between calls, when the test ends.
func testBackend(t *testing.T, c *Cluster) engine.Backend {
	t.Helper()
	b, err := NewBackend(c)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := b.(*clusterBackend).Close(); err != nil {
			t.Errorf("close backend: %v", err)
		}
	})
	return b
}

// checkGoroutines records the goroutine count when a test starts and,
// when the test ends, requires the count to come back to that baseline
// or below within goroutineSettle, failing with every goroutine's stack
// otherwise. Cleanups run last in, first out, so call it before
// registering the cleanups it must outlast, a backend's Close among
// them.
func checkGoroutines(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() { waitGoroutines(t, base) })
}

// waitGoroutines waits until at most base goroutines are running.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(goroutineSettle)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutines still running, baseline %d:\n%s", runtime.NumGoroutine(), base, buf)
		}
		time.Sleep(time.Millisecond)
	}
}

const (
	poolPlayers = 12
	poolShards  = 3
	poolTrials  = 20
)

// poolConfig is the suite's cluster: a majority vote over uniform
// random bits, so verdicts vary from trial to trial.
func poolConfig(tr Transport, shards int, timeout time.Duration) ClusterConfig {
	return ClusterConfig{
		K: poolPlayers, Q: treeSamples,
		Rule:      treeTestRule{bits: 1},
		Referee:   core.BitReferee{Rule: core.MajorityRule{}},
		Transport: tr,
		Timeout:   timeout,
		Shards:    shards,
	}
}

func poolCluster(t *testing.T, cfg ClusterConfig) *Cluster {
	t.Helper()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// poolCall runs one engine call and returns its results.
func poolCall(t *testing.T, b engine.Backend, trials int, opts engine.Options) []engine.RoundResult {
	t.Helper()
	results, err := engine.Run(context.Background(), b, engine.Fixed(uniformSampler(t, 16)), trials, opts)
	if err != nil {
		t.Fatalf("call with seed %#x: %v", opts.Seed, err)
	}
	return results
}

func poolVerdicts(results []engine.RoundResult) []bool {
	out := make([]bool, len(results))
	for i, r := range results {
		out[i] = r.Verdict
	}
	return out
}

// freshVerdicts is the reference a reused session must match: the same
// call on a fresh backend, and on the in-process SMP backend.
func freshVerdicts(t *testing.T, cfg ClusterConfig, trials int, opts engine.Options) (fresh, smp []bool) {
	t.Helper()
	cfg.Transport = NewMemTransport()
	fresh = poolVerdicts(poolCall(t, testBackend(t, poolCluster(t, cfg)), trials, opts))
	p, err := core.NewSMP(cfg.K, cfg.Q, cfg.Rule, cfg.Referee)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.BackendFor(p)
	if err != nil {
		t.Fatal(err)
	}
	return fresh, poolVerdicts(poolCall(t, ref, trials, opts))
}

func sameVerdicts(t *testing.T, name string, got, want []bool) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: trial %d verdict %v, want %v", name, i, got[i], want[i])
			return
		}
	}
}

// helloCounts sums the HELLO and AGG_HELLO frames over both tiers:
// CountingTransport files every listener after a session's first under
// the aggregator tier, so a second session's root counts there.
func helloCounts(ct *CountingTransport) (hellos, aggHellos uint64) {
	root, agg := ct.Snapshot()
	return root.Up[FrameHello] + agg.Up[FrameHello], root.Up[FrameAggHello] + agg.Up[FrameAggHello]
}

// countedBackend is a suite backend over a counted in-memory transport;
// listens counts every listener its sessions open.
func countedBackend(t *testing.T, shards int, timeout time.Duration) (engine.Backend, ClusterConfig, *CountingTransport, *listenCounter) {
	t.Helper()
	ct, err := NewCountingTransport(NewMemTransport())
	if err != nil {
		t.Fatal(err)
	}
	lc := &listenCounter{Transport: ct}
	cfg := poolConfig(lc, shards, timeout)
	return testBackend(t, poolCluster(t, cfg)), cfg, ct, lc
}

// sessionsOpened converts a listener count into sessions: each session
// listens once at the root and, on the tree, once per aggregator.
func sessionsOpened(lc *listenCounter, shards int) int {
	perSession := 1
	if shards > 1 {
		perSession += shards
	}
	return int(lc.listens.Load()) / perSession
}

// TestSessionPoolReusesSessions: two calls on one backend dial the
// players once per session that was ever live, not once per call, and
// each call decides exactly what a fresh backend and the SMP reference
// decide, on the flat star and the tree, for every batch shape, one and
// two workers, and a seed that changes between calls.
func TestSessionPoolReusesSessions(t *testing.T) {
	checkGoroutines(t)
	for _, topo := range []struct {
		name   string
		shards int
	}{{"flat", 0}, {"tree", poolShards}} {
		for _, shape := range []struct{ batch, window int }{{0, 0}, {1, 1}, {8, 2}} {
			for _, workers := range []int{1, 2} {
				name := fmt.Sprintf("%s/batch%d-window%d/workers%d", topo.name, shape.batch, shape.window, workers)
				t.Run(name, func(t *testing.T) {
					b, cfg, ct, lc := countedBackend(t, topo.shards, 10*time.Second)
					for call, seed := range []uint64{0x5eed1, 0x5eed2} {
						opts := engine.Options{Seed: seed, Workers: workers, Batch: shape.batch, Window: shape.window}
						got := poolVerdicts(poolCall(t, b, poolTrials, opts))
						fresh, smp := freshVerdicts(t, cfg, poolTrials, opts)
						sameVerdicts(t, fmt.Sprintf("call %d vs a fresh backend", call+1), got, fresh)
						sameVerdicts(t, fmt.Sprintf("call %d vs the SMP reference", call+1), got, smp)
					}
					sessions := sessionsOpened(lc, topo.shards)
					if sessions < 1 || sessions > workers {
						t.Errorf("two calls opened %d sessions, want 1..%d (one per worker ever live)", sessions, workers)
					}
					hellos, aggHellos := helloCounts(ct)
					if want := uint64(sessions * poolPlayers); hellos != want {
						t.Errorf("%d HELLO frames after two calls over %d session(s), want %d", hellos, sessions, want)
					}
					if want := uint64(sessions * topo.shards); aggHellos != want {
						t.Errorf("%d AGG_HELLO frames after two calls over %d session(s), want %d", aggHellos, sessions, want)
					}
				})
			}
		}
	}
}

// trialBarrier is a LocalRule that votes as the rule it wraps but, once
// armed, holds every vote until votes for two different trials have
// arrived: each trial has a public coin of its own. Armed for an engine
// call on two workers, it keeps one worker from running every trial
// alone while the other is still starting, so each worker takes a trial
// and opens its own session. It stays open until armed again. A held
// vote waits at most barrierPatience, so a call that never runs two
// trials at once fails its counts instead of hanging.
type trialBarrier struct {
	core.LocalRule
	mu      sync.Mutex
	started bool          // a trial has voted since the barrier was armed
	first   uint64        // that trial's public coin
	met     bool          // the barrier is open: two trials have met, or it was never armed
	open    chan struct{} // closed when an armed barrier opens
}

// barrierPatience bounds how long an armed barrier holds a vote.
const barrierPatience = 5 * time.Second

// arm closes the barrier until votes for two trials arrive.
func (b *trialBarrier) arm() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.met, b.started, b.open = false, false, make(chan struct{})
}

// Message implements core.LocalRule.
func (b *trialBarrier) Message(player int, samples []int, shared uint64, private *rand.Rand) (core.Message, error) {
	b.mu.Lock()
	open := b.open
	switch {
	case b.met:
	case !b.started:
		b.started, b.first = true, shared
	case shared != b.first:
		b.met = true
		close(b.open)
	}
	held := !b.met
	b.mu.Unlock()
	if held {
		select {
		case <-open:
		case <-time.After(barrierPatience):
		}
	}
	return b.LocalRule.Message(player, samples, shared, private)
}

// TestBackendForClusterTakesBatchPath: core.BackendFor hands a cluster
// its own batch backend. An engine estimate over it on two workers then
// opens one session per worker, which the engine's Close tears down
// once the workers have parked them, instead of dialing the k players
// for every trial; a trialBarrier makes both workers take a trial in
// every call. Over that backend the engine decides every trial exactly
// as network.NewBackend and the SMP reference do for the same seed, on
// the flat star and the tree.
func TestBackendForClusterTakesBatchPath(t *testing.T) {
	checkGoroutines(t)
	const workers = 2
	for _, topo := range []struct {
		name   string
		shards int
	}{{"flat", 0}, {"tree", poolShards}} {
		t.Run(topo.name, func(t *testing.T) {
			ct, err := NewCountingTransport(NewMemTransport())
			if err != nil {
				t.Fatal(err)
			}
			cfg := poolConfig(ct, topo.shards, 10*time.Second)
			barrier := &trialBarrier{LocalRule: cfg.Rule, met: true}
			cfg.Rule = barrier
			c := poolCluster(t, cfg)
			opts := engine.Options{Seed: 0x5eed3, Workers: workers}
			for call := 1; call <= 2; call++ {
				barrier.arm()
				b, err := core.BackendFor(c)
				if err != nil {
					t.Fatal(err)
				}
				e, err := engine.New(b, opts)
				if err != nil {
					t.Fatal(err)
				}
				_, err = e.Estimate(context.Background(), engine.Fixed(uniformSampler(t, 16)), poolTrials)
				if closeErr := e.Close(); err == nil {
					err = closeErr
				}
				if err != nil {
					t.Fatalf("call %d: %v", call, err)
				}
				hellos, aggHellos := helloCounts(ct)
				if want := uint64(call * workers * poolPlayers); hellos != want {
					t.Errorf("%d HELLO frames after %d call(s) on %d workers, want %d", hellos, call, workers, want)
				}
				if want := uint64(call * workers * topo.shards); aggHellos != want {
					t.Errorf("%d AGG_HELLO frames after %d call(s) on %d workers, want %d", aggHellos, call, workers, want)
				}
			}

			b, err := core.BackendFor(c)
			if err != nil {
				t.Fatal(err)
			}
			cb, ok := b.(*clusterBackend)
			if !ok {
				t.Errorf("BackendFor(cluster) = %T, want the cluster backend", b)
			} else {
				t.Cleanup(func() {
					if err := cb.Close(); err != nil {
						t.Errorf("close backend: %v", err)
					}
				})
			}
			got := poolVerdicts(poolCall(t, b, poolTrials, opts))
			fresh, smp := freshVerdicts(t, cfg, poolTrials, opts)
			sameVerdicts(t, "BackendFor vs NewBackend", got, fresh)
			sameVerdicts(t, "BackendFor vs the SMP reference", got, smp)
		})
	}
}

// TestSessionPoolQuiescesBeforeParking: a call returns only once its
// session has quiesced, so the frame counts read the moment it returns
// already hold every ROUND_BATCH of the call, although a slot writer
// counts a frame only after its write returns and can lag behind the
// vote the frame provoked. They hold no FINISH: the session is parked,
// not closed. Close then finishes it.
func TestSessionPoolQuiescesBeforeParking(t *testing.T) {
	checkGoroutines(t)
	const (
		batch, window = 4, 2
		trials        = 12
		calls         = 3
	)
	for _, shards := range []int{0, poolShards} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			b, _, ct, _ := countedBackend(t, shards, 10*time.Second)
			batches := uint64(trials / batch)
			for call := uint64(1); call <= calls; call++ {
				poolCall(t, b, trials, engine.Options{Seed: call, Workers: 1, Batch: batch, Window: window})
				root, agg := ct.Snapshot()
				rounds, finishes := root.Down[FrameRoundBatch], root.Down[FrameFinish]+agg.Down[FrameFinish]
				if shards > 1 {
					rounds = agg.Down[FrameRoundBatch]
					if got, want := root.Down[FrameRoundBatch], call*batches*poolShards; got != want {
						t.Errorf("after call %d the root wrote %d ROUND_BATCH frames, want %d", call, got, want)
					}
				}
				if want := call * batches * poolPlayers; rounds != want {
					t.Errorf("after call %d the players were sent %d ROUND_BATCH frames, want %d", call, rounds, want)
				}
				if finishes != 0 {
					t.Errorf("after call %d %d FINISH frames were sent to a parked session", call, finishes)
				}
			}
			if err := b.(*clusterBackend).Close(); err != nil {
				t.Fatal(err)
			}
			root, agg := ct.Snapshot()
			want := uint64(poolPlayers)
			if shards > 1 {
				want += poolShards
			}
			if got := root.Down[FrameFinish] + agg.Down[FrameFinish]; got != want {
				t.Errorf("Close sent %d FINISH frames, want %d", got, want)
			}
		})
	}
}

// TestSessionPoolDropsUnhealthySession: a quorum-mode session that lost
// a player is closed instead of parked, so the next call dials every
// player again and decides with all k, as a fresh backend does; and a
// session that fails while parked is closed by the next take, which
// opens a fresh one without failing the call.
func TestSessionPoolDropsUnhealthySession(t *testing.T) {
	checkGoroutines(t)
	const batch = 4
	opts := func(seed uint64) engine.Options {
		return engine.Options{Seed: seed, Workers: 1, Batch: batch, Window: 1}
	}
	t.Run("quorum absentee", func(t *testing.T) {
		// Player 2 crashes on its connection's second VOTE_BATCH: inside the
		// first call's second batch, and never within the second call's
		// single batch on a fresh connection.
		ft, err := NewFaultTransport(NewMemTransport(), FaultConfig{Plans: map[uint32]FaultPlan{2: {CrashAtRound: 2 * batch}}})
		if err != nil {
			t.Fatal(err)
		}
		ct, err := NewCountingTransport(ft)
		if err != nil {
			t.Fatal(err)
		}
		cfg := poolConfig(ct, 0, 10*time.Second)
		cfg.MinVotes = poolPlayers - 2
		b := testBackend(t, poolCluster(t, cfg))
		first := poolCall(t, b, 2*batch, opts(1))
		if got := first[batch].Votes; got != poolPlayers-1 {
			t.Fatalf("call 1 trial %d took %d votes, want %d: the crash did not fire", batch, got, poolPlayers-1)
		}
		second := poolCall(t, b, batch, opts(2))
		for i, r := range second {
			if r.Votes != poolPlayers || r.Stragglers != 0 {
				t.Errorf("call 2 trial %d: %d votes, %d stragglers; want all %d players", i, r.Votes, r.Stragglers, poolPlayers)
			}
		}
		fresh, smp := freshVerdicts(t, cfg, batch, opts(2))
		sameVerdicts(t, "call 2 vs a fresh backend", poolVerdicts(second), fresh)
		sameVerdicts(t, "call 2 vs the SMP reference", poolVerdicts(second), smp)
		if hellos, _ := helloCounts(ct); hellos != 2*poolPlayers {
			t.Errorf("%d HELLO frames, want %d: the unhealthy session must not be reused", hellos, 2*poolPlayers)
		}
	})
	t.Run("failed while parked", func(t *testing.T) {
		b, _, ct, _ := countedBackend(t, 0, 10*time.Second)
		poolCall(t, b, batch, opts(1))
		cb := b.(*clusterBackend)
		cb.mu.Lock()
		if len(cb.idle) != 1 {
			cb.mu.Unlock()
			t.Fatalf("%d sessions parked after one call, want 1", len(cb.idle))
		}
		parked := cb.idle[0].bs
		cb.mu.Unlock()
		parked.failSlot(parked.slots[3], errors.New("injected failure while parked"))
		second := poolCall(t, b, batch, opts(2))
		for i, r := range second {
			if r.Votes != poolPlayers {
				t.Errorf("call 2 trial %d: %d votes, want %d", i, r.Votes, poolPlayers)
			}
		}
		if hellos, _ := helloCounts(ct); hellos != 2*poolPlayers {
			t.Errorf("%d HELLO frames, want %d: take must replace a session that failed while parked", hellos, 2*poolPlayers)
		}
	})
}

// gateRule is the suite's rule with a gate: once armed, player 0's next
// vote announces itself on entered and blocks until release closes.
type gateRule struct {
	treeTestRule
	armed   atomic.Bool
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (r *gateRule) Message(player int, samples []int, shared uint64, private *rand.Rand) (core.Message, error) {
	if player == 0 && r.armed.Load() {
		r.once.Do(func() { close(r.entered) })
		<-r.release
	}
	return r.treeTestRule.Message(player, samples, shared, private)
}

// TestSessionPoolCancelledCallClosesSession: cancelling a call while a
// reused session is mid-chunk fails the call promptly, as it fails on a
// session of its own, and closes the session instead of parking it; the
// next call opens a fresh session and decides as a fresh backend does.
func TestSessionPoolCancelledCallClosesSession(t *testing.T) {
	checkGoroutines(t)
	ct, err := NewCountingTransport(NewMemTransport())
	if err != nil {
		t.Fatal(err)
	}
	rule := &gateRule{treeTestRule: treeTestRule{bits: 1}, entered: make(chan struct{}), release: make(chan struct{})}
	cfg := poolConfig(ct, 0, 10*time.Second)
	cfg.Rule = rule
	b := testBackend(t, poolCluster(t, cfg))
	opts := engine.Options{Seed: 1, Workers: 1, Batch: 4, Window: 2}
	poolCall(t, b, 8, opts)

	rule.armed.Store(true)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-rule.entered
		cancel()
	}()
	start := time.Now()
	_, err = engine.Run(ctx, b, engine.Fixed(uniformSampler(t, 16)), 8, opts)
	elapsed := time.Since(start)
	rule.armed.Store(false)
	close(rule.release)
	if err == nil {
		t.Fatal("a cancelled call succeeded")
	}
	// Exactly as on a session opened for the call, the chunk either sees
	// the cancellation before its gather starts or fails in the gather
	// with the transport error that closing the connections provokes.
	if !errors.Is(err, context.Canceled) && !isTransportErr(err) {
		t.Errorf("cancelled call failed with %v, want the cancellation or the transport error it provokes", err)
	}
	if elapsed > cfg.Timeout/2 {
		t.Errorf("cancelled call took %v to fail; it must not wait out a timeout (%v)", elapsed, cfg.Timeout)
	}

	opts.Seed = 3
	got := poolVerdicts(poolCall(t, b, 8, opts))
	cfg.Rule = treeTestRule{bits: 1}
	fresh, smp := freshVerdicts(t, cfg, 8, opts)
	sameVerdicts(t, "call after the cancel vs a fresh backend", got, fresh)
	sameVerdicts(t, "call after the cancel vs the SMP reference", got, smp)
	if hellos, _ := helloCounts(ct); hellos != 2*poolPlayers {
		t.Errorf("%d HELLO frames, want %d: a cancelled session must not be reused", hellos, 2*poolPlayers)
	}
}

// TestSessionPoolEvictsIdleSession: a parked session that no call takes
// within one timeout closes by itself, with no Close, and a later call
// dials afresh and succeeds.
func TestSessionPoolEvictsIdleSession(t *testing.T) {
	checkGoroutines(t)
	const timeout = 100 * time.Millisecond
	for _, shards := range []int{0, poolShards} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			base := runtime.NumGoroutine()
			ct, err := NewCountingTransport(NewMemTransport())
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewBackend(poolCluster(t, poolConfig(ct, shards, timeout)))
			if err != nil {
				t.Fatal(err)
			}
			opts := engine.Options{Seed: 1, Workers: 1, Batch: 4, Window: 2}
			for call := 1; call <= 2; call++ {
				poolCall(t, b, 8, opts)
				waitGoroutines(t, base)
				hellos, _ := helloCounts(ct)
				if want := uint64(call * poolPlayers); hellos != want {
					t.Errorf("after call %d: %d HELLO frames, want %d", call, hellos, want)
				}
			}
			root, agg := ct.Snapshot()
			want := uint64(2 * poolPlayers)
			if shards > 1 {
				want += 2 * poolShards
			}
			if got := root.Down[FrameFinish] + agg.Down[FrameFinish]; got != want {
				t.Errorf("eviction sent %d FINISH frames, want %d", got, want)
			}
		})
	}
}

// TestSessionPoolIgnoresStaleEviction: every park re-arms the session's
// one eviction timer, so a firing that a take was too late to stop finds
// the session parked again by the time it runs. The take counts it
// stale, and evict ignores it: the session stays parked and serves the
// next call. The test gives the parked session a timer that has fired
// already, so the take is too late to stop it, parks the session again
// and then plays the late firing; the next firing, a genuine one,
// evicts.
func TestSessionPoolIgnoresStaleEviction(t *testing.T) {
	checkGoroutines(t)
	b, _, _, lc := countedBackend(t, 0, 10*time.Second)
	cb := b.(*clusterBackend)
	opts := engine.Options{Seed: 1, Workers: 1, Batch: 4, Window: 1}
	parked := func() *parkedSession {
		t.Helper()
		cb.mu.Lock()
		defer cb.mu.Unlock()
		if len(cb.idle) != 1 {
			t.Fatalf("%d sessions parked, want 1", len(cb.idle))
		}
		return cb.idle[0]
	}
	poolCall(t, b, 4, opts)
	p := parked()
	fired := time.NewTimer(0)
	<-fired.C
	cb.mu.Lock()
	p.timer.Stop()
	p.timer = fired
	cb.mu.Unlock()
	bs := cb.take()
	if bs != p.bs {
		t.Fatal("take did not hand out the parked session")
	}
	cb.mu.Lock()
	stale := p.stale
	cb.mu.Unlock()
	if stale != 1 {
		t.Fatalf("a take too late to stop the eviction timer counted %d stale firings, want 1", stale)
	}
	if !cb.park(bs) {
		t.Fatal("the taken session did not park again")
	}
	cb.evict(p)
	if parked() != p {
		t.Fatal("a stale firing evicted the session parked again")
	}
	poolCall(t, b, 4, opts)
	if got := lc.listens.Load(); got != 1 {
		t.Errorf("%d sessions opened, want 1: a stale firing closed the parked session", got)
	}
	cb.evict(parked())
	cb.mu.Lock()
	idle := len(cb.idle)
	cb.mu.Unlock()
	if idle != 0 {
		t.Errorf("%d sessions parked after a genuine firing, want 0", idle)
	}
}

// TestSessionPoolClose: Close closes every parked session and returns
// the goroutine count to its baseline, a second Close is a no-op, and a
// session released after Close is closed, not parked.
func TestSessionPoolClose(t *testing.T) {
	checkGoroutines(t)
	base := runtime.NumGoroutine()
	b, _, _, lc := countedBackend(t, poolShards, 10*time.Second)
	cb := b.(*clusterBackend)
	opts := engine.Options{Seed: 1, Workers: 2, Batch: 2, Window: 2}
	poolCall(t, b, 16, opts)
	if err := cb.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base)
	if err := cb.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	before := lc.listens.Load()
	poolCall(t, b, 16, opts)
	if lc.listens.Load() == before {
		t.Error("a call after Close reused a session")
	}
	waitGoroutines(t, base)
	cb.mu.Lock()
	defer cb.mu.Unlock()
	if len(cb.idle) != 0 {
		t.Errorf("%d sessions parked after Close", len(cb.idle))
	}
}

// TestSessionPoolCloseRacesEvictionAndTake runs calls from several
// goroutines with pauses around the idle timeout, so takes, parks and
// evictions interleave, and closes the backend in the middle of them.
// Every call succeeds, and nothing outlives the final Close.
func TestSessionPoolCloseRacesEvictionAndTake(t *testing.T) {
	checkGoroutines(t)
	const (
		timeout = 200 * time.Millisecond
		callers = 3
		calls   = 4
	)
	b, err := NewBackend(poolCluster(t, poolConfig(NewMemTransport(), 0, timeout)))
	if err != nil {
		t.Fatal(err)
	}
	cb := b.(*clusterBackend)
	sampler := uniformSampler(t, 16)
	var wg sync.WaitGroup
	errs := make(chan error, callers*calls)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				opts := engine.Options{Seed: uint64(g*calls + i), Workers: 1, Batch: 4, Window: 1}
				if _, err := engine.Run(context.Background(), b, engine.Fixed(sampler), 4, opts); err != nil {
					errs <- err
				}
				// Pauses spread over one and a half timeouts, so some sessions
				// are taken while parked and some are evicted first.
				time.Sleep(time.Duration((g*calls+i)*37%300) * time.Millisecond)
			}
		}(g)
	}
	time.Sleep(2 * timeout)
	if err := cb.Close(); err != nil {
		t.Errorf("Close during calls: %v", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("call failed: %v", err)
	}
	if err := cb.Close(); err != nil {
		t.Errorf("final Close: %v", err)
	}
}

// stallTransport wraps the connection one player dials: once stalled is
// set, everything the referee sends that player is swallowed, so the
// player stops answering while its connection stays open.
type stallTransport struct {
	Transport
	player  uint32
	stalled atomic.Bool
}

func (s *stallTransport) DialPlayer(addr net.Addr, player uint32) (net.Conn, error) {
	conn, err := s.Transport.Dial(addr)
	if err != nil || player != s.player {
		return conn, err
	}
	return &stallConn{Conn: conn, stalled: &s.stalled}, nil
}

type stallConn struct {
	net.Conn
	stalled *atomic.Bool
}

// Read drops whatever arrives while the connection is stalled; only the
// read deadline, or the connection closing, ends the wait.
func (c *stallConn) Read(p []byte) (int, error) {
	for {
		n, err := c.Conn.Read(p)
		if err != nil || !c.stalled.Load() {
			return n, err
		}
	}
}

// TestSessionPoolStalledNodeFailsCall: in strict mode a node that stops
// answering in a reused session fails the call with its own read
// deadline error, and within the root gather's two-timeout budget: the
// node has waited since it parked, half a timeout before the call. The
// failed session is closed, and the next call dials afresh.
func TestSessionPoolStalledNodeFailsCall(t *testing.T) {
	checkGoroutines(t)
	const (
		timeout = 300 * time.Millisecond
		stalled = 3
	)
	lc := &listenCounter{Transport: NewMemTransport()}
	st := &stallTransport{Transport: lc, player: stalled}
	b := testBackend(t, poolCluster(t, poolConfig(st, 0, timeout)))
	opts := engine.Options{Seed: 1, Workers: 1, Batch: 4, Window: 1}
	poolCall(t, b, 8, opts)

	st.stalled.Store(true)
	time.Sleep(timeout / 2)
	start := time.Now()
	_, err := engine.Run(context.Background(), b, engine.Fixed(uniformSampler(t, 16)), 8, opts)
	elapsed := time.Since(start)
	st.stalled.Store(false)
	if err == nil {
		t.Fatal("a call with a stalled node succeeded")
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) || !strings.Contains(err.Error(), fmt.Sprintf("node %d read", stalled)) {
		t.Errorf("err = %v, want node %d's read deadline", err, stalled)
	}
	if budget := 2 * timeout; elapsed > budget {
		t.Errorf("the stalled node failed the call after %v, want within %v", elapsed, budget)
	}
	if got := lc.listens.Load(); got != 1 {
		t.Errorf("%d sessions opened before the stall, want 1 (the stall must hit the reused session)", got)
	}
	poolCall(t, b, 8, opts)
	if got := lc.listens.Load(); got != 2 {
		t.Errorf("%d sessions opened, want 2: the failed session must not be reused", got)
	}
}
