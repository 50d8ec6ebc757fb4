package network

import (
	"context"
	"errors"
	"io"
	"math/bits"
	"math/rand/v2"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/distributed-uniformity/dut/internal/core"
	"github.com/distributed-uniformity/dut/internal/dist"
	"github.com/distributed-uniformity/dut/internal/engine"
)

// fakePlayer dials the listener and runs script against the connection;
// errors are ignored (the referee's verdict on the exchange is what the
// tests assert).
func fakePlayer(tr Transport, addr net.Addr, script func(conn net.Conn)) {
	conn, err := tr.Dial(addr)
	if err != nil {
		return
	}
	defer func() { _ = conn.Close() }()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	script(conn)
}

// fakeVote answers the next ROUND_BATCH with a VOTE_BATCH for player
// carrying the given planes, echoing the batch id and trial count.
func fakeVote(conn net.Conn, player uint32, planes ...uint64) error {
	rb, err := expectFrame[RoundBatch](conn, FrameRoundBatch)
	if err != nil {
		return err
	}
	return send(conn, VoteBatch{Player: player, Batch: rb.Batch, Count: rb.Count, Planes: planes})
}

// fakeCluster is a strict in-memory cluster for scripted players.
func fakeCluster(t *testing.T, k int, rule core.LocalRule, timeout time.Duration) *Cluster {
	t.Helper()
	c, err := NewCluster(ClusterConfig{K: k, Q: 1, Rule: rule, Referee: andReferee(), Timeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// refereeTrials runs a session of the given number of lock-step trials,
// a chunk of one trial each, whose players are the scripts, each dialing
// in on its own goroutine, and returns once the referee and every script
// are done.
func refereeTrials(t *testing.T, c *Cluster, trials int, players ...func(conn net.Conn)) ([]engine.RoundResult, error) {
	t.Helper()
	l, err := c.tr.Listen()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, script := range players {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fakePlayer(c.tr, l.Addr(), script)
		}()
	}
	ctx := context.Background()
	out := make([]engine.RoundResult, trials)
	bs, err := openBatchSession(ctx, c, l, nil)
	if err == nil {
		samplers := []dist.Sampler{uniformSampler(t, 1)}
		for i := range out {
			if err = bs.runChunk(ctx, 7, i, samplers, 1, out[i:i+1]); err != nil {
				break
			}
		}
		if closeErr := bs.Close(); err == nil {
			err = closeErr
		}
	}
	wg.Wait()
	return out, err
}

func TestRefereeRejectsDuplicatePlayerID(t *testing.T) {
	// Regression: two nodes claiming the same id used to both get slots,
	// with votes indexed by accept order.
	claimZero := func(conn net.Conn) {
		if err := send(conn, Hello{Player: 0, Bits: 1}); err != nil {
			return
		}
		_ = fakeVote(conn, 0, 1)
	}
	_, err := refereeTrials(t, fakeCluster(t, 2, acceptAllRule(), time.Second), 1, claimZero, claimZero)
	if err == nil || !strings.Contains(err.Error(), "duplicate player id") {
		t.Errorf("err = %v, want duplicate-player-id error", err)
	}
}

func TestRefereeRejectsOutOfRangePlayerID(t *testing.T) {
	// Regression: an id >= k used to be accepted silently.
	_, err := refereeTrials(t, fakeCluster(t, 1, acceptAllRule(), time.Second), 1, func(conn net.Conn) {
		_ = send(conn, Hello{Player: 5, Bits: 1})
	})
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("err = %v, want out-of-range error", err)
	}
}

func TestRefereeEnforcesAnnouncedBits(t *testing.T) {
	// Regression: a rule announcing 1 bit could send a wider message and
	// the referee would feed it to the decision function unchecked. The
	// vote's plane count is its width, so two planes from a player that
	// announced one bit fail the gather.
	_, err := refereeTrials(t, fakeCluster(t, 1, acceptAllRule(), time.Second), 1, func(conn net.Conn) {
		if err := send(conn, Hello{Player: 0, Bits: 1}); err != nil {
			return
		}
		_ = fakeVote(conn, 0, 0, 1)
	})
	if err == nil || !strings.Contains(err.Error(), "announced") {
		t.Errorf("err = %v, want bits-enforcement error", err)
	}
}

func TestRefereeNegotiatesMessageWidth(t *testing.T) {
	// The rule's width is pinned on the referee, so a node announcing a
	// different width in HELLO fails the handshake with a named-player,
	// named-widths error rather than a generic rejection.
	_, err := refereeTrials(t, fakeCluster(t, 1, treeTestRule{bits: 2}, time.Second), 1, func(conn net.Conn) {
		_ = send(conn, Hello{Player: 0, Bits: 7})
	})
	if err == nil {
		t.Fatal("width mismatch accepted, want handshake error")
	}
	for _, want := range []string{"player 0", "7-bit", "2-bit"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("err = %v, want it to name %q", err, want)
		}
	}
}

// TestRefereeRejectsVersion3Hello: a node still speaking version 3, the
// wire with the verdict downlink, fails the referee's accept phase on
// its first frame instead of joining a session whose verdicts it would
// wait for.
func TestRefereeRejectsVersion3Hello(t *testing.T) {
	_, err := refereeTrials(t, fakeCluster(t, 1, acceptAllRule(), time.Second), 1, func(conn net.Conn) {
		hello := AppendHello(nil, Hello{Player: 0, Bits: 1})
		hello[2] = 3
		_ = writeCoalesced(conn, hello)
	})
	if err == nil || !strings.Contains(err.Error(), "unsupported protocol version 3") {
		t.Errorf("err = %v, want the version error", err)
	}
}

func TestRefereeAcceptsFullWidthMessages(t *testing.T) {
	// A 64-bit announcement admits any message: 64 all-ones planes.
	planes := make([]uint64, 64)
	for i := range planes {
		planes[i] = 1
	}
	_, err := refereeTrials(t, fakeCluster(t, 1, treeTestRule{bits: 64}, time.Second), 1, func(conn net.Conn) {
		if err := send(conn, Hello{Player: 0, Bits: 64}); err != nil {
			return
		}
		if err := fakeVote(conn, 0, planes...); err != nil {
			return
		}
		_, _ = expectFrame[Finish](conn, FrameFinish)
	})
	if err != nil {
		t.Errorf("full-width message rejected: %v", err)
	}
}

// slowPlayer votes accept on each of rounds trials, taking 400 ms before
// each vote, then waits for FINISH and closes done.
func slowPlayer(rounds int, done chan<- struct{}) func(net.Conn) {
	return func(conn net.Conn) {
		if err := send(conn, Hello{Player: 0, Bits: 1}); err != nil {
			return
		}
		for r := 0; r < rounds; r++ {
			rb, err := expectFrame[RoundBatch](conn, FrameRoundBatch)
			if err != nil {
				return
			}
			time.Sleep(400 * time.Millisecond) // slow, but within the per-frame budget
			if err := send(conn, VoteBatch{Player: 0, Batch: rb.Batch, Count: 1, Planes: []uint64{1}}); err != nil {
				return
			}
		}
		if _, err := expectFrame[Finish](conn, FrameFinish); err != nil {
			return
		}
		close(done)
	}
}

func TestRefereeSurvivesSlowRound(t *testing.T) {
	// A vote that takes most of a timeout is within budget: the round is
	// decided, and the FINISH after it goes out under a fresh deadline.
	done := make(chan struct{})
	out, err := refereeTrials(t, fakeCluster(t, 1, acceptAllRule(), 600*time.Millisecond), 1, slowPlayer(1, done))
	if err != nil {
		t.Fatalf("slow round failed: %v", err)
	}
	if !out[0].Verdict {
		t.Error("verdict = reject, want accept")
	}
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Error("player never reached FINISH")
	}
}

func TestSessionSurvivesSlowRounds(t *testing.T) {
	// Same across lock-step rounds of one session: the slow votes outlast
	// one timeout together, but every frame wait is within budget, and
	// the session still ends with FINISH.
	const rounds = 2
	done := make(chan struct{})
	out, err := refereeTrials(t, fakeCluster(t, 1, acceptAllRule(), 600*time.Millisecond), rounds, slowPlayer(rounds, done))
	if err != nil {
		t.Fatalf("slow session round failed: %v", err)
	}
	for i, r := range out {
		if !r.Verdict {
			t.Errorf("round %d verdict = reject", i)
		}
	}
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Error("player never reached FINISH")
	}
}

// TestNodeRequiresStagedSamplers pins that a ROUND_BATCH whose batch has
// no samplers staged fails the node instead of voting on made-up samples.
func TestNodeRequiresStagedSamplers(t *testing.T) {
	node, err := NewPlayerNode(0, 1, acceptAllRule(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	stage := &samplerStage{m: make(map[uint32][]dist.Sampler)}
	referee, nodeConn := net.Pipe()
	defer func() { _ = referee.Close() }()
	served := make(chan error, 1)
	go func() { served <- node.serve(nodeConn, stage) }()
	_ = referee.SetDeadline(time.Now().Add(5 * time.Second))
	if err := send(referee, RoundBatch{Batch: 5, Count: 1, Base: 1}); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err == nil || !strings.Contains(err.Error(), "no samplers staged for batch 5") {
		t.Errorf("node error = %v, want the unstaged-batch error", err)
	}
}

// TestNodeDerivesCoinsFromTrialRange drives a real node from a scripted
// referee with a ROUND_BATCH that names trials 2^40 .. 2^40+64: every
// lane of its VOTE_BATCH must be the message the in-process SMP derives
// for public coin engine.SharedSeed(Base, First+j). The range covers a
// First past 32 bits and a count that is not a multiple of 64.
func TestNodeDerivesCoinsFromTrialRange(t *testing.T) {
	const (
		k, id, q, bits = 5, 3, 3, 5
		count          = 65
		base           = 0xba5e5eed
		first          = 1 << 40
	)
	rule := treeTestRule{bits: bits}
	smp, err := core.NewSMP(k, q, rule, core.SumThresholdReferee{Bits: bits, T: 1})
	if err != nil {
		t.Fatal(err)
	}
	node, err := NewPlayerNode(id, q, rule, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	sampler := uniformSampler(t, 16)
	samplers := make([]dist.Sampler, count)
	for j := range samplers {
		samplers[j] = sampler
	}
	stage := &samplerStage{m: make(map[uint32][]dist.Sampler)}
	stage.put(9, samplers)
	referee, nodeConn := net.Pipe()
	defer func() { _ = referee.Close() }()
	served := make(chan error, 1)
	go func() { served <- node.serve(nodeConn, stage) }()
	_ = referee.SetDeadline(time.Now().Add(5 * time.Second))
	if err := send(referee, RoundBatch{Batch: 9, Count: count, Base: base, First: first}); err != nil {
		t.Fatal(err)
	}
	vb, err := expectFrame[VoteBatch](referee, FrameVoteBatch)
	if err != nil {
		t.Fatal(err)
	}
	if vb.Player != id || vb.Batch != 9 || vb.Count != count || vb.Width() != bits {
		t.Fatalf("VOTE_BATCH player %d batch %d count %d width %d, want %d/9/%d/%d",
			vb.Player, vb.Batch, vb.Count, vb.Width(), id, count, bits)
	}
	words := batchWords(count)
	for j := 0; j < count; j++ {
		msgs, err := smp.RunMessagesSeeded(sampler, engine.SharedSeed(base, first+j))
		if err != nil {
			t.Fatal(err)
		}
		var got core.Message
		for b := 0; b < bits; b++ {
			got |= core.Message(vb.Planes[b*words+j/64]>>(j%64)&1) << b
		}
		if got != msgs[id] {
			t.Errorf("trial %d: node voted %#x, SMP derives %#x", first+j, got, msgs[id])
		}
	}
	if err := send(referee, Finish{}); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Errorf("node: %v", err)
	}
}

// TestNodeVoteCycleZeroAllocs guards the node's hot path: once its
// scratch is warm, answering a full ROUND_BATCH with its VOTE_BATCH —
// sampling, the rule, packing, the encode into the node's scratch and
// the write — allocates nothing. The stub conn discards writes and its
// deadlines allocate nothing, so the count is the node's own. Skipped under the race detector, whose
// instrumentation allocates.
func TestNodeVoteCycleZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const count = 256
	node, err := NewPlayerNode(3, 4, acceptAllRule(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	samplers := make([]dist.Sampler, count)
	for i := range samplers {
		samplers[i] = uniformSampler(t, 16)
	}
	stage := &samplerStage{m: make(map[uint32][]dist.Sampler)}
	stage.put(1, samplers)
	conn := &stubConn{}
	rb := RoundBatch{Batch: 1, Count: count, Base: 0x5eed}
	cycle := func() {
		if err := node.voteBatch(conn, rb, stage); err != nil {
			t.Fatal(err)
		}
		rb.First += count
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("a settled vote cycle allocates %.1f per batch", n)
	}
}

// TestNodeVoteCycleZeroAllocsAfterGC: a node counts collisions into
// counters it owns, so a vote cycle allocates nothing even right after
// garbage collection has emptied every sync.Pool. The node runs the
// r-bit quantized collision rule, whose shared value counts through a
// pooled statistic, and two collections — the first moves a pool's
// contents to its victim cache, the second drops them — precede every
// cycle. Only the cycle is counted, on one P: the collections allocate
// on their own account. The count is the cycles' total divided by their
// number, rounded down as testing.AllocsPerRun rounds, so a stray
// runtime allocation now and then does not fail it. Skipped under the
// race detector, whose instrumentation allocates.
func TestNodeVoteCycleZeroAllocsAfterGC(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const count, q = 256, 4
	rule, err := core.NewQuantizedCollisionRule(16, q, 3)
	if err != nil {
		t.Fatal(err)
	}
	node, err := NewPlayerNode(3, q, rule, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	samplers := make([]dist.Sampler, count)
	for i := range samplers {
		samplers[i] = uniformSampler(t, 16)
	}
	stage := &samplerStage{m: make(map[uint32][]dist.Sampler)}
	stage.put(1, samplers)
	conn := &stubConn{}
	rb := RoundBatch{Batch: 1, Count: count, Base: 0x5eed}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cycle := func() uint64 {
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := node.voteBatch(conn, rb, stage); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		rb.First += count
		return after.Mallocs - before.Mallocs
	}
	cycle()
	const cycles = 50
	var total uint64
	for range cycles {
		total += cycle()
	}
	if n := total / cycles; n != 0 {
		t.Errorf("a vote cycle after garbage collection allocates %d per batch (%d in %d cycles)", n, total, cycles)
	}
}

// BenchmarkVoteBatch times one node's vote over one 256-trial
// ROUND_BATCH with no transport, as votePlanes computes it for
// voteBatch: the seed pass, the sampling, the rule and the plane pack,
// in ns per trial. Its geometries are the cluster workloads': "tree" is
// cluster-tree's n = 64 and q = 4 under the 3-bit quantized rule,
// "short" cluster-short's q = 1 under the 4-bit [ACT18] hash, and
// "flat" cluster-flat's q = 22 under the [FMO18] 1-bit rule. As in
// dutbench, even trials sample the uniform distribution and odd trials
// a far one from the Section 3 hard family, both behind alias samplers.
// Run it by hand:
//
//	go test -run '^$' -bench VoteBatch -cpu 1 ./internal/network
func BenchmarkVoteBatch(b *testing.B) {
	const (
		n     = 64
		count = 256
		eps   = 0.5
	)
	h, err := dist.NewHardInstance(bits.Len(uint(n))-2, eps)
	if err != nil {
		b.Fatal(err)
	}
	z, err := dist.RandomPerturbation(h.Ell, rand.New(rand.NewPCG(36, 0xfa4)))
	if err != nil {
		b.Fatal(err)
	}
	nu, err := h.Perturbed(z)
	if err != nil {
		b.Fatal(err)
	}
	far, err := dist.NewAliasSampler(nu)
	if err != nil {
		b.Fatal(err)
	}
	null := uniformSampler(b, n)
	samplers := make([]dist.Sampler, count)
	for j := range samplers {
		samplers[j] = null
		if j%2 == 1 {
			samplers[j] = far
		}
	}
	quantized, err := core.NewQuantizedCollisionRule(n, 4, 3)
	if err != nil {
		b.Fatal(err)
	}
	hash, err := core.NewHashRule(n, 4)
	if err != nil {
		b.Fatal(err)
	}
	fmo, err := core.NewThresholdTester(core.ThresholdTesterConfig{N: n, K: 256, Q: 22, Eps: eps})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		q    int
		rule core.LocalRule
	}{
		{"tree", 4, quantized},
		{"short", 1, hash},
		{"flat", 22, fmo.Local()},
	} {
		node, err := NewPlayerNode(7, bc.q, bc.rule, time.Second)
		if err != nil {
			b.Fatal(err)
		}
		stage := &samplerStage{m: make(map[uint32][]dist.Sampler)}
		stage.put(1, samplers)
		rb := RoundBatch{Batch: 1, Count: count, Base: 0x5eed}
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := node.votePlanes(rb, stage); err != nil {
					b.Fatal(err)
				}
				rb.First += count
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*count), "ns/trial")
		})
	}
}

// TestNodeServeCycleZeroAllocs guards the node's whole frame loop over
// MemTransport's connection: once warm, a referee's ROUND_BATCH, the
// node's read, vote and write, and the referee's read of the VOTE_BATCH
// allocate nothing, counted process-wide so the node goroutine's reads
// and deadline re-arms count too. Skipped under the race detector, whose
// instrumentation allocates.
func TestNodeServeCycleZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const count = 256
	node, err := NewPlayerNode(3, 4, acceptAllRule(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	samplers := make([]dist.Sampler, count)
	for i := range samplers {
		samplers[i] = uniformSampler(t, 16)
	}
	stage := &samplerStage{m: make(map[uint32][]dist.Sampler)}
	stage.put(1, samplers)
	referee, nodeConn := newMemConn("test")
	served := make(chan error, 1)
	go func() { served <- node.serve(nodeConn, stage) }()
	fr := &frameReader{r: referee}
	var enc []byte
	rb := RoundBatch{Batch: 1, Count: count, Base: 0x5eed}
	cycle := func() {
		if enc, err = AppendRoundBatch(enc[:0], rb); err != nil {
			t.Fatal(err)
		}
		setWriteDeadline(referee, time.Minute)
		if err := writeCoalesced(referee, enc); err != nil {
			t.Fatal(err)
		}
		setReadDeadline(referee, time.Minute)
		if kind, err := fr.read(); err != nil || kind != FrameVoteBatch || fr.vote.Count != count {
			t.Fatalf("read = (%v, %v), want a %d-trial VOTE_BATCH", kind, err, count)
		}
		rb.First += count
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("a settled serve cycle allocates %.1f per batch", n)
	}
	if err := writeCoalesced(referee, AppendFinish(nil)); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Errorf("node: %v", err)
	}
	_ = referee.Close()
	_ = nodeConn.Close()
}

// TestNodeDetectsSilentReferee: only a node's first read waits out the
// referee's accept phase, with a three-timeout budget. Once the session
// runs, a referee that goes silent fails the node within its
// two-timeout read budget, well under two and a half timeouts.
func TestNodeDetectsSilentReferee(t *testing.T) {
	const timeout = 300 * time.Millisecond
	node, err := NewPlayerNode(0, 1, acceptAllRule(), timeout)
	if err != nil {
		t.Fatal(err)
	}
	stage := &samplerStage{m: make(map[uint32][]dist.Sampler)}
	stage.put(1, []dist.Sampler{uniformSampler(t, 1)})
	referee, nodeConn := net.Pipe()
	defer func() { _ = referee.Close() }()
	served := make(chan error, 1)
	go func() { served <- node.serve(nodeConn, stage) }()
	_ = referee.SetDeadline(time.Now().Add(5 * time.Second))
	if err := send(referee, RoundBatch{Batch: 1, Count: 1, Base: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := expectFrame[VoteBatch](referee, FrameVoteBatch); err != nil {
		t.Fatal(err)
	}
	silent := time.Now()
	select {
	case err := <-served:
		elapsed := time.Since(silent)
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("node error = %v, want a read deadline", err)
		}
		if elapsed >= 5*timeout/2 {
			t.Errorf("node noticed the silent referee after %v, want under %v", elapsed, 5*timeout/2)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("node never noticed the silent referee")
	}
}

// hostileFrame is one frame a tier may read from the tier above it
// that no version-4 sender writes there.
type hostileFrame struct {
	name  string
	frame []byte
	eof   bool   // the sender closes its end after frame
	want  string // in the reader's error
}

// hostileDownlink lists the frames a node or an aggregator must reject
// from the tier above: the retired verdict downlink, a version-3 frame,
// frames that only flow upward, and a ROUND_BATCH cut short by a
// closing peer.
func hostileDownlink(t *testing.T) []hostileFrame {
	t.Helper()
	enc := func(msg any) []byte {
		frame, err := encode(nil, msg)
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
	// raw is a version-4 header of type ft over payload, unchecked.
	raw := func(ft FrameType, payload ...byte) []byte {
		return append(appendHeader(nil, ft, len(payload)), payload...)
	}
	round := enc(RoundBatch{Batch: 2, Count: 1, Base: 1, First: 1})
	v3 := append([]byte(nil), round...)
	v3[2] = 3
	return []hostileFrame{
		{name: "retired VERDICT_BATCH", frame: raw(8,
			0, 0, 0, 1, 0, 0, 0, 1,
			0, 0, 0, 0, 0, 0, 0, 1), want: "unknown frame type 8"},
		{name: "retired AGG_VERDICT", frame: raw(13,
			0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 2,
			0, 0, 0, 0, 0, 0, 0, 1), want: "unknown frame type 13"},
		{name: "version-3 ROUND_BATCH", frame: v3, want: "unsupported protocol version 3"},
		{name: "HELLO", frame: enc(Hello{Player: 0, Bits: 1}), want: "unexpected HELLO"},
		{name: "VOTE_BATCH", frame: enc(VoteBatch{Player: 0, Batch: 1, Count: 1, Planes: []uint64{1}}), want: "unexpected VOTE_BATCH"},
		{name: "AGG_SUM", frame: enc(AggSum{Batch: 1, Count: 1, Bits: 1, Planes: 1, Present: 1, Sums: []uint64{1}}), want: "unexpected AGG_SUM"},
		{name: "truncated ROUND_BATCH", frame: round[:20], eof: true, want: io.ErrUnexpectedEOF.Error()},
	}
}

// TestNodeRejectsHostileDownlink: after voting on a batch, a node fails
// with an error naming itself and the cause on the first frame no
// version-4 referee sends it, and fails on that frame, not at its read
// deadline.
func TestNodeRejectsHostileDownlink(t *testing.T) {
	checkGoroutines(t)
	for _, tc := range hostileDownlink(t) {
		t.Run(tc.name, func(t *testing.T) {
			node, err := NewPlayerNode(0, 1, acceptAllRule(), 10*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			stage := &samplerStage{m: make(map[uint32][]dist.Sampler)}
			stage.put(1, []dist.Sampler{uniformSampler(t, 1)})
			referee, nodeConn := net.Pipe()
			defer func() { _ = referee.Close() }()
			served := make(chan error, 1)
			go func() {
				served <- node.serve(nodeConn, stage)
				_ = nodeConn.Close()
			}()
			_ = referee.SetDeadline(time.Now().Add(5 * time.Second))
			if err := send(referee, RoundBatch{Batch: 1, Count: 1, Base: 1}); err != nil {
				t.Fatal(err)
			}
			if _, err := expectFrame[VoteBatch](referee, FrameVoteBatch); err != nil {
				t.Fatal(err)
			}
			// The node may stop reading mid-frame, so the write can fail.
			_ = writeCoalesced(referee, tc.frame)
			if tc.eof {
				_ = referee.Close()
			}
			select {
			case err := <-served:
				if err == nil || !strings.Contains(err.Error(), "node 0") || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("node error = %v, want one naming node 0 and %q", err, tc.want)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("node still reading 5 s after the frame")
			}
		})
	}
}

// Referee kinds of the counter decide's differential test: the four
// stock rules under BitReferee, which read bit 0 of votes of any width,
// and the r-bit sum referee.
const (
	counterAND = iota
	counterOR
	counterMajority
	counterThreshold
	counterSum
	counterKinds
)

// checkCounterDecide decides one random batch through decideBatch and
// compares every trial's verdict and vote count with decideVotes on that
// trial's vote slate, rebuilt bit by bit from the delivered planes. The
// batch is decided twice: as the flat star, which reduces the delivered
// votes as one shard, and as a tree that reduces a random partition of
// them per shard and combines the partial sums. k, the referee kind, the
// vote width msgBits and the trial count are given; rng draws the rest:
// the referee's T, the quorum, the absentee policy, which players are
// present, their vote planes and the partition. It reports whether the
// batch had absentees.
func checkCounterDecide(t *testing.T, rng *rand.Rand, k, kind, msgBits, count int) bool {
	t.Helper()
	var referee core.Referee
	switch kind {
	case counterAND:
		referee = core.BitReferee{Rule: core.ANDRule{}}
	case counterOR:
		referee = core.BitReferee{Rule: core.ORRule{}}
	case counterMajority:
		referee = core.BitReferee{Rule: core.MajorityRule{}}
	case counterThreshold:
		referee = core.BitReferee{Rule: core.ThresholdRule{T: 1 + rng.IntN(k+1)}}
	default:
		referee = core.SumThresholdReferee{Bits: msgBits, T: 1 + rng.IntN(k*(1<<msgBits-1)+1)}
	}
	policies := []core.AbsenteePolicy{core.AbsenteeDefault, core.AbsenteeAccept, core.AbsenteeReject, core.AbsenteeOmit}
	minVotes := 1 + rng.IntN(k)
	c, err := NewCluster(ClusterConfig{
		K: k, Q: 1,
		Rule:      treeTestRule{bits: msgBits},
		Referee:   referee,
		MinVotes:  minVotes,
		Absentees: policies[rng.IntN(len(policies))],
	})
	if err != nil {
		t.Fatal(err)
	}
	words := batchWords(count)
	received := minVotes + rng.IntN(k-minVotes+1)
	deliv := make([][]uint64, k)
	for _, p := range rng.Perm(k)[:received] {
		planes := make([]uint64, msgBits*words)
		for i := range planes {
			planes[i] = rng.Uint64()
			if rem := count % 64; rem != 0 && i%words == words-1 {
				planes[i] &= 1<<rem - 1
			}
		}
		deliv[p] = planes
	}

	// The reference: decideVotes on every trial's slate.
	want := make([]engine.RoundResult, count)
	votes, got := make([]core.Message, k), make([]bool, k)
	for j := range want {
		for p, d := range deliv {
			votes[p], got[p] = 0, d != nil
			for b := 0; d != nil && b < msgBits; b++ {
				votes[p] |= core.Message(d[b*words+j/64]>>(j%64)&1) << b
			}
		}
		accept, recv, err := c.decideVotes(votes, got)
		if err != nil {
			t.Fatal(err)
		}
		want[j] = engine.RoundResult{Verdict: accept, Votes: recv}
	}

	flat := &batchSession{c: c}
	flat.initDecide()
	copy(flat.deliv, deliv)
	tree := &batchSession{c: c}
	tree.initDecide()
	shards := (Topology{Shards: 1 + rng.IntN(min(k, 8)), Seed: rng.Uint64()}).Partition(k)
	tree.aggs = make([]*aggregator, len(shards))
	tree.shardGot = make([]bool, len(shards))
	tree.shardSums = make([][]uint64, len(shards))
	for i, members := range shards {
		shard := make([][]uint64, len(members))
		for pos, p := range members {
			shard[pos] = deliv[p]
		}
		sums := make([]uint64, len(tree.planes)*words)
		tree.reduceShard(shard, count, make([]uint64, len(tree.planes)), sums)
		tree.shardGot[i], tree.shardSums[i] = true, sums
	}
	for _, side := range []struct {
		name string
		bs   *batchSession
	}{{"flat", flat}, {"tree", tree}} {
		if !side.bs.shaped {
			t.Fatalf("%T lost its shape at k=%d", referee, k)
		}
		out := make([]engine.RoundResult, count)
		if err := side.bs.decideBatch(count, received, out); err != nil {
			t.Fatalf("%s (%#v, r=%d, k=%d): %v", side.name, referee, msgBits, k, err)
		}
		for j := range out {
			if out[j].Verdict != want[j].Verdict || out[j].Votes != want[j].Votes {
				t.Fatalf("%s (%#v, r=%d, k=%d, %d present, quorum %d, policy %d, %d trials): trial %d decided %v with %d votes, decideVotes %v with %d",
					side.name, referee, msgBits, k, received, minVotes, c.absentees, count, j,
					out[j].Verdict, out[j].Votes, want[j].Verdict, want[j].Votes)
			}
		}
	}
	return received < k
}

// TestCounterDecideMatchesDecideVotes is the differential test of the
// shaped decide against the per-trial reference: checkCounterDecide on
// seeded random batches — k in [1, 70]; AND, OR, Majority and
// Threshold(T) over 1-bit votes and over r-bit votes (r in {2, 3, 8}, of
// which the counters must read plane 0 only), and r-bit sum thresholds;
// trial counts around the word boundaries.
func TestCounterDecideMatchesDecideVotes(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 0xdec1de))
	counts := []int{1, 2, 63, 64, 65, 130}
	sumWidths := []int{1, 2, 3, 5, 8}
	voteWidths := []int{2, 3, 8}
	const batches = 2048
	trials, withAbsentees := 0, 0
	for n := 0; n < batches; n++ {
		k := 1 + rng.IntN(70)
		kind := rng.IntN(counterKinds)
		msgBits := 1
		switch {
		case kind == counterSum:
			msgBits = sumWidths[rng.IntN(len(sumWidths))]
		case rng.IntN(2) == 0:
			msgBits = voteWidths[rng.IntN(len(voteWidths))]
		}
		count := counts[rng.IntN(len(counts))]
		trials += count
		if checkCounterDecide(t, rng, k, kind, msgBits, count) {
			withAbsentees++
		}
	}
	t.Logf("%d batches, %d trials, %d batches with absentees", batches, trials, withAbsentees)
}

// FuzzCounterDecide is checkCounterDecide over fuzzed batches: the four
// byte arguments pin k (1–256), the referee kind, the vote width (1–16)
// and the trial count (1–256), so the corpus can reach the word and
// counter-plane boundaries, and the seed drives the rest. Every trial's
// verdict and vote count, on the flat star and on the tree, must equal
// decideVotes.
func FuzzCounterDecide(f *testing.F) {
	f.Add(uint8(0), uint8(counterAND), uint8(0), uint8(0), uint64(1))
	f.Add(uint8(62), uint8(counterOR), uint8(1), uint8(63), uint64(2))
	f.Add(uint8(63), uint8(counterThreshold), uint8(2), uint8(64), uint64(3))
	f.Add(uint8(64), uint8(counterSum), uint8(7), uint8(128), uint64(4))
	f.Add(uint8(255), uint8(counterMajority), uint8(15), uint8(255), uint64(5))
	f.Add(uint8(127), uint8(counterSum), uint8(15), uint8(64), uint64(6))
	f.Fuzz(func(t *testing.T, k, kind, width, count uint8, seed uint64) {
		rng := rand.New(rand.NewPCG(seed, 0xc0de))
		checkCounterDecide(t, rng, 1+int(k), int(kind)%counterKinds, 1+int(width)%16, 1+int(count))
	})
}

// digestReferee is an opaque referee, neither threshold- nor sum-shaped.
// It accepts on one bit of a position-sensitive hash of every message it
// is handed and logs each hash, so a wrong bit anywhere in a decided
// slate shows in the log even where the verdict happens to agree.
type digestReferee struct{ log []uint64 }

func (r *digestReferee) Decide(msgs []core.Message) (bool, error) {
	h := uint64(len(msgs))
	for _, m := range msgs {
		h = (h ^ uint64(m)) * 0x9e3779b97f4a7c15
		h ^= h >> 31
	}
	r.log = append(r.log, h)
	return h&1 == 1, nil
}

// TestOpaqueDecideMatchesDecideVotes is the differential test of the
// opaque referee's decide, which unpacks each plane word into a
// trial-major block, against the per-trial reference: decideVotes on
// messages rebuilt from the delivered planes one bit at a time. It
// sweeps widths r in {1, 2, 3, 4, 7, 8, 33, 63, 64}, batch counts around
// the word boundaries up to the largest batch, k in [1, 70], random
// presence down to the quorum and every absentee policy. Each session
// decides three batches in a row, so a block row left over from an
// earlier word or batch cannot pass. Every trial's verdict and vote
// count, and the hash of every slate the referee was handed, must equal
// the reference's.
func TestOpaqueDecideMatchesDecideVotes(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 0x0a9e))
	policies := []core.AbsenteePolicy{core.AbsenteeDefault, core.AbsenteeAccept, core.AbsenteeReject, core.AbsenteeOmit}
	widths := []int{1, 2, 3, 4, 7, 8, 33, 63, 64}
	counts := []int{1, 63, 64, 65, 130, 256, 1024}
	const (
		sessions = 360
		batches  = 3
	)
	trials, withAbsentees := 0, 0
	for n := 0; n < sessions; n++ {
		k := 1 + rng.IntN(70)
		msgBits := widths[n%len(widths)]
		minVotes := 1 + rng.IntN(k)
		referee := &digestReferee{}
		c, err := NewCluster(ClusterConfig{
			K: k, Q: 1,
			Rule:      treeTestRule{bits: msgBits},
			Referee:   referee,
			MinVotes:  minVotes,
			Absentees: policies[n%len(policies)],
		})
		if err != nil {
			t.Fatal(err)
		}
		bs := &batchSession{c: c}
		bs.initDecide()
		if bs.shaped {
			t.Fatalf("session %d: the digest referee took a shaped decide", n)
		}
		for batch := 0; batch < batches; batch++ {
			count := counts[rng.IntN(len(counts))]
			words := batchWords(count)
			received := minVotes + rng.IntN(k-minVotes+1)
			deliv := make([][]uint64, k)
			for _, p := range rng.Perm(k)[:received] {
				planes := make([]uint64, msgBits*words)
				for i := range planes {
					planes[i] = rng.Uint64()
					if rem := count % 64; rem != 0 && i%words == words-1 {
						planes[i] &= 1<<rem - 1
					}
				}
				deliv[p] = planes
			}
			trials += count
			if received < k {
				withAbsentees++
			}

			// The reference: decideVotes on every trial's slate, rebuilt
			// bit by bit.
			want := make([]engine.RoundResult, count)
			votes, got := make([]core.Message, k), make([]bool, k)
			for j := range want {
				for p, d := range deliv {
					votes[p], got[p] = 0, d != nil
					for b := 0; d != nil && b < msgBits; b++ {
						votes[p] |= core.Message(d[b*words+j/64]>>(j%64)&1) << b
					}
				}
				accept, recv, err := c.decideVotes(votes, got)
				if err != nil {
					t.Fatal(err)
				}
				want[j] = engine.RoundResult{Verdict: accept, Votes: recv}
			}
			wantLog := referee.log
			referee.log = nil

			copy(bs.deliv, deliv)
			out := make([]engine.RoundResult, count)
			if err := bs.decideBatch(count, received, out); err != nil {
				t.Fatalf("session %d batch %d: %v", n, batch, err)
			}
			if len(referee.log) != count {
				t.Fatalf("session %d batch %d: the referee decided %d slates for %d trials", n, batch, len(referee.log), count)
			}
			for j := range out {
				if out[j].Verdict != want[j].Verdict || out[j].Votes != want[j].Votes || referee.log[j] != wantLog[j] {
					t.Fatalf("session %d batch %d (r=%d, k=%d, %d present, quorum %d, policy %d, %d trials): trial %d decided %v with %d votes on slate %#x, decideVotes %v with %d on %#x",
						n, batch, msgBits, k, received, minVotes, c.absentees, count, j,
						out[j].Verdict, out[j].Votes, referee.log[j], want[j].Verdict, want[j].Votes, wantLog[j])
				}
			}
			referee.log = nil
		}
	}
	t.Logf("%d sessions, %d trials, %d batches with absentees", sessions, trials, withAbsentees)
}
